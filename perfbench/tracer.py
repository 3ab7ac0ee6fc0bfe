"""Span tracer that wraps phi4vqe's public functions from outside the package.

The package imports names directly (``vqe`` holds its own
``measure_pauli_density``, ``cli`` its own ``mass_gap_vqe``), so each wrapper
is bound at every module attribute that holds the original function; the
classmethod ``ReadoutCalibration.from_noise_model`` is wrapped on its class.
Spans record name, start, end and parent and stay in memory until the run
ends. A layer's self time is its spans' duration minus the time their child
spans cover.

Stdlib only: run.py imports this module to aggregate spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time


def _shots(args, kwargs, _result):
    return args[2] if len(args) > 2 else kwargs["shots"]


def _evals(_args, _kwargs, result):
    return len(result.history)


def _purification(_args, _kwargs, result):
    return [result[1].iterations, bool(result[1].converged)]


def _dim(_args, _kwargs, result):
    return int(result.shape[0])


# layer metric prefix -> (defining module, attribute, extractor of a per-call value)
TARGETS = {
    "cli.main": ("phi4vqe.cli", "main", None),
    "vqe.energy_objective": ("phi4vqe.vqe", "energy_objective", None),
    "vqe.optimize": ("phi4vqe.vqe", "optimize", _evals),
    "vqe.mass_gap_vqe": ("phi4vqe.vqe", "mass_gap_vqe", None),
    "vqe.mitigation_comparison": ("phi4vqe.vqe", "mitigation_comparison", None),
    "vqe.sector_minima": ("phi4vqe.vqe", "sector_minima", None),
    "circuit_sim.apply_circuit": ("phi4vqe.circuit_sim", "apply_circuit", None),
    "circuit_sim.expectation_exact": ("phi4vqe.circuit_sim", "expectation_exact", None),
    "circuit_sim.simulate_density": ("phi4vqe.circuit_sim", "simulate_density", None),
    "circuit_sim.measure_pauli": ("phi4vqe.circuit_sim", "measure_pauli", _shots),
    "circuit_sim.measure_pauli_density": ("phi4vqe.circuit_sim", "measure_pauli_density", _shots),
    "mitigation.ro_correct": ("phi4vqe.mitigation", "ro_correct", None),
    "mitigation.tomography_2q_detail": ("phi4vqe.mitigation", "tomography_2q_detail", None),
    "mitigation.mcweeny_purify": ("phi4vqe.mitigation", "mcweeny_purify", _purification),
    "mitigation.calibration": ("phi4vqe.mitigation", "ReadoutCalibration.from_noise_model", None),
    "qubit_encoding.parity_blocks": ("phi4vqe.qubit_encoding", "parity_blocks", None),
    "qubit_encoding.encode_matrix": ("phi4vqe.qubit_encoding", "encode_matrix", None),
    "fock_space.build_H": ("phi4vqe.fock_space", "build_H", _dim),
    "fock_space.exact_spectrum": ("phi4vqe.fock_space", "exact_spectrum", None),
    "fock_space.solve_counterterm": ("phi4vqe.fock_space", "solve_counterterm", None),
}


class Tracer:
    """Installs span-recording wrappers and restores the originals on uninstall."""

    def __init__(self) -> None:
        self.names = list(TARGETS)
        self.spans: list[list] = []  # [name index, start, end, parent index, value]
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, index: int, fn, extract=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                span[4] = extract(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "phi4vqe" or name.startswith("phi4vqe."))]
        for index, (layer, (module_name, attr, extract)) in enumerate(TARGETS.items()):
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, classmethod(self.wrap(index, original.__func__, extract)))
                self.bindings[layer] = [f"{module_name}.{attr}"]
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(index, original, extract)
            self.bindings[layer] = []
            for module in modules:
                for name in [n for n, v in vars(module).items() if v is original]:
                    self._patch(module, name, wrapper)
                    self.bindings[layer].append(f"{module.__name__}.{name}")

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def span_cost(calls: int = 20_000) -> float:
    """Seconds one span adds to a call, measured on an empty function."""
    def empty(*_args):
        return None

    probe = Tracer()
    wrapped = probe.wrap(0, empty)
    best = []
    for fn in (empty, wrapped, empty, wrapped, empty, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            fn(1, 2)
        best.append((time.perf_counter() - start) / calls)
        probe.spans.clear()
    return max(min(best[1::2]) - min(best[0::2]), 0.0)


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(names: list[str], spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics from the recorded spans, and the call count of every wrapped function."""
    child_time = [0.0] * len(spans)
    under_solve = [False] * len(spans)
    solve = names.index("fock_space.solve_counterterm")
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            under_solve[i] = under_solve[parent] or spans[parent][0] == solve
    calls = {n: 0 for n in names}
    self_s = {n: 0.0 for n in names}
    durations: dict[str, list[float]] = {n: [] for n in names}
    values: dict[str, list] = {n: [] for n in names}
    gap_evals = 0
    for i, (index, start, end, _, value) in enumerate(spans):
        name = names[index]
        calls[name] += 1
        self_s[name] += end - start - child_time[i]
        durations[name].append(end - start)
        if value is not None:
            values[name].append(value)
        if name == "fock_space.exact_spectrum" and under_solve[i]:
            gap_evals += 1

    m: dict[str, float] = {"cli.main.self_s": self_s["cli.main"]}
    for name in ("vqe.mitigation_comparison", "vqe.sector_minima"):
        m[f"{name}.self_s"] = self_s[name]
    for name in ("vqe.energy_objective", "vqe.optimize", "circuit_sim.apply_circuit",
                 "circuit_sim.expectation_exact", "circuit_sim.simulate_density",
                 "circuit_sim.measure_pauli", "circuit_sim.measure_pauli_density",
                 "mitigation.ro_correct", "mitigation.tomography_2q_detail",
                 "mitigation.mcweeny_purify", "mitigation.calibration",
                 "qubit_encoding.parity_blocks", "fock_space.build_H",
                 "fock_space.exact_spectrum", "fock_space.solve_counterterm"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["qubit_encoding.encode_matrix.calls"] = calls["qubit_encoding.encode_matrix"]
    m["vqe.energy_objective.ms_p50"] = 1e3 * _quantile(durations["vqe.energy_objective"], 0.5)
    m["vqe.energy_objective.ms_p99"] = 1e3 * _quantile(durations["vqe.energy_objective"], 0.99)
    m["vqe.optimize.evals_max"] = max(values["vqe.optimize"], default=0)
    m["vqe.optimize.evals_total"] = sum(values["vqe.optimize"])
    m["vqe.mass_gap_vqe.s_p50"] = _quantile(durations["vqe.mass_gap_vqe"], 0.5)
    m["vqe.mass_gap_vqe.s_max"] = max(durations["vqe.mass_gap_vqe"], default=0.0)
    m["circuit_sim.measure_pauli.shots"] = sum(values["circuit_sim.measure_pauli"])
    m["circuit_sim.measure_pauli_density.shots"] = sum(values["circuit_sim.measure_pauli_density"])
    dens = durations["circuit_sim.measure_pauli_density"]
    m["circuit_sim.measure_pauli_density.us_p50"] = 1e6 * _quantile(dens, 0.5)
    m["circuit_sim.measure_pauli_density.us_p99"] = 1e6 * _quantile(dens, 0.99)
    purif = values["mitigation.mcweeny_purify"]
    m["mitigation.mcweeny_purify.iterations_mean"] = (
        statistics.fmean(v[0] for v in purif) if purif else 0.0)
    m["mitigation.mcweeny_purify.converged_frac"] = (
        sum(v[1] for v in purif) / len(purif) if purif else 0.0)
    m["fock_space.build_H.max_dim"] = max(values["fock_space.build_H"], default=0)
    m["fock_space.solve_counterterm.gap_evals"] = gap_evals
    return m, calls
