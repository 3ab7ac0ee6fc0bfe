"""The benchmark's span tracer must find every function it wraps in the package
and see the calls its coverage check expects."""

import importlib.util
from pathlib import Path

import phi4vqe.cli  # noqa: F401  (loads every module the tracer patches)
from phi4vqe import fock_space, vqe
from phi4vqe.lattice_model import ModelParams

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_binds():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        unbound = [name for name in tracer_module.TARGETS if not tracer.bindings.get(name)]
    finally:
        tracer.uninstall()
    assert unbound == []


def traced(call):
    """Run call() under the tracer; return {layer: [per-call value, ...]} of the recorded spans."""
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        call()
    finally:
        tracer.uninstall()
    values = {}
    for index, _start, _end, _parent, value in tracer.spans:
        values.setdefault(tracer.names[index], []).append(value)
    return values


def test_mass_gap_spans_sector_builds_and_eigensolves():
    params = ModelParams(L=2, m_sq=1.0, delta_m=-2.5, lam=6.0, n_max=4)
    values = traced(lambda: fock_space.mass_gap(params))
    # one build and one eigensolve per (Z2, P) sector, no parity blocking
    assert values["fock_space.build_H"] == [4, 4, 4, 4]
    assert len(values["fock_space.exact_spectrum"]) == 4
    assert "qubit_encoding.parity_blocks" not in values


def test_benchmark_sectors_spans_the_full_dim_16_build():
    params = ModelParams(L=2, m_sq=1.0, delta_m=-2.5, lam=6.0, n_max=4)
    vqe.benchmark_sectors.cache_clear()
    values = traced(lambda: vqe.benchmark_sectors(params))
    assert values["fock_space.build_H"] == [16]
    assert len(values["qubit_encoding.parity_blocks"]) == 1
