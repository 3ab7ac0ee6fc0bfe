"""Config-driven command line front end.

Four subcommands regenerate the study's data sets from JSON configs:
``spectrum`` (gap and eigenvalue grids over the coupling), ``counterterm``
(first-order curves, exact roots, gap-vs-shift sweeps), ``critical``
(critical curves and power-law fits), and ``vqe`` (sector benchmarks on the
exact, sampled, or noisy backends). Outputs are CSV curves plus one JSON
record per run; every float is serialized via repr so reruns with the same
config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .circuit_sim import NoiseModel, ReadoutCalibration
from .fock_space import (
    critical_curve,
    critical_exponent_fit,
    mass_gap,
    sector_spectrum,
    solve_counterterm,
)
from .lattice_model import (
    ModelParams,
    _int_in,
    _real,
    counterterm_continuum,
    counterterm_first_order,
)
from .vqe import (ANSATZE, BACKEND_KINDS, BackendSpec, benchmark_sectors, mass_gap_vqe,
                  mitigation_comparison, sector_minima)

SCHEMA = "phi4vqe/1"
ENERGY_UNIT = "lattice units"

__all__ = ["main", "entry", "check_config"]


# ---------------------------------------------------------------- plumbing

def _cell(value):
    """CSV cell: floats via repr for lossless round trips, None as empty."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _write_csv(out_dir: Path, record: dict, name: str, header: list[str], rows) -> None:
    """Write out_dir / name and list it in the record's outputs."""
    with open(out_dir / name, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    record["outputs"].append(name)


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (bool, np.bool_)):  # before int: bool is an int subclass
        return bool(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return None if math.isnan(v) else v
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    return value


def _write_json(path: Path, value) -> None:
    with open(path, "w") as handle:
        json.dump(_json_safe(value), handle, sort_keys=True, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------- config schema
#
# Each command's config is described by one table: key -> check for a required
# key, key -> Field(check, default) for one that may be left out. A check is a
# rule (value -> error message, or None when the value passes), a nested table
# for an object, or a ListOf for a nonempty list. The walker fills in every
# default, so the commands read each field by subscript.

OPTIONAL = object()  # Field default: the key may be left out and then stays absent


class Field(NamedTuple):
    check: object
    default: object


class ListOf(NamedTuple):
    item: object
    length: int | None = None  # the exact length, when it is fixed
    scalar_ok: bool = False  # a bare item stands for the one-item list


def _rule(predicate, message: str):
    return lambda value: None if predicate(value) else message


def _int_from(low: int, high: float = math.inf):
    bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
    return _rule(lambda v: _int_in(v, low, high + 1), f"must be an integer {bound}")


def _in_range(low: float, high: float):
    return _rule(lambda v: _real(v) and low <= v < high, f"must be a number in [{low}, {high})")


def _one_of(*names: str):
    return _rule(lambda v: v in names, "must be one of " + ", ".join(names))


NUMBER = _rule(_real, "must be a number")
POSITIVE = _rule(lambda v: _real(v) and v > 0, "must be a number > 0")
COUPLINGS = ListOf(_rule(lambda v: _real(v) and v >= 0, "coupling must be a number >= 0"))
BOOL = _rule(lambda v: isinstance(v, bool), "must be true or false")
SITES = _int_from(1)
N_MAX = _int_from(2)
SHOTS = _int_from(1, 2**63 - 1)  # the largest shot count a multinomial draw accepts
MODEL = {
    "L": SITES,
    "m_sq": POSITIVE,
    "m0_sq": Field(NUMBER, OPTIONAL),
    "delta_m": Field(NUMBER, OPTIONAL),
    "n_max": Field(N_MAX, OPTIONAL),
}
RATES = Field(ListOf(_in_range(0, 1), length=2), OPTIONAL)
BACKEND = {
    "kind": _one_of(*BACKEND_KINDS),
    "shots": Field(SHOTS, BackendSpec.shots),
    "calibration_shots": Field(SHOTS, BackendSpec.calibration_shots),
    "p_dep": Field(_in_range(0, 1), 0.02),
    "readout": Field(_in_range(0, 0.5), 0.03),
    "readout_p10": RATES,
    "readout_p01": RATES,
    "readout_correction": Field(BOOL, BackendSpec.readout_correction),
    "purification": Field(BOOL, BackendSpec.purification),
}
COMMON = {
    "seed": Field(_int_from(0), 0),
    "out_dir": Field(_rule(lambda v: isinstance(v, str), "must be a string"), "out"),
}
CONFIG_SCHEMAS = {
    "spectrum": dict(
        COMMON,
        model=MODEL,
        lambda_grid=COUPLINGS,
        n_max_values=ListOf(N_MAX),
        eigenvalue_count=Field(_int_from(1), 8),
    ),
    "counterterm": dict(
        COMMON,
        firstorder=Field({
            "m_sq_values": ListOf(POSITIVE),
            "L_values": ListOf(_rule(lambda v: v == "inf" or SITES(v) is None,
                                     'must be an integer >= 1 or "inf"')),
            "lambda_grid": COUPLINGS,
        }, OPTIONAL),
        roots=Field({
            "L": SITES,
            "m_sq": POSITIVE,
            "n_max": N_MAX,
            "target_m_sq": POSITIVE,
            "lambda_values": COUPLINGS,
            "sweep_points": Field(_int_from(2), 21),
            "sweep_halfwidth": Field(POSITIVE, 2.5),
        }, OPTIONAL),
    ),
    "critical": dict(
        COMMON,
        model={"L": SITES, "m_sq": POSITIVE, "n_max": N_MAX},
        curves=Field({"target_gap_sq_values": ListOf(POSITIVE), "lambda_grid": COUPLINGS},
                     OPTIONAL),
        fits=Field(ListOf({"m0_sq": NUMBER, "lambda_grid": COUPLINGS}), OPTIONAL),
        fit_window=Field(_int_from(4), 6),
    ),
    "vqe": dict(
        COMMON,
        model=dict(MODEL, n_max=N_MAX),
        lambda_grid=COUPLINGS,
        ansatz=Field(ListOf(_one_of(*ANSATZE), scalar_ok=True), "entangled"),
        backend=Field(BACKEND, {"kind": "exact"}),
    ),
}


def _walk(check, value, path: str, errors: list[str]):
    """Check ``value`` against ``check``, appending ``path: message`` errors.

    Returns a copy of the value with every default filled in and every bare
    item of a ``scalar_ok`` list wrapped in a list.
    """
    if isinstance(check, dict):
        if not isinstance(value, dict):
            errors.append(f"{path or 'config'}: must be an object")
            return value
        at = (lambda key: f"{path}.{key}") if path else (lambda key: key)
        errors += [f"{at(key)}: unknown key (known: {', '.join(check)})"
                   for key in value if key not in check]
        filled = {}
        for key, spec in check.items():
            inner = spec.check if isinstance(spec, Field) else spec
            if key in value:
                filled[key] = _walk(inner, value[key], at(key), errors)
            elif not isinstance(spec, Field):
                errors.append(f"{at(key)}: required")
            elif spec.default is not OPTIONAL:
                filled[key] = _walk(inner, spec.default, at(key), errors)
        return filled
    if isinstance(check, ListOf):
        if check.scalar_ok and not isinstance(value, list):
            value = [value]
        if not isinstance(value, list) or not value or len(value) != (check.length or len(value)):
            expected = f"list of {check.length} entries" if check.length else "nonempty list"
            errors.append(f"{path}: must be a {expected}")
            return value
        return [_walk(check.item, item, f"{path}[{i}]", errors) for i, item in enumerate(value)]
    message = check(value)
    if message:
        errors.append(f"{path}: {message}")
    return value


def check_config(command: str, given: dict) -> tuple[dict, list[str]]:
    """Check a command's config: (the config with every default filled in, errors).

    Each error reads ``path: message``. The rules that tie fields together run
    once every field has passed its own check. The backend rules read the
    backend as given, so a key left to its default counts as absent there.
    """
    errors: list[str] = []
    cfg = _walk(CONFIG_SCHEMAS[command], given, "", errors)
    if errors:
        return cfg, errors
    sections = {"counterterm": ("firstorder", "roots"), "critical": ("curves", "fits")}
    if command in sections and not any(key in cfg for key in sections[command]):
        errors.append(f"config: needs at least one of {', '.join(sections[command])}")
    if command in ("spectrum", "vqe") and ("m0_sq" in cfg["model"]) == ("delta_m" in cfg["model"]):
        errors.append("model: provide exactly one of m0_sq, delta_m")
    if "firstorder" in cfg and max(cfg["firstorder"]["m_sq_values"]) > 64:
        errors += [f"firstorder.L_values[{i}]: continuum formula needs m_sq <= 64"
                   for i, L in enumerate(cfg["firstorder"]["L_values"]) if L == "inf"]
    if "fits" in cfg:
        errors += [f"fits[{i}].lambda_grid: needs at least 4 points to fit"
                   for i, fit in enumerate(cfg["fits"]) if len(fit["lambda_grid"]) < 4]
        errors += [f"fits[{i}].lambda_grid: a coupling repeats"
                   for i, fit in enumerate(cfg["fits"])
                   if len(set(fit["lambda_grid"])) < len(fit["lambda_grid"])]
    if command == "vqe":
        n_max, L = cfg["model"]["n_max"], cfg["model"]["L"]
        if n_max % 2 or (n_max // 2)**L != 4:
            errors.append("model.n_max: the two-qubit ansatz needs 4-state (Z2, P) sectors "
                          "(0, 0) and (1, 0), which only (L, n_max) = (1, 8) and (2, 4) give; "
                          f"got ({L}, {n_max})")
    backend = given["backend"] if command == "vqe" and "backend" in given else {}
    if backend and backend["kind"] != "noisy_mitigated":
        # the exact backend reads only its kind, the sampled one also its shots
        allowed = ("kind", "shots") if backend["kind"] == "sampled" else ("kind",)
        errors += [f"backend.{key}: not allowed for the {backend['kind']} backend"
                   for key in backend if key not in allowed]
    elif "readout" in backend and ("readout_p10" in backend or "readout_p01" in backend):
        errors.append("backend: provide either readout or readout_p10/readout_p01, not both")
    elif ("readout_p10" in backend) != ("readout_p01" in backend):
        errors.append("backend: readout_p10 and readout_p01 must be given together")
    elif "readout_p10" in backend:
        rates = zip(backend["readout_p10"], backend["readout_p01"])
        errors += [f"backend: qubit {q} has readout_p10 + readout_p01 = {p10 + p01} >= 1"
                   for q, (p10, p01) in enumerate(rates) if p10 + p01 >= 1]
    return cfg, errors


def _model_params(model: dict, lam: float, n_max: int) -> ModelParams:
    if "m0_sq" in model:
        return ModelParams.from_bare(L=model["L"], m_sq=model["m_sq"],
                                     m0_sq=model["m0_sq"], lam=lam, n_max=n_max)
    return ModelParams(L=model["L"], m_sq=model["m_sq"], delta_m=model["delta_m"], lam=lam,
                       n_max=n_max)


def _backend_from_config(backend: dict) -> BackendSpec:
    if backend["kind"] == "exact":
        return BackendSpec("exact")
    if backend["kind"] == "sampled":
        return BackendSpec.sampled(shots=backend["shots"])
    uniform = [backend["readout"]] * 2
    rates = zip(backend.get("readout_p01", uniform), backend.get("readout_p10", uniform))
    noise = NoiseModel(ReadoutCalibration(tuple(rates)), p_dep=backend["p_dep"])
    return BackendSpec("noisy_mitigated", shots=backend["shots"], noise=noise,
                       readout_correction=backend["readout_correction"],
                       purification=backend["purification"],
                       calibration_shots=backend["calibration_shots"])


# ---------------------------------------------------------------- spectrum

def cmd_spectrum(cfg: dict, out_dir: Path, record: dict) -> None:
    model = cfg["model"]
    lambda_grid = [float(v) for v in cfg["lambda_grid"]]
    n_max_values = cfg["n_max_values"]

    by_point = {}
    for n_max in n_max_values:
        for lam in lambda_grid:
            spectrum = sector_spectrum(_model_params(model, lam, n_max))
            levels = [float(e) for e in spectrum.eigenvalues[:cfg["eigenvalue_count"]]]
            by_point[(n_max, lam)] = float(spectrum.gap), spectrum.degenerate, levels

    gap_header = ["lambda"] + [f"gap_nmax{n} ({ENERGY_UNIT})" for n in n_max_values]
    gap_rows = [[lam] + [by_point[(n, lam)][0] for n in n_max_values] for lam in lambda_grid]
    _write_csv(out_dir, record, "gaps.csv", gap_header, gap_rows)

    eig_rows = []
    for n_max in n_max_values:
        for lam in lambda_grid:
            for level, energy in enumerate(by_point[(n_max, lam)][2]):
                eig_rows.append([lam, n_max, level, energy])
    _write_csv(out_dir, record, "eigenvalues.csv",
               ["lambda", "n_max", "level", f"energy ({ENERGY_UNIT})"], eig_rows)

    record["gaps"] = {str(n): [[lam, by_point[(n, lam)][0]] for lam in lambda_grid]
                      for n in n_max_values}
    record["degenerate_points"] = [[n, lam] for n in n_max_values for lam in lambda_grid
                                   if by_point[(n, lam)][1]]


# ---------------------------------------------------------------- counterterm

def cmd_counterterm(cfg: dict, out_dir: Path, record: dict) -> None:
    if "firstorder" in cfg:
        first = cfg["firstorder"]
        lambda_grid = [float(v) for v in first["lambda_grid"]]
        columns = [(m_sq, L) for m_sq in first["m_sq_values"] for L in first["L_values"]]

        def delta_curve(m_sq: float, L, lam: float) -> float:
            if L == "inf":
                return counterterm_continuum(m_sq, lam)
            params = ModelParams(L=L, m_sq=m_sq, delta_m=0.0, lam=lam, n_max=2)
            return counterterm_first_order(params)

        header = ["lambda"] + [
            f"delta_m[m_sq={m_sq},L={L}] ({ENERGY_UNIT})" for m_sq, L in columns
        ]
        rows = [[lam] + [delta_curve(m_sq, L, lam) for m_sq, L in columns]
                for lam in lambda_grid]
        _write_csv(out_dir, record, "firstorder.csv", header, rows)

    if "roots" in cfg:
        roots_cfg = cfg["roots"]
        lambda_values = [float(v) for v in roots_cfg["lambda_values"]]
        target = float(roots_cfg["target_m_sq"])
        halfwidth = float(roots_cfg["sweep_halfwidth"])
        base = ModelParams(L=roots_cfg["L"], m_sq=roots_cfg["m_sq"], delta_m=0.0, lam=0.0,
                           n_max=roots_cfg["n_max"])

        def solve_point(lam: float):
            params = base.with_lam(lam)
            try:
                root = solve_counterterm(params, target)
            except ValueError as exc:
                return math.nan, math.nan, [], str(exc)
            gap_at_root = mass_gap(params.with_delta(root))
            sweep = []
            for delta in np.linspace(root - halfwidth, root + halfwidth,
                                     roots_cfg["sweep_points"]):
                sweep.append((float(delta), mass_gap(params.with_delta(float(delta)))))
            return root, gap_at_root, sweep, None

        solved = [solve_point(lam) for lam in lambda_values]

        root_rows = [[lam, root, gap] for lam, (root, gap, _, _) in zip(lambda_values, solved)]
        _write_csv(out_dir, record, "roots.csv",
                   ["lambda", f"delta_m_root ({ENERGY_UNIT})", f"gap_at_root ({ENERGY_UNIT})"],
                   root_rows)

        sweep_rows = []
        for lam, (_, _, sweep, _) in zip(lambda_values, solved):
            for delta, gap in sweep:
                sweep_rows.append([lam, delta, gap])
        _write_csv(out_dir, record, "sweep.csv",
                   ["lambda", f"delta_m ({ENERGY_UNIT})", f"gap ({ENERGY_UNIT})"],
                   sweep_rows)

        record["roots"] = [
            {"lambda": lam, "delta_m_root": root, "gap_at_root": gap, "failure": failure}
            for lam, (root, gap, _, failure) in zip(lambda_values, solved)
        ]


# ---------------------------------------------------------------- critical

def cmd_critical(cfg: dict, out_dir: Path, record: dict) -> None:
    model = cfg["model"]
    base = ModelParams(L=model["L"], m_sq=model["m_sq"], delta_m=0.0, lam=0.0,
                       n_max=model["n_max"])

    if "curves" in cfg:
        lambda_grid = [float(v) for v in cfg["curves"]["lambda_grid"]]
        targets = [float(t) for t in cfg["curves"]["target_gap_sq_values"]]
        curve_results = [critical_curve(lambda_grid, target, base) for target in targets]
        header = ["lambda"] + [f"m0_sq[target_gap_sq={t}] ({ENERGY_UNIT})" for t in targets]
        rows = []
        for i, lam in enumerate(lambda_grid):
            rows.append([lam] + [points[i][1] for points in curve_results])
        _write_csv(out_dir, record, "curve.csv", header, rows)
        record["curves"] = {
            repr(float(t)): [[lam, m0] for lam, m0, _ in points]
            for t, points in zip(targets, curve_results)
        }
        record["curve_failures"] = [
            {"target_gap_sq": t, "lambda": lam, "failure": failure}
            for t, points in zip(targets, curve_results)
            for lam, _, failure in points if failure is not None
        ]

    if "fits" in cfg:
        fits_payload = []
        for entry in cfg["fits"]:
            grid = [float(v) for v in entry["lambda_grid"]]
            gaps = []
            for lam in grid:
                params = ModelParams.from_bare(L=model["L"], m_sq=model["m_sq"],
                                               m0_sq=entry["m0_sq"], lam=lam,
                                               n_max=model["n_max"])
                gaps.append(mass_gap(params))
            fit = critical_exponent_fit(list(zip(grid, gaps)), window=cfg["fit_window"])
            fits_payload.append(dict(dataclasses.asdict(fit), m0_sq=entry["m0_sq"],
                                     lambda_grid=grid, gaps=gaps))
        _write_json(out_dir / "fits.json", fits_payload)
        record["outputs"].append("fits.json")
        record["fits"] = fits_payload


# ---------------------------------------------------------------- vqe

def cmd_vqe(cfg: dict, out_dir: Path, record: dict) -> None:
    model = cfg["model"]
    seed = record["seed"]
    backend = _backend_from_config(cfg["backend"])
    noisy = backend.kind == "noisy_mitigated"
    stochastic = backend.kind != "exact"
    verdict_key = "within_one_sigma" if stochastic else "within_tolerance"

    def run_point(index: int, lam: float, name: str):
        params = _model_params(model, lam, model["n_max"])
        point_seed = [seed, index]
        estimate = mass_gap_vqe(params, backend, ansatz=name, seed=point_seed)
        e0_exact, e1_exact, gap_exact = sector_minima(params)
        entry = {
            "lambda": lam,
            "ansatz": name,
            "seed": point_seed,
            "shots": backend.shots if stochastic else None,
            "e0": estimate.ground.energy,
            "e0_err": estimate.ground.uncertainty,
            "e1": estimate.excited.energy,
            "e1_err": estimate.excited.uncertainty,
            "gap": estimate.gap,
            "gap_err": estimate.gap_err,
            "e0_exact": e0_exact,
            "e1_exact": e1_exact,
            "gap_exact": gap_exact,
            "parameters": {
                "ground": list(estimate.ground.parameters),
                "excited": list(estimate.excited.parameters),
            },
            "evaluations": {
                "ground": len(estimate.ground.history),
                "excited": len(estimate.excited.history),
            },
        }
        tolerance = estimate.gap_err if stochastic else 1e-6
        entry[verdict_key] = bool(abs(estimate.gap - gap_exact) <= tolerance)
        if noisy:
            entry["calibration"] = {
                "ground": estimate.ground.calibration,
                "excited": estimate.excited.calibration,
            }
            entry["purification_iterations"] = {
                "ground": [r.iterations for r in estimate.ground.purification_reports],
                "excited": [r.iterations for r in estimate.excited.purification_reports],
            }
            comparison = {}
            for tag, result, child, sector in zip(("ground", "excited"),
                                                  (estimate.ground, estimate.excited),
                                                  (2, 3), benchmark_sectors(params)):
                comp = mitigation_comparison(sector, ANSATZE[name][0](*result.parameters),
                                             backend, seed=[seed, index, child])
                comparison[tag] = {
                    "e_exact_at_optimum": comp.e_exact,
                    "e_mitigated": comp.e_mitigated,
                    "e_raw": comp.e_raw,
                    "error_mitigated": abs(comp.e_mitigated - comp.e_exact),
                    "error_raw": abs(comp.e_raw - comp.e_exact),
                }
            entry["mitigation"] = comparison
            entry["gap_raw"] = (comparison["excited"]["e_raw"]
                                - comparison["ground"]["e_raw"])
        return entry

    points = [(float(lam), name) for lam in cfg["lambda_grid"] for name in cfg["ansatz"]]
    entries = [run_point(index, lam, name) for index, (lam, name) in enumerate(points)]

    columns = ("lambda", "ansatz", "e0", "e0_err", "e1", "e1_err", "gap", "gap_err",
               "e0_exact", "e1_exact", "gap_exact", verdict_key, "gap_raw")
    unitless = ("lambda", "ansatz", "e0_err", "e1_err", "gap_err")
    header = [c if c in unitless else "verdict" if c == verdict_key else f"{c} ({ENERGY_UNIT})"
              for c in columns]
    rows = [[("pass" if entry[c] else "fail") if c == verdict_key else entry.get(c)
             for c in columns] for entry in entries]
    _write_csv(out_dir, record, "benchmark.csv", header, rows)

    record["points"] = entries
    record["verdict"] = {
        "criterion": verdict_key,
        "points_passing": sum(1 for e in entries if e[verdict_key]),
        "points_total": len(entries),
    }


# ---------------------------------------------------------------- entry point

COMMANDS = {
    "spectrum": cmd_spectrum,
    "counterterm": cmd_counterterm,
    "critical": cmd_critical,
    "vqe": cmd_vqe,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every later main."""
    parser = argparse.ArgumentParser(
        prog="phi4vqe",
        description="Lattice scalar-field spectra, counterterms, critical fits, "
                    "and variational benchmarks from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory (overrides config out_dir)")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config seed)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.config) as handle:
            raw = json.load(handle)
    except OSError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"config: invalid JSON: {exc}", file=sys.stderr)
        return 1
    if not isinstance(raw, dict):
        print("config: top level must be a JSON object", file=sys.stderr)
        return 1

    flags = {"out_dir": args.out, "seed": args.seed}
    cfg, errors = check_config(args.command,
                               dict(raw, **{k: v for k, v in flags.items() if v is not None}))
    if errors:
        for message in errors:
            print(message, file=sys.stderr)
        return 1

    out_dir = Path(cfg["out_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"out_dir: {exc}", file=sys.stderr)
        return 1
    record = {"schema": SCHEMA, "command": args.command, "config": raw, "seed": cfg["seed"],
              "outputs": []}
    try:
        COMMANDS[args.command](cfg, out_dir, record)
        _write_json(out_dir / "record.json", record)
    except OSError as exc:
        print(f"{exc.filename or 'output'}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
