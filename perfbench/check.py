"""Readers for the CLI's output files and the correctness checks against reference.json.

An operation is one output point: a (lambda, ansatz) point for ``vqe``, an
(n_max, lambda) point for ``spectrum``, a root for ``counterterm``, and a
curve point or a fit for ``critical``. It fails on a missing or non-finite
value or on a value outside the stored reference. The CLI's own verdicts
(within_tolerance, within_one_sigma) are not used: the product ansatz misses
the exact gap by design and one-sigma coverage misses a third of the points.

Stdlib only.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import lam_key


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _close(value, ref: float, atol: float, rtol: float = 0.0) -> bool:
    return _finite(value) and abs(value - ref) <= atol + rtol * abs(ref)


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))[1:]


def _num(cell: str) -> float:
    return float(cell) if cell != "" else math.nan


# ---------------------------------------------------------------- readers

def read_vqe(out: Path) -> list[dict]:
    with open(out / "record.json") as handle:
        return json.load(handle)["points"]


def read_spectrum(out: Path) -> dict[str, dict]:
    """'<n_max>/<lambda>' -> {"gap": float, "eigenvalues": [float, ...]}."""
    points: dict[str, dict] = {}
    with open(out / "record.json") as handle:
        for n_max, series in json.load(handle)["gaps"].items():
            for lam, gap in series:
                points[f"{n_max}/{lam_key(lam)}"] = {"gap": gap, "eigenvalues": []}
    for lam, n_max, _level, energy in _rows(out / "eigenvalues.csv"):
        points[f"{int(n_max)}/{lam_key(float(lam))}"]["eigenvalues"].append(_num(energy))
    return points


def read_counterterm(out: Path) -> dict:
    firstorder = [[_num(c) for c in row] for row in _rows(out / "firstorder.csv")]
    with open(out / "record.json") as handle:
        roots = {lam_key(r["lambda"]): {"root": r["delta_m_root"], "gap_at_root": r["gap_at_root"],
                                        "failure": r["failure"], "sweep": []}
                 for r in json.load(handle)["roots"]}
    for lam, delta, gap in _rows(out / "sweep.csv"):
        roots[lam_key(float(lam))]["sweep"].append([_num(delta), _num(gap)])
    return {"firstorder": firstorder, "roots": roots}


def read_critical(out: Path) -> dict:
    with open(out / "record.json") as handle:
        record = json.load(handle)
    fits = [{key: fit[key] for key in ("m0_sq", "lambda_c", "nu", "amplitude", "gaps")}
            for fit in record["fits"]]
    return {"curves": record["curves"], "fits": fits}


READERS = {"vqe": read_vqe, "spectrum": read_spectrum,
           "counterterm": read_counterterm, "critical": read_critical}


# ---------------------------------------------------------------- checks

def _check_vqe(points: list[dict], cfg: dict, ref: dict) -> list[str]:
    kind = cfg["backend"]["kind"]
    tol = ref["tolerances"]
    errors = []
    for p in points:
        where = f"vqe {kind} lambda={p['lambda']} {p['ansatz']}"
        sector = ref["sector"].get(lam_key(p["lambda"]))
        if sector is None:
            errors.append(f"{where}: no reference")
            continue
        fields = ["e0", "e1", "gap", "gap_err", "e0_exact", "e1_exact", "gap_exact"]
        if kind == "noisy_mitigated":
            fields.append("gap_raw")
        bad = [f for f in fields if not _finite(p.get(f))]
        if bad:
            errors.append(f"{where}: non-finite {bad}")
            continue
        wrong = [f"{name}_exact" for name in ("e0", "e1", "gap")
                 if not _close(p[f"{name}_exact"], sector[name], tol["dense_atol"])]
        if kind == "exact":
            want = ref["exact_vqe"][lam_key(p["lambda"])][p["ansatz"]]
            if not _close(p["gap"], want, tol["exact_vqe_atol"]):
                wrong.append(f"gap {p['gap']!r} (reference {want!r})")
        else:
            band = ref["bands"][kind][p["ansatz"]]
            if abs(p["gap"] - sector["gap"]) > band or p["gap_err"] < 0:
                wrong.append(f"gap {p['gap']!r} outside {sector['gap']!r} +- {band}")
        if wrong:
            errors.append(f"{where}: {', '.join(wrong)} differ from reference")
    return errors


def planned_ops(command: str, cfg: dict) -> int:
    """Operations a command's config asks for."""
    if command == "vqe":
        ansatz = cfg.get("ansatz", "entangled")
        return len(cfg["lambda_grid"]) * (len(ansatz) if isinstance(ansatz, list) else 1)
    if command == "spectrum":
        return len(cfg["n_max_values"]) * len(cfg["lambda_grid"])
    if command == "counterterm":
        return len(cfg["roots"]["lambda_values"])
    if command == "critical":
        curves = cfg["curves"]
        return len(curves["target_gap_sq_values"]) * len(curves["lambda_grid"]) + len(cfg["fits"])
    raise ValueError(f"unknown command {command!r}")


def check(command: str, cfg: dict, out: Path, ref: dict) -> tuple[list[str], object]:
    """One message per failed operation, and the parsed output.

    Raises OSError, KeyError, TypeError or ValueError when an output file is
    missing or malformed; the caller then counts every operation of the
    command as failed.
    """
    data = READERS[command](out)
    tol = ref["tolerances"]
    if command == "vqe":
        if len(data) != planned_ops(command, cfg):
            raise ValueError(f"expected {planned_ops(command, cfg)} vqe points, got {len(data)}")
        return _check_vqe(data, cfg, ref), data

    want = ref[command]
    errors = []
    if command == "spectrum":
        if set(data) != set(want):
            raise ValueError("spectrum points differ from the reference grid")
        for key, point in data.items():
            ok = (_close(point["gap"], want[key]["gap"], tol["dense_atol"])
                  and len(point["eigenvalues"]) == len(want[key]["eigenvalues"])
                  and all(_close(a, b, tol["dense_atol"])
                          for a, b in zip(point["eigenvalues"], want[key]["eigenvalues"])))
            if not ok:
                errors.append(f"spectrum {key}: differs from reference")
        return errors, data

    if command == "counterterm":
        first_ok = (len(data["firstorder"]) == len(want["firstorder"])
                    and all(len(a) == len(b) and all(_close(x, y, tol["dense_atol"], tol["dense_atol"])
                                                     for x, y in zip(a, b))
                            for a, b in zip(data["firstorder"], want["firstorder"])))
        for lam, root in want["roots"].items():
            got = data["roots"].get(lam)
            ok = (first_ok and got is not None and got["failure"] is None
                  and _close(got["root"], root["root"], tol["root_atol"])
                  and _close(got["gap_at_root"], root["gap_at_root"], tol["root_atol"])
                  and len(got["sweep"]) == len(root["sweep"])
                  and all(_close(a, c, tol["root_atol"]) and _close(b, d, tol["root_atol"])
                          for (a, b), (c, d) in zip(got["sweep"], root["sweep"])))
            if not ok:
                errors.append(f"counterterm root lambda={lam}: differs from reference"
                              + ("" if first_ok else " (first-order table differs)"))
        return errors, data

    if command == "critical":
        for target, points in want["curves"].items():
            got = data["curves"].get(target, [])
            for i, (lam, m0) in enumerate(points):
                if i >= len(got) or got[i][0] != lam or not _close(got[i][1], m0, tol["root_atol"]):
                    errors.append(f"critical curve {target} lambda={lam}: differs from reference")
        for i, fit in enumerate(want["fits"]):
            got = data["fits"][i] if i < len(data["fits"]) else None
            ok = (got is not None and got["m0_sq"] == fit["m0_sq"]
                  and all(_close(got[k], fit[k], 0.0, tol["fit_rtol"])
                          for k in ("lambda_c", "nu", "amplitude"))
                  and len(got["gaps"]) == len(fit["gaps"])
                  and all(_close(a, b, tol["dense_atol"]) for a, b in zip(got["gaps"], fit["gaps"])))
            if not ok:
                errors.append(f"critical fit m0_sq={fit['m0_sq']}: differs from reference")
        return errors, data

    raise ValueError(f"unknown command {command!r}")
