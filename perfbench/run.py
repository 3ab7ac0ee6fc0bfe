"""Benchmark runner: runs one workload (or all) through ``phi4vqe.cli.main``.

Usage, from the root of a checkout (no install needed; ``src`` is put on the
workers' path):

    python3 perfbench/run.py --workload noisy_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh single-threaded process (BLAS threads pinned to 1,
the CLI's ``--threads`` never passed) after six more fresh processes have
timed set-up alone. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics from the traced run instead,
which does exactly one unit of the workload, and the layer-coverage
self-check must pass. A run, set-up included, is stopped and fails after
170 s. Every metric of the workload, its machine stamp and its evaluation
totals also go to standard error. The
exit code is 1 when an operation or a check fails, 2 when the checkout has no
``src/phi4vqe`` to benchmark. Temporary files live in ``.perfbench_tmp`` under
the checkout and are removed at exit.

Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7  # the workload process itself is the last one
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def _start(root: Path, args, tmp: Path, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its end of set-up; returns it and the set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        if line != "ready":
            raise BenchError("worker failed during set-up")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, time.perf_counter() - start


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def _ms_per_eval(result: dict, ref: dict, field: str) -> dict:
    """Per-unit CLI milliseconds per evaluation, and the per-backend figures.

    ``field`` picks the command's process CPU time (``cpu_s``) or its wall
    time (``wall_s``). VQE evaluations are the optimizer's objective
    evaluations as record.json reports them; on ideal_grid a unit's figure is
    the geometric mean of its exact and sampled commands. A fock_scan pass has
    a fixed input, so its evaluations are the Hamiltonian eigensolves the pass
    made when the reference was taken, and the figure moves with the pass's
    time.
    """
    per_unit = []
    per_backend: dict[str, list[float]] = {}
    for unit in result["units"]:
        cmds = unit["commands"]
        if any(c["failed"] for c in cmds):
            continue
        if result["workload"] == "fock_scan":
            per_unit.append(1e3 * sum(c[field] for c in cmds) / ref["fock_gap_evals_per_pass"])
            continue
        values = []
        for c in cmds:
            values.append(1e3 * c[field] / c["evals"])
            per_backend.setdefault(c["key"], []).append(values[-1])
        per_unit.append(math.exp(statistics.fmean(math.log(v) for v in values)))
    return {"median": statistics.median(per_unit) if per_unit else None,
            "per_backend": {k: statistics.median(v) for k, v in per_backend.items()}}


def _details(result: dict, ref: dict) -> dict:
    """Every CLI-level figure the workload yields, for the standard-error report."""
    cmds = [c for u in result["units"] for c in u["commands"]]
    attempted = sum(c["ops"] for c in cmds)
    failed = sum(c["failed"] for c in cmds)
    d: dict = {
        "units": len(result["units"]),
        "wall_s": sum(c["wall_s"] for c in cmds),
        "ops_attempted": attempted,
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "evaluations_total": sum(c["evals"] for c in cmds),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    for key in ("exact", "sampled"):
        chosen = [c["wall_s"] for c in cmds if c["key"] == key]
        if chosen:
            d[f"vqe_{key}_s"] = sum(chosen)
    for command in ("spectrum", "counterterm", "critical"):
        chosen = [c["wall_s"] for c in cmds if c["command"] == command]
        if chosen:
            d[f"{command}_s"] = statistics.median(chosen)
    wall = _ms_per_eval(result, ref, "wall_s")
    d["ms_per_eval"] = wall["median"]
    for backend, value in wall["per_backend"].items():
        d[f"ms_per_eval.{backend}"] = value
    for backend, value in _ms_per_eval(result, ref, "cpu_s")["per_backend"].items():
        d[f"cpu_ms_per_eval.{backend}"] = value
    d["evaluations_by_command"] = [[c["key"], c["evals"]] for c in cmds if c["command"] == "vqe"]
    d["errors"] = [e for c in cmds for e in c["errors"]][:10]
    return d


def _coverage(workload: str, calls: dict, metrics: dict, bindings: dict) -> list[str]:
    expect = workloads.COVERAGE[workload]
    problems = [f"{name}: no calls" for name in expect["called"] if calls[name] == 0]
    problems += [f"{name}: {calls[name]} calls, expected none" for name in expect["bypassed"]
                 if calls[name] != 0]
    if expect["max_dim"] is not None and metrics["fock_space.build_H.max_dim"] != expect["max_dim"]:
        problems.append(f"fock_space.build_H.max_dim is {metrics['fock_space.build_H.max_dim']}, "
                        f"expected {expect['max_dim']}")
    problems += [f"{name}: wrapper bound nowhere" for name, where in bindings.items() if not where]
    return problems


def run_workload(root: Path, args, spec: dict) -> tuple[dict, list[str], dict]:
    """Run one workload; returns the contract's result object, problems and details."""
    ref = json.loads((HERE / "reference.json").read_text())
    tmp = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    started = time.perf_counter()
    proc = None
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, elapsed = _start(root, args, tmp, setup_only=True)
            _finish(proc, 30.0)
            setups.append(elapsed)
        proc, elapsed = _start(root, args, tmp, setup_only=False)
        setups.append(elapsed)
        _finish(proc, RUN_LIMIT_S - (time.perf_counter() - started))
        result = json.loads((tmp / "result.json").read_text())
        spans = json.loads((tmp / "spans.json").read_text()) if args.trace else None
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()  # only when no other run is using it

    details = _details(result, ref)
    details.update(setup_samples_s=setups, machine=result["machine"])
    cmds = [c for u in result["units"] for c in u["commands"]]
    problems = list(details["errors"])
    if args.trace:
        metrics, calls = tracer.layer_metrics(spans["names"], spans["spans"])
        metrics["cli.output_bytes"] = sum(c["output_bytes"] for c in cmds)
        tracer_s = len(spans["spans"]) * result["span_cost_s"]
        metrics["trace.overhead_frac"] = tracer_s / (details["wall_s"] - tracer_s)
        problems += _coverage(args.workload, calls, metrics, result["bindings"])
        details["bindings"] = result["bindings"]
        names = spec["per_layer"]
    else:
        metrics = {
            "setup_s": min(setups),
            "cpu_ms_per_eval": _ms_per_eval(result, ref, "cpu_s")["median"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        names = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in names}
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    failed = sum(c["failed"] for c in cmds)
    out = {
        "correct": failed == 0 and not problems and None not in metrics.values(),
        "attempted": max(sum(c["ops"] for c in cmds), 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return out, problems, details


def _unit(name: str) -> str:
    if "ms_per_eval" in name:
        return "ms"
    for suffix, unit in (("_s", "s"), ("_frac", "frac"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def _report(workload: str, out: dict, problems: list[str], details: dict) -> None:
    print(f"== {workload}: correct={out['correct']} attempted={out['attempted']} "
          f"failed={out['failed']}", file=sys.stderr)
    for name, m in out["metrics"].items():
        print(f"  {name:<48} {m['value']!r} {m['unit']}", file=sys.stderr)
    for name, value in sorted(details.items()):
        if isinstance(value, (int, float)) and name not in out["metrics"]:
            print(f"  {name:<48} {value!r} {_unit(name)}", file=sys.stderr)
    print(f"  details {json.dumps(details, sort_keys=True)}", file=sys.stderr)
    for problem in problems:
        print(f"  FAILED {problem}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn a termination request into an exception so the worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "phi4vqe" / "cli.py").is_file():
        print("run.py: no src/phi4vqe here; run it from the root of a phi4vqe checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in chosen:
        try:
            out, problems, details = run_workload(root, argparse.Namespace(**dict(
                vars(args), workload=workload)), spec)
        except BenchError as exc:
            print(f"run.py: {workload}: {exc}", file=sys.stderr)
            return 1
        _report(workload, out, problems, details)
        results[workload] = out

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
