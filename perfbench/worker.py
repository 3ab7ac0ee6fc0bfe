"""One workload in one fresh process: set up, run CLI commands back to back, check them.

Started by run.py with the repository's ``src`` on PYTHONPATH and the BLAS
thread counts pinned to 1 in its environment. It prints ``ready`` once
``phi4vqe.cli`` is imported and the configs are written (the end of set-up);
with ``--setup-only`` it exits there. Untraced, it repeats the workload's units
until ``--seconds`` have passed: a further unit starts only while the longest
unit so far would still finish in time, and the first always runs. Traced, it
runs exactly one unit whatever ``--seconds`` says, so the per-layer counts are
a fixed amount of work and do not grow with the speed of the machine. Each
command's outputs go to the run's temporary directory, are checked against
reference.json and removed. The result, and with ``--trace 1`` the spans, are
written to the temporary directory as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def machine_stamp() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_command(cli, command: str, cfg: dict, config_path: Path, out: Path, ref: dict) -> dict:
    ops = check.planned_ops(command, cfg)
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        code = cli.main([command, "--config", str(config_path), "--out", str(out)])
    except Exception:  # a crash of one command fails its operations, the run goes on
        code, errors = None, [traceback.format_exc(limit=-1).strip().splitlines()[-1]]
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    entry = {"command": command, "wall_s": wall, "cpu_s": cpu, "exit": code, "ops": ops, "evals": 0,
             "output_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file())}
    data = None
    if code == 0:
        try:
            errors, data = check.check(command, cfg, out, ref)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            errors = [f"{command}: unreadable output: {exc!r}"]
    elif code is not None:
        errors = [f"{command}: exit code {code}"]
    if command == "vqe" and data:
        entry["evals"] = sum(p["evaluations"]["ground"] + p["evaluations"]["excited"] for p in data)
    entry["failed"] = ops if data is None else len(errors)
    entry["errors"] = errors[:5]
    shutil.rmtree(out, ignore_errors=True)
    return entry


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from phi4vqe import cli

    tmp = Path(args.tmp)
    config_dir = tmp / f"configs-{os.getpid()}"
    config_dir.mkdir(parents=True)
    configs = workloads.configs(args.workload, args.seed)
    for key, (_, cfg) in configs.items():
        (config_dir / f"{key}.json").write_text(json.dumps(cfg))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ref = json.loads((HERE / "reference.json").read_text())
    trace = None
    if args.trace:
        cost = tracer.span_cost()
        trace = tracer.Tracer()
        trace.install()
    units = []
    start = time.perf_counter()
    while True:
        longest = max((u["wall_s"] for u in units), default=0.0)
        if units and (trace or time.perf_counter() - start + longest > args.seconds):
            break
        unit_start = time.perf_counter()
        commands = []
        for key in workloads.UNITS[args.workload]:
            command, cfg = configs[key]
            out = tmp / "out" / f"{len(units)}-{key}"
            entry = run_command(cli, command, cfg, config_dir / f"{key}.json", out, ref)
            commands.append(dict(entry, key=key))
        units.append({"wall_s": time.perf_counter() - unit_start, "commands": commands})

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "units": units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_stamp(),
    }
    if trace:
        result["span_cost_s"] = cost
        result["bindings"] = trace.bindings
        (tmp / "spans.json").write_text(json.dumps({"names": trace.names, "spans": trace.spans}))
    (tmp / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
