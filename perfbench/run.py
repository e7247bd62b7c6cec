"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program unmodified;
``--trace 1`` wraps each layer's public functions (see ``tracer.py``) and
reports the per-layer metrics instead.  Either way the outputs are checked,
a record with machine metadata is appended to ``perfbench/history.jsonl``,
and the last line of standard output is the JSON result.  ``spec.py``
documents every workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import asdict

from spec import END_TO_END, HISTORY, PER_LAYER, ROOT, SRC, WORK, WORKLOADS, require_source


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace) -> tuple[dict, dict]:
    """Run one workload; returns its summary and its parameters."""
    import grids
    import service_mix

    if args.workload == "service-mix":
        params = {name: getattr(service_mix, name) for name in (
            "POOL_SIZE", "FRESH_SHARE", "PROTOCOLS", "KS", "REPS", "POLL_S", "CLIENTS")}
        return service_mix.run(args.seed, args.seconds, bool(args.trace)), params
    params = grids.GRIDS[args.workload]
    return grids.run(params, args.seed, args.seconds, bool(args.trace)), asdict(params)


def environment() -> dict[str, object]:
    """Machine and source metadata carried by every history record."""
    import numpy

    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*command: str) -> str:
            return subprocess.run(["git", *command], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()

        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no", "--", "src"))
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit, "dirty": dirty, "source_sha256": source.hexdigest()[:16],
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
    }


def result_line(summary: dict, trace: bool) -> dict:
    declared = PER_LAYER if trace else END_TO_END
    metrics = dict(summary["metrics"])
    metrics["failed_frac"] = summary["failed"] / summary["attempted"]
    missing = [metric.name for metric in declared if metric.name not in metrics]
    if missing:
        raise RuntimeError(f"run produced no value for {missing}")
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m.name: {"value": float(metrics[m.name]), "unit": m.unit} for m in declared},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    require_source()
    WORK.mkdir(exist_ok=True)
    try:
        summary, params = run_workload(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    result = result_line(summary, bool(args.trace))
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": params, "env": environment(),
        "digests": summary["digests"], "budget": summary.get("budget"),
        "unscaled": summary.get("unscaled"),
        "clients": summary.get("clients"), "ops": summary.get("ops"), "result": result,
    }
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)  # noqa: T201
    print(f"digests: {summary['digests']}", file=sys.stderr)  # noqa: T201
    print(json.dumps(result))  # noqa: T201 - the result line
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
