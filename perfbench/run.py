"""Scan-cycle benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-cold --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One process runs one workload as a closed loop with one client: each
timed cycle starts when the previous one ends.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates traced and untraced cycles
and prints the per-layer metrics (``tracer.py``).  Every verdict with an
expected value is checked against ``oracle.py``.  The last line of
standard output is one JSON object; each run also appends a record to
``perfbench/trajectory.jsonl``.  ``--workload all`` runs every workload
in a process of its own and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from measure import measure
from tracer import LAYER_UNITS, trace_run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
TRAJECTORY = BENCH_DIR / "trajectory.jsonl"

END_TO_END_UNITS = {
    "cycle_ms_p50": "ms",
    "cycle_ms_p75": "ms",
    "entities_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
    "wrong_verdicts": "count",
}
#: Raw figures printed and recorded next to the end-to-end metrics.
RAW_UNITS = {
    "wall_ms_p50": "ms",
    "wall_ms_p75": "ms",
    "cycle_ms_p80": "ms",
    "calibration_ms_median": "ms",
    "setup_s_first": "s",
}
#: Must read 0; the JSON line carries them as ``failed`` and ``correct``.
ZERO_METRICS = ("failed_ratio", "wrong_verdicts")


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            metrics, run, self_test = trace_run(workload, args.seconds,
                                                OUT_DIR, args.seed)
            units, raw = LAYER_UNITS, {}
        else:
            metrics, raw, run, self_test = measure(workload, args.seconds)
            units = END_TO_END_UNITS
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    correct = self_test and run.wrong == 0 and run.checked > 0
    with TRAJECTORY.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "commit": commit_id(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "cycles": len(run.walls),
            "verdicts_checked": run.checked,
            "oracle_self_test": self_test,
            "correct": correct,
            "metrics": metrics,
            "raw": raw,
        }, sort_keys=True) + "\n")

    print(f"# {args.workload} seed={args.seed} cycles={len(run.walls)} "
          f"verdicts_checked={run.checked} oracle_self_test={self_test}")
    for name, value in {**metrics, **raw}.items():
        print(f"{name:40s} {value:14.4f} {units.get(name) or RAW_UNITS[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items() if name not in ZERO_METRICS
        },
    }))
    return 0


def run_all(args, workloads) -> int:
    """Every workload in a process of its own, so none inherits another's
    memory high-water mark; then one table of all their metrics."""
    table: dict[str, dict[str, str]] = {}
    units: dict[str, str] = {}
    for name in workloads:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, capture_output=True, text=True,
                                   check=False)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            return completed.returncode
        print(completed.stdout, end="")
        table[name] = {}
        for line in completed.stdout.splitlines():
            fields = line.split()
            if len(fields) == 3 and not line.startswith(("#", "{")):
                metric, value, unit = fields
                table[name][metric] = value
                units[metric] = unit
    print(f"\n{'metric':40s} {'unit':>6s} "
          + " ".join(f"{name:>14s}" for name in table))
    for metric, unit in units.items():
        print(f"{metric:40s} {unit:>6s} " + " ".join(
            f"{table[name].get(metric, '-'):>14s}" for name in table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
