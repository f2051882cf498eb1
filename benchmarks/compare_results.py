#!/usr/bin/env python
"""Benchmark regression gate for the fleet pipeline (``make bench-check``).

Runs the two pipeline benchmarks (``bench_fleet_throughput`` and
``bench_pipeline_stages``) under ``pytest-benchmark``, writes the raw
JSON next to the human-readable tables in ``benchmarks/results/``, and
compares per-benchmark throughput (ops/s) against the committed baseline.
Any benchmark more than ``--tolerance`` (default 25%) slower than its
baseline fails the run.

Refresh the baseline after an intentional performance change::

    python benchmarks/compare_results.py --update-baseline

and commit ``benchmarks/results/bench_baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINE_PATH = RESULTS_DIR / "bench_baseline.json"
LATEST_PATH = RESULTS_DIR / "bench_latest.json"

BENCH_FILES = (
    "bench_fleet_throughput.py",
    "bench_pipeline_stages.py",
    "bench_telemetry_overhead.py",
    # Also enforces its own absolute gates (>= 5x unchanged-fleet
    # speedup, bounded cold-cycle overhead) via in-test assertions.
    "bench_incremental.py",
    # Enforces the <5% history-store write-overhead budget (ISSUE 4)
    # via an in-test assertion.
    "bench_history.py",
    # Also enforces its own absolute gates (>= 2x planned throughput on
    # the 16x ruleset, no 1x regression, planned vs --no-plan
    # byte-identity at workers 1 and 8) via in-test assertions.
    "bench_rule_plan.py",
    # Enforces the <= 5% provenance-on overhead budget and off-mode
    # byte-identity (ISSUE 7) via in-test assertions.
    "bench_provenance.py",
    # Times thread fan-out at 1/4/8 workers; no in-test gate.
    "bench_executor.py",
    # Enforces the <= 2% armed-null-plan chaos-fabric overhead budget
    # (ISSUE 10) and armed/disarmed byte-identity via in-test assertions.
    "bench_chaos.py",
)

#: Benchmarks faster than this are no-op reporter shims
#: (``benchmark.pedantic(lambda: None)``) whose timing is pure noise.
MIN_MEANINGFUL_MEAN_S = 1e-4


def run_benchmarks(json_path: pathlib.Path) -> None:
    """Run each benchmark file in its own interpreter, merging the
    pytest-benchmark JSON.

    Process isolation keeps one file's heap growth and GC state from
    skewing another's timings -- the in-test gates (telemetry,
    incremental, history) measure millisecond windows that a shared
    long-running process visibly distorts.
    """
    merged: dict | None = None
    for name in BENCH_FILES:
        part_path = RESULTS_DIR / f".bench_part_{name}.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            str(BENCH_DIR / name),
            "--benchmark-only",
            f"--benchmark-json={part_path}",
            "-q",
        ]
        print(f"$ {' '.join(command)}")
        completed = subprocess.run(command, cwd=REPO_ROOT)
        if completed.returncode != 0:
            sys.exit(
                f"benchmark run failed for {name} "
                f"(exit {completed.returncode})"
            )
        payload = json.loads(part_path.read_text())
        part_path.unlink()
        if merged is None:
            merged = payload
        else:
            merged["benchmarks"].extend(payload.get("benchmarks", []))
    json_path.write_text(json.dumps(merged, indent=2))


def load_ops(json_path: pathlib.Path) -> dict[str, float]:
    """Map fully-qualified benchmark name -> throughput (ops/s)."""
    payload = json.loads(json_path.read_text())
    ops: dict[str, float] = {}
    for bench in payload.get("benchmarks", []):
        stats = bench.get("stats", {})
        mean = stats.get("mean", 0.0)
        if mean < MIN_MEANINGFUL_MEAN_S:
            continue  # reporter shim, not a real measurement
        ops[bench["fullname"]] = stats["ops"]
    return ops


def compare(baseline: dict[str, float], current: dict[str, float],
            tolerance: float) -> list[str]:
    """Return a list of human-readable regression descriptions."""
    regressions: list[str] = []
    width = max((len(name) for name in baseline), default=0)
    print(f"\n{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  delta")
    for name in sorted(baseline):
        base_ops = baseline[name]
        cur_ops = current.get(name)
        if cur_ops is None:
            regressions.append(f"{name}: benchmark disappeared")
            continue
        delta = (cur_ops - base_ops) / base_ops
        marker = "  << REGRESSION" if delta < -tolerance else ""
        print(
            f"{name:<{width}}  {base_ops:>10.1f}/s  {cur_ops:>10.1f}/s  "
            f"{delta:+7.1%}{marker}"
        )
        if delta < -tolerance:
            regressions.append(
                f"{name}: {cur_ops:.1f} ops/s vs baseline "
                f"{base_ops:.1f} ops/s ({delta:+.1%}, "
                f"tolerance -{tolerance:.0%})"
            )
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<{width}}  {'(new)':>12}  {current[name]:>10.1f}/s")
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="maximum allowed throughput drop (fraction, default 0.25)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the fresh results as the new committed baseline",
    )
    parser.add_argument(
        "--json", type=pathlib.Path, default=None,
        help="reuse an existing pytest-benchmark JSON instead of running",
    )
    args = parser.parse_args(argv)

    RESULTS_DIR.mkdir(exist_ok=True)
    if args.json is not None:
        json_path = args.json
    else:
        json_path = LATEST_PATH
        run_benchmarks(json_path)
    current = load_ops(json_path)
    if not current:
        sys.exit("no meaningful benchmarks in the results JSON")

    if args.update_baseline:
        BASELINE_PATH.write_text(json_path.read_text())
        print(f"baseline updated: {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        sys.exit(
            f"no committed baseline at {BASELINE_PATH}; "
            "run with --update-baseline first"
        )
    baseline = load_ops(BASELINE_PATH)
    regressions = compare(baseline, current, args.tolerance)
    if regressions:
        print("\nthroughput regressions detected:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nno regressions beyond {args.tolerance:.0%} tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
