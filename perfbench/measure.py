"""Timing, machine-speed calibration and memory accounting of one run.

On a 2-core virtual machine shared with other tenants, the same Python
code runs up to 1.8x slower for stretches from under a second to 30 s,
so the raw median wall times of whole 35 s runs spread by up to 38%
between runs.  Each cycle is therefore also timed in *reference-speed
milliseconds*: its wall time scaled by how long a fixed pure-Python
calibration loop took right before and right after it, relative to
:data:`CAL_REF_MS`.  The loop uses only the standard library, never the
program, so a change to the program moves the scaled time exactly as it
moves the wall time on a machine of steady speed.  The loop slows more
than the program in the slow stretches, so scaled times keep a few
percent of run-to-run spread.  Raw wall times are kept alongside.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

#: Calibration-loop duration that defines reference speed: one reference
#: millisecond is the time the machine takes for 1/CAL_REF_MS of a loop.
CAL_REF_MS = 2.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``peak_rss_mb`` is read after this many timed cycles (or at the end of
#: a shorter run), so runs of different speed compare at equal work.
RSS_CHECKPOINT_CYCLES = 50

_CAL_TEXT = "\n".join(f"key_{i} = value {i} # comment" for i in range(200))


def calibration_ms() -> float:
    """Wall time of a fixed string/dict/list/sort loop, in ms."""
    started = time.perf_counter()
    for _ in range(6):
        table = {}
        for line in _CAL_TEXT.splitlines():
            key, _, value = line.partition("=")
            table[key.strip()] = [part for part in value.split() if part != "#"]
        sorted(table.items(), key=lambda item: len(item[1]))
    return (time.perf_counter() - started) * 1000


def proc_status_kb(field: str) -> int:
    """A ``VmHWM``-style line of /proc/self/status, in KiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


def rss_kb() -> int:
    """Resident set size from /proc/self/statm, in KiB."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") // 1024


def percentile(values: list[float], share: float) -> float:
    """Inclusive-method percentile, ``share`` in (0, 1)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def set_up(workload) -> list[float]:
    """Run the workload's set-up :data:`SETUP_REPEATS` times; returns each
    one's duration in reference-speed seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibration_ms()
        started = time.perf_counter()
        workload.setup()
        wall = time.perf_counter() - started
        times.append(wall * CAL_REF_MS * 2 / (before + calibration_ms()))
    return times


class Run:
    """Timed cycles of one run, with their verdict and memory accounting."""

    def __init__(self, workload):
        self.workload = workload
        self.walls: list[float] = []    # raw wall seconds
        self.ref_ms: list[float] = []   # reference-speed milliseconds
        self.entities = 0
        self.attempted = 0
        self.errors = 0
        self.lost = 0
        self.wrong = 0
        self.checked = 0
        self.last_checks = 0
        self.rss_samples: list[int] = []
        self.peak_kb = 0

    def one_cycle(self, before=None, after=None):
        """Prepare, time and verify one cycle; returns its report (None
        when the cycle failed).  ``before``/``after`` run just outside
        the timed region."""
        workload = self.workload
        workload.prepare()
        calibration_before = calibration_ms()
        if before is not None:
            before()
        started = time.perf_counter()
        try:
            report = workload.cycle()
        except Exception as error:  # a failed cycle is counted, not fatal
            print(f"cycle failed: {type(error).__name__}: {error}",
                  file=sys.stderr)
            report = None
        wall = time.perf_counter() - started
        if after is not None:
            after()
        calibration = (calibration_before + calibration_ms()) / 2
        self.walls.append(wall)
        self.ref_ms.append(wall * 1000 * CAL_REF_MS / calibration)
        if report is None:
            self.lost += self.last_checks
            self.attempted += self.last_checks
        else:
            outcome = workload.expect.check_report(report)
            self.last_checks = len(report)
            self.attempted += len(report)
            self.errors += outcome.errors
            self.wrong += outcome.wrong
            self.checked += outcome.checked
            self.entities += len(workload.entities)
        self.rss_samples.append(rss_kb())
        if len(self.walls) <= RSS_CHECKPOINT_CYCLES:
            self.peak_kb = proc_status_kb("VmHWM")
        return report

    @property
    def failed(self) -> int:
        return self.errors + self.lost

    def speed_factor(self) -> float:
        """Reference-speed ms per wall ms of the last cycle."""
        return self.ref_ms[-1] / (self.walls[-1] * 1000)

    def rss_growth_kb_per_cycle(self) -> float:
        """Least-squares slope of RSS over the cycles after the first tenth."""
        samples = self.rss_samples[len(self.rss_samples) // 10:]
        if len(samples) < 3:
            return 0.0
        slope, _ = statistics.linear_regression(range(len(samples)), samples)
        return slope


def measure(workload, seconds: float) -> tuple[dict, dict, Run, bool]:
    """The untraced run.  Returns the end-to-end metrics, the raw wall
    figures, the run and the oracle self-test outcome."""
    setup_times = set_up(workload)
    self_test = workload.expect.self_test(workload.cycle())
    run = Run(workload)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        run.one_cycle()
    metrics = {
        "cycle_ms_p50": statistics.median(run.ref_ms),
        "cycle_ms_p75": percentile(run.ref_ms, 0.75),
        "entities_per_s": run.entities / (sum(run.ref_ms) / 1000),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": run.peak_kb / 1024,
        "failed_ratio": run.failed / run.attempted,
        "wrong_verdicts": run.wrong,
    }
    walls_ms = [wall * 1000 for wall in run.walls]
    raw = {
        "wall_ms_p50": statistics.median(walls_ms),
        "wall_ms_p75": percentile(walls_ms, 0.75),
        "cycle_ms_p80": percentile(run.ref_ms, 0.8),
        "calibration_ms_median": statistics.median(
            CAL_REF_MS * wall / ref for wall, ref in zip(walls_ms, run.ref_ms)),
        "setup_s_first": setup_times[0],
    }
    return metrics, raw, run, self_test
