"""Per-stage time of a scan cycle along the paper's Figure 1 pipeline.

* ``crawl``     -- Config Extractor (entity -> frame)
* ``discover``  -- file discovery under manifest search paths
* ``parse``     -- Data Normalizer (lens / schema parsing, cache misses only)
* ``evaluate``  -- Rule Engine, per-entity rules
* ``composite`` -- Rule Engine, cross-entity conjunction/disjunction

Each stage holds self time: ``evaluate`` and ``composite`` exclude the
discovery and parsing they trigger, so at one worker the stages add up
to at most the cycle's wall clock.  Each frame fills a block of its own
on its worker thread, merged at the barrier, so with ``workers > 1`` a
stage's time is aggregate worker-seconds.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.telemetry.stats import Stats, stat

#: Stage names in pipeline order (also the rendering order).
STAGES = ("crawl", "discover", "parse", "evaluate", "composite")

#: The histogram family :meth:`StageTimings.publish` writes.
STAGE_METRIC = "repro_stage_latency_seconds"


@dataclass
class StageTimings(Stats):
    """Seconds and operation count per stage, filled by one thread.

    ``ops`` counts crawls, file-index builds, real parses, and freshly
    evaluated rules and composites.
    """

    time_s: dict[str, float] = stat(label="stage", default_factory=dict)
    ops: dict[str, int] = stat(label="stage", default_factory=dict)

    def add(self, stage: str, seconds: float, count: int = 1) -> None:
        if stage not in STAGES:
            raise KeyError(stage)
        self.time_s[stage] = self.time_s.get(stage, 0.0) + seconds
        self.ops[stage] = self.ops.get(stage, 0) + count

    def add_self(self, stage: str, wall: float, count: int) -> None:
        """Charge ``stage`` a step's ``wall`` seconds less the discovery
        and parsing this block already holds from inside it."""
        self.add(stage, wall - self.total_seconds, count)

    @contextmanager
    def timer(self, stage: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(stage, time.perf_counter() - started)

    def seconds(self, stage: str) -> float:
        return self.time_s.get(stage, 0.0)

    def count(self, stage: str) -> int:
        return self.ops.get(stage, 0)

    @property
    def total_seconds(self) -> float:
        return sum(self.time_s.values())

    def publish(self, registry) -> None:
        """One aggregate observation per stage into :data:`STAGE_METRIC`."""
        hist = registry.histogram(
            STAGE_METRIC,
            "Validation pipeline stage latency (aggregate worker-seconds).",
            labels=("stage",))
        for stage, count in self.ops.items():
            hist.observe_aggregate(self.seconds(stage), count, stage=stage)

    def render(self) -> str:
        """Aligned stage table (aggregate worker-seconds)."""
        total = self.total_seconds or 1.0
        lines = [f"{'stage':<12}{'time [ms]':>12}{'share':>8}{'ops':>10}"]
        for stage in STAGES:
            seconds = self.seconds(stage)
            lines.append(f"{stage:<12}{seconds * 1e3:>12.2f}"
                         f"{seconds / total:>8.1%}{self.count(stage):>10d}")
        return "\n".join(lines)
