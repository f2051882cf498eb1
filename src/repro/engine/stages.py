"""Per-stage wall-time instrumentation for the validation pipeline.

The paper's Figure 1 stages map onto the scan cycle as:

* ``crawl``     -- Config Extractor (entity -> frame)
* ``discover``  -- file discovery under manifest search paths
* ``parse``     -- Data Normalizer (lens / schema parsing, cache misses only)
* ``evaluate``  -- Rule Engine, per-entity rules
* ``composite`` -- Rule Engine, cross-entity conjunction/disjunction

With ``workers > 1`` the totals are summed across worker threads, so a
stage's time is aggregate worker-seconds and may exceed the cycle's
wall-clock elapsed time; the ratio between stages is what matters for
capacity planning.

:class:`StageTimings` is a *view over a metrics registry*: each stage is
one labelled child of a ``repro_stage_latency_seconds`` histogram, which
is where the per-stage min/max/mean come from.  By default every
instance owns a private registry so timings stay scoped to one scan
cycle; :meth:`publish` folds a cycle's distribution into a long-lived
registry (the process-wide telemetry one) for Prometheus scraping.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.telemetry.metrics import Histogram, MetricsRegistry

#: Stage names in pipeline order (also the rendering order).
STAGES = ("crawl", "discover", "parse", "evaluate", "composite")

#: The histogram family behind every StageTimings view.
STAGE_METRIC = "repro_stage_latency_seconds"


def _stage_histogram(registry: MetricsRegistry) -> Histogram:
    """``registry``'s :data:`STAGE_METRIC` histogram, labelled by stage."""
    return registry.histogram(
        STAGE_METRIC,
        "Validation pipeline stage latency (aggregate worker-seconds).",
        labels=("stage",),
    )


class StageTimings:
    """Thread-safe accumulator of per-stage durations.

    Kept API: ``add`` / ``timer`` / ``seconds`` / ``count`` /
    ``total_seconds`` / ``as_dict`` / ``merge`` / ``render``; new:
    ``min_seconds`` / ``max_seconds`` / ``mean_seconds`` /
    ``render_extended`` / ``publish``.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self._registry = registry if registry is not None else MetricsRegistry()
        self._hist = _stage_histogram(self._registry)

    def _check(self, stage: str) -> None:
        if stage not in STAGES:
            raise KeyError(stage)

    def add(self, stage: str, seconds: float, count: int = 1) -> None:
        self._check(stage)
        if count == 1:
            self._hist.observe(seconds, stage=stage)
        elif count > 0:
            self._hist.observe_aggregate(seconds, count, stage=stage)

    @contextmanager
    def timer(self, stage: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(stage, time.perf_counter() - started)

    def seconds(self, stage: str) -> float:
        self._check(stage)
        return self._hist.sum(stage=stage)

    def count(self, stage: str) -> int:
        self._check(stage)
        return self._hist.count(stage=stage)

    def min_seconds(self, stage: str) -> float:
        """Fastest single operation of the stage (0.0 when empty)."""
        self._check(stage)
        return self._hist.min(stage=stage)

    def max_seconds(self, stage: str) -> float:
        """Slowest single operation of the stage (0.0 when empty)."""
        self._check(stage)
        return self._hist.max(stage=stage)

    def mean_seconds(self, stage: str) -> float:
        self._check(stage)
        return self._hist.mean(stage=stage)

    @property
    def total_seconds(self) -> float:
        return sum(self._hist.sum(stage=stage) for stage in STAGES)

    def as_dict(self) -> dict[str, dict[str, float]]:
        return {
            stage: {
                "seconds": self._hist.sum(stage=stage),
                "count": float(self._hist.count(stage=stage)),
                "min": self._hist.min(stage=stage),
                "max": self._hist.max(stage=stage),
                "mean": self._hist.mean(stage=stage),
            }
            for stage in STAGES
        }

    def merge(self, other: "StageTimings") -> None:
        other.publish(self._registry)

    def publish(self, registry: MetricsRegistry) -> None:
        """Fold this accumulator's distribution into ``registry``'s
        ``repro_stage_latency_seconds`` histogram (exact sum/count and
        extremes; bucket credit at the per-stage mean)."""
        hist = _stage_histogram(registry)
        for stage, values in self.as_dict().items():
            count = int(values["count"])
            if not count:
                continue
            hist.observe_aggregate(
                values["seconds"], count,
                min_value=values["min"], max_value=values["max"],
                stage=stage,
            )

    def render(self) -> str:
        """Aligned stage table (aggregate worker-seconds)."""
        total = self.total_seconds or 1.0
        lines = [f"{'stage':<12}{'time [ms]':>12}{'share':>8}{'ops':>10}"]
        for stage in STAGES:
            seconds = self._hist.sum(stage=stage)
            lines.append(
                f"{stage:<12}{seconds * 1e3:>12.2f}"
                f"{seconds / total:>8.1%}{self._hist.count(stage=stage):>10d}"
            )
        return "\n".join(lines)

    def render_extended(self) -> str:
        """The stage table plus per-operation min/mean/max columns."""
        total = self.total_seconds or 1.0
        lines = [
            f"{'stage':<12}{'time [ms]':>12}{'share':>8}{'ops':>10}"
            f"{'min [ms]':>12}{'mean [ms]':>12}{'max [ms]':>12}"
        ]
        for stage in STAGES:
            seconds = self._hist.sum(stage=stage)
            lines.append(
                f"{stage:<12}{seconds * 1e3:>12.2f}"
                f"{seconds / total:>8.1%}{self._hist.count(stage=stage):>10d}"
                f"{self._hist.min(stage=stage) * 1e3:>12.3f}"
                f"{self._hist.mean(stage=stage) * 1e3:>12.3f}"
                f"{self._hist.max(stage=stage) * 1e3:>12.3f}"
            )
        return "\n".join(lines)
