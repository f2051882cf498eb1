"""Telemetry for the scan cycle: spans, metrics, profiling, logging.

One :class:`Telemetry` object bundles the three collectors the pipeline
threads through itself:

* :attr:`Telemetry.spans`   -- hierarchical trace spans
  (``scan_cycle`` -> ``frame`` -> stage -> ``rule``/``parse``),
  exportable as Chrome ``trace_event`` JSON;
* :attr:`Telemetry.metrics` -- process-wide counters / gauges /
  histograms with Prometheus text exposition;
* :attr:`Telemetry.profiler`-- per-rule / per-lens hot-and-erroring
  rankings.

Disabled telemetry (the default everywhere) swaps in shared no-op
collectors, so instrumented code paths cost one attribute check::

    from repro.telemetry import Telemetry
    telemetry = Telemetry()                      # enabled
    validator = load_builtin_validator(telemetry=telemetry)
    ...
    write_chrome_trace(telemetry.spans, "trace.json")
    write_metrics(telemetry.metrics, "metrics.prom")

Structured logging is orthogonal (stdlib ``logging`` under the
``repro`` namespace); see :mod:`repro.telemetry.logs`.
"""

from __future__ import annotations

from repro.telemetry.logs import (
    JsonLogFormatter,
    PlainLogFormatter,
    configure_logging,
    get_logger,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NOOP_METRICS,
    NoopMetricsRegistry,
)
from repro.telemetry.profiler import NOOP_PROFILER, NoopProfiler, ProfileEntry, RuleProfiler
from repro.telemetry.spans import NOOP_SPANS, NoopSpanCollector, Span, SpanCollector


class Telemetry:
    """Bundle of span/metric/profile collectors threaded through a scan."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        if enabled:
            self.spans: SpanCollector = SpanCollector()
            self.metrics: MetricsRegistry = MetricsRegistry()
            self.profiler: RuleProfiler = RuleProfiler()
        else:
            self.spans = NOOP_SPANS            # type: ignore[assignment]
            self.metrics = NOOP_METRICS        # type: ignore[assignment]
            self.profiler = NOOP_PROFILER      # type: ignore[assignment]


#: Shared disabled bundle -- what every pipeline component defaults to.
#: Safe to share: the no-op collectors hold no state.
DISABLED = Telemetry(enabled=False)

__all__ = [
    "Counter",
    "DISABLED",
    "Gauge",
    "Histogram",
    "JsonLogFormatter",
    "MetricsRegistry",
    "NoopMetricsRegistry",
    "NoopProfiler",
    "NoopSpanCollector",
    "PlainLogFormatter",
    "ProfileEntry",
    "RuleProfiler",
    "Span",
    "SpanCollector",
    "Telemetry",
    "configure_logging",
    "get_logger",
]
