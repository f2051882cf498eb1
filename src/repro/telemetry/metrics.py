"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Zero-dependency reimplementation of the Prometheus client-library data
model, scoped to what the scan cycle needs:

* every instrument is a *family* keyed by metric name with a fixed label
  schema; children are addressed by label values
  (``counter.inc(verdict="compliant")``);
* histograms use fixed upper bounds chosen at creation (cumulative
  bucket counts, ``sum``/``count``/``min``/``max``);
* a registry owns the families and renders the Prometheus text
  exposition format (via :mod:`repro.telemetry.export`).

All instruments are thread-safe (one lock per family; the hot path is a
dict upsert).  ``register_collector`` lets pull-style sources (the parse
cache) refresh their samples right before a scrape instead of paying for
instrumentation on every cache operation.

:class:`NoopMetricsRegistry` hands out shared do-nothing instruments for
the disabled-telemetry path.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Iterator

#: Default latency buckets (seconds): 100us .. 10s, roughly log-spaced.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelValues = tuple[str, ...]


class _Family:
    """Shared bookkeeping for one named metric family."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "",
                 labels: tuple[str, ...] = ()):
        self.name = name
        self.help = help_text
        self.label_names = tuple(labels)
        self._lock = threading.Lock()

    def _key(self, labels: dict[str, str]) -> LabelValues:
        names = self.label_names
        if not labels and not names:         # unlabeled fast path
            return ()
        if len(labels) == len(names):
            try:                             # matching schema fast path
                return tuple([str(labels[name]) for name in names])
            except KeyError:
                pass
        raise ValueError(
            f"metric {self.name!r} takes labels {names}, "
            f"got {tuple(sorted(labels))}"
        )


class Counter(_Family):
    """Monotonically increasing value per label set."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "",
                 labels: tuple[str, ...] = ()):
        super().__init__(name, help_text, labels)
        self._values: dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set(self, value: float, **labels: str) -> None:
        """Overwrite the sample (used by pull-style collectors that
        mirror an external monotonic counter, e.g. cache stats)."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def remove(self, **labels: str) -> None:
        """Drop one labeled sample (no-op when absent).

        Long-running exporters use this for state-shaped gauges -- e.g.
        the monitor's per-rule flap gauge -- so a rule that stops
        flapping disappears from the exposition instead of lingering
        at a stale value forever.
        """
        key = self._key(labels)
        with self._lock:
            self._values.pop(key, None)

    def clear(self) -> None:
        """Drop every sample of the family (label schema stays)."""
        with self._lock:
            self._values.clear()

    def samples(self) -> list[tuple[LabelValues, float]]:
        with self._lock:
            return sorted(self._values.items())


class Gauge(Counter):
    """A value that can go up and down."""

    kind = "gauge"

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)


class _HistogramChild:
    __slots__ = ("bucket_counts", "total", "count", "min", "max")

    def __init__(self, nbuckets: int):
        self.bucket_counts = [0] * nbuckets   # per-bucket, not cumulative
        self.total = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram(_Family):
    """Fixed-bucket latency/size distribution per label set."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 labels: tuple[str, ...] = (),
                 buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, help_text, labels)
        self.buckets = tuple(sorted(buckets))
        self._children: dict[LabelValues, _HistogramChild] = {}

    def _child(self, key: LabelValues) -> _HistogramChild:
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _HistogramChild(len(self.buckets) + 1)
        return child

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            child = self._child(key)
            child.bucket_counts[index] += 1
            child.total += value
            child.count += 1
            if value < child.min:
                child.min = value
            if value > child.max:
                child.max = value

    def observe_batch(self, values, **labels: str) -> None:
        """Observe many values under one lock, with exact buckets.

        The per-frame flush path: the engine collects a frame's rule
        durations locally and folds them in with a single acquisition.
        Sorting once turns bucketing into one ``bisect`` per *bucket*
        (cumulative count below each bound) instead of one per value,
        so the cost is dominated by the C-level sort.
        """
        key = self._key(labels)
        ordered = sorted(values)
        if not ordered:
            return
        bisect_right = bisect.bisect_right
        with self._lock:
            child = self._child(key)
            counts = child.bucket_counts
            below = 0
            for index, bound in enumerate(self.buckets):
                at_or_below = bisect_right(ordered, bound)
                if at_or_below != below:
                    counts[index] += at_or_below - below
                    below = at_or_below
            counts[-1] += len(ordered) - below
            child.total += sum(ordered)
            child.count += len(ordered)
            if ordered[0] < child.min:
                child.min = ordered[0]
            if ordered[-1] > child.max:
                child.max = ordered[-1]

    def observe_aggregate(self, total: float, count: int,
                          min_value: float | None = None,
                          max_value: float | None = None,
                          **labels: str) -> None:
        """Fold in ``count`` observations summing to ``total`` at once
        (merging another accumulator).  Bucket credit goes to the mean
        value -- an approximation, but exact for ``sum``/``count`` and,
        when ``min_value``/``max_value`` are given, for the extremes.
        """
        if count <= 0:
            return
        key = self._key(labels)
        mean = total / count
        index = bisect.bisect_left(self.buckets, mean)
        low = mean if min_value is None else min_value
        high = mean if max_value is None else max_value
        with self._lock:
            child = self._child(key)
            child.bucket_counts[index] += count
            child.total += total
            child.count += count
            if low < child.min:
                child.min = low
            if high > child.max:
                child.max = high

    # ---- accessors --------------------------------------------------------

    def _snap(self, labels: dict[str, str]) -> _HistogramChild | None:
        key = self._key(labels)
        with self._lock:
            return self._children.get(key)

    def sum(self, **labels: str) -> float:
        child = self._snap(labels)
        return child.total if child else 0.0

    def count(self, **labels: str) -> int:
        child = self._snap(labels)
        return child.count if child else 0

    def min(self, **labels: str) -> float:
        child = self._snap(labels)
        return child.min if child and child.count else 0.0

    def max(self, **labels: str) -> float:
        child = self._snap(labels)
        return child.max if child and child.count else 0.0

    def mean(self, **labels: str) -> float:
        child = self._snap(labels)
        return child.total / child.count if child and child.count else 0.0

    def samples(self) -> list[tuple[LabelValues, _HistogramChild]]:
        with self._lock:
            # Children are mutated in place; copy the numeric state.
            out = []
            for key, child in sorted(self._children.items()):
                snap = _HistogramChild(len(self.buckets) + 1)
                snap.bucket_counts = list(child.bucket_counts)
                snap.total, snap.count = child.total, child.count
                snap.min, snap.max = child.min, child.max
                out.append((key, snap))
            return out


class MetricsRegistry:
    """Owns metric families and pull-style collectors."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: dict[str, Callable[[], None]] = {}

    def _get_or_create(self, cls, name: str, help_text: str,
                       labels: tuple[str, ...], **kwargs) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help_text, labels, **kwargs)
                self._families[name] = family
                return family
        if not isinstance(family, cls) or family.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} re-registered with a different "
                f"type or label schema"
            )
        return family

    def counter(self, name: str, help_text: str = "",
                labels: tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labels, buckets=buckets
        )

    def register_collector(self, key: str, collect: Callable[[], None]) -> None:
        """Register (or replace) a pre-scrape refresh callback.

        Keyed so re-attaching the same source (e.g. the same parse
        cache) is idempotent rather than duplicating work.
        """
        with self._lock:
            self._collectors[key] = collect

    def collect(self) -> None:
        """Run every registered collector (called before rendering)."""
        with self._lock:
            collectors = list(self._collectors.values())
        for collect in collectors:
            collect()

    def families(self) -> Iterator[_Family]:
        with self._lock:
            ordered = sorted(self._families.items())
        for _name, family in ordered:
            yield family

    def render(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        from repro.telemetry.export import render_prometheus

        return render_prometheus(self)


class _NoopInstrument:
    """One object standing in for disabled counters/gauges/histograms."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels) -> None: ...
    def dec(self, amount: float = 1.0, **labels) -> None: ...
    def set(self, value: float, **labels) -> None: ...
    def remove(self, **labels) -> None: ...
    def clear(self) -> None: ...
    def observe(self, value: float, **labels) -> None: ...
    def observe_batch(self, values, **labels) -> None: ...
    def observe_aggregate(self, total, count, min_value=None,
                          max_value=None, **labels) -> None: ...
    def value(self, **labels) -> float:
        return 0.0
    def sum(self, **labels) -> float:
        return 0.0
    def count(self, **labels) -> int:
        return 0
    def samples(self) -> list:
        return []


_NOOP_INSTRUMENT = _NoopInstrument()


class NoopMetricsRegistry:
    """Registry whose instruments do nothing (disabled telemetry)."""

    enabled = False

    def counter(self, name, help_text="", labels=()):
        return _NOOP_INSTRUMENT

    def gauge(self, name, help_text="", labels=()):
        return _NOOP_INSTRUMENT

    def histogram(self, name, help_text="", labels=(), buckets=()):
        return _NOOP_INSTRUMENT

    def register_collector(self, key, collect) -> None:
        return None

    def collect(self) -> None:
        return None

    def families(self):
        return iter(())

    def render(self) -> str:
        return ""


NOOP_METRICS = NoopMetricsRegistry()
