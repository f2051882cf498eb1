"""Hierarchical trace spans for the scan cycle.

A fleet scan decomposes into the paper's Fig. 1 pipeline, and the span
tree mirrors it::

    scan_cycle                      (one per BatchScanner cycle)
      crawl:<kind>:<name>           (Config Extractor, one per entity)
      validate_frames               (one per validation run)
        frame:<target>              (one per frame, possibly on a worker)
          evaluate                  (Rule Engine stage)
            rule:<name>             (one per rule evaluation)
            parse:<lens>            (Data Normalizer, cache misses only)
        composite                   (cross-entity stage)
          rule:<name>

Spans carry wall-clock-anchored start times but are measured with
``time.perf_counter`` so durations are monotonic; the tree is safe to
build from any number of worker threads.  Cross-thread parenting is
explicit: the fan-out code captures the enclosing span before handing
work to the pool and passes it as ``parent=``; within a thread the
collector keeps a thread-local stack so nesting is implicit.

:class:`NoopSpanCollector` implements the same API as pure no-ops (its
context manager is a shared singleton), which is what the engine uses
when telemetry is disabled -- the instrumented hot path costs one
attribute check.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One finished (or in-flight) span."""

    name: str
    category: str
    span_id: int
    parent_id: int | None
    thread_id: int
    start_s: float               # perf_counter-based, collector-relative
    duration_s: float = 0.0
    attrs: dict[str, str] = field(default_factory=dict)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._collector._finish(self)

    # Set by the collector before handing the span out; not part of the
    # recorded data.
    _collector: "SpanCollector" = None  # type: ignore[assignment]


class _NoopSpan:
    """Shared do-nothing context manager; also poses as a parent span."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class SpanCollector:
    """Thread-safe in-process collector of trace spans."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        #: Raw tuples from the hot :meth:`record` path; materialized into
        #: :class:`Span` objects lazily by :meth:`finished`.
        self._raw: list[tuple] = []
        #: Whole-frame rule batches from :meth:`record_rules`; expanded
        #: into rule spans lazily by :meth:`finished`.
        self._rule_batches: list[tuple] = []
        #: ``next()`` on an itertools counter is atomic under the GIL.
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: perf_counter origin; span starts are relative to this.
        self.origin_perf = time.perf_counter()

    # ---- recording --------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, *, category: str = "",
             parent: Span | None = None, **attrs: str) -> Span:
        """Open a span as a context manager.

        The parent defaults to the innermost open span of the *calling
        thread*; pass ``parent=`` explicitly when the span logically
        nests under a span opened on another thread (pool fan-out).
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(
            name=name,
            category=category,
            span_id=next(self._ids),
            parent_id=parent.span_id if isinstance(parent, Span) else None,
            thread_id=threading.get_ident(),
            start_s=time.perf_counter() - self.origin_perf,
            attrs=dict(attrs) if attrs else {},
        )
        span._collector = self
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.duration_s = (
            time.perf_counter() - self.origin_perf - span.start_s
        )
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:            # exited out of order; still unwind
            stack.remove(span)
        # list.append is atomic under the GIL; no lock on completion.
        self._spans.append(span)

    def record(self, name: str, *, category: str = "",
               start_s: float, duration_s: float,
               parent: Span | None = None, **attrs: str) -> None:
        """Add an already-measured span (``start_s`` in perf_counter time).

        This is the allocation-light path the per-rule instrumentation
        uses: the engine already measures each evaluation for
        ``RuleResult.duration_s``, so the span reuses that measurement
        instead of nesting another context manager in the hot loop.  Only
        a raw tuple is stored; :meth:`finished` materializes it.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        self._raw.append((
            name,
            category,
            next(self._ids),
            parent.span_id if isinstance(parent, Span) else None,
            threading.get_ident(),
            start_s - self.origin_perf,
            duration_s,
            attrs,
        ))

    def record_batch(self, records, *, category: str = "",
                     parent: Span | None = None) -> None:
        """Bulk :meth:`record`: ``records`` yields tuples of
        ``(name, start_s, duration_s, attrs)`` sharing one category and
        one parent (default: the calling thread's innermost open span).
        Amortizes per-span overhead for the per-rule hot path.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        parent_id = parent.span_id if isinstance(parent, Span) else None
        thread_id = threading.get_ident()
        origin = self.origin_perf
        ids = self._ids
        append = self._raw.append
        for name, start_s, duration_s, attrs in records:
            append((
                name, category, next(ids), parent_id, thread_id,
                start_s - origin, duration_s, attrs,
            ))

    def record_rules(self, records: list, *,
                     parent: Span | None = None) -> None:
        """Defer one frame's rule spans in a single list append.

        ``records`` is a list of rule-result objects, each exposing
        ``rule.name``, ``entity``, ``verdict.value``, ``started_s``
        (raw ``perf_counter`` time), and ``duration_s``; the list MUST
        not be mutated afterwards.  Nothing per rule happens here; the
        batch is expanded into ``category="rule"`` spans by
        :meth:`finished`, i.e. at export time instead of on the scan
        cycle's hot path.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        self._rule_batches.append((
            parent.span_id if isinstance(parent, Span) else None,
            threading.get_ident(),
            records,
        ))

    # ---- inspection -------------------------------------------------------

    def current(self) -> Span | None:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def finished(self) -> list[Span]:
        """Snapshot of all recorded spans (closed ones)."""
        with self._lock:
            spans = list(self._spans)
            raw = list(self._raw)
            batches = list(self._rule_batches)
        spans.extend(
            Span(
                name=name, category=category, span_id=span_id,
                parent_id=parent_id, thread_id=thread_id,
                start_s=start_s, duration_s=duration_s, attrs=attrs,
            )
            for (name, category, span_id, parent_id, thread_id,
                 start_s, duration_s, attrs) in raw
        )
        ids = self._ids
        origin = self.origin_perf
        for parent_id, thread_id, records in batches:
            spans.extend(
                Span(
                    name=result.rule.name, category="rule",
                    span_id=next(ids),
                    parent_id=parent_id, thread_id=thread_id,
                    start_s=result.started_s - origin,
                    duration_s=result.duration_s,
                    attrs={"entity": result.entity,
                           "verdict": result.verdict.value},
                )
                for result in records
            )
        return spans

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._raw.clear()
            self._rule_batches.clear()

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._spans) + len(self._raw)
                + sum(len(records) for _p, _t, records
                      in self._rule_batches)
            )


class NoopSpanCollector:
    """API-compatible collector that records nothing."""

    enabled = False

    def span(self, name: str, *, category: str = "",
             parent=None, **attrs) -> _NoopSpan:
        return _NOOP_SPAN

    def record(self, name: str, *, category: str = "", start_s: float = 0.0,
               duration_s: float = 0.0, parent=None, **attrs) -> None:
        return None

    def record_batch(self, records, *, category: str = "",
                     parent=None) -> None:
        return None

    def record_rules(self, records, *, parent=None) -> None:
        return None

    def current(self) -> None:
        return None

    def finished(self) -> list:
        return []

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


#: Shared disabled collector (safe: it holds no state).
NOOP_SPANS = NoopSpanCollector()
