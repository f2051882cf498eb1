"""The ``repro monitor`` daemon: continuous scan cycles, durable
history, live endpoints, and the health event stream.

One :class:`FleetMonitor` owns a :class:`~repro.engine.batch.BatchScanner`
and drives it on an interval.  Every cycle:

1. acquire the fleet (a static entity list, or a provider callable so
   tests and embedders can mutate the fleet between cycles);
2. scan it -- incremental revalidation and all PR 1-3 machinery ride
   along unchanged, so the per-cycle report stays byte-identical to a
   standalone ``repro validate`` of the same fleet state;
3. append the cycle to the :class:`~repro.history.store.HistoryStore`;
4. classify it with the :class:`~repro.history.analyzer.HealthAnalyzer`
   and fan the resulting events out to the sinks (NDJSON log, webhook);
5. refresh the live gauges behind the persistent HTTP endpoint
   (``/metrics``, ``/healthz``, ``/readyz``, ``/status``, ``/history``).

A scan cycle that throws is recorded as a ``scan_error`` cycle and
event; the daemon keeps going.  ``max_cycles`` bounds the loop for
tests and smoke runs; ``request_stop`` (wired to SIGINT by the CLI)
ends it between cycles.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from dataclasses import dataclass

from repro.engine.batch import BatchScanner, FleetSummary
from repro.history.analyzer import (
    DEFAULT_FLAP_MIN_TRANSITIONS,
    DEFAULT_FLAP_WINDOW,
    HealthAnalyzer,
)
from repro.history.events import HealthEvent
from repro.history.store import HistoryStore
from repro.telemetry import get_logger
from repro.telemetry.export import MetricsServer
from repro.telemetry.stats import Stats, publish_on_scrape, stat

log = get_logger("history.monitor")

JSON_CONTENT_TYPE = "application/json; charset=utf-8"


@dataclass
class MonitorConfig:
    """Knobs of one monitor run."""

    interval_s: float = 30.0
    max_cycles: int | None = None
    tags: list[str] | None = None
    workers: int = 1
    flap_window: int = DEFAULT_FLAP_WINDOW
    flap_min_transitions: int = DEFAULT_FLAP_MIN_TRANSITIONS
    #: Cycle rollups returned by ``/history`` and ``repro history``.
    status_cycles: int = 20


@dataclass
class MonitorStats(Stats):
    """What one :meth:`FleetMonitor.run` did and how its latest cycle
    went, published after every cycle; the report gauges stay None, so
    unexported, until a cycle has produced a report."""

    snapshot = True

    cycles: int = stat("repro_monitor_cycles_total",
                       "Monitor scan cycles attempted.")
    scan_errors: int = stat(
        "repro_monitor_scan_errors_total",
        "Monitor cycles that failed before producing a report.")
    events: int = stat()
    events_by_kind: dict[str, int] = stat(
        "repro_history_events_total", "Health events emitted, by kind.",
        label="kind", default_factory=dict)
    last_cycle_seconds: float = stat(
        "repro_monitor_last_cycle_seconds",
        "Wall time of the most recent monitor cycle.", "gauge", default=0.0)
    last_cycle_regressions: int = stat(
        "repro_history_last_cycle_regressions",
        "Regression events in the most recent cycle.", "gauge")
    last_cycle_fixes: int = stat(
        "repro_history_last_cycle_fixes",
        "Fix events in the most recent cycle.", "gauge")
    flapping_rules: int = stat(
        "repro_history_flapping_rules",
        "Rules currently classified as flapping.", "gauge")
    compliance_ratio: float | None = stat(
        "repro_fleet_compliance_ratio",
        "Fleet-wide compliance of the most recent cycle.", "gauge",
        default=None)
    degraded: float | None = stat(
        "repro_degraded_last_cycle",
        "1 when the most recent cycle degraded (faults absorbed,"
        " frames quarantined, or deadline cancellations).", "gauge",
        default=None)
    elapsed_s: float = 0.0

    def render(self) -> str:
        kinds = ", ".join(
            f"{count} {kind}"
            for kind, count in sorted(self.events_by_kind.items())
        ) or "none"
        return (
            f"monitor: {self.cycles} cycle(s) "
            f"({self.scan_errors} scan error(s)) in {self.elapsed_s:.2f}s; "
            f"{self.events} event(s): {kinds}"
        )


class FleetMonitor:
    """Continuous fleet-health monitoring loop.

    Exactly one fleet source must be provided: ``entities`` (static
    list, crawled each cycle as it changes), ``entities_provider`` or
    ``frames_provider`` (called with the 1-based cycle number each
    cycle -- the hook that lets tests mutate the fleet mid-run).
    """

    def __init__(
        self,
        scanner: BatchScanner,
        store: HistoryStore,
        *,
        entities: list | None = None,
        entities_provider=None,
        frames_provider=None,
        config: MonitorConfig | None = None,
        sinks: tuple = (),
        analyzer: HealthAnalyzer | None = None,
        on_cycle=None,
    ):
        sources = [
            source for source in
            (entities, entities_provider, frames_provider)
            if source is not None
        ]
        if len(sources) != 1:
            raise ValueError(
                "provide exactly one of entities / entities_provider /"
                " frames_provider"
            )
        self.scanner = scanner
        self.store = store
        self.config = config or MonitorConfig()
        self.sinks = list(sinks)
        self.analyzer = analyzer or HealthAnalyzer(
            store,
            flap_window=self.config.flap_window,
            flap_min_transitions=self.config.flap_min_transitions,
        )
        self._entities = entities
        self._entities_provider = entities_provider
        self._frames_provider = frames_provider
        self._on_cycle = on_cycle
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._started_monotonic = 0.0
        self.stats = MonitorStats()
        self.last_summary: FleetSummary | None = None
        self.last_cycle_id: int | None = None
        self._metrics = scanner.telemetry.metrics
        publish_on_scrape(self._metrics, store.stats)

    # ---- the loop ----------------------------------------------------------

    def request_stop(self) -> None:
        """Finish the in-flight cycle, then exit the loop."""
        self._stop.set()

    @property
    def ready(self) -> bool:
        """At least one cycle has completed (the ``/readyz`` contract)."""
        return self._ready.is_set()

    def run(self) -> MonitorStats:
        """Drive scan cycles until ``max_cycles`` or :meth:`request_stop`."""
        started = time.perf_counter()
        self._started_monotonic = started
        cycle_no = 0
        max_cycles = self.config.max_cycles
        while not self._stop.is_set():
            cycle_no += 1
            self.run_cycle(cycle_no)
            self._ready.set()
            if max_cycles is not None and cycle_no >= max_cycles:
                break
            # Interruptible sleep: request_stop cuts the wait short.
            if self.config.interval_s > 0:
                self._stop.wait(self.config.interval_s)
        self.stats.elapsed_s = time.perf_counter() - started
        return self.stats

    def run_cycle(self, cycle_no: int) -> FleetSummary | None:
        """One scan cycle end to end; returns its summary (None on a
        scan error, which is recorded, not raised)."""
        config = self.config
        # One cycle's window of spans: what --trace-out writes at exit
        # and /status counts is the last cycle's, not the whole run's.
        self.scanner.telemetry.spans.clear()
        started_at = time.time()
        started = time.perf_counter()
        try:
            if self._frames_provider is not None:
                frames = self._frames_provider(cycle_no)
                summary = self.scanner.scan_frames(
                    frames, tags=config.tags, workers=config.workers
                )
            else:
                entities = (
                    self._entities_provider(cycle_no)
                    if self._entities_provider is not None
                    else self._entities
                )
                summary = self.scanner.scan_entities(
                    entities, tags=config.tags, workers=config.workers
                )
        except Exception as exc:
            elapsed = time.perf_counter() - started
            # BatchScanner wraps failures in ScanStageError, which
            # carries *where* the pipeline died; persist the attribution
            # so `repro history` can tell a crawl failure from a store
            # failure without parsing messages.
            stage = getattr(exc, "stage", "") or ""
            frame = getattr(exc, "frame", "") or ""
            message = f"{type(exc).__name__}: {exc}"
            log.error("scan cycle %d failed: %s\n%s", cycle_no, message,
                      traceback.format_exc())
            cycle_id = self.store.record_scan_error(
                message, stage=stage, frame=frame,
                started_at=started_at, elapsed_s=elapsed,
            )
            events = self.analyzer.observe_error(cycle_id, message)
            self._dispatch(events)
            self.stats.cycles += 1
            self.stats.scan_errors += 1
            self.last_cycle_id = cycle_id
            self._publish_metrics(None, events, elapsed)
            if self._on_cycle is not None:
                self._on_cycle(cycle_no, cycle_id, None, events)
            return None
        cycle_id = self.store.record_cycle(summary)
        events = self.analyzer.observe_report(cycle_id, summary.report)
        self._dispatch(events)
        self.stats.cycles += 1
        self.last_summary = summary
        self.last_cycle_id = cycle_id
        self._publish_metrics(summary, events,
                              time.perf_counter() - started)
        log.info(
            "cycle %d (id %d): %d entities, %d checks, %d event(s)",
            cycle_no, cycle_id, summary.entities_scanned,
            len(summary.report), len(events),
        )
        if self._on_cycle is not None:
            self._on_cycle(cycle_no, cycle_id, summary, events)
        return summary

    def _dispatch(self, events: list[HealthEvent]) -> None:
        self.stats.events += len(events)
        for event in events:
            self.stats.events_by_kind[event.kind] = (
                self.stats.events_by_kind.get(event.kind, 0) + 1
            )
        if not events:
            return
        for sink in self.sinks:
            try:
                sink.emit_many(events)
            except Exception as exc:  # sinks must never kill the loop
                # Log the message, not the exception: a handler that
                # keeps records would pin its traceback, and with it
                # this cycle's state.
                log.warning("event sink %r failed: %s",
                            type(sink).__name__, str(exc))

    def _publish_metrics(self, summary: FleetSummary | None,
                         events: list[HealthEvent],
                         cycle_seconds: float) -> None:
        stats = self.stats
        stats.last_cycle_seconds = cycle_seconds
        stats.last_cycle_regressions = sum(
            1 for e in events if e.kind == "regression")
        stats.last_cycle_fixes = sum(1 for e in events if e.kind == "fix")
        stats.flapping_rules = len(self.analyzer.flapping())
        if summary is not None:
            stats.compliance_ratio = summary.compliance_rate()
            degradation = summary.report.degradation
            stats.degraded = float(degradation is not None
                                   and degradation.degraded)
        stats.publish(self._metrics)
        flap_gauge = self._metrics.gauge(
            "repro_history_rule_flapping",
            "1 for each rule currently flapping.",
            labels=("target", "entity", "rule"),
        )
        for event in events:
            if event.kind == "flap_start":
                flap_gauge.set(1, target=event.target, entity=event.entity,
                               rule=event.rule)
            elif event.kind == "flap_end":
                flap_gauge.remove(target=event.target, entity=event.entity,
                                  rule=event.rule)

    # ---- the persistent HTTP endpoint --------------------------------------

    def serve(self, port: int = 0, *, host: str = "127.0.0.1") -> MetricsServer:
        """Start the live endpoint; returns the running server (its
        ``.port`` is the bound port; ``.close()`` shuts it down)."""
        return MetricsServer(
            self._metrics, port, host=host, routes=self.routes()
        )

    def routes(self) -> dict:
        """The monitor's route table (``/metrics`` is implicit)."""
        return {
            "/healthz": self._route_healthz,
            "/readyz": self._route_readyz,
            "/status": self._route_status,
            "/history": self._route_history,
        }

    @staticmethod
    def _json(status: int, payload: dict) -> tuple[int, str, bytes]:
        body = (json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return status, JSON_CONTENT_TYPE, body.encode("utf-8")

    def _route_healthz(self) -> tuple[int, str, bytes]:
        return 200, "text/plain; charset=utf-8", b"ok\n"

    def _route_readyz(self) -> tuple[int, str, bytes]:
        if self.ready:
            return 200, "text/plain; charset=utf-8", b"ready\n"
        return 503, "text/plain; charset=utf-8", b"no completed cycle yet\n"

    def _route_status(self) -> tuple[int, str, bytes]:
        last = None
        if self.last_cycle_id is not None:
            row = self.store.cycle(self.last_cycle_id)
            last = row.to_dict() if row is not None else None
        top = [
            {"target": key[0], "entity": key[1], "rule": key[2],
             "regressions": count}
            for key, count in self.analyzer.regression_counts(
                self.config.status_cycles
            )[:10]
        ]
        return self._json(200, {
            "ready": self.ready,
            "cycles_completed": self.stats.cycles,
            "scan_errors": self.stats.scan_errors,
            "events_total": self.stats.events,
            "events_by_kind": dict(self.stats.events_by_kind),
            "interval_s": self.config.interval_s,
            "max_cycles": self.config.max_cycles,
            "uptime_s": round(
                time.perf_counter() - self._started_monotonic, 3
            ) if self._started_monotonic else 0.0,
            "last_cycle": last,
            "last_cycle_spans": len(self.scanner.telemetry.spans),
            "flapping": self.analyzer.flapping_details(),
            "top_regressing": top,
        })

    def _route_history(self) -> tuple[int, str, bytes]:
        rows = self.store.cycles(last=self.config.status_cycles)
        return self._json(200, {
            "cycles": [row.to_dict() for row in rows],
            "flapping": self.analyzer.flapping_details(),
            "targets": self.store.targets(),
        })
