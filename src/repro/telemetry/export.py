"""Exporters: Chrome ``trace_event`` JSON, Prometheus text exposition,
and a minimal one-shot HTTP scrape endpoint.

Both exporters are offline-friendly by design: a fleet scan writes
``trace.json`` / ``metrics.prom`` files that standard tooling opens
directly (``chrome://tracing`` / Perfetto for traces, ``promtool`` or a
Pushgateway-style importer for metrics) -- no agent or sidecar needed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

from repro.telemetry.metrics import Counter, Gauge, Histogram
from repro.telemetry.spans import Span, SpanCollector

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


# ---- Chrome trace_event ------------------------------------------------------


def to_chrome_trace(collector: SpanCollector) -> dict:
    """Spans -> Chrome ``trace_event`` JSON object format.

    Every span becomes one complete ("X") event; timestamps are
    microseconds relative to the collector's origin, so the earliest
    span sits near t=0 in the viewer.  Thread ids are remapped to small
    stable integers and labelled with metadata events so Perfetto shows
    ``worker-0``, ``worker-1``, ... lanes instead of raw ids.
    """
    spans = sorted(collector.finished(), key=lambda s: (s.start_s, s.span_id))
    pid = os.getpid()
    tids: dict[int, int] = {}
    events: list[dict] = []
    for span in spans:
        tid = tids.setdefault(span.thread_id, len(tids))
        args = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": round(span.start_s * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": f"worker-{tid}"},
        }
        for tid in sorted(tids.values())
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(collector: SpanCollector, path: str) -> int:
    """Write the trace file; returns the number of span events."""
    payload = to_chrome_trace(collector)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    return sum(1 for e in payload["traceEvents"] if e.get("ph") == "X")


# ---- Prometheus text exposition ----------------------------------------------


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


@functools.lru_cache(maxsize=4096)
def _format_labels(names: tuple[str, ...], values: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    """``{name="value",...}``, escaped; rendered once per label set, so
    a scrape re-renders only the sample values."""
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    pairs.extend(
        f'{name}="{_escape_label_value(value)}"' for name, value in extra
    )
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(registry) -> str:
    """Registry -> Prometheus text format (version 0.0.4)."""
    registry.collect()
    lines: list[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        if isinstance(family, Histogram):
            for values, child in family.samples():
                cumulative = 0
                for bound, bucket in zip(family.buckets,
                                         child.bucket_counts):
                    cumulative += bucket
                    labels = _format_labels(
                        family.label_names, values,
                        (("le", _format_value(bound)),),
                    )
                    lines.append(
                        f"{family.name}_bucket{labels} {cumulative}"
                    )
                cumulative += child.bucket_counts[-1]
                labels = _format_labels(
                    family.label_names, values, (("le", "+Inf"),)
                )
                lines.append(f"{family.name}_bucket{labels} {cumulative}")
                labels = _format_labels(family.label_names, values)
                lines.append(
                    f"{family.name}_sum{labels} "
                    f"{_format_value(child.total)}"
                )
                lines.append(f"{family.name}_count{labels} {child.count}")
        elif isinstance(family, (Counter, Gauge)):
            samples = family.samples()
            if not samples and not family.label_names:
                samples = [((), 0.0)]
            for values, value in samples:
                labels = _format_labels(family.label_names, values)
                lines.append(
                    f"{family.name}{labels} {_format_value(value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def write_metrics(registry, path: str) -> int:
    """Write the exposition file; returns the number of sample lines."""
    text = render_prometheus(registry)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return sum(
        1 for line in text.splitlines() if line and not line.startswith("#")
    )


# ---- HTTP scrape endpoint ----------------------------------------------------

#: A route handler returns ``(status, content_type, body_bytes)``; it is
#: invoked per request, so bodies reflect live state at scrape time.
RouteHandler = "Callable[[], tuple[int, str, bytes]]"


def _make_handler(registry, routes=None):
    """Request handler serving ``/metrics`` plus optional extra routes.

    ``routes`` maps a path (e.g. ``"/status"``) to a zero-argument
    callable returning ``(status_code, content_type, body)``.  The
    monitor daemon uses this to add ``/healthz`` / ``/readyz`` /
    ``/status`` / ``/history`` next to the Prometheus exposition without
    a second server.
    """
    extra = dict(routes or {})

    class MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (stdlib API name)
            path = self.path.split("?", 1)[0].rstrip("/") or "/metrics"
            if path == "/metrics":
                self._reply(
                    200,
                    PROMETHEUS_CONTENT_TYPE,
                    render_prometheus(registry).encode("utf-8"),
                )
                return
            handler = extra.get(path)
            if handler is None:
                known = ", ".join(sorted(["/metrics", *extra]))
                self.send_error(404, f"try one of: {known}")
                return
            try:
                status, content_type, body = handler()
            except Exception as exc:  # route bugs must not kill the server
                self._reply(
                    500, "text/plain; charset=utf-8",
                    f"internal error: {exc}".encode("utf-8"),
                )
                return
            self._reply(status, content_type, body)

        def _reply(self, status: int, content_type: str,
                   body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *args):  # silence per-request noise
            return None

    return MetricsHandler


def serve_metrics_once(registry, port: int, *,
                       host: str = "127.0.0.1") -> int:
    """Serve exactly one scrape of ``/metrics`` and return the bound port.

    One-shot by design: a CLI run blocks until a single ``curl`` /
    Prometheus probe collects the final numbers, then exits -- no
    lingering socket.  Pass ``port=0`` to bind an ephemeral port.

    Plain ``HTTPServer``, not the threading variant: ``handle_request``
    must finish writing the response before returning, because the
    caller is about to exit the process (a daemon handler thread would
    be killed mid-response).
    """
    server = HTTPServer((host, port), _make_handler(registry))
    try:
        bound = server.server_address[1]
        server.handle_request()
    finally:
        server.server_close()
    return bound


class MetricsServer:
    """Background scrape endpoint for long-running scan loops.

    Serves ``/metrics`` (plus any extra ``routes``) on a daemon thread
    until :meth:`close`; suits a resident
    :class:`~repro.engine.batch.BatchScanner` process scraped on an
    interval by a real Prometheus.  ``repro validate --metrics-port``
    keeps one of these alive for the duration of the run; ``repro
    monitor`` keeps one for the daemon's lifetime with the live
    ``/status`` / ``/history`` routes attached.
    """

    def __init__(self, registry, port: int = 0, *, host: str = "127.0.0.1",
                 routes=None):
        self._server = ThreadingHTTPServer(
            (host, port), _make_handler(registry, routes=routes)
        )
        self.port: int = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="metrics-server",
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
