"""Offline scan-trace analysis: the ``repro trace`` subcommand.

Consumes a Chrome ``trace_event`` file written by ``--trace-out`` and
answers the operator questions a raw Perfetto timeline makes you
eyeball:

- **critical path** -- the chain of spans that determines the cycle's
  end-to-end latency (at each level, the child that finishes last);
- **worker utilization / gantt** -- per thread lane, how much of the
  trace window was spent inside spans, and where the lane's work sat on
  the timeline.

Everything here is pure post-processing of the JSON file -- no live
telemetry objects involved -- so it works on traces captured on another
host entirely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

_BAR_WIDTH = 40


@dataclass
class TraceEvent:
    """One complete ("X") event from the trace file."""

    name: str
    cat: str
    tid: int
    ts: float                    # microseconds
    dur: float                   # microseconds
    span_id: int | None
    parent_id: int | None
    args: dict

    @property
    def end(self) -> float:
        return self.ts + self.dur


class TraceError(ValueError):
    """The file is not a usable Chrome trace."""


def load_trace(path: str) -> list[TraceEvent]:
    """Parse the complete events out of a ``trace_event`` JSON file.

    Accepts both the object format (``{"traceEvents": [...]}`` -- what
    ``--trace-out`` writes) and the bare array format.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        raise TraceError(f"cannot read trace {path!r}: {error}") from None
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
    else:
        events = payload
    if not isinstance(events, list):
        raise TraceError(f"{path!r} has no traceEvents array")
    out: list[TraceEvent] = []
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        args = event.get("args") or {}
        out.append(TraceEvent(
            name=str(event.get("name", "")),
            cat=str(event.get("cat", "")),
            tid=int(event.get("tid", 0)),
            ts=float(event.get("ts", 0.0)),
            dur=float(event.get("dur", 0.0)),
            span_id=args.get("span_id"),
            parent_id=args.get("parent_id"),
            args=args,
        ))
    return out


# ---- analyses ----------------------------------------------------------------


def _union_us(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly-nested/overlapping intervals."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def _critical_path(events: list[TraceEvent], root: TraceEvent) -> list[dict]:
    """The chain of spans that bounds the root's end-to-end duration.

    Fork-join reading: a span cannot end before its last-finishing
    child, so walking 'latest-ending child' from the root yields the
    path an operator must shorten to shorten the cycle.
    """
    children: dict[int, list[TraceEvent]] = {}
    for event in events:
        if event.parent_id is not None:
            children.setdefault(event.parent_id, []).append(event)
    path: list[dict] = []
    node = root
    root_dur = root.dur or 1.0
    seen: set[int] = set()
    while node is not None:
        path.append({
            "name": node.name,
            "category": node.cat,
            "start_ms": round((node.ts - root.ts) / 1000.0, 3),
            "duration_ms": round(node.dur / 1000.0, 3),
            "pct_of_root": round(100.0 * node.dur / root_dur, 1),
        })
        if node.span_id is None or node.span_id in seen:
            break
        seen.add(node.span_id)
        branch = children.get(node.span_id)
        if not branch:
            break
        node = max(branch, key=lambda e: (e.end, e.dur, -e.ts))
    return path


def _worker_lanes(events: list[TraceEvent],
                  extent: tuple[float, float]) -> list[dict]:
    lanes: dict[int, list[TraceEvent]] = {}
    for event in events:
        lanes.setdefault(event.tid, []).append(event)
    start_us, end_us = extent
    window = max(end_us - start_us, 1.0)
    out = []
    for tid, lane_events in sorted(lanes.items()):
        busy = _union_us([(e.ts, e.end) for e in lane_events])
        first = min(e.ts for e in lane_events)
        last = max(e.end for e in lane_events)
        out.append({
            "tid": tid,
            "spans": len(lane_events),
            "busy_ms": round(busy / 1000.0, 3),
            "utilization": round(busy / window, 4),
            "first_ms": round((first - start_us) / 1000.0, 3),
            "last_ms": round((last - start_us) / 1000.0, 3),
            "gantt": _gantt_bar(first, last, busy, start_us, window),
        })
    return out


def _gantt_bar(first: float, last: float, busy: float,
               origin: float, window: float) -> str:
    """A fixed-width lane bar: '.' idle, '=' active span extent,
    '#' proportionally filled by actual busy time."""
    left = int(_BAR_WIDTH * (first - origin) / window)
    right = max(left + 1, int(round(_BAR_WIDTH * (last - origin) / window)))
    right = min(right, _BAR_WIDTH)
    extent = max(right - left, 1)
    filled = min(extent, max(1, int(round(extent * busy
                                          / max(last - first, 1.0)))))
    return ("." * left + "#" * filled + "=" * (extent - filled)
            + "." * (_BAR_WIDTH - left - extent))


def analyze_trace(events: list[TraceEvent], *, top: int = 10) -> dict:
    """Full analysis of one trace: critical path and lanes."""
    if not events:
        raise TraceError("trace contains no complete span events")
    roots = [e for e in events if e.parent_id is None]
    root = max(roots or events, key=lambda e: e.dur)
    start_us = min(e.ts for e in events)
    end_us = max(e.end for e in events)
    return {
        "spans": len(events),
        "root": {"name": root.name, "category": root.cat,
                 "duration_ms": round(root.dur / 1000.0, 3)},
        "duration_ms": round((end_us - start_us) / 1000.0, 3),
        "critical_path": _critical_path(events, root)[:max(top, 1)],
        "workers": _worker_lanes(events, (start_us, end_us)),
    }


# ---- rendering ---------------------------------------------------------------


def render_trace_analysis(analysis: dict, *, top: int = 10) -> str:
    lines: list[str] = []
    root = analysis["root"]
    lines.append(
        f"{analysis['spans']} spans over {analysis['duration_ms']:.1f} ms"
    )
    lines.append("")
    lines.append(
        f"critical path (root {root['name']}, {root['duration_ms']:.1f} ms):"
    )
    for depth, hop in enumerate(analysis["critical_path"]):
        lines.append(
            f"  {'  ' * depth}{hop['name']}  "
            f"{hop['duration_ms']:.2f} ms  {hop['pct_of_root']:.1f}%"
        )
    lines.append("")
    lines.append("worker lanes (#=busy, ==idle-in-extent, .=absent):")
    for lane in analysis["workers"][:max(top, 1)]:
        lines.append(
            f"  tid {lane['tid']:<3} "
            f"|{lane['gantt']}| "
            f"{lane['busy_ms']:>9.1f} ms busy  "
            f"{lane['utilization'] * 100:5.1f}%  "
            f"({lane['spans']} spans)"
        )
    return "\n".join(lines)
