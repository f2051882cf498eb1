"""The traced run: spans around calls into each layer, self times, counts.

The tracer wraps public functions of the program from outside it (see
:data:`TARGETS`) and records, for each call, a span: id, layer name,
start, end, parent span and thread.  Parents come from a thread-local
stack; a call on a thread with an empty stack (a fan-out worker) hangs
under the innermost open span of the thread that runs the cycle, which
during fan-out is ``validate_frames``.

Self time tiles the cycle's wall clock: every instant of the cycle is
split equally among the innermost open spans (open spans with no open
child).  On one thread this is a span's duration minus its children's;
under fan-out two busy workers each get half of the instant.  The
cycle's own root span keeps the instants no layer span covers, which is
``cycle.unattributed_ms``, so the layer times plus it add up to the
traced cycle wall time.

Wrappers are installed only around traced cycles; the traced run
alternates traced and untraced cycles, and the ratio of their median
wall times is the tracing overhead.  A target the program no longer has
is skipped, and its layer reads 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

from measure import Run, set_up

#: Spans of this many traced cycles are kept and written out.
SPAN_CYCLES_KEPT = 3

_OPEN, _CLOSE = 1, 0


def _rules_loaded(ruleset) -> dict:
    return {"cvl.rules_loaded": len(ruleset.rules)}


def _crawled(frames) -> dict:
    return {
        "crawler.frames": len(frames),
        "crawler.files": sum(len(f.files.files_under("/")) for f in frames),
    }


def _rendered(text) -> dict:
    return {"engine.report.bytes": len(text.encode("utf-8"))}


def _observed(events) -> dict:
    return {"history.events": len(events)}


#: (layer, module, attribute path, count hook run on the call's result).
TARGETS = (
    ("cvl.load", "repro.rules", "load_builtin_validator", None),
    ("cvl.load", "repro.engine.engine", "ConfigValidator.ruleset_for", None),
    ("cvl.load", "repro.cvl.loader", "load_rules", _rules_loaded),
    ("crawler.crawl", "repro.crawler.crawler", "Crawler.crawl_many", _crawled),
    ("engine.normalizer.discover", "repro.engine.normalizer",
     "Normalizer.candidate_files", None),
    ("augtree.parse", "repro.engine.parse_cache", "ParseCache.get_or_parse",
     None),
    ("engine.evaluate", "repro.engine.plan", "RulePlan.evaluate_fused", None),
    ("engine.evaluate", "repro.engine.evaluators", "evaluate_tree", None),
    ("engine.evaluate", "repro.engine.evaluators", "evaluate_schema", None),
    ("engine.evaluate", "repro.engine.evaluators", "evaluate_path", None),
    ("engine.evaluate", "repro.engine.evaluators", "evaluate_script", None),
    ("engine.validate", "repro.engine.engine",
     "ConfigValidator.validate_frames", None),
    ("engine.incremental.fingerprint", "repro.crawler.fingerprint",
     "FrameFingerprint.frame_digest", None),
    ("engine.incremental.lookup", "repro.engine.incremental",
     "VerdictStore.fresh_result", None),
    ("engine.report.render", "repro.engine.report", "render_json", _rendered),
    ("engine.batch.rollup", "repro.engine.batch", "BatchScanner.scan_entities",
     None),
    ("history.store.record", "repro.history.store", "HistoryStore.record_cycle",
     None),
    ("history.analyzer.observe", "repro.history.analyzer",
     "HealthAnalyzer.observe_report", _observed),
    ("history.monitor", "repro.history.monitor", "FleetMonitor.run_cycle",
     None),
    ("telemetry.scrape", "repro.telemetry.export", "render_prometheus", None),
)

TIMED_LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))

#: Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    **{f"{layer}_ms": "ms" for layer in TIMED_LAYERS},
    "cycle.unattributed_ms": "ms",
    "cycle.traced_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "cvl.rules_loaded": "count",
    "crawler.frames": "count",
    "crawler.files": "count",
    "engine.parse_cache.hits": "count",
    "engine.parse_cache.misses": "count",
    "engine.parse_cache.hit_ratio": "ratio",
    "engine.parse_cache.bytes_parsed": "B",
    "engine.checks": "count",
    "engine.plan.rules_fused": "count",
    "engine.plan.rules_direct": "count",
    "engine.plan.fusion_ratio": "ratio",
    "engine.fanout_efficiency": "ratio",
    "engine.incremental.rules_replayed": "count",
    "engine.incremental.rules_evaluated": "count",
    "engine.incremental.replay_ratio": "ratio",
    "engine.incremental.frames_dirty": "count",
    "engine.report.bytes": "B",
    "history.store.db_kb_per_cycle": "KiB",
    "history.events": "count",
    "telemetry.spans_retained": "count",
    "mem.rss_growth_kb_per_cycle": "KiB",
    "exec.shards": "count",
    "exec.bytes_out": "B",
    "exec.bytes_in": "B",
    "exec.frames_fallback": "count",
}


def _resolve(module_name: str, path: str):
    """(owner, attribute name, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, name = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(name)
    else:
        original = getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


class Tracer:
    """Span recorder installed around traced cycles."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._main_stack: list[int] = [0]
        self.spans: list[tuple] = []
        self.stash: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []
        for layer, module_name, path, hook in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                print(f"tracer: {module_name}.{path} not found; "
                      f"{layer} reads 0", file=sys.stderr)
                continue
            owner, name, original = found
            wrapper = self._wrap(layer, original, hook)
            self._patches.append((owner, name, original, wrapper))
            if not isinstance(owner, type):
                # Modules that imported the function by name call it
                # through their own attribute; patch those too.
                for module in list(sys.modules.values()):
                    if (module is not owner
                            and getattr(module, "__name__", "").startswith("repro")
                            and getattr(module, name, None) is original):
                        self._patches.append((module, name, original, wrapper))

    def _wrap(self, layer: str, original, hook):
        local = self._local
        ids = self._ids
        spans = self.spans
        stash = self.stash
        main_stack = self._main_stack
        clock = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else main_stack[-1]
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, layer, start, end, parent, get_ident()))
            if hook is not None:
                stash.append((hook, result))
            return result

        functools.update_wrapper(traced, original)
        return traced

    def begin_cycle(self) -> None:
        self.spans.clear()
        self.stash.clear()
        for owner, name, _original, wrapper in self._patches:
            setattr(owner, name, wrapper)
        # The cycle's thread uses the shared main stack; span 0 is the root.
        self._local.stack = self._main_stack
        self._root_start = time.perf_counter()

    def end_cycle(self) -> None:
        end = time.perf_counter()
        for owner, name, original, _wrapper in self._patches:
            setattr(owner, name, original)
        self.spans.append((0, "cycle", self._root_start, end, None,
                           threading.get_ident()))

    def cycle_profile(self, workers: int) -> dict[str, float]:
        """Self time per layer (ms), hook counts and fan-out busy time of
        the cycle just traced."""
        spans = self.spans
        for span in spans:
            self.calls[span[1]] += 1
        layer_of = {span[0]: span[1] for span in spans}
        parent_of = {span[0]: span[4] for span in spans}
        events = []
        for sid, _layer, start, end, _parent, _thread in spans:
            events.append((start, _OPEN, sid))
            events.append((end, _CLOSE, -sid))
        events.sort()
        share: dict[str, float] = defaultdict(float)
        open_children: dict[int, int] = defaultdict(int)
        is_open: set[int] = set()
        innermost: set[int] = set()
        previous = events[0][0]
        for when, kind, key in events:
            if innermost:
                part = (when - previous) / len(innermost)
                for sid in innermost:
                    share[layer_of[sid]] += part
            previous = when
            sid = key if kind == _OPEN else -key
            parent = parent_of[sid]
            if kind == _OPEN:
                if parent in is_open:
                    open_children[parent] += 1
                    innermost.discard(parent)
                is_open.add(sid)
                innermost.add(sid)
            else:
                is_open.discard(sid)
                innermost.discard(sid)
                if parent in is_open:
                    open_children[parent] -= 1
                    if not open_children[parent]:
                        innermost.add(parent)
        profile = {f"{layer}_ms": 0.0 for layer in TIMED_LAYERS}
        for layer, seconds in share.items():
            key = "cycle.unattributed_ms" if layer == "cycle" else f"{layer}_ms"
            profile[key] = seconds * 1000
        root = next(span for span in spans if span[0] == 0)
        profile["cycle.traced_ms"] = (root[3] - root[2]) * 1000
        for hook, result in self.stash:
            for name, value in hook(result).items():
                profile[name] = profile.get(name, 0) + value
        busy, wall = _fanout_busy(spans)
        profile["_validate_busy"] = busy
        profile["_validate_capacity"] = workers * wall
        return profile


def _fanout_busy(spans) -> tuple[float, float]:
    """(busy, wall) seconds of ``validate_frames``: busy is the union, per
    thread, of the intervals of its direct child spans."""
    validate = {s[0]: s for s in spans if s[1] == "engine.validate"}
    per_thread: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for sid, _layer, start, end, parent, thread in spans:
        if parent in validate:
            per_thread[(parent, thread)].append((start, end))
    busy = 0.0
    for intervals in per_thread.values():
        intervals.sort()
        cover_start, cover_end = intervals[0]
        for start, end in intervals[1:]:
            if start > cover_end:
                busy += cover_end - cover_start
                cover_start, cover_end = start, end
            else:
                cover_end = max(cover_end, end)
        busy += cover_end - cover_start
    wall = sum(s[3] - s[2] for s in validate.values())
    return busy, wall


def _stat(stats, name: str) -> float:
    """A numeric field of a program stats object; 0 when absent, so a
    renamed or removed field reads 0 instead of stopping the run."""
    value = getattr(stats, name, 0)
    return value if isinstance(value, (int, float)) else 0


def _stats_counts(workload, report) -> dict[str, float]:
    """Per-cycle counts read from the program's own stats objects."""
    cache = workload.cache_delta()
    lookups = cache.hits + cache.misses
    counts = {
        "engine.parse_cache.hits": cache.hits,
        "engine.parse_cache.misses": cache.misses,
        "engine.parse_cache.hit_ratio": cache.hits / lookups if lookups else 0.0,
        "engine.parse_cache.bytes_parsed": cache.bytes_parsed,
        "engine.checks": len(report),
    }
    plan = getattr(report, "plan", None)
    for name in ("rules_fused", "rules_direct", "fusion_ratio"):
        counts[f"engine.plan.{name}"] = _stat(plan, name)
    incremental = getattr(report, "incremental", None)
    for name in ("rules_replayed", "rules_evaluated", "frames_dirty"):
        counts[f"engine.incremental.{name}"] = _stat(incremental, name)
    attempted = (counts["engine.incremental.rules_replayed"]
                 + counts["engine.incremental.rules_evaluated"])
    counts["engine.incremental.replay_ratio"] = (
        counts["engine.incremental.rules_replayed"] / attempted
        if attempted else 0.0)
    exec_stats = getattr(report, "exec_stats", None)
    for name in ("shards", "bytes_out", "bytes_in", "frames_fallback"):
        counts[f"exec.{name}"] = _stat(exec_stats, name)
    return counts


def trace_run(workload, seconds: float, out_dir, seed: int):
    """Alternate untraced and traced cycles for ``seconds``; returns the
    per-layer metrics (means per traced cycle, times in reference-speed
    ms), the run and the oracle self-test outcome."""
    set_up(workload)
    self_test = workload.expect.self_test(workload.cycle())
    tracer = Tracer()
    run = Run(workload)
    db_bytes = getattr(workload, "db_bytes", None)
    db_start = db_bytes() if db_bytes else 0
    untraced: list[float] = []
    traced: list[float] = []
    profiles: list[dict[str, float]] = []
    kept_spans: list[list[tuple]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if len(run.walls) % 2 == 0:
            run.one_cycle()
            untraced.append(run.ref_ms[-1])
            continue
        report = run.one_cycle(tracer.begin_cycle, tracer.end_cycle)
        if report is None:
            continue
        traced.append(run.ref_ms[-1])
        scale = run.speed_factor()
        profile = {
            name: value * scale if name.endswith("_ms") else value
            for name, value in tracer.cycle_profile(workload.workers).items()
        }
        profile.update(_stats_counts(workload, report))
        profiles.append(profile)
        if len(kept_spans) < SPAN_CYCLES_KEPT:
            kept_spans.append(list(tracer.spans))
    if not profiles:
        raise RuntimeError("no traced cycle completed")

    metrics = {
        name: sum(p.get(name, 0.0) for p in profiles) / len(profiles)
        for name in LAYER_UNITS
    }
    busy = sum(p["_validate_busy"] for p in profiles)
    capacity = sum(p["_validate_capacity"] for p in profiles)
    metrics["engine.fanout_efficiency"] = busy / capacity if capacity else 0.0
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced))
    if db_bytes:
        metrics["history.store.db_kb_per_cycle"] = (
            (db_bytes() - db_start) / 1024 / len(run.walls))
    spans_retained = getattr(workload, "spans_retained", None)
    if spans_retained:
        metrics["telemetry.spans_retained"] = spans_retained()
    metrics["mem.rss_growth_kb_per_cycle"] = run.rss_growth_kb_per_cycle()

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    table = layer_table(workload.name, metrics, tracer.calls, len(profiles))
    (out_dir / f"layers-{stem}.txt").write_text(table)
    (out_dir / f"spans-{stem}.json").write_text(json.dumps({
        "fields": ["id", "layer", "start_s", "end_s", "parent", "thread"],
        "cycles": kept_spans,
    }))
    print(table, end="")
    return metrics, run, self_test


def layer_table(name: str, metrics: dict, calls: dict, cycles: int) -> str:
    """Layer self times next to the traced cycle wall time."""
    wall = metrics["cycle.traced_ms"]
    rows = [f"# {name}: layer self time per traced cycle "
            f"({cycles} traced cycles)",
            f"{'layer':34s} {'ms/cycle':>10s} {'share':>7s} {'calls/cycle':>12s}"]
    total = 0.0
    for layer in (*TIMED_LAYERS, "cycle"):
        key = "cycle.unattributed_ms" if layer == "cycle" else f"{layer}_ms"
        value = metrics[key]
        total += value
        label = "(unattributed)" if layer == "cycle" else layer
        per_cycle = calls.get(layer, 0) / cycles if layer != "cycle" else 1
        rows.append(f"{label:34s} {value:10.3f} {value / wall:7.1%} "
                    f"{per_cycle:12.1f}")
    rows.append(f"{'sum of layers':34s} {total:10.3f} {total / wall:7.1%}")
    rows.append(f"{'traced cycle wall':34s} {wall:10.3f}")
    rows.append(f"tracing overhead (traced p50 / untraced p50): "
                f"{metrics['trace.overhead_ratio']:.3f}")
    return "\n".join(rows) + "\n"
