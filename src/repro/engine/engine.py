"""The ConfigValidator engine: manifests + CVL rules applied to frames.

Pipeline per the paper's Figure 1: the *Config Extractor* (crawler)
produced a frame; the engine drives the *Data Normalizer* (lenses /
schema parsers) and the *Rule Engine* (per-type evaluators, composite
conjunction/disjunction across entities), and hands results to *Output
Processing* (:mod:`repro.engine.report`).

The same engine instance validates hosts, images, containers, and cloud
frames; entities differ only in what their frames contain.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from repro.chaos.deadline import RunDeadline
from repro.chaos.fabric import _CHAOS
from repro.errors import EngineError, EntityNotFound, ReproError
from repro.augtree.lenses import LensRegistry
from repro.crawler.crawler import Crawler
from repro.crawler.entities import Entity
from repro.crawler.fingerprint import FrameFingerprint
from repro.crawler.frame import ConfigFrame
from repro.cvl.composite_expr import (
    evaluate_composite,
    referenced_entities,
    referenced_pairs,
)
from repro.cvl.loader import load_rules
from repro.cvl.manifest import Manifest, load_manifests
from repro.cvl.model import (
    CompositeRule,
    PathRule,
    Rule,
    RuleSet,
    SchemaRule,
    ScriptRule,
    TreeRule,
)
from repro.engine.evaluators import (
    _error_result,
    evaluate_path,
    evaluate_schema,
    evaluate_script,
    evaluate_tree,
)
from repro.engine.delta import RunRecord, run_delta
from repro.engine.incremental import (
    DependencyRecorder,
    IncrementalRunStats,
    VerdictStore,
    ruleset_digest,
)
from repro.engine.normalizer import Normalizer
from repro.engine.parse_cache import DEFAULT_CACHE_SIZE, CacheStats, ParseCache
from repro.engine.plan import (
    PlanRunStats,
    RulePlan,
    plan_cache_stats,
    plan_for,
)
from repro.engine.provenance import (
    ROUTE_COMPOSITE,
    ROUTE_DIRECT,
    ROUTE_FUSED,
    ExcerptReader,
    build_provenance,
)
from repro.engine.stages import StageTimings
from repro.engine.results import (
    Evidence,
    Outcome,
    RuleResult,
    ValidationReport,
    Verdict,
)
from repro.schema import SchemaParserRegistry
from repro.telemetry import DISABLED, Telemetry, get_logger
from repro.telemetry.stats import publish_on_scrape

log = get_logger("engine")

#: Enum.value goes through a descriptor; the hot flush path uses this
#: precomputed map instead.
_VERDICT_STR = {verdict: verdict.value for verdict in Verdict}

#: Resolves a cvl_file reference to YAML text.
Resolver = Callable[[str], str]

#: The worker-busy counter family: ``validate_frames`` adds each frame's
#: seconds, and :class:`~repro.engine.batch.BatchScanner` reads it.
WORKER_BUSY = ("repro_worker_busy_seconds_total",
               "Aggregate worker-seconds spent validating frames.")


#: A per-entity verdict as a composite term sees it.
_TERM_VALUE = {Verdict.COMPLIANT: True, Verdict.NONCOMPLIANT: False,
               Verdict.NOT_APPLICABLE: None, Verdict.ERROR: None}


class _RunContext:
    """Composite-expression context for one validation run.

    Recording a frame only keeps its placements; a per-entity verdict is
    computed the first time a composite asks for it, then memoized.
    """

    def __init__(self, validator: "ConfigValidator", normalizer: Normalizer):
        self._validator = validator
        self._normalizer = normalizer
        #: (component, rule name) -> bool | None, filled on request
        self._verdicts: dict[tuple[str, str], bool | None] = {}
        #: component -> list of (frame, manifest) pairs it was evaluated on
        self.placements: dict[str, list[tuple[ConfigFrame, Manifest]]] = {}
        #: component -> the result lists of those placements
        self._results: dict[str, list[list[RuleResult]]] = {}

    def record(self, manifest: Manifest, frame: ConfigFrame,
               results: list[RuleResult]) -> None:
        self.placements.setdefault(manifest.entity, []).append((frame, manifest))
        self._results.setdefault(manifest.entity, []).append(results)

    # -- CompositeContext protocol ------------------------------------------

    def rule_verdict(self, entity: str, config: str) -> bool | None:
        key = (entity, config)
        if key in self._verdicts:
            return self._verdicts[key]
        # Cross-frame merge: a composite term holds if the per-entity
        # rule is COMPLIANT on *some* entity of the group (the paper's
        # Listing 1 reads "is ip_forward disabled [on the host that
        # carries sysctl]", not "on every frame in the run"); otherwise
        # NONCOMPLIANT anywhere makes it False, else None.
        verdict: bool | None = None
        for results in self._results.get(entity, ()):
            for result in results:
                if result.rule.name != config or result.entity != entity:
                    continue
                value = _TERM_VALUE[result.verdict]
                if value is True:
                    self._verdicts[key] = True
                    return True
                if value is False:
                    verdict = False
        self._verdicts[key] = verdict
        return verdict

    def lookup_value(
        self, entity: str, config: str, config_path: str | None
    ) -> str | None:
        for frame, manifest in self.placements.get(entity, []):
            value = self._lookup_in(frame, manifest, config, config_path)
            if value is not None:
                return value
        return None

    def _lookup_in(
        self,
        frame: ConfigFrame,
        manifest: Manifest,
        config: str,
        config_path: str | None,
    ) -> str | None:
        expression = f"{config_path}/{config}" if config_path else f"**/{config}"
        files = self._normalizer.candidate_files(
            frame, manifest.config_search_paths, []
        )
        for path in files:
            tree = self._normalizer.try_tree(frame, path, manifest.lens)
            if tree is None:
                continue
            node = tree.first(expression)
            if node is not None:
                return node.value if node.value is not None else ""
        # Fall back to plugin runtime state under the component's namespace
        # (lets composites reference live state, e.g. sysctl values).
        recorder = self._normalizer.recorder
        if recorder is not None:
            recorder.record_runtime(frame, manifest.entity)
        namespace = frame.runtime.get(manifest.entity)
        if namespace is not None:
            return namespace.get(config)
        return None


class _RunPrep:
    """Everything one validation run's per-frame evaluation needs.

    Built by :meth:`ConfigValidator._prepare_run` and consumed by
    :meth:`ConfigValidator._evaluate_frame_rules` for every frame, at
    any worker count.  ``plans`` holds a :class:`RulePlan` for every
    enabled pack, fused or not (``use_plans=False``); ``plan_stats`` is
    None when unfused.
    ``block_key`` is what a frame's replay block is stored under besides
    its whole-frame digest (``frame_digests``): the ruleset digests,
    tags and provenance flag.
    """

    __slots__ = (
        "tags", "use_plans", "provenance", "excerpts", "store", "recorder",
        "inc_stats", "fingerprints", "clean_frames", "digests", "plans",
        "plan_stats", "normalizer", "timings", "deadline", "frame_digests",
        "block_key",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])


class ConfigValidator:
    """Applies CVL rule packs to configuration frames."""

    def __init__(
        self,
        *,
        resolver: Resolver | None = None,
        lenses: LensRegistry | None = None,
        schemas: SchemaParserRegistry | None = None,
        crawler: Crawler | None = None,
        parse_cache: ParseCache | None = None,
        cache_size: int | None = None,
        workers: int = 1,
        telemetry: Telemetry | None = None,
        verdict_store: VerdictStore | None = None,
        use_plans: bool = True,
        provenance: bool = False,
        deadline_s: float | None = None,
        frame_deadline_s: float | None = None,
    ):
        self._resolver = resolver
        self._lenses = lenses
        self._schemas = schemas
        self.telemetry = telemetry or DISABLED
        self._manifests: dict[str, Manifest] = {}
        self._rulesets: dict[str, RuleSet] = {}
        #: Single-flight guard for lazy ruleset loading (validate_frames
        #: and rule_count may race it from worker threads).
        self._ruleset_lock = threading.Lock()
        if parse_cache is None:
            parse_cache = ParseCache(
                DEFAULT_CACHE_SIZE if cache_size is None else cache_size)
        #: Content-addressed parse cache shared across frames and runs.
        self.parse_cache = parse_cache
        self._crawler = crawler or Crawler(telemetry=self.telemetry,
                                           parse_cache=parse_cache)
        #: Frames' result lists awaiting scrape-time tallying into the
        #: per-rule counter/histogram (see :meth:`_collect_rule_metrics`).
        self._pending_rule_metrics: list[list[RuleResult]] = []
        self._pending_rule_lock = threading.Lock()
        #: Cross-cycle verdict store; None means every run is a full
        #: revalidation (the default).
        self.verdict_store = verdict_store
        #: Fuse tree rules through cached :class:`RulePlan`s (the
        #: default); ``use_plans=False`` (``--no-plan``) compiles plans
        #: with no fused units, the differential tests' reference.
        self.use_plans = bool(use_plans)
        #: Attach :class:`ProvenanceRecord`s to every result (``--provenance``).
        #: Off by default: reports stay byte-identical to provenance-free runs.
        self.provenance = bool(provenance)
        if self.telemetry.enabled:
            metrics = self.telemetry.metrics
            publish_on_scrape(metrics, plan_cache_stats)
            publish_on_scrape(metrics, parse_cache.stats)
            metrics.register_collector(
                f"rule-metrics-{id(self)}", self._collect_rule_metrics
            )
            if verdict_store is not None:
                publish_on_scrape(metrics, verdict_store.stats)
        self.workers = max(1, workers)
        #: Soft cycle / per-frame deadlines (``--deadline`` /
        #: ``--frame-deadline``).  None = unbounded.  Over-deadline
        #: frames are cancelled at the next rule boundary and reported
        #: as quarantined ERROR verdicts; the cycle always completes.
        self.deadline_s = deadline_s
        self.frame_deadline_s = frame_deadline_s

    def close(self) -> None:
        """Release held resources; a no-op, since a validator holds only
        in-memory state.  Kept so callers that close a validator when
        they are done with it keep working."""

    def _collect_rule_metrics(self) -> None:
        """Fold pending per-rule results into counters/histograms.

        Registered as a pull-style collector (like the parse-cache
        stats): the scan cycle's hot path only appends each frame's
        result list here, and the verdict tally plus latency histogram
        are computed when the metrics are actually scraped or rendered.
        Both families are declared on every scrape, so they are exposed
        even while every verdict replays.
        """
        rules_total = self.telemetry.metrics.counter(
            "repro_rules_evaluated_total",
            "Rule evaluations by terminal verdict.",
            labels=("verdict",),
        )
        rule_hist = self.telemetry.metrics.histogram(
            "repro_rule_eval_seconds", "Per-rule evaluation latency."
        )
        with self._pending_rule_lock:
            batches = self._pending_rule_metrics
            self._pending_rule_metrics = []
        if not batches:
            return
        verdict_str = _VERDICT_STR
        results = [r for batch in batches for r in batch]
        verdicts = [verdict_str[r.verdict] for r in results]
        # Verdict strings are shared singletons, so list.count is a
        # C-level identity scan -- cheaper than a Python tally loop for
        # a handful of distinct verdicts.
        for verdict in set(verdicts):
            rules_total.inc(verdicts.count(verdict), verdict=verdict)
        rule_hist.observe_batch([r.duration_s for r in results])

    # ---- configuration ----------------------------------------------------

    def add_manifest(self, manifest: Manifest) -> None:
        self._manifests[manifest.entity] = manifest

    def add_manifest_text(self, text: str, source: str = "<memory>") -> list[Manifest]:
        manifests = load_manifests(text, source)
        for manifest in manifests:
            self.add_manifest(manifest)
        return manifests

    def add_ruleset(self, manifest: Manifest, ruleset: RuleSet) -> None:
        """Attach an already-built ruleset (bypasses the resolver)."""
        self.add_manifest(manifest)
        self._rulesets[manifest.entity] = ruleset

    def manifests(self) -> list[Manifest]:
        return [self._manifests[name] for name in sorted(self._manifests)]

    def manifest(self, entity: str) -> Manifest:
        try:
            return self._manifests[entity]
        except KeyError:
            raise EntityNotFound(f"no manifest for entity {entity!r}") from None

    def ruleset_for(self, manifest: Manifest) -> RuleSet:
        """Load (and cache) the rule set behind a manifest.

        Idempotent under concurrency: worker threads racing a cold entry
        single-flight through a lock, so the resolver runs exactly once
        per pack and every caller sees the same :class:`RuleSet` object.
        """
        cached = self._rulesets.get(manifest.entity)
        if cached is not None:
            return cached
        with self._ruleset_lock:
            cached = self._rulesets.get(manifest.entity)
            if cached is not None:
                return cached
            ruleset = self._load_ruleset(manifest)
            self._rulesets[manifest.entity] = ruleset
            return ruleset

    def _load_ruleset(self, manifest: Manifest) -> RuleSet:
        if self._resolver is None:
            raise EngineError(
                f"manifest {manifest.entity!r} references {manifest.cvl_file!r} "
                f"but the validator has no resolver"
            )
        text = self._resolver(manifest.cvl_file)
        ruleset = load_rules(
            text,
            source=manifest.cvl_file,
            entity=manifest.entity,
            resolver=self._resolver,
        )
        if manifest.parent_cvl_file and ruleset.parent_source is None:
            from repro.cvl.loader import merge_inherited

            parent_text = self._resolver(manifest.parent_cvl_file)
            parent = load_rules(
                parent_text,
                source=manifest.parent_cvl_file,
                entity=manifest.entity,
                resolver=self._resolver,
            )
            ruleset = merge_inherited(parent, ruleset)
        return ruleset

    def cache_stats(self) -> CacheStats:
        """Counters of the shared content-addressed parse cache."""
        return self.parse_cache.stats()

    def rule_count(self) -> int:
        """Total enabled rules across all manifests."""
        return sum(
            len(self.ruleset_for(manifest).enabled_rules())
            for manifest in self.manifests()
            if manifest.enabled
        )

    # ---- validation -----------------------------------------------------

    def validate_frame(
        self,
        frame: ConfigFrame,
        *,
        tags: list[str] | None = None,
        include_composites: bool = True,
        timings: StageTimings | None = None,
        use_plans: bool | None = None,
        provenance: bool | None = None,
    ) -> ValidationReport:
        """Validate one frame against every enabled manifest."""
        return self.validate_frames([frame], tags=tags,
                                    include_composites=include_composites,
                                    timings=timings, use_plans=use_plans,
                                    provenance=provenance)

    def validate_frames(
        self,
        frames: list[ConfigFrame],
        *,
        tags: list[str] | None = None,
        include_composites: bool = True,
        workers: int | None = None,
        timings: StageTimings | None = None,
        use_plans: bool | None = None,
        provenance: bool | None = None,
    ) -> ValidationReport:
        """Validate a group of frames together.

        Per-entity rules run against every frame; composite rules run once
        over the merged cross-frame context (this is how a rule can span a
        MySQL container, a host's sysctl, and an nginx container).

        With ``workers > 1`` frames fan out on a thread pool (sharing the
        content-addressed parse cache), then a deterministic merge barrier
        records results in document order -- composite rules see the
        identical merged context and the report is byte-for-byte the same
        as the sequential path, regardless of completion order.

        ``use_plans`` (default: the constructor setting) routes tree
        rules through the fused units of cached plans;
        ``use_plans=False`` (``--no-plan``) runs every pack through an
        uncached plan with no fused units, in the same loop, and leaves
        ``report.plan`` None.  Reports are byte-identical either way;
        the unfused plans are the differential tests' reference.

        ``provenance`` (default: the constructor setting) attaches a
        :class:`~repro.engine.provenance.ProvenanceRecord` to every
        result; text/JSON/JUnit output is unchanged unless the renderer
        is asked to embed them.
        """
        workers = self.workers if workers is None else max(1, workers)
        use_plans = self.use_plans if use_plans is None else bool(use_plans)
        provenance = (self.provenance if provenance is None
                      else bool(provenance))
        telemetry = self.telemetry
        enabled = telemetry.enabled
        spans = telemetry.spans
        if enabled:
            # Fold what earlier runs left pending: a process nobody
            # scrapes holds one run's rule results, not every run's.
            self._collect_rule_metrics()
            telemetry.profiler.fold()
            frames_total = telemetry.metrics.counter(
                "repro_frames_scanned_total", "Frames validated."
            )
            busy_total = telemetry.metrics.counter(*WORKER_BUSY)
        prep = self._prepare_run(frames, tags=tags, use_plans=use_plans,
                                 provenance=provenance, timings=timings)
        if prep.deadline is not None:
            # The watchdog thread trips the cycle-expiry event even if a
            # single evaluation wedges between passive checks.  It is a
            # daemon bounded by the budget, so the no-stop exception
            # path cannot leak it past one cycle length.
            prep.deadline.start()
        # Degradation accounting: the delta over this run becomes the
        # report's DegradationStats.  One snapshot per cycle -- nothing
        # on the per-rule path.
        chaos_before = _CHAOS.account.snapshot()
        store = prep.store
        recorder = prep.recorder
        inc_stats = prep.inc_stats
        fingerprints = prep.fingerprints
        clean_frames = prep.clean_frames
        plan_stats = prep.plan_stats
        normalizer = prep.normalizer
        context = _RunContext(self, normalizer)
        target = ",".join(frame.describe() for frame in frames)
        report = ValidationReport(target=target)
        log.debug("validating %d frame(s) with %d worker(s)",
                  len(frames), workers)

        with spans.span("validate_frames", category="run",
                        frames=str(len(frames)),
                        workers=str(workers)) as run_span:
            # Composite rules are cross-entity: they belong to the run, not
            # to any one frame, so gather them up front from every enabled
            # pack.  This also pre-loads every ruleset before the fan-out.
            composites: list[tuple[Manifest, CompositeRule]] = []
            for manifest in self.manifests():
                if not manifest.enabled:
                    continue
                for rule in self.ruleset_for(manifest).enabled_rules():
                    if isinstance(rule, CompositeRule):
                        if tags and not any(rule.has_tag(tag) for tag in tags):
                            continue
                        composites.append((manifest, rule))

            def flush_rule_telemetry(results: list[RuleResult]) -> None:
                """Three list appends per frame, nothing per rule.

                The results the frame just produced already carry
                everything telemetry needs (rule, verdict, timing), so
                each consumer takes the frame's result list by
                reference: the counter/histogram tally happens at scrape
                time (:meth:`_collect_rule_metrics`), span expansion at
                export time, profile aggregation at read time.
                """
                if not results:
                    return
                with self._pending_rule_lock:
                    self._pending_rule_metrics.append(results)
                telemetry.profiler.record_rules(results)
                spans.record_rules(results)

            def validate_one(frame: ConfigFrame) -> tuple[
                list[tuple[Manifest, list[RuleResult]]],
                int,
                set[tuple[str, str]],
                PlanRunStats | None,
            ]:
                frame_started = time.perf_counter()
                # Explicit parent: with workers > 1 this runs on a pool
                # thread whose span stack is empty.
                with spans.span(frame.describe(), category="frame",
                                parent=run_span):
                    with spans.span("evaluate", category="stage"):
                        placements, fresh, replayed, recomputed, frame_plan = (
                            self._evaluate_frame_rules(frame, prep)
                        )
                        if enabled:
                            # Inside the stage span so rule spans parent
                            # to this frame's "evaluate".
                            flush_rule_telemetry(fresh)
                if enabled:
                    busy_total.inc(time.perf_counter() - frame_started)
                return placements, replayed, recomputed, frame_plan

            # A clean frame whose stored block replays resolves here, in
            # one lookup with no span; only the rest fan out.
            per_frame: list = []
            for frame in frames:
                key = frame.describe()
                block = key in clean_frames and store.fresh_block(
                    key, (prep.frame_digests[key], prep.block_key))
                per_frame.append(
                    block and (block.placements, block.rules, set(), None))
            pending = [frame for frame, done in zip(frames, per_frame)
                       if not done]
            if workers > 1 and len(pending) > 1:
                with ThreadPoolExecutor(
                    max_workers=min(workers, len(pending)),
                    thread_name_prefix="validate",
                ) as pool:
                    evaluated = iter(list(pool.map(validate_one, pending)))
            else:
                evaluated = iter([validate_one(frame) for frame in pending])
            per_frame = [done or next(evaluated) for done in per_frame]
            if enabled:
                frames_total.inc(len(frames))

            # Deterministic merge barrier: document order, not completion
            # order.
            recomputed_pairs: set[tuple[str, str]] = set()
            for frame, (placements, replayed, recomputed, frame_plan) in zip(
                frames, per_frame
            ):
                for manifest, frame_results in placements:
                    context.record(manifest, frame, frame_results)
                    report.extend(frame_results)
                if plan_stats is not None and frame_plan is not None:
                    plan_stats.merge(frame_plan)
                if store is not None:
                    recomputed_pairs |= recomputed
                    inc_stats.rules_replayed += replayed
                    inc_stats.rules_evaluated += (
                        sum(len(fr) for _m, fr in placements) - replayed
                    )
                    if recomputed:
                        inc_stats.frames_dirty += 1
                    else:
                        inc_stats.frames_clean += 1

            composite_results: list[RuleResult] = []
            if include_composites:
                with spans.span("composite", category="stage"):
                    fresh_composites: list[RuleResult] = []
                    for manifest, rule in composites:
                        if store is not None:
                            cached = store.fresh_composite(
                                manifest.entity, rule,
                                target=target, context=context,
                                fingerprints=fingerprints,
                                recomputed=recomputed_pairs,
                                clean_frames=clean_frames,
                                provenance=provenance,
                            )
                            if cached is not None:
                                report.add(cached)
                                composite_results.append(cached)
                                inc_stats.composites_replayed += 1
                                continue
                        started = time.perf_counter()
                        if recorder is not None:
                            # Record the value lookups the expression
                            # performs (they may read files no per-entity
                            # rule touches).
                            with recorder.recording() as tape:
                                result = self._evaluate_composite(
                                    rule, manifest, context, target
                                )
                        else:
                            result = self._evaluate_composite(
                                rule, manifest, context, target
                            )
                        duration = time.perf_counter() - started
                        result.duration_s = duration
                        result.started_s = started
                        if provenance:
                            # Link the composite back to the per-entity
                            # verdicts its expression referenced.
                            result.provenance = build_provenance(
                                result, route=ROUTE_COMPOSITE,
                                referents=[
                                    {"entity": entity, "rule": config,
                                     "verdict": context.rule_verdict(
                                         entity, config)}
                                    for entity, config in referenced_pairs(
                                        rule.expression)
                                ],
                            )
                        if store is not None:
                            store.put_composite(
                                manifest.entity, rule,
                                target=target, context=context,
                                pairs=referenced_pairs(rule.expression),
                                tape=tape, fingerprints=fingerprints,
                                result=result,
                            )
                            inc_stats.composites_evaluated += 1
                        report.add(result)
                        composite_results.append(result)
                        fresh_composites.append(result)
                        if timings is not None:
                            timings.add("composite", duration)
                    if enabled:
                        # Inside the stage span so rule spans parent to
                        # "composite".
                        flush_rule_telemetry(fresh_composites)

        if store is not None:
            run = RunRecord(
                token=object(),
                signature=(tuple(frame.describe() for frame in frames),
                           prep.block_key, include_composites),
                frames=[placements for placements, *_rest in per_frame],
                composites=composite_results,
                provenance=provenance,
            )
            report.delta = run_delta(store.last_run, run)
            store.last_run = run
        if inc_stats is not None:
            if store is not None:
                inc_stats.store = store.stats()
            report.incremental = inc_stats
        if plan_stats is not None:
            plan_stats.cache = plan_cache_stats()
            report.plan = plan_stats
        if prep.deadline is not None:
            prep.deadline.stop()
        degradation = _CHAOS.account.delta_since(chaos_before)
        if _CHAOS.armed or degradation.degraded:
            if _CHAOS.plan is not None:
                degradation.plan = _CHAOS.plan.name
            report.degradation = degradation
        if enabled:
            self._account(report)
        return report

    def _account(self, report: ValidationReport) -> None:
        """Add a finished run's stats blocks to the telemetry: their
        counter families, and a marker span each for replay and plans."""
        metrics = self.telemetry.metrics
        spans = self.telemetry.spans
        inc_stats = report.incremental
        if inc_stats is not None:
            inc_stats.publish(metrics)
            spans.record(
                "incremental", category="stage",
                start_s=time.perf_counter(), duration_s=0.0,
                rules_replayed=str(inc_stats.rules_replayed),
                frames_dirty=str(inc_stats.frames_dirty),
                frames_clean=str(inc_stats.frames_clean),
            )
        plan_stats = report.plan
        if plan_stats is not None:
            plan_stats.publish(metrics)
            spans.record(
                "plan", category="stage",
                start_s=time.perf_counter(), duration_s=0.0,
                rules_fused=str(plan_stats.rules_fused),
                units=str(plan_stats.units_evaluated),
                traversals_saved=str(plan_stats.traversals_saved),
            )
        degradation = report.degradation
        if degradation is not None and degradation.degraded:
            degradation.publish(metrics)

    def validate_entity(
        self, entity: Entity, *, tags: list[str] | None = None,
        timings: StageTimings | None = None,
    ) -> ValidationReport:
        """Crawl ``entity`` and validate the resulting frame."""
        if timings is not None:
            with timings.timer("crawl"):
                frame = self._crawler.crawl(entity)
        else:
            frame = self._crawler.crawl(entity)
        return self.validate_frame(frame, tags=tags, timings=timings)

    def validate_entities(
        self, entities: list[Entity], *, tags: list[str] | None = None,
        workers: int | None = None, timings: StageTimings | None = None,
    ) -> ValidationReport:
        """Crawl and validate a group of entities together (composites see
        the whole group)."""
        workers = self.workers if workers is None else max(1, workers)
        if timings is not None:
            with timings.timer("crawl"):
                frames = self._crawler.crawl_many(entities, workers=workers)
        else:
            frames = self._crawler.crawl_many(entities, workers=workers)
        return self.validate_frames(frames, tags=tags, workers=workers,
                                    timings=timings)

    # ---- internals ---------------------------------------------------------

    def _prepare_run(
        self,
        frames: list[ConfigFrame],
        *,
        tags: list[str] | None,
        use_plans: bool,
        provenance: bool,
        timings: StageTimings | None,
    ) -> _RunPrep:
        """Build the shared per-run evaluation state (:class:`_RunPrep`)."""
        excerpts = ExcerptReader() if provenance else None
        store = self.verdict_store
        packs = [manifest for manifest in self.manifests()
                 if manifest.enabled]
        # Ruleset digests key both the verdict store's invalidation and
        # the process-wide plan cache; computed once per run so pack
        # mutations between runs are always picked up.
        digests: dict[str, str] = {}
        if store is not None or use_plans:
            digests = {
                manifest.entity: ruleset_digest(
                    manifest, self.ruleset_for(manifest)
                )
                for manifest in packs
            }
        # Every pack runs through a plan; ``use_plans=False`` compiles an
        # uncached one with no fused units, so all its rules run direct.
        plans: dict[str, RulePlan] = {}
        for manifest in packs:
            ruleset = self.ruleset_for(manifest)
            digest = digests.get(manifest.entity, "")
            plans[manifest.entity] = (
                plan_for(manifest, ruleset, digest) if use_plans
                else RulePlan(manifest, ruleset, digest, fuse=False)
            )
        plan_stats = PlanRunStats() if use_plans else None

        # ---- incremental setup (no-ops without a verdict store) ----------
        recorder: DependencyRecorder | None = None
        inc_stats: IncrementalRunStats | None = None
        fingerprints: dict[str, FrameFingerprint] = {}
        frame_digests: dict[str, str] = {}
        clean_frames: frozenset[str] = frozenset()
        if store is not None:
            inc_stats = IncrementalRunStats()
            frame_keys = [frame.describe() for frame in frames]
            aliased = sorted(entity for entity, plan in plans.items()
                             if not plan.usable)
            # Two frames sharing an identity, or two rules sharing a name
            # in one pack, would alias each other's stored verdicts; run a
            # plain full validation instead.
            if len(set(frame_keys)) != len(frame_keys):
                reason = "duplicate frame identities in run"
            elif aliased:
                reason = ("duplicate rule names in pack "
                          + ", ".join(map(repr, aliased)))
            else:
                reason = None
            if reason is not None:
                inc_stats.active = False
                inc_stats.reason = f"{reason}; ran full validation"
                log.warning("incremental disabled for this run: %s", reason)
                store = None
            else:
                recorder = DependencyRecorder()
                fingerprints = {
                    key: frame.fingerprint()
                    for key, frame in zip(frame_keys, frames)
                }
                # One whole-frame digest per frame: frames it proves
                # unchanged replay their block or skip all per-dependency
                # verification below.
                frame_digests = {
                    key: fingerprints[key].frame_digest()
                    for key in frame_keys
                }
                clean_frames = store.begin_cycle(frame_digests)
                store.sync_rulesets(digests)

        block_key = (tuple(sorted(digests.items())), tuple(tags or ()),
                     provenance)
        normalizer = Normalizer(self._lenses, self._schemas,
                                cache=self.parse_cache, timings=timings,
                                telemetry=self.telemetry, recorder=recorder)
        # Passive deadline checks ride in the prep; validate_frames
        # starts the watchdog thread.
        deadline = None
        if self.deadline_s is not None or self.frame_deadline_s is not None:
            deadline = RunDeadline(cycle_s=self.deadline_s,
                                   frame_s=self.frame_deadline_s)
        return _RunPrep(
            tags=tags, use_plans=use_plans, provenance=provenance,
            excerpts=excerpts, store=store, recorder=recorder,
            inc_stats=inc_stats, fingerprints=fingerprints,
            clean_frames=clean_frames, digests=digests, plans=plans,
            plan_stats=plan_stats, normalizer=normalizer, timings=timings,
            deadline=deadline, frame_digests=frame_digests,
            block_key=block_key,
        )

    def _evaluate_frame_rules(
        self, frame: ConfigFrame, prep: _RunPrep
    ) -> tuple[
        list[tuple[Manifest, list[RuleResult]]],
        list[RuleResult],
        int,
        set[tuple[str, str]],
        PlanRunStats,
    ]:
        """Every per-entity rule of one frame, against shared run state.

        The single evaluation path behind ``validate_one``, at any worker
        count.  Each pack runs through its :class:`RulePlan` in one loop:
        replay what the verdict store proves unchanged, run the pending
        fused units, run the rest direct, and assemble results by position.
        Frames whose stored block replays never get here: ``validate_frames``
        resolves them before the fan-out.
        """
        store = prep.store
        frame_key = frame.describe()
        block_key = None
        if store is not None:
            block_key = (prep.frame_digests[frame_key], prep.block_key)
        recorder = prep.recorder
        fingerprints = prep.fingerprints
        clean_frames = prep.clean_frames
        normalizer = prep.normalizer
        timings = prep.timings
        tags = prep.tags
        provenance = prep.provenance
        deadline = prep.deadline
        # Monotonic stamp for the frame's deadline budget (RunDeadline
        # compares against time.monotonic, not perf_counter).
        frame_clock = time.monotonic() if deadline is not None else 0.0
        frame_cancelled = False
        placements: list[tuple[Manifest, list[RuleResult]]] = []
        #: Freshly evaluated results only -- replays carry no new
        #: timing or verdict information for telemetry.
        fresh: list[RuleResult] = []
        replayed = 0
        recomputed: set[tuple[str, str]] = set()
        #: Per-frame planner stats, merged at the barrier (the
        #: run-wide object must not be mutated from workers).
        frame_plan = PlanRunStats()
        #: Deferred-provenance markers, one shared tuple per
        #: route: attaching provenance costs a single attribute
        #: store per result, and the record itself is built on
        #: first read (export, store.put, explain).  Attached
        #: before store.put so replays rehydrate next cycle.
        direct_ctx = ((ROUTE_DIRECT, prep.excerpts, frame)
                      if provenance else None)
        fused_ctx = ((ROUTE_FUSED, prep.excerpts, frame)
                     if provenance else None)

        def finish(manifest: Manifest, rule: Rule, result: RuleResult,
                   tape, duration: float, started: float,
                   route_ctx) -> RuleResult:
            """The one post-processing step of every fresh per-entity
            result, whether a fused unit, a direct or a fallback
            evaluation produced it."""
            result.duration_s = duration
            result.started_s = started
            if provenance:
                result._provenance = route_ctx
            if store is not None:
                if not getattr(result, "volatile", False):
                    # Volatile results (injected faults degraded to
                    # ERROR verdicts) are never stored: a chaos
                    # artifact must not replay into a fault-free cycle.
                    store.put(frame_key, manifest.entity, rule.name,
                              tape, fingerprints, result)
                recomputed.add((manifest.entity, rule.name))
            if timings is not None:
                timings.add("evaluate", duration)
            if result.verdict is Verdict.ERROR:
                log.warning(
                    "rule %s/%s errored on %s: %s",
                    manifest.entity, rule.name,
                    result.target, result.message,
                )
            return result

        for manifest in self.manifests():
            if not manifest.enabled:
                continue
            if not manifest.applies_to_kind(frame.entity_kind):
                continue
            plan = prep.plans[manifest.entity]
            present = None
            if store is not None:
                present = store.fresh_presence(
                    frame_key, manifest.entity, fingerprints,
                    clean_frames,
                )
            if present is None:
                if store is not None:
                    # Presence reads the search-path listing (via
                    # the normalizer hook) and the runtime
                    # namespace set; record both so the decision
                    # replays next cycle.
                    tape, previous = recorder.begin()
                    try:
                        recorder.record_runtime_keys(frame)
                        present = self._component_present(
                            frame, manifest, plan.rules, normalizer
                        )
                    finally:
                        recorder.end(previous)
                    store.put_presence(frame_key, manifest.entity,
                                       tape, fingerprints, present)
                else:
                    present = self._component_present(
                        frame, manifest, plan.rules, normalizer
                    )
            if not present:
                continue  # the component is not on this entity
            selected = [
                rule for rule in plan.rules
                if not tags or any(rule.has_tag(tag) for tag in tags)
            ]
            results: list[RuleResult | None] = [None] * len(selected)
            #: Positions still to evaluate, in pack order.
            pending: list[int] = []
            for position, rule in enumerate(selected):
                if store is not None:
                    cached = store.fresh_result(
                        frame_key, manifest.entity, rule,
                        fingerprints, clean_frames,
                        provenance=provenance,
                    )
                    if cached is not None:
                        results[position] = cached
                        replayed += 1
                        continue
                pending.append(position)
            #: Pending fused rules by name (unique in a plan with units).
            fused = {
                selected[position].name: position
                for position in pending
                if plan.is_fused(selected[position])
            }
            if fused and deadline is not None and (
                    deadline.should_cancel(frame_clock)):
                # Over deadline before the fused pass: cancel the whole
                # unit cheaply; the per-rule loop below emits a
                # quarantined ERROR for each pending rule.
                fused = {}
            fell_back: list[str] = []
            if fused:
                outputs, fell_back = plan.evaluate_fused(
                    frame, manifest, normalizer, fused,
                    frame_key=(frame_key if store is not None
                               else None),
                    stats=frame_plan,
                )
                for rule, result, tape, duration, started in outputs:
                    results[fused[rule.name]] = finish(
                        manifest, rule, result, tape, duration, started,
                        fused_ctx)
            for position in pending:
                if results[position] is not None:
                    continue  # served by a fused unit
                rule = selected[position]
                if deadline is not None and deadline.should_cancel(
                        frame_clock):
                    results[position] = self._cancelled_result(
                        manifest, rule, frame_key)
                    frame_cancelled = True
                    continue
                if (rule.name in fell_back
                        or rule.name in plan.fallback_names):
                    frame_plan.rules_fallback += 1
                else:
                    frame_plan.rules_direct += 1
                started = time.perf_counter()
                tape = None
                if recorder is not None:
                    tape, previous = recorder.begin()
                    try:
                        self._record_intrinsic_deps(recorder, rule, frame)
                        result = self._evaluate_protected(
                            rule, frame, manifest, normalizer, frame_key)
                    finally:
                        recorder.end(previous)
                else:
                    result = self._evaluate_protected(
                        rule, frame, manifest, normalizer, frame_key)
                results[position] = finish(
                    manifest, rule, result, tape,
                    time.perf_counter() - started, started, direct_ctx)
            placements.append((manifest, results))
            fresh.extend(results[position] for position in pending)
        if frame_cancelled:
            _CHAOS.account.note_frame_quarantined()
            log.warning("frame %s quarantined: deadline exceeded, "
                        "remaining rules cancelled", frame_key)
        if store is not None:
            # Volatile results (injected faults, deadline cancellations)
            # are never stored, so neither is a block holding one.
            if any(getattr(result, "volatile", False) for result in fresh):
                store.drop_block(frame_key)
            else:
                store.put_block(frame_key, block_key, placements,
                                replayed + len(fresh), provenance)
        return placements, fresh, replayed, recomputed, frame_plan

    def _evaluate_protected(
        self,
        rule: Rule,
        frame: ConfigFrame,
        manifest: Manifest,
        normalizer: Normalizer,
        frame_key: str,
    ) -> RuleResult:
        """One rule evaluation that cannot kill the cycle.

        Any exception -- an injected fault from the ``rule.eval`` site,
        a raw OSError escaping a real filesystem, a bug in one
        evaluator -- degrades to an ERROR verdict with the traceback in
        ``detail``.  Partial, accounted results always beat losing the
        other thousand frames of the cycle.
        """
        try:
            if _CHAOS.armed:
                _CHAOS.fire(
                    "rule.eval", f"{frame_key}|{manifest.entity}/{rule.name}")
            return self._evaluate(rule, frame, manifest, normalizer)
        except Exception as exc:
            return _error_result(rule, manifest.entity, frame_key, exc)

    @staticmethod
    def _cancelled_result(manifest: Manifest, rule: Rule,
                          target: str) -> RuleResult:
        """A quarantined ERROR verdict for a deadline-cancelled rule.

        Volatile by construction: never kept in the verdict store,
        so the next (on-budget) cycle re-evaluates for real.
        """
        _CHAOS.account.note_deadline_cancellation()
        result = RuleResult(
            rule=rule,
            entity=manifest.entity,
            target=target,
            verdict=Verdict.ERROR,
            outcome=Outcome.EVALUATION_ERROR,
            message=f"{rule.name}: cancelled: deadline exceeded",
        )
        result.volatile = True
        return result

    @staticmethod
    def _component_present(
        frame: ConfigFrame,
        manifest: Manifest,
        rules: list[Rule],
        normalizer: Normalizer,
    ) -> bool:
        """A component's rules only run where the component exists: some
        file under its search paths, or runtime state the pack's script
        rules consume.  (The production system scopes packs the same way
        -- an nginx pack must not flood a MySQL container with "not
        present" findings.)"""
        if manifest.entity in frame.runtime:
            return True
        if not manifest.config_search_paths:
            return True  # nothing to scope by; run everywhere
        if normalizer.files_in_search_paths(frame, manifest.config_search_paths):
            return True
        for rule in rules:
            if isinstance(rule, ScriptRule):
                plugin, _key = rule.plugin_and_key()
                if plugin in frame.runtime:
                    return True
        return False

    @staticmethod
    def _record_intrinsic_deps(
        recorder: DependencyRecorder, rule: Rule, frame: ConfigFrame
    ) -> None:
        """Dependencies the evaluators read directly off the frame, not
        through the normalizer: path rules stat their path, script rules
        read one runtime namespace.  A malformed script spec records no
        deps -- its ERROR verdict is frame-independent and replays until
        the pack is edited (ruleset digest)."""
        if isinstance(rule, PathRule):
            recorder.record_filemeta(frame, rule.name)
        elif isinstance(rule, ScriptRule):
            try:
                plugin, _key = rule.plugin_and_key()
            except ReproError:
                return
            recorder.record_runtime(frame, plugin)

    def _evaluate(
        self,
        rule: Rule,
        frame: ConfigFrame,
        manifest: Manifest,
        normalizer: Normalizer,
    ) -> RuleResult:
        if isinstance(rule, TreeRule):
            return evaluate_tree(rule, frame, manifest, normalizer)
        if isinstance(rule, SchemaRule):
            return evaluate_schema(rule, frame, manifest, normalizer)
        if isinstance(rule, PathRule):
            return evaluate_path(rule, frame, manifest)
        if isinstance(rule, ScriptRule):
            return evaluate_script(rule, frame, manifest)
        raise EngineError(f"no evaluator for rule type {type(rule).__name__}")

    def _evaluate_composite(
        self,
        rule: CompositeRule,
        manifest: Manifest,
        context: _RunContext,
        target: str,
    ) -> RuleResult:
        missing = [
            entity
            for entity in sorted(referenced_entities(rule.expression))
            if entity not in context.placements
        ]
        if missing:
            return RuleResult(
                rule=rule,
                entity=manifest.entity,
                target=target,
                verdict=Verdict.NOT_APPLICABLE,
                outcome=Outcome.COMPOSITE,
                message=(
                    f"{rule.name}: referenced entities not in this run: "
                    f"{', '.join(missing)}"
                ),
            )
        try:
            outcome = evaluate_composite(rule.expression, context)
        except Exception as exc:
            # A composite expression reads across many frames; any one
            # bad lookup (injected fault, torn filesystem, expression
            # bug) degrades to an ERROR verdict instead of killing the
            # cycle's other results.
            return _error_result(rule, manifest.entity, target, exc)
        verdict = Verdict.COMPLIANT if outcome.passed else Verdict.NONCOMPLIANT
        message = (
            rule.matched_description
            if outcome.passed
            else rule.not_matched_description
        ) or rule.description or rule.name
        evidence = [
            Evidence(location=term, value="true" if ok else "false")
            for term, ok in outcome.term_results
        ]
        return RuleResult(
            rule=rule,
            entity=manifest.entity,
            target=target,
            verdict=verdict,
            outcome=Outcome.COMPOSITE,
            message=message,
            evidence=evidence,
            detail="; ".join(
                f"{term} -> {ok}" for term, ok in outcome.term_results
            ),
        )
