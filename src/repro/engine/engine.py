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
from contextlib import contextmanager
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

#: A per-entity verdict as a composite term sees it.
_TERM_VALUE = {Verdict.COMPLIANT: True, Verdict.NONCOMPLIANT: False,
               Verdict.NOT_APPLICABLE: None, Verdict.ERROR: None}


class _PendingRuleMetrics:
    """Frames' result lists awaiting the per-rule counter and histogram,
    tallied at scrape time.  As a collector it holds neither the
    validator nor the registry, so neither keeps the other alive."""

    __slots__ = ("_batches", "_lock")

    def __init__(self):
        self._batches: list[list[RuleResult]] = []
        self._lock = threading.Lock()

    def append(self, results: list[RuleResult]) -> None:
        with self._lock:
            self._batches.append(results)

    def collect(self, registry) -> None:
        """Fold the pending results into ``registry``; both families are
        declared even while every verdict replays."""
        rules_total = registry.counter(
            "repro_rules_evaluated_total",
            "Rule evaluations by terminal verdict.",
            labels=("verdict",),
        )
        rule_hist = registry.histogram(
            "repro_rule_eval_seconds", "Per-rule evaluation latency."
        )
        with self._lock:
            batches = self._batches
            self._batches = []
        if not batches:
            return
        results = [r for batch in batches for r in batch]
        verdicts = [_VERDICT_STR[r.verdict] for r in results]
        # Verdict strings are shared singletons, so list.count is a
        # C-level identity scan -- cheaper than a Python tally loop for
        # a handful of distinct verdicts.
        for verdict in set(verdicts):
            rules_total.inc(verdicts.count(verdict), verdict=verdict)
        rule_hist.observe_batch([r.duration_s for r in results])


class _RunContext:
    """Composite-expression context for one validation run.

    Recording a frame only keeps its placements; a per-entity verdict is
    computed the first time a composite asks for it, then memoized.
    """

    def __init__(self, normalizer: Normalizer):
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
        #: Frames' result lists awaiting the scrape-time per-rule tally.
        self._rule_metrics = _PendingRuleMetrics()
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
                f"rule-metrics-{id(self)}", self._rule_metrics.collect
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
        provenance: bool | None = None,
    ) -> ValidationReport:
        """Validate one frame against every enabled manifest."""
        return self.validate_frames([frame], tags=tags,
                                    include_composites=include_composites,
                                    timings=timings, provenance=provenance)

    def validate_frames(
        self,
        frames: list[ConfigFrame],
        *,
        tags: list[str] | None = None,
        include_composites: bool = True,
        workers: int | None = None,
        timings: StageTimings | None = None,
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

        ``provenance`` (default: the constructor setting) attaches a
        :class:`~repro.engine.provenance.ProvenanceRecord` to every
        result; text/JSON/JUnit output is unchanged unless the renderer
        is asked to embed them.

        The steps are the methods of :class:`_Run`, called here in order.
        """
        run = _Run(self, frames, tags=tags,
                   include_composites=include_composites,
                   workers=self.workers if workers is None else max(1, workers),
                   timings=timings,
                   provenance=(self.provenance if provenance is None
                               else bool(provenance)))
        with run.account(), run.spans.span(
                "validate_frames", category="run", frames=str(len(frames)),
                workers=str(run.workers)) as span:
            run.span = span
            run.replay()
            run.fan_out()
            run.merge()
            run.composites()
        return run.report

    def validate_entity(
        self, entity: Entity, *, tags: list[str] | None = None,
        timings: StageTimings | None = None,
    ) -> ValidationReport:
        """Crawl ``entity`` and validate the resulting frame."""
        with (timings or StageTimings()).timer("crawl"):
            frame = self._crawler.crawl(entity)
        return self.validate_frame(frame, tags=tags, timings=timings)

    def validate_entities(
        self, entities: list[Entity], *, tags: list[str] | None = None,
        workers: int | None = None, timings: StageTimings | None = None,
    ) -> ValidationReport:
        """Crawl and validate a group of entities together (composites see
        the whole group)."""
        workers = self.workers if workers is None else max(1, workers)
        with (timings or StageTimings()).timer("crawl"):
            frames = self._crawler.crawl_many(entities, workers=workers)
        return self.validate_frames(frames, tags=tags, workers=workers,
                                    timings=timings)


class _FrameWork:
    """One frame's part of a run.

    Only the thread that evaluates the frame writes it, and the merge
    barrier reads it: results by pack, the fresh ones among them, replay,
    cancellation and planner counts, the rules it recomputed and its
    stage block.
    """

    __slots__ = ("frame", "key", "normalizer", "clock", "placements",
                 "fresh", "replayed", "cancelled", "recomputed", "plan",
                 "timings")

    def __init__(self, frame: ConfigFrame, normalizer: Normalizer,
                 timed: bool, deadline: RunDeadline | None):
        self.frame = frame
        self.key = frame.describe()
        self.timings = None
        if timed:
            # Discovery and parsing are charged through a view of the
            # run's normalizer; the rest of the frame's wall is its
            # evaluate time.
            self.timings = StageTimings()
            normalizer = normalizer.charging(self.timings)
        self.normalizer = normalizer
        # Monotonic stamp for the frame's deadline budget (RunDeadline
        # compares against time.monotonic, not perf_counter).
        self.clock = time.monotonic() if deadline is not None else 0.0
        self.placements: list[tuple[Manifest, list[RuleResult]]] = []
        #: Freshly evaluated results only -- replays carry no new
        #: timing or verdict information for telemetry.
        self.fresh: list[RuleResult] = []
        self.replayed = 0
        self.cancelled = 0
        self.recomputed: set[tuple[str, str]] = set()
        self.plan = PlanRunStats()


class _Run:
    """One :meth:`ConfigValidator.validate_frames` call.

    Its methods are the run's steps, in the order ``validate_frames``
    calls them:

    * prepare (the constructor): plans, replay state, the normalizer,
      the deadline and the empty report;
    * :meth:`replay`: each clean frame whose stored block still holds;
    * :meth:`fan_out`: :meth:`evaluate_frame` for every other frame;
    * :meth:`merge`: the document-order barrier, the only writer of the
      run's per-frame totals;
    * :meth:`composites`: the cross-entity rules, once per run;
    * :meth:`account`: around the others, the report's stats blocks and
      verdict delta, their publication, and the deadline watchdog.

    Nothing the run holds refers back to it, so reference counting frees
    it when the call returns.
    """

    def __init__(self, validator: ConfigValidator,
                 frames: list[ConfigFrame], *, tags: list[str] | None,
                 include_composites: bool, workers: int,
                 timings: StageTimings | None, provenance: bool):
        self.frames = frames
        self.tags = tags
        self.include_composites = include_composites
        self.workers = workers
        self.timings = timings
        self.provenance = provenance
        self.excerpts = ExcerptReader() if provenance else None
        telemetry = self.telemetry = validator.telemetry
        self.spans = telemetry.spans
        self.rule_metrics = validator._rule_metrics
        #: The run's span: a frame's parent on a pool thread.
        self.span = None
        self.busy = None
        if telemetry.enabled:
            # Fold what earlier runs left pending: a process nobody
            # scrapes holds one run's rule results, not every run's.
            self.rule_metrics.collect(telemetry.metrics)
            telemetry.profiler.fold()
            self.busy = telemetry.metrics.counter(
                "repro_worker_busy_seconds_total",
                "Aggregate worker-seconds spent validating frames.")
        store = validator.verdict_store
        digests = self._prepare_packs(validator, store is not None)
        self._prepare_replay(store, digests)
        #: What a frame's replay block is stored under besides its
        #: whole-frame digest.
        self.block_key = (tuple(sorted(digests.items())), tuple(tags or ()),
                          provenance)
        self.normalizer = Normalizer(
            validator._lenses, validator._schemas,
            cache=validator.parse_cache, telemetry=telemetry,
            recorder=self.recorder)
        self.deadline = None
        if (validator.deadline_s is not None
                or validator.frame_deadline_s is not None):
            self.deadline = RunDeadline(cycle_s=validator.deadline_s,
                                        frame_s=validator.frame_deadline_s)
        self.report = ValidationReport(
            target=",".join(frame.describe() for frame in frames))
        normalizer = self.normalizer
        self.composite_timings = None
        if timings is not None:
            # The composite step charges a block of its own, as frames do.
            self.composite_timings = StageTimings()
            normalizer = normalizer.charging(self.composite_timings)
        self.context = _RunContext(normalizer)
        #: Per frame in document order: its replayed block, or its
        #: :class:`_FrameWork` once the fan-out has evaluated it.
        self.work: list = []
        #: (entity, rule name) pairs some frame evaluated fresh.
        self.recomputed: set[tuple[str, str]] = set()
        self.composite_results: list[RuleResult] = []
        log.debug("validating %d frame(s) with %d worker(s)",
                  len(frames), workers)

    def _prepare_packs(self, validator: ConfigValidator,
                       stored: bool) -> dict[str, str]:
        """The enabled packs, their plans and the run's composite rules;
        returns the ruleset digests (empty when neither the verdict store
        nor the plan cache needs them)."""
        packs = self.packs = [manifest for manifest in validator.manifests()
                              if manifest.enabled]
        rulesets = [validator.ruleset_for(manifest) for manifest in packs]
        tags = self.tags
        # Composite rules are cross-entity: they belong to the run, not
        # to any one frame.
        self.composite_rules = [
            (manifest, rule)
            for manifest, ruleset in zip(packs, rulesets)
            for rule in ruleset.enabled_rules()
            if isinstance(rule, CompositeRule)
            and (not tags or any(rule.has_tag(tag) for tag in tags))
        ]
        # Ruleset digests key both the verdict store's invalidation and
        # the process-wide plan cache; computed once per run so pack
        # mutations between runs are always picked up.
        use_plans = validator.use_plans
        digests: dict[str, str] = {}
        if stored or use_plans:
            digests = {manifest.entity: ruleset_digest(manifest, ruleset)
                       for manifest, ruleset in zip(packs, rulesets)}
        # Every pack runs through a plan; without ``use_plans`` an
        # uncached one with no fused units, so all its rules run direct.
        self.plans: dict[str, RulePlan] = {}
        for manifest, ruleset in zip(packs, rulesets):
            digest = digests.get(manifest.entity, "")
            self.plans[manifest.entity] = (
                plan_for(manifest, ruleset, digest) if use_plans
                else RulePlan(manifest, ruleset, digest, fuse=False))
        self.plan_stats = PlanRunStats() if use_plans else None
        return digests

    def _prepare_replay(self, store: VerdictStore | None,
                        digests: dict[str, str]) -> None:
        """The replay state: the verdict store, a dependency recorder,
        each frame's fingerprint and whole-frame digest, and the frames
        those prove unchanged.  Without a store, or when stored verdicts
        would alias, every frame is evaluated."""
        self.store = self.recorder = self.inc_stats = None
        self.fingerprints: dict[str, FrameFingerprint] = {}
        self.frame_digests: dict[str, str] = {}
        self.clean_frames: frozenset[str] = frozenset()
        if store is None:
            return
        self.inc_stats = IncrementalRunStats()
        keys = [frame.describe() for frame in self.frames]
        aliased = sorted(entity for entity, plan in self.plans.items()
                         if not plan.usable)
        # Two frames sharing an identity, or two rules sharing a name in
        # one pack, would alias each other's stored verdicts; run a plain
        # full validation instead.
        if len(set(keys)) != len(keys):
            reason = "duplicate frame identities in run"
        elif aliased:
            reason = ("duplicate rule names in pack "
                      + ", ".join(map(repr, aliased)))
        else:
            reason = None
        if reason is not None:
            self.inc_stats.active = False
            self.inc_stats.reason = f"{reason}; ran full validation"
            log.warning("incremental disabled for this run: %s", reason)
            return
        self.store = store
        self.recorder = DependencyRecorder()
        self.fingerprints = {key: frame.fingerprint()
                             for key, frame in zip(keys, self.frames)}
        # One whole-frame digest per frame: frames it proves unchanged
        # replay their block or skip all per-dependency verification.
        self.frame_digests = {key: fingerprint.frame_digest()
                              for key, fingerprint in self.fingerprints.items()}
        self.clean_frames = store.begin_cycle(self.frame_digests)
        store.sync_rulesets(digests)

    # ---- replay -------------------------------------------------------------

    def replay(self) -> None:
        """Replay step: a clean frame whose stored block still holds
        resolves here, in one lookup with no span.  :attr:`work` holds
        that block, or None for a frame the fan-out evaluates."""
        store = self.store
        if store is None:
            self.work = [None] * len(self.frames)
            return
        clean, digests, block_key = (self.clean_frames, self.frame_digests,
                                     self.block_key)
        work = self.work = []
        for frame in self.frames:
            key = frame.describe()
            block = None
            if key in clean:
                block = store.fresh_block(key, (digests[key], block_key))
            work.append(block)

    # ---- fan out ------------------------------------------------------------

    def fan_out(self) -> None:
        """Fan-out step: :meth:`evaluate_frame` for each frame the replay
        left open, on up to ``workers`` threads."""
        pending = [frame for frame, done in zip(self.frames, self.work)
                   if done is None]
        if self.workers > 1 and len(pending) > 1:
            with ThreadPoolExecutor(
                max_workers=min(self.workers, len(pending)),
                thread_name_prefix="validate",
            ) as pool:
                evaluated = iter(list(pool.map(self.evaluate_frame, pending)))
        else:
            evaluated = map(self.evaluate_frame, pending)
        self.work = [done or next(evaluated) for done in self.work]

    def evaluate_frame(self, frame: ConfigFrame) -> _FrameWork:
        """One frame of the fan-out, on whichever thread runs it: every
        pack that applies (:meth:`_evaluate_pack`), then the frame's
        replay block and evaluate time.  It writes no run total."""
        started = time.perf_counter()
        work = _FrameWork(frame, self.normalizer, self.timings is not None,
                          self.deadline)
        spans = self.spans
        # Explicit parent: with workers > 1 this runs on a pool thread
        # whose span stack is empty.
        with spans.span(work.key, category="frame", parent=self.span), \
                spans.span("evaluate", category="stage"):
            kind = frame.entity_kind
            for manifest in self.packs:
                if manifest.applies_to_kind(kind):
                    self._evaluate_pack(work, manifest)
            if work.cancelled:
                _CHAOS.account.note_frame_quarantined()
                log.warning("frame %s quarantined: deadline exceeded, "
                            "remaining rules cancelled", work.key)
            store = self.store
            if store is not None:
                # Volatile results (injected faults, deadline
                # cancellations) are never stored, so neither is a block
                # holding one.
                if any(getattr(result, "volatile", False)
                       for result in work.fresh):
                    store.drop_block(work.key)
                else:
                    store.put_block(
                        work.key, (self.frame_digests[work.key],
                                   self.block_key),
                        work.placements, work.replayed + len(work.fresh),
                        self.provenance)
            if work.timings is not None:
                work.timings.add_self("evaluate",
                                      time.perf_counter() - started,
                                      len(work.fresh) - work.cancelled)
            # Inside the stage span so rule spans parent to this frame's
            # "evaluate".
            self._hand_over(work.fresh)
        if self.busy is not None:
            self.busy.inc(time.perf_counter() - started)
        return work

    def _evaluate_pack(self, work: _FrameWork, manifest: Manifest) -> None:
        """One pack on one frame: presence, per-rule replay, the pending
        fused units, then the rest direct; results kept in pack order."""
        plan = self.plans[manifest.entity]
        if not self._present(work, manifest, plan.rules):
            return  # the component is not on this entity
        tags = self.tags
        selected = plan.rules if not tags else [
            rule for rule in plan.rules
            if any(rule.has_tag(tag) for tag in tags)]
        results: list[RuleResult | None] = [None] * len(selected)
        frame, key = work.frame, work.key
        store, provenance = self.store, self.provenance
        #: Positions still to evaluate, in pack order.
        pending: list[int] = []
        if store is None:
            pending = list(range(len(selected)))
        else:
            fingerprints, clean = self.fingerprints, self.clean_frames
            for position, rule in enumerate(selected):
                cached = store.fresh_result(
                    key, manifest.entity, rule, fingerprints, clean,
                    provenance=provenance)
                if cached is None:
                    pending.append(position)
                else:
                    results[position] = cached
            work.replayed += len(selected) - len(pending)
        # Deferred-provenance markers, one shared tuple per route:
        # attaching provenance costs one attribute store per result, and
        # the record itself is built on first read (export, store.put,
        # explain).  Attached before store.put so replays rehydrate.
        direct_route = fused_route = None
        if provenance:
            direct_route = (ROUTE_DIRECT, self.excerpts, frame)
            fused_route = (ROUTE_FUSED, self.excerpts, frame)
        #: Pending fused rules by name (unique in a plan with units).
        fused = {selected[position].name: position for position in pending
                 if plan.is_fused(selected[position])}
        deadline = self.deadline
        if fused and deadline is not None and deadline.should_cancel(
                work.clock):
            # Over deadline before the fused pass: cancel the whole unit
            # cheaply; the per-rule loop below emits a quarantined ERROR
            # for each pending rule.
            fused = {}
        fell_back: list[str] = []
        if fused:
            outputs, fell_back = plan.evaluate_fused(
                frame, manifest, work.normalizer, fused,
                frame_key=key if store is not None else None,
                stats=work.plan)
            for rule, result, tape, duration, started in outputs:
                results[fused[rule.name]] = self._finish(
                    work, manifest, rule, result, tape, duration, started,
                    fused_route)
        recorder, normalizer = self.recorder, work.normalizer
        for position in pending:
            if results[position] is not None:
                continue  # served by a fused unit
            rule = selected[position]
            if deadline is not None and deadline.should_cancel(work.clock):
                results[position] = _cancelled_result(manifest, rule, key)
                work.cancelled += 1
                continue
            if rule.name in fell_back or rule.name in plan.fallback_names:
                work.plan.rules_fallback += 1
            else:
                work.plan.rules_direct += 1
            started = time.perf_counter()
            tape = None
            if recorder is not None:
                tape, previous = recorder.begin()
                try:
                    _record_intrinsic_deps(recorder, rule, frame)
                    result = _evaluate_protected(rule, frame, manifest,
                                                 normalizer, key)
                finally:
                    recorder.end(previous)
            else:
                result = _evaluate_protected(rule, frame, manifest,
                                             normalizer, key)
            results[position] = self._finish(
                work, manifest, rule, result, tape,
                time.perf_counter() - started, started, direct_route)
        work.placements.append((manifest, results))
        work.fresh.extend(results[position] for position in pending)

    def _present(self, work: _FrameWork, manifest: Manifest,
                 rules: list[Rule]) -> bool:
        """Whether the pack's component is on the frame; replayed from the
        verdict store while nothing it read has moved."""
        store = self.store
        if store is None:
            return _component_present(work.frame, manifest, rules,
                                      work.normalizer)
        present = store.fresh_presence(work.key, manifest.entity,
                                       self.fingerprints, self.clean_frames)
        if present is None:
            # Presence reads the search-path listing (via the normalizer
            # hook) and the runtime namespace set; record both so the
            # decision replays next cycle.
            recorder = self.recorder
            tape, previous = recorder.begin()
            try:
                recorder.record_runtime_keys(work.frame)
                present = _component_present(work.frame, manifest, rules,
                                             work.normalizer)
            finally:
                recorder.end(previous)
            store.put_presence(work.key, manifest.entity, tape,
                               self.fingerprints, present)
        return present

    def _finish(self, work: _FrameWork, manifest: Manifest, rule: Rule,
                result: RuleResult, tape, duration: float, started: float,
                route) -> RuleResult:
        """The one post-processing step of every fresh per-entity result,
        whether a fused unit, a direct or a fallback evaluation produced
        it."""
        result.duration_s = duration
        result.started_s = started
        if route is not None:
            result._provenance = route
        store = self.store
        if store is not None:
            if not getattr(result, "volatile", False):
                # Volatile results (injected faults degraded to ERROR
                # verdicts) are never stored: a chaos artifact must not
                # replay into a fault-free cycle.
                store.put(work.key, manifest.entity, rule.name, tape,
                          self.fingerprints, result)
            work.recomputed.add((manifest.entity, rule.name))
        if result.verdict is Verdict.ERROR:
            log.warning("rule %s/%s errored on %s: %s", manifest.entity,
                        rule.name, result.target, result.message)
        return result

    def _hand_over(self, results: list[RuleResult]) -> None:
        """Give telemetry a step's fresh results: three list appends,
        nothing per rule.  The results already carry what telemetry needs
        (rule, verdict, timing), so each consumer takes the list by
        reference: the counter and histogram tally at scrape time
        (:class:`_PendingRuleMetrics`), span expansion at export time,
        profile aggregation at read time."""
        if results and self.telemetry.enabled:
            self.rule_metrics.append(results)
            self.telemetry.profiler.record_rules(results)
            self.spans.record_rules(results)

    # ---- merge --------------------------------------------------------------

    def merge(self) -> None:
        """Merge step, the deterministic barrier: document order, not
        completion order.  The only writer of the run's per-frame totals:
        each frame's placements go to the composite context and the
        report, and its replay, plan and stage counts are added up."""
        record, extend = self.context.record, self.report.extend
        store, inc_stats = self.store, self.inc_stats
        plan_stats, timings = self.plan_stats, self.timings
        for frame, work in zip(self.frames, self.work):
            for manifest, results in work.placements:
                record(manifest, frame, results)
                extend(results)
            if work.__class__ is not _FrameWork:
                # A replayed block: every rule of the frame replayed.
                inc_stats.rules_replayed += work.rules
                inc_stats.frames_clean += 1
                continue
            if plan_stats is not None:
                plan_stats.merge(work.plan)
            if timings is not None:
                timings.merge(work.timings)
            if store is not None:
                self.recomputed |= work.recomputed
                inc_stats.rules_replayed += work.replayed
                inc_stats.rules_evaluated += len(work.fresh)
                if work.recomputed:
                    inc_stats.frames_dirty += 1
                else:
                    inc_stats.frames_clean += 1

    # ---- composites ---------------------------------------------------------

    def composites(self) -> None:
        """Composite step: each cross-entity rule once, over the merged
        context; replayed while nothing it aggregates has moved."""
        if not self.include_composites:
            return
        started = time.perf_counter()
        report, store = self.report, self.store
        fresh: list[RuleResult] = []
        with self.spans.span("composite", category="stage"):
            for manifest, rule in self.composite_rules:
                result = None
                if store is not None:
                    result = store.fresh_composite(
                        manifest.entity, rule, target=report.target,
                        context=self.context, fingerprints=self.fingerprints,
                        recomputed=self.recomputed,
                        clean_frames=self.clean_frames,
                        provenance=self.provenance)
                if result is not None:
                    self.inc_stats.composites_replayed += 1
                else:
                    result = self._fresh_composite(manifest, rule)
                    fresh.append(result)
                report.add(result)
                self.composite_results.append(result)
            # Inside the stage span so rule spans parent to "composite".
            self._hand_over(fresh)
        if self.composite_timings is not None:
            self.composite_timings.add_self(
                "composite", time.perf_counter() - started, len(fresh))
            self.timings.merge(self.composite_timings)

    def _fresh_composite(self, manifest: Manifest,
                         rule: CompositeRule) -> RuleResult:
        """One composite evaluated: timed, linked to the per-entity
        verdicts it read (under provenance) and stored for replay."""
        context, target = self.context, self.report.target
        recorder = self.recorder
        started = time.perf_counter()
        tape = None
        if recorder is not None:
            # Record the value lookups the expression performs (they may
            # read files no per-entity rule touches).
            with recorder.recording() as tape:
                result = _evaluate_composite(rule, manifest, context, target)
        else:
            result = _evaluate_composite(rule, manifest, context, target)
        result.duration_s = time.perf_counter() - started
        result.started_s = started
        if self.provenance:
            # Link the composite back to the per-entity verdicts its
            # expression referenced.
            result.provenance = build_provenance(
                result, route=ROUTE_COMPOSITE,
                referents=[
                    {"entity": entity, "rule": config,
                     "verdict": context.rule_verdict(entity, config)}
                    for entity, config in referenced_pairs(rule.expression)
                ],
            )
        if self.store is not None:
            self.store.put_composite(
                manifest.entity, rule, target=target, context=context,
                pairs=referenced_pairs(rule.expression), tape=tape,
                fingerprints=self.fingerprints, result=result)
            self.inc_stats.composites_evaluated += 1
        return result

    # ---- account ------------------------------------------------------------

    @contextmanager
    def account(self):
        """Account step, around the others.  It starts the deadline
        watchdog; once they finish, it gives the report its stats blocks
        and verdict delta and publishes them; however they end, it stops
        the watchdog."""
        deadline = self.deadline
        if deadline is not None:
            # The watchdog thread trips the cycle-expiry event even if a
            # single evaluation wedges between passive checks.
            deadline.start()
        # Degradation accounting: the delta over this run becomes the
        # report's DegradationStats.  One snapshot per cycle -- nothing
        # on the per-rule path.
        chaos_before = _CHAOS.account.snapshot()
        try:
            yield
            report, store = self.report, self.store
            if store is not None:
                record = RunRecord(
                    token=object(),
                    signature=(tuple(frame.describe()
                                     for frame in self.frames),
                               self.block_key, self.include_composites),
                    frames=[work.placements for work in self.work],
                    composites=self.composite_results,
                    provenance=self.provenance,
                )
                report.delta = run_delta(store.last_run, record)
                store.last_run = record
                self.inc_stats.store = store.stats()
            report.incremental = self.inc_stats
            if self.plan_stats is not None:
                self.plan_stats.cache = plan_cache_stats()
                report.plan = self.plan_stats
            degradation = _CHAOS.account.delta_since(chaos_before)
            if _CHAOS.armed or degradation.degraded:
                if _CHAOS.plan is not None:
                    degradation.plan = _CHAOS.plan.name
                report.degradation = degradation
            if self.telemetry.enabled:
                self._publish()
        finally:
            if deadline is not None:
                deadline.stop()

    def _publish(self) -> None:
        """Add the finished run's stats blocks to the telemetry: their
        counter families, and a marker span each for replay and plans."""
        metrics, spans, report = (self.telemetry.metrics, self.spans,
                                  self.report)
        metrics.counter("repro_frames_scanned_total",
                        "Frames validated.").inc(len(self.frames))
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


# ---- one rule, one frame ------------------------------------------------------


def _evaluate_protected(
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
        return _evaluate(rule, frame, manifest, normalizer)
    except Exception as exc:
        return _error_result(rule, manifest.entity, frame_key, exc)


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
