"""Fleet-scale scanning and dashboard rollups.

The production deployment (paper §5) does not show operators one report
per container -- it shows fleet dashboards: which rules fail most, which
entities are worst, how compliance breaks down per checklist tag.
:class:`BatchScanner` validates a fleet and produces those rollups.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.chaos.fabric import _CHAOS
from repro.crawler.crawler import Crawler
from repro.crawler.entities import Entity
from repro.crawler.frame import ConfigFrame
from repro.engine.delta import report_token
from repro.engine.engine import ConfigValidator
from repro.engine.parse_cache import CacheStats
from repro.engine.report import render_stats
from repro.engine.results import RuleResult, ValidationReport, Verdict
from repro.engine.stages import StageTimings
from repro.telemetry import RuleProfiler, Telemetry, get_logger

_SEVERITY_ORDER = ("informational", "low", "medium", "high", "critical")

log = get_logger("batch")


class ScanStageError(RuntimeError):
    """A scan cycle died mid-pipeline; carries *where*.

    ``stage`` names the pipeline stage that failed (``crawl``,
    ``validate``) and ``frame`` the target being processed when known,
    so the monitor can persist failure attribution instead of a bare
    message -- a crawl failure and a store failure need different
    responses.
    """

    def __init__(self, stage: str, error: BaseException, frame: str = ""):
        self.stage = stage
        self.frame = frame
        self.error = error
        where = f" ({frame})" if frame else ""
        super().__init__(f"{stage}{where}: {error}")


#: Severity rank by name.
_RANKS = {name: rank for rank, name in enumerate(_SEVERITY_ORDER)}


def severity_rank(severity: str) -> int:
    """Position of ``severity`` in the escalation order (unknown -> 0)."""
    return _RANKS.get(severity, 0)


@dataclass
class RuleRollup:
    """Fleet-wide stats for one rule.

    ``errors`` and ``not_applicable`` are counted separately from
    pass/fail: a rule that errors fleet-wide must not look healthy on the
    dashboard just because it never produced a NONCOMPLIANT verdict.
    """

    entity: str
    rule_name: str
    severity: str
    failed: int = 0
    passed: int = 0
    errors: int = 0
    not_applicable: int = 0
    message: str = ""

    @property
    def checked(self) -> int:
        return self.failed + self.passed


@dataclass
class EntityRollup:
    """Per-scanned-entity stats."""

    target: str
    failed: int = 0
    passed: int = 0
    worst_severity: str = "informational"

    @property
    def checked(self) -> int:
        return self.failed + self.passed


@dataclass
class FleetSummary:
    """Everything a fleet dashboard shows for one scan cycle."""

    report: ValidationReport
    entities_scanned: int
    elapsed_s: float
    #: Wall-clock (``time.time``) stamp at cycle start -- the time axis
    #: of the fleet-health history store.
    started_at: float = 0.0
    rules: dict[tuple[str, str], RuleRollup] = field(default_factory=dict)
    entities: dict[str, EntityRollup] = field(default_factory=dict)
    tag_failures: dict[str, int] = field(default_factory=dict)
    #: Per-stage self time of this scan cycle (None when not collected).
    stage_timings: StageTimings | None = None
    #: Parse-cache counters snapshotted at the end of the cycle.
    cache_stats: CacheStats | None = None
    #: Per-rule / per-lens profile (None unless telemetry is enabled).
    #: Process-cumulative: a long-running scanner's rankings sharpen
    #: cycle over cycle.
    profile: RuleProfiler | None = None
    #: The report's verdict tally, in ``report.counts()``'s shape, kept
    #: by the scanner's rollups; None on a summary built elsewhere.
    tally: dict[str, int] | None = None

    @property
    def throughput(self) -> float:
        """Entities per second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.entities_scanned / self.elapsed_s

    def top_failing_rules(self, count: int = 10) -> list[RuleRollup]:
        return sorted(
            self.rules.values(),
            key=lambda r: (-r.failed, -severity_rank(r.severity), r.rule_name),
        )[:count]

    def erroring_rules(self, count: int = 10) -> list[RuleRollup]:
        """Rules that errored or were inapplicable somewhere in the fleet."""
        flagged = [
            rollup
            for rollup in self.rules.values()
            if rollup.errors or rollup.not_applicable
        ]
        return sorted(
            flagged,
            key=lambda r: (-r.errors, -r.not_applicable, r.rule_name),
        )[:count]

    def worst_entities(self, count: int = 10) -> list[EntityRollup]:
        return sorted(
            self.entities.values(),
            key=lambda e: (-e.failed, -severity_rank(e.worst_severity), e.target),
        )[:count]

    def failures_at_least(self, severity: str) -> list[RuleResult]:
        """Failed results at or above ``severity``."""
        threshold = severity_rank(severity)
        return [
            result
            for result in self.report.failed()
            if severity_rank(result.rule.severity) >= threshold
        ]

    def counts(self) -> dict[str, int]:
        """The report's verdict counts (``report.counts()``)."""
        if self.tally is None:
            return self.report.counts()
        return dict(self.tally)

    def compliance_rate(self) -> float:
        counts = self.tally or self.report.counts()
        checked = counts["compliant"] + counts["noncompliant"]
        return counts["compliant"] / checked if checked else 1.0


_COUNTED = (Verdict.COMPLIANT, Verdict.NONCOMPLIANT)


class _Order:
    """What orders one rollup dict: each key's set of entries (report
    positions, or ``(position, index)`` pairs) and its smallest entry,
    which places the key."""

    __slots__ = ("entries", "firsts")

    def __init__(self) -> None:
        self.entries: dict[str, set] = {}
        self.firsts: dict[str, object] = {}

    def add(self, key: str, entry) -> bool:
        """Add ``entry``; whether ``key`` appeared or its first moved."""
        entries = self.entries.get(key)
        if entries is None:
            self.entries[key] = {entry}
            self.firsts[key] = entry
            return True
        entries.add(entry)
        if entry < self.firsts[key]:
            self.firsts[key] = entry
            return True
        return False

    def remove(self, key: str, entry) -> bool:
        """Remove ``entry``; whether ``key`` went or its first moved."""
        entries = self.entries[key]
        entries.remove(entry)
        if entry != self.firsts[key]:
            return False
        if entries:
            self.firsts[key] = min(entries)
        else:
            del self.entries[key], self.firsts[key]
        return True

    def sort(self, rollup: dict) -> dict:
        """``rollup``'s live keys by smallest entry (entries are unique
        across keys, so no tie falls back on set order)."""
        firsts = self.firsts
        return {key: rollup[key]
                for key in sorted(firsts, key=firsts.__getitem__)}


class _Rollups:
    """A scanner's rollups of the last report it summarized, kept so the
    next report's verdict delta updates them instead of a full pass.

    Every field is a sum over results, with three order-dependent
    exceptions: a rule's ``message`` is its last failing result's in
    report order, ``entities`` is ordered by each target's first counted
    (compliant or noncompliant) result, and ``tag_failures`` by each
    tag's first failing result, then by the tag's index in
    ``rule.tags``.  ``fails`` keeps each rule's failing results by report
    position and ``ranks`` each entity's failures per severity rank.  A
    build is the one apply step fed every result of the report.

    Rollups built from a report with a verdict delta, the ones a delta
    can follow, also keep each key's report position (``positions``) and
    the entries behind the two orders: each entity's counted positions
    (``counted``) and each tag's failing ``(position, index in
    rule.tags)`` pairs (``failing``).  An update moves only the delta's
    positions between those sets and drops an entity or tag whose set
    empties.  It re-sorts ``entities`` or ``tag_failures`` by smallest
    entry only when one of its keys appeared, went or changed its
    smallest entry, so no step walks the report.  Every delta based on
    this state's report applies; only a report whose delta has no usable
    base is built from scratch.

    The dicts a summary shares (``rules``, ``entities``,
    ``tag_failures``) and the rollup objects in them are copied before
    an update changes them, so earlier summaries never change.
    """

    def __init__(self) -> None:
        self.token: object = None
        self.rules: dict[tuple[str, str], RuleRollup] = {}
        self.entities: dict[str, EntityRollup] = {}
        self.tag_failures: dict[str, int] = {}
        self.tally = dict.fromkeys(Verdict, 0)
        self.fails: dict[tuple[str, str], dict[int, str]] = {}
        self.ranks: dict[str, list[int]] = {}
        #: (target, entity, rule) -> report position, and the entries
        #: that order ``entities`` and ``tag_failures``; kept only for
        #: reports of incremental runs, the ones a delta can follow.
        self.positions: dict[tuple[str, str, str], int] | None = None
        self.counted: _Order | None = None
        self.failing: _Order | None = None

    @classmethod
    def build(cls, report: ValidationReport) -> "_Rollups":
        rollups = cls()
        rollups.token = report_token(report)
        rollups._apply(((position, result, 1)
                        for position, result in enumerate(report)), None)
        if report.delta is not None:
            rollups._index(report)
        return rollups

    def _index(self, report: ValidationReport) -> None:
        """Record the positions and order entries an update moves."""
        positions = self.positions = {}
        counted = self.counted = _Order()
        failing = self.failing = _Order()
        noncompliant = Verdict.NONCOMPLIANT
        for position, result in enumerate(report):
            positions[(result.target, result.entity,
                       result.rule.name)] = position
            verdict = result.verdict
            if verdict in _COUNTED:
                counted.add(result.target, position)
                if verdict is noncompliant:
                    for index, tag in enumerate(result.rule.tags):
                        failing.add(tag, (position, index))

    def update(self, delta) -> None:
        """Apply ``delta``, a verdict delta based on this state's report."""
        positions = self.positions
        counted = self.counted
        failing = self.failing
        noncompliant = Verdict.NONCOMPLIANT
        entries = []
        entities_moved = tags_moved = False
        for key, (before, after) in delta.changes.items():
            position = positions[key]
            entries.append((position, before, -1))
            entries.append((position, after, 1))
            now = after.verdict in _COUNTED
            if (before.verdict in _COUNTED) != now:
                move = counted.add if now else counted.remove
                entities_moved |= move(after.target, position)
            now = after.verdict is noncompliant
            if (before.verdict is noncompliant) != now:
                move, result = ((failing.add, after) if now
                                else (failing.remove, before))
                for index, tag in enumerate(result.rule.tags):
                    tags_moved |= move(tag, (position, index))
        self.rules = dict(self.rules)
        self.entities = dict(self.entities)
        self.tag_failures = dict(self.tag_failures)
        self._apply(entries, set())
        if entities_moved:
            self.entities = counted.sort(self.entities)
        if tags_moved:
            self.tag_failures = failing.sort(self.tag_failures)
        self.token = delta.token

    def _apply(self, entries, owned: set | None) -> None:
        """Add (``sign`` 1) or remove (-1) each result's contributions.

        ``owned`` is None while building, when every rollup object is
        new and positions only grow; an update passes a set and copies
        each shared rollup object once.  An update may add an entity or
        a tag at the end of its dict, or leave one at zero, for
        :meth:`update` to re-sort or drop.
        """
        rules = self.rules
        entities = self.entities
        tag_failures = self.tag_failures
        tally = self.tally
        fails = self.fails
        ranks = self.ranks
        error = Verdict.ERROR
        not_applicable = Verdict.NOT_APPLICABLE
        compliant = Verdict.COMPLIANT
        for position, result, sign in entries:
            rule = result.rule
            verdict = result.verdict
            tally[verdict] += sign
            key = (result.entity, rule.name)
            rollup = rules.get(key)
            if rollup is None:
                rollup = rules[key] = RuleRollup(
                    entity=result.entity, rule_name=rule.name,
                    severity=rule.severity,
                )
            elif owned is not None and key not in owned:
                rollup = rules[key] = replace(rollup)
                owned.add(key)
            if verdict is not_applicable:
                rollup.not_applicable += sign
                continue
            if verdict is not compliant:
                # The rule's message is its last failing result's.
                failing = fails.get(key)
                if failing is None:
                    failing = fails[key] = {}
                if sign > 0:
                    failing[position] = result.message
                else:
                    del failing[position]
                if owned is None:
                    rollup.message = result.message
                else:
                    rollup.message = failing[max(failing)] if failing else ""
                if verdict is error:
                    rollup.errors += sign
                    continue
            target = result.target
            entity_rollup = entities.get(target)
            if entity_rollup is None:
                entity_rollup = entities[target] = EntityRollup(target=target)
                ranks[target] = [0] * len(_SEVERITY_ORDER)
            elif owned is not None and target not in owned:
                entity_rollup = entities[target] = replace(entity_rollup)
                owned.add(target)
            if verdict is compliant:
                rollup.passed += sign
                entity_rollup.passed += sign
            else:
                rollup.failed += sign
                entity_rollup.failed += sign
                counts = ranks[target]
                rank = _RANKS.get(rule.severity, 0)
                counts[rank] += sign
                if sign > 0:
                    if rank > _RANKS[entity_rollup.worst_severity]:
                        entity_rollup.worst_severity = rule.severity
                else:
                    worst = max((level for level, count in enumerate(counts)
                                 if count), default=0)
                    entity_rollup.worst_severity = _SEVERITY_ORDER[worst]
                for tag in rule.tags:
                    tag_failures[tag] = tag_failures.get(tag, 0) + sign

    def counts(self) -> dict[str, int]:
        tally = {verdict.value: count for verdict, count in self.tally.items()}
        tally["total"] = sum(self.tally.values())
        return tally


class BatchScanner:
    """Validate fleets and build dashboard summaries.

    ``workers`` parallelizes both halves of the cycle (crawl fan-out and
    per-frame validation); stage timings and parse-cache counters ride
    along on the returned :class:`FleetSummary`.
    """

    def __init__(self, validator: ConfigValidator,
                 crawler: Crawler | None = None, *, workers: int = 1,
                 cache_size: int | None = None,
                 telemetry: Telemetry | None = None):
        self._validator = validator
        if (cache_size is not None
                and validator.parse_cache.maxsize != cache_size):
            # Honor --cache-size exactly like `validate`: one shared
            # cache per cycle, resized in place so telemetry collectors
            # and the crawler keep observing the same cache.
            validator.parse_cache.resize(cache_size)
        #: Defaults to the validator's bundle so one enabled Telemetry
        #: covers the whole cycle (crawl spans included).
        self.telemetry = telemetry or validator.telemetry
        self._crawler = crawler or Crawler(
            telemetry=self.telemetry, parse_cache=validator.parse_cache)
        self._workers = max(1, workers)
        #: Rollups of the last summarized report (see :class:`_Rollups`).
        self._rollups: _Rollups | None = None

    def scan_entities(self, entities: list[Entity], *,
                      tags: list[str] | None = None,
                      workers: int | None = None) -> FleetSummary:
        """Crawl + validate ``entities`` and roll the results up."""
        return self._scan(entities, crawl=True, tags=tags, workers=workers)

    def scan_frames(self, frames: list[ConfigFrame], *,
                    tags: list[str] | None = None,
                    workers: int | None = None) -> FleetSummary:
        """Validate pre-captured frames (the decoupled pipeline)."""
        return self._scan(frames, crawl=False, tags=tags, workers=workers)

    def _scan(self, targets: list, *, crawl: bool,
              tags: list[str] | None, workers: int | None) -> FleetSummary:
        """One scan cycle over entities (``crawl``) or frames."""
        workers = self._workers if workers is None else max(1, workers)
        timings = StageTimings()
        started_at = time.time()
        if _CHAOS.armed:
            # Injected clock skew on the cycle's wall stamp: history rows
            # and event timestamps drift like a broken-NTP host's would,
            # while every duration stays perf_counter-true.
            started_at += _CHAOS.skew("scan-cycle")
        started = time.perf_counter()
        with self.telemetry.spans.span("scan_cycle", category="cycle",
                                       entities=str(len(targets)),
                                       workers=str(workers)):
            frames = targets
            if crawl:
                with timings.timer("crawl"):
                    try:
                        frames = self._crawler.crawl_many(
                            targets, workers=workers)
                    except ScanStageError:
                        raise
                    except Exception as error:
                        raise ScanStageError("crawl", error) from error
            try:
                report = self._validator.validate_frames(
                    frames, tags=tags, workers=workers, timings=timings
                )
            except ScanStageError:
                raise
            except Exception as error:
                raise ScanStageError("validate", error) from error
        return self._summarize(
            report, len(targets), time.perf_counter() - started, timings,
            workers=workers, started_at=started_at,
        )

    def _summarize(
        self,
        report: ValidationReport,
        entity_count: int,
        elapsed: float,
        timings: StageTimings | None = None,
        *,
        workers: int = 1,
        started_at: float = 0.0,
    ) -> FleetSummary:
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.metrics.counter(
                "repro_scan_cycles_total", "Completed fleet scan cycles."
            ).inc()
            telemetry.metrics.gauge(
                "repro_workers", "Configured worker threads."
            ).set(workers)
            if elapsed > 0 and timings is not None:
                # The frames' blocks hold the cycle's worker-seconds.
                busy = (timings.total_seconds - timings.seconds("crawl")
                        - timings.seconds("composite"))
                telemetry.metrics.gauge(
                    "repro_worker_utilization_ratio",
                    "Worker busy-seconds / (workers * cycle wall time) "
                    "of the most recent scan cycle.",
                ).set(min(1.0, busy / (workers * elapsed)))
            if timings is not None:
                timings.publish(telemetry.metrics)
        summary = FleetSummary(
            report=report,
            entities_scanned=entity_count,
            elapsed_s=elapsed,
            started_at=started_at or time.time() - elapsed,
            stage_timings=timings,
            cache_stats=self._validator.cache_stats(),
            profile=telemetry.profiler if telemetry.enabled else None,
        )
        log.info(
            "scan cycle: %d entities, %d checks in %.2fs",
            entity_count, len(report), elapsed,
        )
        rollups = self._rollups
        delta = report.delta
        if (rollups is not None and delta is not None
                and delta.base is not None and delta.base is rollups.token):
            rollups.update(delta)
        else:
            rollups = self._rollups = _Rollups.build(report)
        summary.rules = rollups.rules
        summary.entities = rollups.entities
        summary.tag_failures = rollups.tag_failures
        summary.tally = rollups.counts()
        return summary


def render_fleet_summary(summary: FleetSummary, *, top: int = 10) -> str:
    """Dashboard text: compliance rate, top rules, worst entities, tags."""
    counts = summary.counts()
    lines = [
        f"# fleet scan: {summary.entities_scanned} entities, "
        f"{counts['total']} checks in {summary.elapsed_s:.2f}s "
        f"({summary.throughput:,.0f} entities/s)",
        f"# compliance: {summary.compliance_rate():.1%} "
        f"({counts['compliant']} pass / {counts['noncompliant']} fail / "
        f"{counts['not_applicable']} n/a / {counts['error']} error)",
        "",
        "top failing rules:",
    ]
    for rollup in summary.top_failing_rules(top):
        if not rollup.failed:
            continue
        lines.append(
            f"  {rollup.failed:4d}/{rollup.checked:<4d} "
            f"[{rollup.severity:<8s}] {rollup.entity}/{rollup.rule_name}"
        )
    lines.append("")
    lines.append("worst entities:")
    for entity_rollup in summary.worst_entities(top):
        if not entity_rollup.failed:
            continue
        lines.append(
            f"  {entity_rollup.failed:4d} findings "
            f"(worst: {entity_rollup.worst_severity})  {entity_rollup.target}"
        )
    if summary.tag_failures:
        lines.append("")
        lines.append("failures by tag:")
        ranked = sorted(
            summary.tag_failures.items(), key=lambda item: -item[1]
        )
        for tag, count in ranked[:top]:
            lines.append(f"  {count:4d}  {tag}")
    erroring = [r for r in summary.erroring_rules(top) if r.errors]
    if erroring:
        lines.append("")
        lines.append("rules with errors:")
        for rollup in erroring:
            lines.append(
                f"  {rollup.errors:4d} errors "
                f"[{rollup.severity:<8s}] {rollup.entity}/{rollup.rule_name}"
            )
    if summary.stage_timings is not None:
        lines.append("")
        lines.append("stage timings (aggregate worker-seconds):")
        for row in summary.stage_timings.render().splitlines():
            lines.append(f"  {row}")
    for block in render_stats(summary.cache_stats, summary.report):
        lines += ["", block]
    if summary.profile is not None and len(summary.profile):
        lines.append("")
        lines.append("rule/lens profile (process-cumulative):")
        for row in summary.profile.render(top=top).splitlines():
            lines.append(f"  {row}")
    return "\n".join(lines)
