"""Verdict deltas: what changed between two validation runs.

Operators act on what changed (paper §5), and so do the consumers that
follow a scan cycle: the fleet rollups, the history store and the
health analyzer.  This module holds the one (target, entity, rule)
index of a report and the one delta type they all apply.

* :func:`index_report` keys a report by (target, entity, rule); a
  duplicate key collapses last-wins.
* :class:`VerdictDelta` holds the keys whose verdict or message changed
  between two reports, with their before and after results.  An
  incremental validation run attaches one to its report
  (``report.delta``): the engine compares only the results it did not
  replay as a stored block, and any change to the run's frame set,
  ruleset digests, tags, provenance flag or key set gives a delta with
  no ``base``, which means "rebuild".
* :func:`changes_since` is what a consumer applies to move from the
  report it last applied to a new one: the report's own delta when that
  delta is based on the consumer's report, else a full delta, computed
  from the report against the consumer's own keys.  Both go through the
  consumer's one apply step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from repro.engine.results import RuleResult, ValidationReport

#: Alignment key of one verdict across runs.
VerdictKey = tuple[str, str, str]   # (target, entity, rule name)


def index_report(report: ValidationReport) -> dict[VerdictKey, RuleResult]:
    """The report keyed by (target, entity, rule); duplicates last-wins."""
    return {(r.target, r.entity, r.rule.name): r for r in report}


def changed(before: RuleResult | None, after: RuleResult | None) -> bool:
    """Whether two results of one key differ in verdict or message (a
    missing side differs from a present one)."""
    if before is None or after is None:
        return before is not after
    return (before.verdict is not after.verdict
            or before.message != after.message)


@dataclass
class VerdictDelta:
    """The keys whose verdict or message changed, as ``key -> (before,
    after)``; a side is None where the key is absent.

    ``token`` names the report the delta belongs to and ``base`` the
    report it applies on top of, each by a unique object (so a consumer
    fed reports from two validators never applies one's delta on top of
    the other's report); ``base=None`` means the delta cannot be applied
    and the consumer rebuilds from the full report.
    """

    changes: dict[VerdictKey, tuple[RuleResult | None, RuleResult | None]] = (
        field(default_factory=dict))
    token: object = None
    base: object = None
    #: Whether the run attached provenance records to its results.
    provenance: bool = False


def delta_between(before: ValidationReport,
                  after: ValidationReport) -> VerdictDelta:
    """The delta from one report to another, in key order."""
    old = index_report(before)
    new = index_report(after)
    changes = {}
    for key in sorted(old.keys() | new.keys()):
        pair = (old.get(key), new.get(key))
        if changed(*pair):
            changes[key] = pair
    return VerdictDelta(changes)


def report_token(report: ValidationReport) -> object:
    """The token a consumer records after applying ``report``."""
    delta = report.delta
    return delta.token if delta is not None else None


def changes_since(
    report: ValidationReport, applied: object,
    known: Iterable[VerdictKey],
) -> dict[VerdictKey, RuleResult | None]:
    """``key -> after`` a consumer applies to move from the report with
    token ``applied`` to ``report``.

    The report's own delta when it is based on ``applied``.  Otherwise
    the full delta: every key of the report, then each ``known`` key the
    report lacks, mapped to None.  The consumer compares each after
    result against its own state, so the full delta's unchanged keys
    apply as no-ops.
    """
    delta = report.delta
    if delta is not None and delta.base is not None and delta.base is applied:
        return {key: after for key, (_before, after) in delta.changes.items()}
    full: dict[VerdictKey, RuleResult | None] = index_report(report)
    for key in known:
        if key not in full:
            full[key] = None
    return full


@dataclass
class RunRecord:
    """What the engine keeps of one incremental run to diff the next:
    the run's signature, each frame's placements (the object block
    replay hands back, so an unchanged frame compares by identity) and
    the composite results."""

    token: object
    signature: tuple
    frames: list
    composites: list[RuleResult]
    provenance: bool = False


def run_delta(previous: RunRecord | None, current: RunRecord) -> VerdictDelta:
    """The delta of an incremental run against the previous one.

    Frames whose placements are the previous run's own object (a block
    replay) are skipped; the others and the composites are compared
    position by position.  A different signature, or any key that moved,
    appeared or disappeared, gives a rebuild delta.
    """
    rebuild = VerdictDelta(token=current.token,
                           provenance=current.provenance)
    if (previous is None or previous.signature != current.signature
            or len(previous.composites) != len(current.composites)):
        return rebuild
    changes: dict = {}
    pairs: list = []
    for old, new in zip(previous.frames, current.frames):
        if old is new:
            continue
        old_results = [r for _manifest, results in old for r in results]
        new_results = [r for _manifest, results in new for r in results]
        if len(old_results) != len(new_results):
            return rebuild
        pairs.append(zip(old_results, new_results))
    pairs.append(zip(previous.composites, current.composites))
    for before, after in itertools.chain.from_iterable(pairs):
        if before is after:
            continue
        if (before.rule.name != after.rule.name
                or before.target != after.target
                or before.entity != after.entity):
            return rebuild
        if changed(before, after):
            changes[(after.target, after.entity, after.rule.name)] = (
                before, after)
    return VerdictDelta(changes, token=current.token, base=previous.token,
                        provenance=current.provenance)
