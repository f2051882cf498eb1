"""Drift analysis: compare two validation reports.

Production usage (paper §5) scans entities continuously; what operators
act on is the *delta* -- which checks regressed since the last scan, or
how a running container diverges from the image it was started from.
:func:`diff_reports` takes the verdict delta of two reports
(:mod:`repro.engine.delta`, aligned by (target, entity, rule)) and
buckets its verdict changes; :func:`render_drift` prints the operator-facing
summary and :func:`drift_to_dict` the machine-readable one (``repro
drift --json``, the monitor's event stream).

The target participates in the alignment key so fleet-wide reports --
where many frames carry the same component (six nginx containers all
produce an ``nginx`` entity) -- diff per frame instead of collapsing
onto one another.  For single-entity reports the behavior is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.delta import delta_between
from repro.engine.results import ValidationReport, Verdict


@dataclass
class DriftEntry:
    """One (target, entity, rule) whose verdict changed between runs."""

    entity: str
    rule_name: str
    before: Verdict | None   # None: rule absent in the earlier report
    after: Verdict | None    # None: rule absent in the later report
    message: str = ""
    target: str = ""         # frame the verdict belongs to, e.g. "container:web1"
    severity: str = ""

    @property
    def regressed(self) -> bool:
        return (
            self.after is Verdict.NONCOMPLIANT
            and self.before is not Verdict.NONCOMPLIANT
        )

    @property
    def fixed(self) -> bool:
        return (
            self.before is Verdict.NONCOMPLIANT
            and self.after is Verdict.COMPLIANT
        )

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "entity": self.entity,
            "rule": self.rule_name,
            "before": self.before.value if self.before else None,
            "after": self.after.value if self.after else None,
            "severity": self.severity,
            "message": self.message,
            "regressed": self.regressed,
            "fixed": self.fixed,
        }


@dataclass
class DriftReport:
    """All verdict changes between two runs."""

    baseline: str
    current: str
    entries: list[DriftEntry] = field(default_factory=list)

    def regressions(self) -> list[DriftEntry]:
        return [entry for entry in self.entries if entry.regressed]

    def fixes(self) -> list[DriftEntry]:
        return [entry for entry in self.entries if entry.fixed]

    def appeared(self) -> list[DriftEntry]:
        return [entry for entry in self.entries if entry.before is None]

    def disappeared(self) -> list[DriftEntry]:
        return [entry for entry in self.entries if entry.after is None]

    def regressions_at_least(self, severity: str) -> list[DriftEntry]:
        """Regressions at or above ``severity`` (CI gating)."""
        from repro.engine.batch import severity_rank

        threshold = severity_rank(severity)
        return [
            entry
            for entry in self.regressions()
            if severity_rank(entry.severity) >= threshold
        ]

    @property
    def clean(self) -> bool:
        return not self.regressions()

    def __len__(self) -> int:
        return len(self.entries)


def diff_reports(
    baseline: ValidationReport, current: ValidationReport
) -> DriftReport:
    """Changes from ``baseline`` to ``current`` (aligned by
    target+entity+rule): their verdict delta, filtered to the keys whose
    verdict changed."""
    drift = DriftReport(baseline=baseline.target, current=current.target)
    for key, (before, after) in delta_between(baseline,
                                              current).changes.items():
        before_verdict = before.verdict if before else None
        after_verdict = after.verdict if after else None
        if before_verdict == after_verdict:
            continue
        witness = after or before
        drift.entries.append(
            DriftEntry(
                target=key[0],
                entity=key[1],
                rule_name=key[2],
                before=before_verdict,
                after=after_verdict,
                message=witness.message,
                severity=witness.rule.severity,
            )
        )
    return drift


def drift_to_dict(drift: DriftReport) -> dict:
    """Machine-readable drift report (``repro drift --json``)."""
    return {
        "baseline": drift.baseline,
        "current": drift.current,
        "summary": {
            "changes": len(drift),
            "regressions": len(drift.regressions()),
            "fixes": len(drift.fixes()),
            "appeared": len(drift.appeared()),
            "disappeared": len(drift.disappeared()),
        },
        "entries": [entry.to_dict() for entry in drift.entries],
    }


def render_drift(drift: DriftReport) -> str:
    """Operator-facing drift summary."""
    lines = [
        f"# drift: {drift.baseline}  ->  {drift.current}",
        f"# {len(drift)} change(s): {len(drift.regressions())} regressed, "
        f"{len(drift.fixes())} fixed, {len(drift.appeared())} new, "
        f"{len(drift.disappeared())} gone",
    ]
    for label, entries in (
        ("REGRESSED", drift.regressions()),
        ("FIXED", drift.fixes()),
    ):
        for entry in entries:
            before = entry.before.value if entry.before else "absent"
            after = entry.after.value if entry.after else "absent"
            lines.append(
                f"[{label}] {entry.entity}: {entry.rule_name} "
                f"({before} -> {after}) -- {entry.message}"
            )
    return "\n".join(lines)
