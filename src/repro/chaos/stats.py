"""Degradation accounting surfaced on reports and fleet summaries.

A cycle that absorbed faults, cancelled over-deadline frames, or
quarantined a corrupt store still completes and still emits a report --
but downstream consumers must never mistake that partial cycle for a
clean one.  :class:`DegradationStats` is the per-cycle ledger: attached
to ``ValidationReport.degradation`` by the run's account step (a fleet
summary reads it off its report), rendered under ``--stage-timings``,
exported as the ``repro_chaos_*`` / ``repro_degraded_*`` metric
families, and the source of the ``degraded: true`` marker in JSON/JUnit
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.stats import Stats, derived, stat


@dataclass
class DegradationStats(Stats):
    """What one cycle absorbed instead of failing."""

    #: Name of the armed fault plan (None when only deadlines fired).
    plan: str | None = stat(default=None)
    #: Faults the fabric injected, by site.
    faults_injected: dict[str, int] = stat(
        "repro_chaos_faults_injected_total",
        "Faults injected by the armed chaos plan, by site.",
        label="site", default_factory=dict)
    #: Injected faults the production error paths absorbed, by site.
    faults_absorbed: dict[str, int] = stat(
        "repro_chaos_faults_absorbed_total",
        "Injected faults absorbed by production error paths, by site.",
        label="site", default_factory=dict)
    #: Frames with at least one deadline-cancelled rule.
    frames_quarantined: int = stat("repro_degraded_frames_total",
                                   "Frames quarantined by a deadline.")
    #: Rule evaluations cancelled at a deadline boundary.
    deadline_cancellations: int = stat(
        "repro_degraded_deadline_cancellations_total",
        "Rule evaluations cancelled at a deadline boundary.")
    #: Stores moved aside and reopened cold: corrupt ones, and history
    #: databases another build wrote.
    stores_quarantined: int = stat(
        "repro_degraded_stores_quarantined_total",
        "Corrupt stores quarantined and reopened cold.")
    #: (site, key) pairs that fired, for fault attribution.
    fired: list[tuple[str, str]] = field(default_factory=list, repr=False)

    @property
    def total_injected(self) -> int:
        return sum(self.faults_injected.values())

    @property
    def total_absorbed(self) -> int:
        return sum(self.faults_absorbed.values())

    @derived("repro_degraded_cycles_total",
             "Validation cycles that completed degraded.")
    def degraded(self) -> bool:
        """True when this cycle was anything but clean."""
        return bool(
            self.total_injected or self.total_absorbed
            or self.frames_quarantined or self.deadline_cancellations
            or self.stores_quarantined
        )

    def render(self) -> str:
        """Human-readable block for ``--stage-timings`` output."""
        lines = ["degradation:"]
        if self.plan:
            lines.append(f"  fault plan        : {self.plan}")
        lines.append(f"  faults injected   : {self.total_injected}"
                     + _by_site(self.faults_injected))
        lines.append(f"  faults absorbed   : {self.total_absorbed}"
                     + _by_site(self.faults_absorbed))
        lines.append(f"  frames quarantined: {self.frames_quarantined}")
        lines.append(f"  deadline cancels  : {self.deadline_cancellations}")
        lines.append(f"  stores quarantined: {self.stores_quarantined}")
        return "\n".join(lines)


def _by_site(counts: dict[str, int]) -> str:
    if not counts:
        return ""
    parts = ", ".join(f"{site}={n}" for site, n in sorted(counts.items()))
    return f"  ({parts})"
