"""Cycle-over-cycle health analysis: drift classification, verdict
streaks, and flapping-rule detection.

A rule that fails once is a finding; a rule that *oscillates* is noise
that trains operators to ignore the dashboard.  :class:`FlapDetector`
tracks each (target, entity, rule)'s verdicts over a sliding window of
cycles and flags keys whose verdict changed at least
``min_transitions`` times within it; :class:`HealthAnalyzer` layers the
event stream on top -- regressions and fixes classified by the rules of
:func:`repro.engine.drift.diff_reports`, fleet membership changes, and
flap start/end transitions -- and can rehydrate all of its state from
the :class:`~repro.history.store.HistoryStore`, so a restarted monitor
resumes mid-streak instead of re-announcing the world.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterable

from repro.engine.results import ValidationReport, Verdict
from repro.history.events import HealthEvent
from repro.history.store import HistoryStore, VerdictKey

#: Defaults: a key must change verdict 3+ times within its last 6
#: observations to count as flapping.
DEFAULT_FLAP_WINDOW = 6
DEFAULT_FLAP_MIN_TRANSITIONS = 3


def count_transitions(series: Iterable[str]) -> int:
    """Number of adjacent unequal pairs in a verdict series."""
    changes = 0
    previous = None
    for value in series:
        if previous is not None and value != previous:
            changes += 1
        previous = value
    return changes


class FlapDetector:
    """Sliding-window verdict-oscillation detector.

    Feed it one verdict map per cycle (:meth:`observe_cycle`); it
    returns which keys started and stopped flapping.  A key flaps while
    its last ``window`` verdicts contain at least ``min_transitions``
    changes; a key that leaves the fleet stops flapping implicitly.
    """

    def __init__(self, window: int = DEFAULT_FLAP_WINDOW,
                 min_transitions: int = DEFAULT_FLAP_MIN_TRANSITIONS):
        if window < 2:
            raise ValueError("flap window must be >= 2")
        if not 1 <= min_transitions <= window - 1:
            raise ValueError(
                "min_transitions must be in [1, window-1] "
                f"(got {min_transitions} for window {window})"
            )
        self.window = window
        self.min_transitions = min_transitions
        self._series: dict[VerdictKey, deque[str]] = {}
        self._flapping: set[VerdictKey] = set()

    def seed(self, series: dict[VerdictKey, list[str]]) -> None:
        """Rehydrate from stored history without emitting transitions."""
        for key, verdicts in series.items():
            window = deque(verdicts[-self.window:], maxlen=self.window)
            if not window:
                continue
            self._series[key] = window
            if count_transitions(window) >= self.min_transitions:
                self._flapping.add(key)

    def observe_cycle(
        self, verdicts: dict[VerdictKey, str]
    ) -> tuple[list[VerdictKey], list[VerdictKey]]:
        """Fold in one cycle; returns (flap starts, flap ends), sorted."""
        starts: list[VerdictKey] = []
        ends: list[VerdictKey] = []
        for key in self._series.keys() - verdicts.keys():
            del self._series[key]
            if key in self._flapping:
                self._flapping.discard(key)
                ends.append(key)
        for key, verdict in verdicts.items():
            window = self._series.get(key)
            if window is None:
                window = self._series[key] = deque(maxlen=self.window)
            elif window[-1] == verdict and key not in self._flapping:
                # Repeating the last verdict adds no transition, so a key
                # that is not flapping cannot start to.
                window.append(verdict)
                continue
            window.append(verdict)
            flapping = count_transitions(window) >= self.min_transitions
            if flapping and key not in self._flapping:
                self._flapping.add(key)
                starts.append(key)
            elif not flapping and key in self._flapping:
                self._flapping.discard(key)
                ends.append(key)
        return sorted(starts), sorted(ends)

    def flapping(self) -> list[VerdictKey]:
        return sorted(self._flapping)

    def series(self, key: VerdictKey) -> tuple[str, ...]:
        return tuple(self._series.get(key, ()))

    def transitions(self, key: VerdictKey) -> int:
        return count_transitions(self._series.get(key, ()))


class HealthAnalyzer:
    """Turns consecutive cycles into typed health events.

    Regressions and fixes come from one diff of the previous cycle's
    verdict map against this cycle's results, with the classification
    rules of :func:`repro.engine.drift.diff_reports`: the events match
    what ``repro drift`` reports for the same pair of cycles.  A live
    monitor keeps the previous map in memory; a restarted one loads it
    from the store, so both classify the same way.
    """

    def __init__(self, store: HistoryStore, *,
                 flap_window: int = DEFAULT_FLAP_WINDOW,
                 flap_min_transitions: int = DEFAULT_FLAP_MIN_TRANSITIONS):
        self.store = store
        self.detector = FlapDetector(flap_window, flap_min_transitions)
        self._prev_map: dict[VerdictKey, str] | None = None
        windows = store.verdict_windows(flap_window)
        if windows:
            self.detector.seed(
                {key: [verdict for _cycle, verdict in series]
                 for key, series in windows.items()}
            )
        latest = store.latest_cycle_id()
        if latest is not None:
            row = store.cycle(latest)
            if row is not None and not row.failed_cycle:
                self._prev_map = store.verdict_map(latest)

    # ---- the per-cycle entry points ---------------------------------------

    def observe_report(self, cycle_id: int,
                       report: ValidationReport) -> list[HealthEvent]:
        """Classify one completed cycle; returns its events in order
        (regressions, fixes, flaps, membership changes)."""
        now = time.time()
        # Duplicate keys collapse last-wins, as in diff_reports and
        # report_verdict_map.
        results = {(r.target, r.entity, r.rule.name): r for r in report}
        current_map = {key: result.verdict.value
                       for key, result in results.items()}
        previous = self._prev_map
        events: list[HealthEvent] = []
        if previous is not None:
            noncompliant = Verdict.NONCOMPLIANT.value
            compliant = Verdict.COMPLIANT.value
            fixes: list[HealthEvent] = []
            # A key only in the previous cycle has no verdict now, so it
            # can be neither a regression nor a fix.
            changed = sorted(key for key, after in current_map.items()
                             if previous.get(key) != after)
            for key in changed:
                before = previous.get(key, "")
                after = current_map[key]
                if after == noncompliant:
                    bucket, kind = events, "regression"
                elif before == noncompliant and after == compliant:
                    bucket, kind = fixes, "fix"
                else:
                    continue
                result = results[key]
                bucket.append(HealthEvent(
                    kind=kind, cycle_id=cycle_id, ts=now,
                    target=key[0], entity=key[1], rule=key[2],
                    before=before, after=after,
                    severity=result.rule.severity, message=result.message,
                ))
            events.extend(fixes)
        flap_starts, flap_ends = self.detector.observe_cycle(current_map)
        for kind, keys in (("flap_start", flap_starts),
                           ("flap_end", flap_ends)):
            for key in keys:
                series = self.detector.series(key)
                result = results.get(key)
                events.append(HealthEvent(
                    kind=kind, cycle_id=cycle_id, ts=now,
                    target=key[0], entity=key[1], rule=key[2],
                    severity=result.rule.severity if result else "",
                    message=(
                        f"{count_transitions(series)} transitions in last "
                        f"{len(series)} cycles: {' -> '.join(series)}"
                        if series else "left the fleet"
                    ),
                ))
        if previous is not None:
            before_targets = {key[0] for key in previous}
            after_targets = {key[0] for key in current_map}
            for kind, targets in (
                ("entity_appeared", sorted(after_targets - before_targets)),
                ("entity_disappeared",
                 sorted(before_targets - after_targets)),
            ):
                for target in targets:
                    events.append(HealthEvent(
                        kind=kind, cycle_id=cycle_id, ts=now, target=target,
                    ))
        self._prev_map = current_map
        return events

    def observe_error(self, cycle_id: int, message: str) -> list[HealthEvent]:
        """A cycle that crashed before producing a report.

        The previous baseline is kept: the next good cycle diffs against
        the last good one, not against the crash.
        """
        return [HealthEvent(kind="scan_error", cycle_id=cycle_id,
                            message=message or "scan failed")]

    # ---- offline / endpoint queries ---------------------------------------

    def flapping(self) -> list[VerdictKey]:
        return self.detector.flapping()

    def flapping_details(self) -> list[dict]:
        """Current flapping set with transition counts and series."""
        out = []
        for key in self.detector.flapping():
            series = self.detector.series(key)
            out.append({
                "target": key[0],
                "entity": key[1],
                "rule": key[2],
                "transitions": count_transitions(series),
                "window": len(series),
                "series": list(series),
            })
        return out

    def regression_counts(
        self, window: int = 20
    ) -> list[tuple[VerdictKey, int]]:
        """Keys ranked by how often they regressed in the last
        ``window`` cycles (from the store, so it works offline)."""
        noncompliant = Verdict.NONCOMPLIANT.value
        ranked: list[tuple[VerdictKey, int]] = []
        for key, series in self.store.verdict_windows(window).items():
            count = 0
            previous = None
            for _cycle, verdict in series:
                if verdict == noncompliant and previous is not None \
                        and previous != noncompliant:
                    count += 1
                previous = verdict
            if count:
                ranked.append((key, count))
        ranked.sort(key=lambda item: (-item[1], item[0]))
        return ranked

    def streaks(self, window: int = 50,
                verdict: str | None = None) -> list[tuple[VerdictKey, str, int]]:
        """Tail run length per key over the last ``window`` cycles:
        ``(key, verdict, length)``, longest first.  ``verdict`` filters
        (e.g. ``"noncompliant"`` for the wall-of-shame view)."""
        out: list[tuple[VerdictKey, str, int]] = []
        for key, series in self.store.verdict_windows(window).items():
            if not series:
                continue
            tail = series[-1][1]
            length = 0
            for _cycle, value in reversed(series):
                if value != tail:
                    break
                length += 1
            if verdict is None or tail == verdict:
                out.append((key, tail, length))
        out.sort(key=lambda item: (-item[2], item[0]))
        return out
