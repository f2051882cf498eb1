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
from typing import Iterable

from repro.engine.delta import changes_since, report_token
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

    Feed it one cycle at a time -- a full verdict map
    (:meth:`observe_cycle`) or only the keys whose verdict changed
    (:meth:`observe_changes`); it returns which keys started and stopped
    flapping.  A key flaps while its last ``window`` verdicts contain at
    least ``min_transitions`` changes; a key that leaves the fleet stops
    flapping implicitly.

    Each key keeps its verdict runs -- ``(observation, verdict)`` at
    each change -- trimmed to the window, not a window of verdicts, so a
    cycle costs the keys that changed plus those with a change still in
    the window.
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
        #: Observations so far.
        self._now = 0
        #: key -> its runs, oldest first: the first one is in effect at
        #: the window's start (or began with the key's first verdict).
        self._runs: dict[VerdictKey, list[tuple[int, str]]] = {}
        #: Keys with a change still in the window.
        self._changing: set[VerdictKey] = set()
        self._flapping: set[VerdictKey] = set()

    def seed(self, series: dict[VerdictKey, list[str]]) -> None:
        """Rehydrate from stored history without emitting transitions:
        each key's series ends at the latest observation."""
        now = self._now
        for key, verdicts in series.items():
            verdicts = verdicts[-self.window:]
            if not verdicts:
                continue
            start = now - len(verdicts) + 1
            runs = [(start, verdicts[0])]
            for offset, verdict in enumerate(verdicts[1:], start + 1):
                if verdict != runs[-1][1]:
                    runs.append((offset, verdict))
            self._runs[key] = runs
            if len(runs) > 1:
                self._changing.add(key)
            if len(runs) - 1 >= self.min_transitions:
                self._flapping.add(key)

    def observe_cycle(
        self, verdicts: dict[VerdictKey, str]
    ) -> tuple[list[VerdictKey], list[VerdictKey]]:
        """Fold in one cycle's full verdict map; returns (flap starts,
        flap ends), sorted.  A known key missing from the map left the
        fleet."""
        changes: dict[VerdictKey, str | None] = dict(verdicts)
        for key in self._runs.keys() - verdicts.keys():
            changes[key] = None
        return self.observe_changes(changes)

    def observe_changes(
        self, changes: dict[VerdictKey, str | None]
    ) -> tuple[list[VerdictKey], list[VerdictKey]]:
        """Fold in one cycle given only what changed: ``key -> verdict``
        (None: the key left the fleet).  Every other known key repeats
        its verdict.  Returns (flap starts, flap ends), sorted."""
        self._now += 1
        now = self._now
        runs_by_key = self._runs
        starts: list[VerdictKey] = []
        ends: list[VerdictKey] = []
        for key, verdict in changes.items():
            runs = runs_by_key.get(key)
            if verdict is None:
                if runs is not None:
                    del runs_by_key[key]
                    self._changing.discard(key)
                    if key in self._flapping:
                        self._flapping.discard(key)
                        ends.append(key)
            elif runs is None:
                runs_by_key[key] = [(now, verdict)]
            elif runs[-1][1] != verdict:
                runs.append((now, verdict))
                self._changing.add(key)
        # A change counts while both of its observations are in the
        # window, so a run whose successor began at or before the
        # window's first observation has scrolled out.
        edge = now - self.window + 1
        for key in list(self._changing):
            runs = runs_by_key[key]
            while len(runs) > 1 and runs[1][0] <= edge:
                del runs[0]
            if len(runs) == 1:
                self._changing.discard(key)
            flapping = len(runs) - 1 >= self.min_transitions
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
        """The key's verdicts over the window (fewer for a newer key)."""
        runs = self._runs.get(key)
        if not runs:
            return ()
        out: list[str] = []
        position = max(runs[0][0], self._now - self.window + 1)
        for index, (_start, verdict) in enumerate(runs):
            end = (runs[index + 1][0] if index + 1 < len(runs)
                   else self._now + 1)
            if end > position:
                out.extend([verdict] * (end - position))
                position = end
        return tuple(out)

    def transitions(self, key: VerdictKey) -> int:
        return count_transitions(self.series(key))


class HealthAnalyzer:
    """Turns consecutive cycles into typed health events.

    Each cycle applies the report's verdict delta to the previous
    cycle's verdict map (:func:`~repro.engine.delta.changes_since`; a
    full delta when the report's delta is not based on the report this
    analyzer last observed).  Regressions and fixes follow the
    classification rules of :func:`repro.engine.drift.diff_reports`, so
    the events match what ``repro drift`` reports for the same pair of
    cycles, and the flap detector sees the same changes.  A restarted
    analyzer loads the last successful cycle's map from the store and
    seeds its flap windows from the last ``flap_window`` successful
    cycles, so it classifies like the live one it replaces.
    """

    def __init__(self, store: HistoryStore, *,
                 flap_window: int = DEFAULT_FLAP_WINDOW,
                 flap_min_transitions: int = DEFAULT_FLAP_MIN_TRANSITIONS):
        self.store = store
        self.detector = FlapDetector(flap_window, flap_min_transitions)
        #: key -> verdict of the last observed cycle (None before one).
        self._prev_map: dict[VerdictKey, str] | None = None
        #: key -> severity, for the keys of ``_prev_map`` seen in a report.
        self._severities: dict[VerdictKey, str] = {}
        #: target -> its number of keys in ``_prev_map``.
        self._target_keys: dict[str, int] = {}
        #: Token of the report ``_prev_map`` reflects.
        self._applied: object = None
        good = store.successful_cycle_ids(flap_window)
        if not good:
            return
        # A live detector holds each key's verdicts back to where it last
        # (re)appeared, within the last flap_window successful cycles.
        seeded: dict[VerdictKey, list[str]] = {}
        for key, series in store.verdict_windows(
                flap_window, successful_only=True).items():
            tail: list[str] = []
            for (cycle_id, verdict), expected in zip(reversed(series),
                                                     reversed(good)):
                if cycle_id != expected:
                    break
                tail.append(verdict)
            if tail:
                seeded[key] = tail[::-1]
        self.detector.seed(seeded)
        self._prev_map = store.verdict_map(good[-1])
        for key in self._prev_map:
            self._target_keys[key[0]] = self._target_keys.get(key[0], 0) + 1

    # ---- the per-cycle entry points ---------------------------------------

    def observe_report(self, cycle_id: int,
                       report: ValidationReport) -> list[HealthEvent]:
        """Classify one completed cycle; returns its events in order
        (regressions, fixes, flaps, membership changes)."""
        now = time.time()
        previous = self._prev_map
        first = previous is None
        current = {} if first else previous
        severities = self._severities
        target_keys = self._target_keys
        changes = changes_since(report, self._applied, current)
        # The one apply step: fold each changed key into the map.
        verdicts: dict[VerdictKey, str | None] = {}
        moved: dict[str, int] = {}   # target -> key count before
        changed: list[tuple[VerdictKey, str, str]] = []
        for key, after in changes.items():
            before = current.get(key)
            if after is None:
                if before is None:
                    continue
                moved.setdefault(key[0], target_keys[key[0]])
                target_keys[key[0]] -= 1
                del current[key]
                severities.pop(key, None)
                verdicts[key] = None
                continue
            verdict = after.verdict.value
            severities[key] = after.rule.severity
            if before == verdict:
                continue
            if before is None:
                moved.setdefault(key[0], target_keys.get(key[0], 0))
                target_keys[key[0]] = target_keys.get(key[0], 0) + 1
            current[key] = verdict
            verdicts[key] = verdict
            changed.append((key, before or "", after))
        events: list[HealthEvent] = []
        if not first:
            noncompliant = Verdict.NONCOMPLIANT.value
            compliant = Verdict.COMPLIANT.value
            fixes: list[HealthEvent] = []
            for key, before, result in sorted(changed,
                                              key=lambda item: item[0]):
                after = result.verdict.value
                if after == noncompliant:
                    bucket, kind = events, "regression"
                elif before == noncompliant and after == compliant:
                    bucket, kind = fixes, "fix"
                else:
                    continue
                bucket.append(HealthEvent(
                    kind=kind, cycle_id=cycle_id, ts=now,
                    target=key[0], entity=key[1], rule=key[2],
                    before=before, after=after,
                    severity=result.rule.severity, message=result.message,
                ))
            events.extend(fixes)
        flap_starts, flap_ends = self.detector.observe_changes(verdicts)
        for kind, keys in (("flap_start", flap_starts),
                           ("flap_end", flap_ends)):
            for key in keys:
                series = self.detector.series(key)
                events.append(HealthEvent(
                    kind=kind, cycle_id=cycle_id, ts=now,
                    target=key[0], entity=key[1], rule=key[2],
                    severity=severities.get(key, ""),
                    message=(
                        f"{count_transitions(series)} transitions in last "
                        f"{len(series)} cycles: {' -> '.join(series)}"
                        if series else "left the fleet"
                    ),
                ))
        if not first:
            appeared = sorted(target for target, count in moved.items()
                              if not count and target_keys[target])
            disappeared = sorted(target for target, count in moved.items()
                                 if count and not target_keys[target])
            for kind, targets in (("entity_appeared", appeared),
                                  ("entity_disappeared", disappeared)):
                for target in targets:
                    events.append(HealthEvent(
                        kind=kind, cycle_id=cycle_id, ts=now, target=target,
                    ))
        for target, count in moved.items():
            if not target_keys[target]:
                del target_keys[target]
        self._prev_map = current
        self._applied = report_token(report)
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
