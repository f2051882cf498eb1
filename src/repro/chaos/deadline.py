"""Cycle and frame soft deadlines with a watchdog thread.

A :class:`RunDeadline` bounds one validation cycle.  The cycle deadline
is enforced two ways: passively (every ``should_cancel`` check compares
the monotonic clock) and actively (a watchdog thread trips the expiry
event the moment the budget runs out, so a cycle stuck inside one long
evaluation is flagged without waiting for the next check).  The frame
deadline is purely passive -- it is checked at rule boundaries in the
fan-out step's per-pack work (``_Run._evaluate_pack`` in
:mod:`repro.engine.engine`).  The run's account step starts the
watchdog and stops it however the run ends.

Deadlines are *soft*: nothing is killed.  An over-deadline frame is
cancelled at the next rule boundary, its remaining rules reported as
quarantined ERROR verdicts, and the cycle runs to completion -- a
partial, accounted report always beats no report.
"""

from __future__ import annotations

import logging
import threading
import time

log = logging.getLogger("repro.chaos")


class RunDeadline:
    """Soft deadlines for one validation cycle.

    Passive checks need no watchdog; :meth:`start`/:meth:`stop` bracket
    the watchdog thread.
    """

    def __init__(self, *, cycle_s: float | None = None,
                 frame_s: float | None = None) -> None:
        self.cycle_s = cycle_s
        self.frame_s = frame_s
        self.started = time.monotonic()
        self._expired = threading.Event()
        self._cancel = threading.Event()
        self._watchdog: threading.Thread | None = None

    # -- watchdog --------------------------------------------------------

    def start(self) -> "RunDeadline":
        """Reset the clock and launch the watchdog (if a cycle budget is set)."""
        self.started = time.monotonic()
        if self.cycle_s is not None and self._watchdog is None:
            self._watchdog = threading.Thread(
                target=self._watch, name="repro-deadline-watchdog", daemon=True,
            )
            self._watchdog.start()
        return self

    def stop(self) -> None:
        self._cancel.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=1.0)
            self._watchdog = None

    def _watch(self) -> None:
        if not self._cancel.wait(timeout=self.cycle_s):
            self._expired.set()
            log.warning(
                "cycle deadline of %.1fs exceeded; remaining frames will be "
                "cancelled at the next stage boundary", self.cycle_s,
            )

    # -- checks ----------------------------------------------------------

    @property
    def cycle_expired(self) -> bool:
        if self._expired.is_set():
            return True
        if self.cycle_s is not None and (
                time.monotonic() - self.started > self.cycle_s):
            self._expired.set()
            return True
        return False

    def frame_expired(self, frame_started: float) -> bool:
        return self.frame_s is not None and (
            time.monotonic() - frame_started > self.frame_s)

    def should_cancel(self, frame_started: float) -> bool:
        return self.cycle_expired or self.frame_expired(frame_started)
