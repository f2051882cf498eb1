"""Sqlite quarantine-and-rebuild guard.

The scanner's one persistent store, the history database, can meet a
corrupt file: a torn write, a disk error, or an injected
``store.sqlite`` fault; or a file another build wrote, in another
layout.  The wrong response is either crashing the
cycle or silently disabling the store for the rest of the process.
This module implements the middle path: move the bad database aside
(``<path>.quarantined.<ts>``, with its ``-wal``/``-shm`` siblings),
count it, and let the caller reopen cold.  The quarantined files are
kept for post-mortem and uploaded as CI artifacts by the chaos smoke
job.
"""

from __future__ import annotations

import itertools
import logging
import os
import sqlite3
import time

from repro.chaos.fabric import _CHAOS

log = logging.getLogger("repro.chaos")

#: Substrings of sqlite error messages that indicate a corrupt database
#: file (as opposed to a transient lock or I/O hiccup).
_CORRUPTION_SIGNS = (
    "malformed",
    "not a database",
    "corrupt",
)

_seq = itertools.count()


def is_corruption(error: BaseException) -> bool:
    """True when the error means the database *file* is bad.

    Transient operational errors (locked, busy) are not corruption and
    must keep their existing retry/disable handling.
    """
    if getattr(error, "chaos_site", None) == "store.sqlite":
        return True
    if not isinstance(error, (sqlite3.Error, OSError, ValueError)):
        return False
    message = str(error).lower()
    return any(sign in message for sign in _CORRUPTION_SIGNS)


def quarantine_database(path: str, *, reason: str = "") -> str | None:
    """Move a corrupt database, or one another build wrote, aside (with
    its WAL/SHM siblings).

    Returns the quarantine path, or ``None`` when nothing was on disk
    (an in-memory or never-written store).  Always counts against the
    process's degradation account, so a quarantine shows up in
    ``DegradationStats`` whether or not a fault plan caused it.
    """
    _CHAOS.account.note_store_quarantined()
    if not path or path == ":memory:" or not os.path.exists(path):
        log.warning("store %s unusable (%s); rebuilding in place", path,
                    reason)
        return None
    destination = f"{path}.quarantined.{int(time.time())}.{next(_seq)}"
    try:
        os.replace(path, destination)
        for suffix in ("-wal", "-shm"):
            sibling = path + suffix
            if os.path.exists(sibling):
                os.replace(sibling, destination + suffix)
    except OSError as exc:
        log.warning("could not quarantine corrupt store %s: %s", path, exc)
        return None
    log.warning("store %s unusable (%s); quarantined to %s and reopening"
                " cold", path, reason, destination)
    return destination
