"""Content-addressed parse cache shared across frames and scan cycles.

The fleet workloads the paper's production deployment validates are
highly redundant: N containers spawned from one image carry byte-identical
config files, and successive scan cycles re-crawl mostly-unchanged
entities.  Keying parsed artifacts by ``sha256(file content)`` + parser
name (instead of the frame they came from) makes every duplicate file a
cache hit -- identical content parses exactly once per process, no matter
how many frames or cycles it appears in.

Cached artifacts (:class:`~repro.augtree.tree.ConfigTree`,
:class:`~repro.schema.table.SchemaTable`) are treated as immutable by the
evaluators; the evidence ``file`` field always comes from the evaluator's
own path, never from the cached artifact, so sharing one parse between
files that happen to have equal content is observationally safe.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.telemetry import DISABLED, Telemetry
from repro.telemetry.stats import Stats, derived, stat

#: Default number of parsed artifacts kept (LRU).  Sized for a scan cycle
#: over a few thousand distinct config files; override per validator with
#: ``cache_size`` or per cache with ``maxsize``.
DEFAULT_CACHE_SIZE = 4096


def content_digest(text: str) -> str:
    """Hex sha256 of a config file's text (the cache's address)."""
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()


def content_digest_and_size(text: str) -> tuple[str, int]:
    """``(content_digest(text), encoded byte length)`` in one encode.

    The byte length matches the digested bytes (UTF-8 with
    surrogateescape), so ``bytes_parsed``/``bytes_deduped`` count true
    bytes for non-ASCII configs instead of character counts.
    """
    data = text.encode("utf-8", "surrogateescape")
    return hashlib.sha256(data).hexdigest(), len(data)


@dataclass
class CacheStats(Stats):
    """Point-in-time counters of one :class:`ParseCache`."""

    snapshot = True

    hits: int = stat("repro_parse_cache_hits_total",
                     "Parse-cache lookups served without re-parsing.")
    misses: int = stat("repro_parse_cache_misses_total",
                       "Parse-cache lookups that ran a parser.")
    evictions: int = stat("repro_parse_cache_evictions_total",
                          "Artifacts dropped by the LRU bound.")
    entries: int = stat("repro_parse_cache_entries",
                        "Parsed artifacts currently cached.", "gauge")
    bytes_parsed: int = stat(
        "repro_parse_cache_parsed_bytes_total",
        "Config bytes that actually went through a parser.")
    bytes_deduped: int = stat(
        "repro_parse_cache_deduped_bytes_total",
        "Config bytes served from cache instead of re-parsing.")

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @derived(digits=4)
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def render(self) -> str:
        """One dashboard line, e.g. for :func:`render_fleet_summary`."""
        return (
            f"parse cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%} hit rate), {self.entries} entries, "
            f"{self.bytes_parsed:,} B parsed, {self.bytes_deduped:,} B deduped"
        )


class ParseCache:
    """Bounded, thread-safe LRU of parsed config artifacts.

    Keys are ``(content digest, artifact kind, parser name)`` tuples; the
    kind tag ("tree" vs "table") keeps a lens and a schema parser that
    share a name from colliding.  ``maxsize=0`` disables caching entirely
    (every lookup parses), which is how benchmarks reproduce the
    pre-cache sequential baseline.  A miss is always a parse.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        self._maxsize = max(0, maxsize)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, str, str], Any] = OrderedDict()
        #: key -> a lock its running parse holds (see :meth:`get_or_parse`).
        self._inflight: dict[tuple[str, str, str], threading.Lock] = {}
        #: The counters; :meth:`stats` adds the entry count.
        self._counts = CacheStats()

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def get_or_parse(
        self,
        key: tuple[str, str, str],
        nbytes: int,
        parse: Callable[[], Any],
    ) -> Any:
        """Return the cached artifact for ``key``, parsing on first sight.

        ``parse`` runs outside the lock so a slow parse never blocks other
        workers' hits.  Misses are single-flight: while one thread parses
        a cold key, a racing lookup of the same key waits for that parse
        and then looks again, a hit, so a key parses once however many
        workers ask for it.  Parser exceptions propagate and cache
        nothing, so the lookups that waited find no entry and parse for
        themselves, as uncached lookups would.
        """
        while True:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self._counts.hits += 1
                    self._counts.bytes_deduped += nbytes
                    return cached
                flight = self._inflight.get(key)
                if flight is None:
                    if self._maxsize:  # lead: held until the parse ends
                        flight = self._inflight[key] = threading.Lock()
                        flight.acquire()
                    break
            with flight:
                pass  # that parse has ended: look the key up again
        try:
            value = parse()
        except BaseException:
            if flight is not None:
                with self._lock:
                    del self._inflight[key]
                flight.release()
            raise
        with self._lock:
            self._counts.misses += 1
            self._counts.bytes_parsed += nbytes
            if self._maxsize:
                if key in self._entries:
                    self._entries.move_to_end(key)
                else:
                    self._entries[key] = value
                    while len(self._entries) > self._maxsize:
                        self._entries.popitem(last=False)
                        self._counts.evictions += 1
            if flight is not None:
                del self._inflight[key]
        if flight is not None:
            flight.release()
        return value

    def parse(
        self,
        kind: str,
        parser,
        text: str,
        source: str,
        *,
        digest: tuple[str, int] | None = None,
        telemetry: Telemetry = DISABLED,
        timings=None,
    ) -> Any:
        """``parser.parse(text, source=source)``, cached under
        ``(content digest, kind, parser.name)``.

        ``kind`` is ``"tree"`` for a lens and ``"table"`` for a schema
        parser; ``digest`` is :func:`content_digest_and_size` of ``text``
        when the caller already has it.  The normalizer and the crawler's
        runtime plugins both parse through here, so a file either one
        parsed is a hit for the other.  A miss is a real parse: it is
        charged to the ``parse`` stage of ``timings`` and, with
        ``telemetry`` enabled, to the per-lens profile,
        ``repro_parses_total`` and a ``parse`` span.
        """
        digest_hex, nbytes = digest or content_digest_and_size(text)
        return self.get_or_parse(
            (digest_hex, kind, parser.name), nbytes,
            lambda: _timed_parse(parser, text, source, telemetry, timings),
        )

    def resize(self, maxsize: int) -> None:
        """Change the LRU bound in place (evicting oldest entries if the
        cache shrinks).

        In-place so everything already holding this cache -- normalizers,
        the crawler, telemetry collectors -- keeps observing the same
        object; counters are preserved.  ``0`` disables caching.
        """
        with self._lock:
            self._maxsize = max(0, maxsize)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._counts.evictions += 1

    def stats(self) -> CacheStats:
        with self._lock:
            return replace(self._counts, entries=len(self._entries))

    def clear(self) -> None:
        """Drop entries and counters (a fresh cold cache)."""
        with self._lock:
            self._entries.clear()
            self._counts = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _timed_parse(parser, text: str, source: str, telemetry: Telemetry,
                 timings):
    """Run a real parse (cache miss), charging the ``parse`` stage and
    the per-lens profile; parse failures count as lens errors."""
    if timings is None and not telemetry.enabled:
        return parser.parse(text, source=source)
    started = time.perf_counter()
    failed = False
    try:
        return parser.parse(text, source=source)
    except Exception:
        failed = True
        raise
    finally:
        duration = time.perf_counter() - started
        if timings is not None:
            timings.add("parse", duration)
        if telemetry.enabled:
            telemetry.profiler.record(
                "lens", parser.name, duration, error=failed
            )
            telemetry.metrics.counter(
                "repro_parses_total",
                "Real parses executed (cache misses), by parser.",
                labels=("parser",),
            ).inc(parser=parser.name)
            telemetry.spans.record(
                parser.name, category="parse",
                start_s=started, duration_s=duration, file=source,
            )
