"""Incremental revalidation: dependency-indexed rule skipping.

The production deployment (paper §5) runs the validator as a resident
scan loop; between cycles almost nothing changes.  This module lets a
cycle prove, per (frame, entity, rule), that the inputs the rule read
last time are unchanged -- and replay the stored :class:`RuleResult`
verbatim instead of re-evaluating.

Three pieces cooperate:

* :class:`DependencyRecorder` -- a thread-local tape the normalizer and
  the evaluators write dependency keys onto while a rule runs.  Keys are
  ``(frame key, kind, arg)`` tuples; the kinds and digests live in
  :mod:`repro.crawler.fingerprint`.  Recording happens at normalizer
  *entry* (before any memo check), so a memo hit still records the read.
* :class:`VerdictStore` -- maps ``(frame key, entity, rule name)`` to the
  recorded dependency slice (with digests) plus the live result.
  A lookup replays only when every dependency's digest matches the
  current frame fingerprints and the entity's ruleset digest is
  unchanged.  Composite rules have their own entries gated additionally
  on the referenced per-entity verdict slice and placements.
* :func:`ruleset_digest` -- content hash of a manifest + its rules, so
  editing a rule pack invalidates exactly that entity's entries.

A frame whose whole-frame digest is unchanged skips even the per-rule
lookups: the store keeps each frame's placements as one *block*, stored
under the frame digest, the run's ruleset digests, its tag selection and
its provenance flag, and replays it with one lookup while all of them
match.  A block holds each result exactly as per-rule replay would
return it, and a frame with a volatile result stores none.

Replayed results are byte-identical to a fresh evaluation: a replay
returns the stored result itself, whose rule the ruleset digest proves
equivalent to the current one.

The store lives in memory, for as long as the process that scans: a
``repro monitor --incremental`` loop, or an embedder that keeps one
:class:`VerdictStore` across runs.  It keeps only the frames of the
latest run, so a fleet whose members come and go holds only its current
members' state.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

from repro.crawler.fingerprint import (
    FILE,
    FILEMETA,
    FrameFingerprint,
    LISTING,
    RUNTIME,
    RUNTIME_KEYS,
    listing_arg,
    normalize_file_arg,
)
from repro.engine.delta import RunRecord
from repro.engine.provenance import ROUTE_REPLAYED
from repro.engine.results import RuleResult
from repro.telemetry.stats import Stats, derived, stat

if TYPE_CHECKING:  # pragma: no cover
    from repro.crawler.frame import ConfigFrame
    from repro.cvl.manifest import Manifest
    from repro.cvl.model import Rule, RuleSet


# ---- dependency recording ---------------------------------------------------


class DependencyRecorder:
    """Thread-local tape of the dependency keys a rule evaluation reads.

    The engine opens a :meth:`recording` scope around each fresh rule
    evaluation; the normalizer (and the composite value lookup) call the
    ``record_*`` methods unconditionally -- outside a scope they are
    no-ops, so the non-incremental path pays one attribute probe per
    hook.  Tapes are ordered dicts used as sets, keeping dependency
    order deterministic.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    @contextmanager
    def recording(self):
        tape, previous = self.begin()
        try:
            yield tape
        finally:
            self.end(previous)

    def begin(self) -> tuple[dict[tuple[str, str, str], None], dict | None]:
        """Open a tape; returns ``(tape, previous)`` for :meth:`end`.

        The engine uses this explicit pair instead of :meth:`recording`
        on the per-rule hot path -- a generator context manager costs
        more than the tape it manages.
        """
        previous = getattr(self._local, "tape", None)
        tape: dict[tuple[str, str, str], None] = {}
        self._local.tape = tape
        return tape, previous

    def end(self, previous: dict | None) -> None:
        self._local.tape = previous

    def _tape(self) -> dict | None:
        return getattr(self._local, "tape", None)

    def record_file(self, frame: "ConfigFrame", path: str) -> None:
        tape = self._tape()
        if tape is not None:
            tape[(frame.describe(), FILE, normalize_file_arg(path))] = None

    def record_filemeta(self, frame: "ConfigFrame", path: str) -> None:
        tape = self._tape()
        if tape is not None:
            tape[(frame.describe(), FILEMETA, normalize_file_arg(path))] = None

    def record_listing(
        self, frame: "ConfigFrame", search_paths: list[str]
    ) -> None:
        tape = self._tape()
        if tape is not None:
            tape[(frame.describe(), LISTING, listing_arg(search_paths))] = None

    def record_runtime(self, frame: "ConfigFrame", namespace: str) -> None:
        tape = self._tape()
        if tape is not None:
            tape[(frame.describe(), RUNTIME, namespace)] = None

    def record_runtime_keys(self, frame: "ConfigFrame") -> None:
        tape = self._tape()
        if tape is not None:
            tape[(frame.describe(), RUNTIME_KEYS, "")] = None


# ---- replay -----------------------------------------------------------------


def _replay(entry, want_provenance: bool = False) -> RuleResult:
    """The entry's result as a replay returns it.

    Results are immutable once built -- nothing downstream writes to a
    :class:`RuleResult` or its evidence -- so replay returns the same
    object every cycle instead of copying it.  Its bound ``rule`` may
    come from an earlier ruleset load; freshness checks have already
    proven it content-identical (ruleset digest) to the current one.

    Provenance-carrying replays never mutate the shared result: the
    record (re-labelled ``route=replayed``, origin preserved) rides on a
    memoized *twin* built with :func:`dataclasses.replace`, and a run
    that does not want provenance from a record-carrying entry gets the
    symmetric stripped twin.  Callers gate ``want_provenance=True`` on
    the result carrying a record.
    """
    result = entry.result
    if want_provenance:
        twin = entry.prov_twin
        if twin is None:
            twin = replace(
                result,
                _provenance=result.provenance.as_route(ROUTE_REPLAYED),
            )
            entry.prov_twin = twin
        return twin
    # Direct field read: the common no-record case must not pay the
    # property (which would also materialize a deferred record thunk).
    if result._provenance is None:
        return result
    twin = entry.plain_twin
    if twin is None:
        twin = replace(result, _provenance=None)
        entry.plain_twin = twin
    return twin


# ---- ruleset digest ---------------------------------------------------------


def ruleset_digest(manifest: "Manifest", ruleset: "RuleSet") -> str:
    """Content hash of everything about a pack that can change a verdict.

    Editing a rule (or the manifest's search paths / lens / parser)
    changes this digest, which drops the entity's stored verdicts and
    recompiles the entity's rule plan.  The ``raw`` mapping carries
    every authored keyword, including ones a subclass adds later; the
    explicit fields guard programmatically built rules whose ``raw`` is
    empty.  One ``sha256`` hashes one ``repr`` of the manifest's fields
    and each rule's, so reordering a rule's keys also changes it: that
    costs a recompile, never a wrong verdict.  The digest lives only in
    memory.  It is memoized on ``ruleset``, under everything it reads
    besides rule content: the manifest's fields, each rule object (held,
    so no identity is reused) and its live ``enabled``.  Toggling
    ``rule.enabled`` or any other such edit recomputes it; rule content
    is treated as immutable once loaded.
    """
    rules = tuple(ruleset.rules)
    key = (manifest.entity, tuple(manifest.config_search_paths),
           manifest.lens, manifest.schema_parser,
           tuple(manifest.entity_kinds or ()), rules,
           tuple([rule.enabled for rule in rules]))
    memo = ruleset.__dict__.get("_digest_memo")
    if memo is not None and memo[0] == key:
        return memo[1]
    blob = repr((key[:5], [
        (rule.rule_type, rule.name, rule.severity, rule.tags,
         rule.preferred_value, rule.non_preferred_value,
         rule.not_present_pass, rule.raw, rule.enabled)
        for rule in rules]))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    ruleset.__dict__["_digest_memo"] = (key, digest)
    return digest


# ---- stats ------------------------------------------------------------------


@dataclass
class StoreStats(Stats):
    """Point-in-time counters of one :class:`VerdictStore`."""

    snapshot = True

    entries: int = stat()
    composites: int = stat()
    presence: int = stat()
    hits: int = stat("repro_verdict_store_hits_total",
                     "Verdict-store lookups satisfied by replay.")
    misses: int = stat(
        "repro_verdict_store_misses_total",
        "Verdict-store lookups that fell through to evaluation.")
    invalidations: int = stat(
        "repro_verdict_store_invalidations_total",
        "Stored verdicts dropped by ruleset-digest changes.")

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @derived(digits=4)
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @derived("repro_verdict_store_entries",
             "Stored per-entity and composite verdicts.", "gauge")
    def verdicts(self) -> int:
        return self.entries + self.composites

    def render(self) -> str:
        return (
            f"verdict store: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%} hit rate), {self.entries} entries, "
            f"{self.composites} composites, "
            f"{self.invalidations} invalidated"
        )


@dataclass
class IncrementalRunStats(Stats):
    """What incremental mode did during one validation run."""

    active: bool = stat(default=True)
    reason: str = stat(default="")       # why incremental was disabled
    rules_replayed: int = stat()
    rules_evaluated: int = stat()
    composites_replayed: int = stat()
    composites_evaluated: int = stat()
    frames_clean: int = stat("repro_frames_clean_total",
                             "Frames fully replayed from the verdict store.")
    frames_dirty: int = stat(
        "repro_frames_dirty_total",
        "Frames with at least one freshly evaluated rule.")
    store: StoreStats | None = stat(default=None, repr=False)

    @derived("repro_rules_skipped_total",
             "Rule evaluations replayed from the verdict store.")
    def rules_skipped(self) -> int:
        return self.rules_replayed + self.composites_replayed

    def render(self) -> str:
        if not self.active:
            return f"incremental: disabled ({self.reason})"
        total = self.rules_replayed + self.rules_evaluated
        composites = self.composites_replayed + self.composites_evaluated
        line = (
            f"incremental: {self.rules_replayed}/{total} rules replayed, "
            f"{self.composites_replayed}/{composites} composites replayed, "
            f"{self.frames_clean} clean / {self.frames_dirty} dirty frames"
        )
        if self.store is not None:
            line += f"\n{self.store.render()}"
        return line


# ---- the store --------------------------------------------------------------


@dataclass
class _Entry:
    """One stored per-entity verdict: dependency slice + live result."""

    deps: list[tuple[str, str, str, str]]   # (frame key, kind, arg, digest)
    result: RuleResult = field(repr=False, compare=False)
    #: Memoized replay twins (see :func:`_replay`): ``result`` with the
    #: record re-labelled ``replayed`` / with the record stripped.
    prov_twin: RuleResult | None = field(default=None, repr=False,
                                         compare=False)
    plain_twin: RuleResult | None = field(default=None, repr=False,
                                          compare=False)


@dataclass
class _CompositeEntry:
    """One stored composite verdict.

    Replay additionally requires the run ``target`` (the ordered frame
    set), the referenced per-entity verdict slice, and the per-entity
    placement order to be unchanged -- composites read the merged run
    context, not just frame bytes.
    """

    deps: list[tuple[str, str, str, str]]
    result: RuleResult = field(repr=False, compare=False)
    target: str
    pairs: list[tuple[str, str]]            # referenced (entity, config)
    verdicts: dict[tuple[str, str], bool | None]
    placements: dict[str, list[str]]        # entity -> ordered frame keys
    prov_twin: RuleResult | None = field(default=None, repr=False,
                                         compare=False)
    plain_twin: RuleResult | None = field(default=None, repr=False,
                                          compare=False)


@dataclass
class _Block:
    """One frame's placements, replayable while ``key`` -- (frame
    digest, ruleset digests, tags, provenance flag) -- is unchanged."""

    key: tuple
    placements: list
    rules: int


class VerdictStore:
    """Thread-safe store of per-rule verdicts keyed by dependency digests.

    Lookups (:meth:`fresh_result`) run on validator worker threads; the
    counters and mutation paths are lock-guarded.  The store survives
    across the runs of one process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str, str], _Entry] = {}
        self._composites: dict[tuple[str, str], _CompositeEntry] = {}
        #: (frame key, entity) -> (deps, component-presence decision).
        self._presence: dict[tuple[str, str], tuple[list, bool]] = {}
        self._ruleset_digests: dict[str, str] = {}
        #: frame key -> whole-frame digest as of the last cycle.
        self._frame_digests: dict[str, str] = {}
        #: frame key -> the frame's placements as one replayable block.
        self._blocks: dict[str, _Block] = {}
        #: The last incremental run: the next run's delta is based on it.
        self.last_run: RunRecord | None = None
        #: The lookup counters; :meth:`stats` adds the sizes.
        self._counts = StoreStats()

    # ---- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries) + len(self._composites)

    def stats(self) -> StoreStats:
        with self._lock:
            return replace(self._counts, entries=len(self._entries),
                           composites=len(self._composites),
                           presence=len(self._presence))

    def _hit(self) -> None:
        # Unlocked increment: ``+=`` on an int can drop a count under
        # racing workers, which is acceptable for a telemetry counter
        # and saves a lock round-trip per rule on the hot replay path.
        self._counts.hits += 1

    def _miss(self) -> None:
        self._counts.misses += 1

    # ---- invalidation ------------------------------------------------------

    def sync_rulesets(self, digests: dict[str, str]) -> None:
        """Drop every entry whose entity's pack content changed."""
        with self._lock:
            changed = {
                entity
                for entity, digest in digests.items()
                if self._ruleset_digests.get(entity) not in (None, digest)
            }
            if changed:
                for key in [k for k in self._entries if k[1] in changed]:
                    del self._entries[key]
                    self._counts.invalidations += 1
                for key in [k for k in self._composites if k[0] in changed]:
                    del self._composites[key]
                    self._counts.invalidations += 1
                # Presence consults the pack's script rules, so it is
                # ruleset-dependent too.
                for key in [k for k in self._presence if k[1] in changed]:
                    del self._presence[key]
            self._ruleset_digests.update(digests)

    def begin_cycle(self, frame_digests: dict[str, str]) -> frozenset[str]:
        """Record this cycle's whole-frame digests; return the clean set.

        A frame whose digest matches the previous cycle is *wholly*
        unchanged: every per-dependency digest check against it can be
        skipped (see :meth:`_deps_clean`).  A frame the previous cycle
        had and this one lacks takes its entries, presence decisions,
        block and digest with it.
        """
        with self._lock:
            clean = frozenset(
                key
                for key, digest in frame_digests.items()
                if self._frame_digests.get(key) == digest
            )
            self._frame_digests.update(frame_digests)
            # The update keeps every earlier key, so equal sizes prove
            # the frame set unchanged.
            if len(self._frame_digests) != len(frame_digests):
                gone = self._frame_digests.keys() - frame_digests.keys()
                for key in gone:
                    del self._frame_digests[key]
                    self._blocks.pop(key, None)
                for key in [k for k in self._entries if k[0] in gone]:
                    del self._entries[key]
                for key in [k for k in self._presence if k[0] in gone]:
                    del self._presence[key]
        return clean

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._composites.clear()
            self._presence.clear()
            self._frame_digests.clear()
            self._blocks.clear()
            self.last_run = None

    # ---- per-entity verdicts -----------------------------------------------

    def _deps_clean(
        self,
        deps: Iterable[tuple[str, str, str, str]],
        fingerprints: dict[str, FrameFingerprint],
        clean_frames: frozenset[str] = frozenset(),
    ) -> bool:
        for frame_key, kind, arg, digest in deps:
            if frame_key in clean_frames:
                continue  # whole-frame digest already proved it unchanged
            fingerprint = fingerprints.get(frame_key)
            if fingerprint is None:
                return False
            if fingerprint.digest((kind, arg)) != digest:
                return False
        return True

    def fresh_result(
        self,
        frame_key: str,
        entity: str,
        rule: "Rule",
        fingerprints: dict[str, FrameFingerprint],
        clean_frames: frozenset[str] = frozenset(),
        provenance: bool = False,
    ) -> RuleResult | None:
        """The stored result iff every recorded dependency is unchanged.

        A ``provenance``-wanting lookup additionally requires the entry
        to carry a stored record (entries written by provenance-off runs
        miss, forcing one fresh evaluation that stores the record).
        """
        entry = self._entries.get((frame_key, entity, rule.name))
        if entry is None or not self._deps_clean(entry.deps, fingerprints,
                                                 clean_frames):
            self._miss()
            return None
        if provenance and entry.result.provenance is None:
            self._miss()
            return None
        self._hit()
        return _replay(entry, want_provenance=provenance)

    def put(
        self,
        frame_key: str,
        entity: str,
        rule_name: str,
        tape: dict[tuple[str, str, str], None],
        fingerprints: dict[str, FrameFingerprint],
        result: RuleResult,
    ) -> None:
        deps = [
            (fk, kind, arg, fingerprints[fk].digest((kind, arg)))
            for (fk, kind, arg) in tape
        ]
        # Unlocked: dict assignment is atomic under the GIL and workers
        # never write the same (frame, entity, rule) key; invalidation
        # runs outside the fan-out.
        self._entries[(frame_key, entity, rule_name)] = _Entry(deps, result)

    # ---- whole-frame blocks ------------------------------------------------

    def fresh_block(self, frame_key: str, key: tuple) -> _Block | None:
        """The frame's stored block iff it was stored under ``key``.

        The caller only asks for frames whose whole-frame digest is
        unchanged since the last cycle.  A hit counts one hit per rule,
        as the per-rule lookups it replaces would.
        """
        block = self._blocks.get(frame_key)
        if block is None or block.key != key:
            return None
        self._counts.hits += block.rules
        return block

    def put_block(self, frame_key: str, key: tuple, placements: list,
                  rules: int, provenance: bool) -> None:
        """Keep a frame's placements as the block its next clean cycle
        replays, each result as per-rule replay would return it: under
        provenance, the entry's ``replayed`` twin."""
        if provenance:
            twins = []
            for manifest, results in placements:
                replayed = []
                for result in results:
                    entry = self._entries.get(
                        (frame_key, manifest.entity, result.rule.name))
                    if entry is None or entry.result.provenance is None:
                        self.drop_block(frame_key)
                        return
                    replayed.append(_replay(entry, want_provenance=True))
                twins.append((manifest, replayed))
            placements = twins
        # Unlocked for the same reason as :meth:`put`.
        self._blocks[frame_key] = _Block(key, placements, rules)

    def drop_block(self, frame_key: str) -> None:
        self._blocks.pop(frame_key, None)

    # ---- component presence ------------------------------------------------

    def fresh_presence(
        self,
        frame_key: str,
        entity: str,
        fingerprints: dict[str, FrameFingerprint],
        clean_frames: frozenset[str] = frozenset(),
    ) -> bool | None:
        """The stored is-this-component-here decision, if still valid.

        Presence is a function of the search-path listing and the set of
        runtime namespaces, both of which it records as deps; replaying
        it spares the clean path one filesystem walk per (frame, pack).
        """
        entry = self._presence.get((frame_key, entity))
        if entry is None or not self._deps_clean(entry[0], fingerprints,
                                                 clean_frames):
            return None
        return entry[1]

    def put_presence(
        self,
        frame_key: str,
        entity: str,
        tape: dict[tuple[str, str, str], None],
        fingerprints: dict[str, FrameFingerprint],
        present: bool,
    ) -> None:
        deps = [
            (fk, kind, arg, fingerprints[fk].digest((kind, arg)))
            for (fk, kind, arg) in tape
        ]
        # Unlocked for the same reason as :meth:`put`.
        self._presence[(frame_key, entity)] = (deps, bool(present))

    # ---- composite verdicts ------------------------------------------------

    def fresh_composite(
        self,
        entity: str,
        rule: "Rule",
        *,
        target: str,
        context,
        fingerprints: dict[str, FrameFingerprint],
        recomputed: set[tuple[str, str]],
        clean_frames: frozenset[str] = frozenset(),
        provenance: bool = False,
    ) -> RuleResult | None:
        """Replay a composite iff nothing it aggregates moved.

        Clean means: same frame set (``target``), no referenced
        per-entity verdict was recomputed this run, the referenced
        verdict slice and placement order are identical, and every file
        or runtime value the expression's lookups read is unchanged.
        """
        entry = self._composites.get((entity, rule.name))
        if (
            entry is None
            or entry.target != target
            or any(pair in recomputed for pair in entry.pairs)
            or not self._deps_clean(entry.deps, fingerprints, clean_frames)
            or (provenance and entry.result.provenance is None)
        ):
            self._miss()
            return None
        for pair in entry.pairs:
            if context.rule_verdict(*pair) != entry.verdicts.get(pair):
                self._miss()
                return None
            placed = [
                frame.describe()
                for frame, _manifest in context.placements.get(pair[0], [])
            ]
            if placed != entry.placements.get(pair[0], []):
                self._miss()
                return None
        self._hit()
        return _replay(entry, want_provenance=provenance)

    def put_composite(
        self,
        entity: str,
        rule: "Rule",
        *,
        target: str,
        context,
        pairs: list[tuple[str, str]],
        tape: dict[tuple[str, str, str], None],
        fingerprints: dict[str, FrameFingerprint],
        result: RuleResult,
    ) -> None:
        ordered = sorted(pairs)
        deps = [
            (fk, kind, arg, fingerprints[fk].digest((kind, arg)))
            for (fk, kind, arg) in tape
            if fk in fingerprints
        ]
        entry = _CompositeEntry(
            deps=deps,
            result=result,
            target=target,
            pairs=ordered,
            verdicts={pair: context.rule_verdict(*pair) for pair in ordered},
            placements={
                pair_entity: [
                    frame.describe()
                    for frame, _m in context.placements.get(pair_entity, [])
                ]
                for pair_entity in {p[0] for p in ordered}
            },
        )
        with self._lock:
            self._composites[(entity, rule.name)] = entry
