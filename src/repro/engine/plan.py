"""Compiled rule plans: a ruleset query planner with fused evaluation.

The per-rule engine (:mod:`repro.engine.evaluators`) re-derives the same
intermediate work for every rule of a pack: it parses the rule's path
expressions, re-filters the frame's file listing, and walks the full
config tree once per rule -- even when forty sshd rules target the same
``sshd_config``.  This module compiles a :class:`~repro.cvl.model.RuleSet`
once into a :class:`RulePlan`:

* every tree rule's ``config_path`` alternatives and ``name`` expression
  are parsed at compile time; regex value checks are pre-warmed into the
  match-spec compile cache;
* tree rules are grouped into **fused units** by
  ``(file_context, lens)``: each unit resolves its candidate files once
  (via the normalizer's :class:`~repro.engine.normalizer.FileTargetIndex`),
  normalizes each file once, and serves every member's ``config_path``
  scopes from a **single traversal** driven by a :class:`SegmentTrie`
  that steps all compiled expressions simultaneously;
* plans are cached process-wide, keyed by the same ruleset digest the
  incremental verdict store uses -- scan cycles and validator instances
  sharing a pack share one compiled plan.

Every enabled pack runs through a plan: the engine has one evaluation
loop, and ``--no-plan`` compiles an uncached plan with no fused units,
so every rule runs *direct*, through the per-rule evaluator.

Fused evaluation is byte-identical to the per-rule path: scope assembly
mirrors ``evaluators._scopes`` (per-alternative dedup, ordered union),
name matching reuses :func:`repro.augtree.path.step_segment` semantics,
and verdict assembly goes through the shared
:func:`repro.engine.evaluators.finalize_tree_rule` tail.  Rules the
planner cannot prove equivalent (unparsable expressions, candidate-file
discovery errors) fall back to the per-rule evaluator, and a pack with
duplicate rule names runs every rule direct -- correctness never
depends on fusion.
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict
from collections.abc import Container
from dataclasses import dataclass, replace

from repro.chaos.fabric import absorbed as _chaos_absorbed
from repro.errors import (
    CVLKeywordError,
    FileNotFoundInFrame,
    LensError,
    PathExpressionError,
    ReproError,
)
from repro.augtree.path import (
    Labels,
    Segment,
    apply_predicates,
    parse_path,
    step_segment,
)
from repro.augtree.tree import ConfigNode
from repro.crawler.fingerprint import FILE, LISTING, listing_arg, normalize_file_arg
from repro.cvl.match import _compile as _compile_value_pattern
from repro.cvl.model import CompositeRule, TreeRule
from repro.engine.evaluators import finalize_tree_rule
from repro.engine.results import Evidence
from repro.telemetry.stats import Stats, derived, stat

#: A member's ``config_path`` alternative that means "the tree root"
#: (the empty expression) -- no trie slot is allocated for it.
_ROOT_SLOT = -1


# ---- segment trie -----------------------------------------------------------


class _TrieNode:
    __slots__ = ("children", "slots", "members")

    def __init__(self) -> None:
        self.children: dict[Segment, "_TrieNode"] = {}
        #: Slot ids whose expression terminates at this node.
        self.slots: list[int] = []
        #: Member indexes with any terminal at or below this node
        #: (tag-filtered runs prune subtrees no active member needs).
        self.members: set[int] = set()


class SegmentTrie:
    """Steps many compiled path expressions through a tree at once.

    Expressions are inserted segment-by-segment; shared prefixes share
    trie nodes, so ``http/server/listen`` and ``http/server/ssl_protocols``
    step the ``http/server`` frontier exactly once.  Matching reuses
    :func:`repro.augtree.path.step_segment`, so each slot's result is
    identical to evaluating its :class:`PathExpression` alone.
    """

    def __init__(self) -> None:
        self.root = _TrieNode()
        self._slots = 0

    def insert(self, segments: tuple[Segment, ...], member: int) -> int:
        """Register one expression for ``member``; returns its slot id.

        ``segments`` must be non-empty (the empty expression matches the
        root and never enters the trie).
        """
        if not segments:
            raise ValueError("empty expressions do not take trie slots")
        slot = self._slots
        self._slots += 1
        node = self.root
        node.members.add(member)
        for segment in segments:
            node = node.children.setdefault(segment, _TrieNode())
            node.members.add(member)
        node.slots.append(slot)
        return slot

    def match(
        self, root: ConfigNode, active: set[int] | None = None
    ) -> dict[int, dict[ConfigNode, Labels]]:
        """Every registered expression's located matches under ``root``.

        Returns slot id -> matched node -> its labels from the root
        (document order, identity deduped, exactly as
        ``PathExpression.locate``); slots with no match are absent.
        ``active`` restricts the traversal to subtrees some listed member
        still needs.
        """
        results: dict[int, dict[ConfigNode, Labels]] = {}
        stack = [(self.root, [(root, ())])]
        while stack:
            node, frontier = stack.pop()
            for segment, child in node.children.items():
                if active is not None and active.isdisjoint(child.members):
                    continue
                stepped = step_segment(frontier, segment)
                if not stepped:
                    continue
                for slot in child.slots:
                    # Fresh per-slot dict: final identity dedup mirrors
                    # PathExpression.locate.
                    results[slot] = dict(stepped)
                if child.children:
                    stack.append((child, stepped))
        return results


# ---- compiled members and fused units ---------------------------------------


class _PlanMember:
    """One tree rule compiled into its fused unit."""

    __slots__ = ("rule", "index", "alt_slots", "name_expr", "name_fast")

    def __init__(self, rule: TreeRule, index: int):
        self.rule = rule
        self.index = index
        #: Per ``config_path`` alternative, in authored order: a trie
        #: slot id or ``_ROOT_SLOT`` for the empty alternative.
        self.alt_slots: list[int] = []
        self.name_expr = None
        #: ``(label, predicates)`` when the name is a single plain-label
        #: segment -- resolved with one label-index probe per scope.
        self.name_fast: tuple[str, tuple] | None = None

    def scopes(
        self, root: ConfigNode, slot_nodes: dict[int, dict[ConfigNode, Labels]]
    ) -> dict[ConfigNode, Labels]:
        """The member's scopes and their labels, mirroring
        ``evaluators._scopes``."""
        scopes: dict[ConfigNode, Labels] = {}
        for slot in self.alt_slots:
            if slot == _ROOT_SLOT:
                scopes.setdefault(root, ())
            else:
                located = slot_nodes.get(slot)
                if located:
                    scopes.update(located)
        return scopes

    def match_name(
        self, scope: ConfigNode, labels: Labels
    ) -> dict[ConfigNode, Labels]:
        """The rule's ``name`` matches under ``scope`` (whose labels are
        ``labels``), each with its own labels."""
        fast = self.name_fast
        if fast is None:
            return self.name_expr.locate(scope, labels)
        label, predicates = fast
        candidates = scope.children_named(label)
        if not candidates:
            return {}
        return dict.fromkeys(apply_predicates(candidates, predicates),
                             labels + (label,))


class _FusedUnit:
    """Tree rules sharing ``(file_context, lens)``: one candidate-file
    resolution, one parse, one trie traversal per matched file."""

    __slots__ = ("file_context", "lens", "members", "trie")

    def __init__(self, file_context: list[str], lens: str | None):
        self.file_context = file_context
        self.lens = lens
        self.members: list[_PlanMember] = []
        self.trie = SegmentTrie()

    def try_add(self, rule: TreeRule) -> "_PlanMember | None":
        """Compile ``rule`` into this unit; None when it must fall back
        to the per-rule evaluator (unparsable expressions -- which the
        per-rule path turns into ERROR results or propagates, with
        tracebacks fusion could not reproduce)."""
        member = _PlanMember(rule, index=len(self.members))
        try:
            name_expr = parse_path(rule.name)
            alternatives: list[tuple[Segment, ...] | None] = []
            for alternative in rule.config_path or [""]:
                alternative = alternative.strip()
                if not alternative:
                    alternatives.append(None)
                else:
                    alternatives.append(parse_path(alternative).segments)
        except PathExpressionError:
            return None
        member.name_expr = name_expr
        segments = name_expr.segments
        if len(segments) == 1 and segments[0].name not in ("*", "**"):
            member.name_fast = (segments[0].name, segments[0].predicates)
        # Insert only after every expression parsed: a partially
        # inserted member would leak its index into trie pruning sets.
        for parsed in alternatives:
            if parsed is None:
                member.alt_slots.append(_ROOT_SLOT)
            else:
                member.alt_slots.append(self.trie.insert(parsed, member.index))
        self.members.append(member)
        return member


def _warm_value_patterns(rule) -> None:
    """Pre-compile regex value checks into the match-spec LRU cache.

    Bad patterns are swallowed: the per-rule engine only raises when a
    found value actually reaches the matcher, and compiling a plan must
    not change that timing.
    """
    flags = re.IGNORECASE if getattr(rule, "case_insensitive", False) else 0
    for spec, values in (
        (rule.preferred_match, rule.preferred_value),
        (rule.non_preferred_match, rule.non_preferred_value),
    ):
        if spec.mode != "regex":
            continue
        for value in values:
            try:
                _compile_value_pattern(value, flags)
            except CVLKeywordError:
                pass


# ---- the plan ---------------------------------------------------------------


class RulePlan:
    """A ruleset compiled for evaluation (immutable once built).

    Read-only after compilation, so one plan serves every frame and
    every worker thread of every scan cycle that shares the digest.
    Rules outside :attr:`units` run direct; ``fuse=False`` (the
    ``--no-plan`` reference) compiles no units at all.
    """

    def __init__(self, manifest, ruleset, digest: str, *, fuse: bool = True):
        self.digest = digest
        self.entity = manifest.entity
        #: Snapshot of the enabled per-entity rules in pack order -- the
        #: engine iterates this instead of re-filtering the (mutable)
        #: ruleset on every frame.  Composites are cross-entity and run
        #: once per validation run, outside any plan.
        self.rules = [rule for rule in ruleset.enabled_rules()
                      if not isinstance(rule, CompositeRule)]
        self.units: list[_FusedUnit] = []
        self._members: dict[str, tuple[_FusedUnit, _PlanMember]] = {}
        self.fallback_names: frozenset[str] = frozenset()
        #: Duplicate rule names would alias each other's fused outputs
        #: and stored verdicts: such a pack runs every rule direct, and
        #: a run containing it skips incremental replay.
        names = [rule.name for rule in self.rules]
        self.usable = len(names) == len(set(names))
        if not (fuse and self.usable):
            return
        fallback: set[str] = set()
        units: "OrderedDict[tuple, _FusedUnit]" = OrderedDict()
        for rule in self.rules:
            if not isinstance(rule, TreeRule):
                continue
            _warm_value_patterns(rule)
            lens = rule.lens or manifest.lens
            key = (tuple(rule.file_context), lens)
            unit = units.get(key)
            if unit is None:
                unit = units[key] = _FusedUnit(list(rule.file_context), lens)
            member = unit.try_add(rule)
            if member is None:
                fallback.add(rule.name)
            else:
                self._members[rule.name] = (unit, member)
        self.units = [unit for unit in units.values() if unit.members]
        self.fallback_names = frozenset(fallback)

    def is_fused(self, rule) -> bool:
        return rule.name in self._members

    @property
    def fused_rule_count(self) -> int:
        return len(self._members)

    def evaluate_fused(
        self,
        frame,
        manifest,
        normalizer,
        pending: Container[str],
        *,
        frame_key: str | None = None,
        stats: "PlanRunStats | None" = None,
    ):
        """Evaluate the fused rules named in ``pending`` over ``frame``.

        Returns ``(outputs, fallback)``: ``outputs`` is a list of
        ``(rule, result, tape, duration_s, started_s)`` tuples (``tape``
        is the synthesized dependency tape when ``frame_key`` is given,
        else None; the unit's wall time is split evenly across its
        evaluated members), and ``fallback`` names rules that must be
        re-run through the per-rule evaluator (candidate-file discovery
        raised, and the ERROR result must carry that path's traceback).
        """
        outputs = []
        fallback: list[str] = []
        entity = manifest.entity
        target = frame.describe()
        search_paths = manifest.config_search_paths
        for unit in self.units:
            active = [m for m in unit.members if m.rule.name in pending]
            if not active:
                continue
            started = time.perf_counter()
            try:
                files = normalizer.candidate_files(
                    frame, search_paths, unit.file_context
                )
            except ReproError:
                fallback.extend(member.rule.name for member in active)
                continue
            tape = None
            if frame_key is not None:
                # Exactly what the recorder hooks tape on the per-rule
                # path: the listing read, then each file read in order
                # (parse failures included -- the read still happened).
                tape = {(frame_key, LISTING, listing_arg(search_paths)): None}
            evidence: dict[int, list[Evidence]] = {
                member.index: [] for member in active
            }
            dependency_ok = {
                member.index: not member.rule.require_other_configs
                for member in active
            }
            parse_errors: list[str] = []
            volatile = False
            active_set = {member.index for member in active}
            parsed_files = 0
            for path in files:
                if tape is not None:
                    tape[(frame_key, FILE, normalize_file_arg(path))] = None
                try:
                    tree = normalizer.tree_for(frame, path, unit.lens)
                except (LensError, FileNotFoundInFrame) as exc:
                    if _chaos_absorbed(exc):
                        volatile = True
                    parse_errors.append(str(exc))
                    continue
                parsed_files += 1
                root = tree.root
                slot_nodes = unit.trie.match(root, active_set)
                labels_present: set[str] | None = None
                for member in active:
                    member_evidence = evidence[member.index]
                    found_here = False
                    scopes = member.scopes(root, slot_nodes)
                    for scope, labels in scopes.items():
                        matches = member.match_name(scope, labels)
                        if not matches:
                            continue
                        found_here = True
                        for node, node_labels in matches.items():
                            member_evidence.append(
                                Evidence(
                                    file=path,
                                    location="/".join(node_labels),
                                    value=node.value
                                    if node.value is not None
                                    else "",
                                    span=node.span,
                                )
                            )
                    requires = member.rule.require_other_configs
                    if found_here and requires:
                        if labels_present is None:
                            # One shared walk per file, not one per rule.
                            labels_present = {n.label for n in root.walk()}
                        if all(req in labels_present for req in requires):
                            dependency_ok[member.index] = True
            duration = time.perf_counter() - started
            share = duration / len(active)
            for member in active:
                result = finalize_tree_rule(
                    member.rule, entity, target,
                    evidence=evidence[member.index],
                    parse_errors=parse_errors,
                    files=files,
                    dependency_ok=dependency_ok[member.index],
                )
                if volatile:
                    result.volatile = True
                outputs.append((member.rule, result, tape, share, started))
            if stats is not None:
                stats.units_evaluated += 1
                stats.rules_fused += len(active)
                stats.files_traversed += parsed_files
                stats.traversals_saved += parsed_files * (len(active) - 1)
        return outputs, fallback


# ---- run statistics ---------------------------------------------------------


@dataclass
class PlanCacheStats(Stats):
    """Point-in-time counters of the process-wide plan cache."""

    snapshot = True

    compiles: int = stat("repro_plan_compiles_total",
                         "Rule plans compiled (plan-cache misses).")
    hits: int = stat("repro_plan_cache_hits_total",
                     "Plan-cache lookups served by an already compiled plan.")
    evictions: int = stat()
    entries: int = stat(
        "repro_plan_cache_entries",
        "Compiled rule plans resident in the process-wide cache.", "gauge")

    def render(self) -> str:
        return (
            f"plan cache: {self.compiles} compiled, {self.hits} hits, "
            f"{self.entries} resident"
        )


@dataclass
class PlanRunStats(Stats):
    """What the planner did during one validation run."""

    #: Fresh evaluations served by fused units.
    rules_fused: int = stat(
        "repro_plan_rules_fused_total",
        "Tree-rule evaluations served by fused plan units.")
    rules_direct: int = stat()      # fresh evaluations via the per-rule path
    rules_fallback: int = stat()    # planned rules that fell back per-rule
    units_evaluated: int = stat()
    #: Files parsed + traversed once by units.
    files_traversed: int = stat(
        "repro_plan_files_traversed_total",
        "Files normalized and traversed once by fused units.")
    #: Repeat per-rule traversals avoided.
    traversals_saved: int = stat(
        "repro_plan_traversals_saved_total",
        "Repeat per-rule tree traversals avoided by fusion.")
    cache: PlanCacheStats | None = stat(default=None, repr=False)

    @derived(digits=4)
    def fusion_ratio(self) -> float:
        total = self.rules_fused + self.rules_direct + self.rules_fallback
        return self.rules_fused / total if total else 0.0

    def render(self) -> str:
        line = (
            f"rule plans: {self.rules_fused} rules fused in "
            f"{self.units_evaluated} units "
            f"({self.fusion_ratio:.0%} of fresh evaluations), "
            f"{self.rules_direct} direct, {self.rules_fallback} fallback; "
            f"{self.files_traversed} files traversed once, "
            f"{self.traversals_saved} repeat traversals avoided"
        )
        if self.cache is not None:
            line += f"\n{self.cache.render()}"
        return line


# ---- process-wide plan cache ------------------------------------------------

#: Far above any realistic pack count; bounds a pathological caller that
#: generates rulesets in a loop.
_MAX_CACHED_PLANS = 256

_cache_lock = threading.Lock()
_cache: "OrderedDict[str, RulePlan]" = OrderedDict()
#: The plan cache's counters; :func:`plan_cache_stats` adds the size.
_counts = PlanCacheStats()


def plan_for(manifest, ruleset, digest: str) -> RulePlan:
    """The compiled plan for ``(manifest, ruleset)``, cached by digest.

    The digest is :func:`repro.engine.incremental.ruleset_digest` -- the
    same key the verdict store invalidates on, so "content changed"
    means the same thing to both subsystems.  A cache hit may return a
    plan compiled from a different-but-content-identical ruleset object;
    results bind those equivalent rule objects.
    """
    with _cache_lock:
        plan = _cache.get(digest)
        if plan is not None:
            _cache.move_to_end(digest)
            _counts.hits += 1
            return plan
    # Compile outside the lock; a racing duplicate compile is benign
    # (first store wins below).
    plan = RulePlan(manifest, ruleset, digest)
    with _cache_lock:
        _counts.compiles += 1
        existing = _cache.get(digest)
        if existing is not None:
            return existing
        _cache[digest] = plan
        while len(_cache) > _MAX_CACHED_PLANS:
            _cache.popitem(last=False)
            _counts.evictions += 1
    return plan


def plan_cache_stats() -> PlanCacheStats:
    with _cache_lock:
        return replace(_counts, entries=len(_cache))


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters (test isolation)."""
    global _counts
    with _cache_lock:
        _cache.clear()
        _counts = PlanCacheStats()
