"""Differential tests of block replay and the engine's verdict delta.

Two contracts, checked over random multi-cycle sequences on validators
with a :class:`~repro.engine.incremental.VerdictStore`:

* a frame replayed as one stored block renders byte-identically to the
  same frame replayed rule by rule, and the store counts the same hits,
  misses, entries and invalidations (the reference store below never
  replays a block);
* the delta a run attaches to its report holds exactly the keys whose
  verdict or message changed since the previous run (checked against
  :func:`~repro.engine.drift.diff_reports` plus a message comparison),
  and it is a rebuild delta exactly when the frame set, the packs, the
  tags, the provenance flag or the key set changed.

The sequences edit files, drop and restore frames, edit a pack, switch
tags and provenance, and run at 1 and 4 workers; a chaos plan's
volatile ERROR verdicts must never enter a block.
"""

import random

import pytest

from repro.chaos.fabric import FaultPlan, FaultRule, arm_plan, disarm
from repro.crawler import ContainerEntity, Crawler, DockerImageEntity
from repro.crawler.serialize import dump_frame
from repro.engine import VerdictStore, render_json, render_text
from repro.engine.drift import diff_reports
from repro.rules import load_builtin_validator
from repro.workloads import FleetSpec, build_fleet, ubuntu_host_entity

from tests.test_incremental import _gen_ops, _rebuild

CYCLES = 7
SSHD = "/etc/ssh/sshd_config"
TAGS = (None, ["#pci"], ["#owasp", "#ssl"])


class PerRuleStore(VerdictStore):
    """The reference: blocks never replay, so every clean frame goes
    through its per-rule lookups."""

    def fresh_block(self, frame_key, key):
        return None


class BlockStore(VerdictStore):
    """The store under test, counting the blocks it replays."""

    block_hits = 0

    def fresh_block(self, frame_key, key):
        block = super().fresh_block(frame_key, key)
        if block is not None:
            self.block_hits += 1
        return block


@pytest.fixture(scope="module")
def blobs():
    _daemon, images, containers = build_fleet(
        FleetSpec(images=2, containers_per_image=1, misconfig_rate=0.4,
                  seed=23)
    )
    entities = [DockerImageEntity(i) for i in images]
    entities += [ContainerEntity(c) for c in containers]
    entities += [
        ubuntu_host_entity(f"delta-host-{i}", hardening=0.5, seed=i,
                           with_nginx=True, with_mysql=True)
        for i in range(2)
    ]
    return [dump_frame(frame) for frame in Crawler().crawl_many(entities)]


def _keys(report):
    return [(r.target, r.entity, r.rule.name) for r in report]


def _expected_changes(before, after):
    """Verdict or message changes between two reports, by plain dicts."""
    old = {key: (r.verdict, r.message)
           for key, r in zip(_keys(before), before)}
    new = {key: (r.verdict, r.message) for key, r in zip(_keys(after), after)}
    return {key: (old.get(key), new.get(key))
            for key in sorted(old.keys() | new.keys())
            if old.get(key) != new.get(key)}


def _check_delta(previous, report, changed_run):
    """``report.delta`` against the previous report of the sequence."""
    delta = report.delta
    assert delta is not None and delta.token is not None
    rebuild = changed_run or _keys(previous) != _keys(report)
    assert (delta.base is None) == rebuild
    if rebuild:
        return
    assert delta.base is previous.delta.token
    got = {key: ((before.verdict, before.message),
                 (after.verdict, after.message))
           for key, (before, after) in delta.changes.items()}
    assert got == _expected_changes(previous, report)
    verdict_changes = sorted(key for key, (before, after) in got.items()
                             if before[0] is not after[0])
    drift = diff_reports(previous, report)
    assert [(e.target, e.entity, e.rule_name)
            for e in drift.entries] == verdict_changes


def _frames(blobs, script, present, no_protocol):
    """The cycle's frames; hosts in ``no_protocol`` lose their sshd
    ``Protocol`` line, which changes a message but not the verdict."""
    frames = _rebuild(blobs, script)
    for index in no_protocol:
        files = frames[index].files
        if files.exists(SSHD):
            files.write_file(SSHD, "".join(
                line for line in files.read_text(SSHD).splitlines(True)
                if not line.startswith("Protocol ")))
    return [frames[index] for index in present]


def _toggle_rule(validator, entity, index):
    """A pack edit: flip one rule's enablement (changes the digest)."""
    ruleset = validator.ruleset_for(validator.manifest(entity))
    rule = ruleset.rules[index % len(ruleset.rules)]
    rule.enabled = not rule.enabled


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("seed", [3, 8, 21])
def test_block_replay_and_delta_match_references(blobs, workers, seed):
    rng = random.Random(seed)
    block_store, rule_store = BlockStore(), PerRuleStore()
    validators = [load_builtin_validator(verdict_store=store)
                  for store in (block_store, rule_store)]
    script: list = []
    present = list(range(len(blobs)))
    no_protocol: set[int] = set()
    hosts = [index for index, frame in enumerate(_rebuild(blobs, []))
             if frame.files.exists(SSHD)]
    tags = None
    provenance = False
    previous = None
    message_only = 0
    try:
        for cycle in range(CYCLES):
            changed_run = False
            if cycle == 1:
                # A message-only change, in a cycle that changes no key.
                no_protocol ^= {rng.choice(hosts)}
            elif cycle:
                if rng.random() < 0.7:
                    script += _gen_ops(rng, _rebuild(blobs, script), cycle)
                if rng.random() < 0.5:
                    no_protocol ^= {rng.choice(hosts)}
            if cycle >= 2:
                event = rng.choice(["frames", "pack", "tags", "provenance",
                                    "none", "none"])
                if event == "frames":
                    dropped = [i for i in range(len(blobs))
                               if i not in present]
                    if dropped and rng.random() < 0.5:
                        present = sorted(present + [rng.choice(dropped)])
                    else:
                        present.remove(rng.choice(present))
                elif event == "pack":
                    entity = rng.choice(["sshd", "nginx", "mysql"])
                    index = rng.randrange(50)
                    for validator in validators:
                        _toggle_rule(validator, entity, index)
                elif event == "tags":
                    tags = rng.choice([t for t in TAGS if t != tags])
                elif event == "provenance":
                    provenance = not provenance
                changed_run = event != "none"
            reports = []
            for validator in validators:
                frames = _frames(blobs, script, present, no_protocol)
                reports.append(validator.validate_frames(
                    frames, tags=tags, provenance=provenance,
                    workers=workers))
            block, reference = reports
            assert render_text(block, verbose=True) == render_text(
                reference, verbose=True)
            assert render_json(block) == render_json(reference)
            assert block_store.stats() == rule_store.stats()
            assert reference.delta is not None
            if previous is not None:
                _check_delta(previous, block, changed_run)
                message_only += sum(
                    before.verdict is after.verdict
                    for before, after in block.delta.changes.values())
            previous = block
    finally:
        for validator in validators:
            validator.close()
    assert block_store.block_hits > 0
    assert message_only > 0


def test_unchanged_cycle_replays_blocks_and_empty_delta(blobs):
    store = BlockStore()
    validator = load_builtin_validator(verdict_store=store)
    try:
        first = validator.validate_frames(_rebuild(blobs, []))
        hits = store.stats().hits
        second = validator.validate_frames(_rebuild(blobs, []))
    finally:
        validator.close()
    assert render_json(first) == render_json(second)
    assert first.delta.base is None
    assert second.delta.base is first.delta.token
    assert second.delta.changes == {}
    # Each frame replayed as one block, counted as one hit per rule.
    assert store.block_hits == len(blobs)
    inc = second.incremental
    assert inc.rules_evaluated == 0 and inc.frames_dirty == 0
    assert store.stats().hits - hits == (inc.rules_replayed
                                         + inc.composites_replayed)


def test_volatile_results_never_enter_a_block(blobs):
    """Injected rule faults degrade to volatile ERROR verdicts; the
    frames holding one store no block, so the next fault-free cycle
    replays nothing of them and matches the per-rule reference."""
    plan = FaultPlan(name="delta-chaos", seed=5, rules=(
        FaultRule(site="rule.eval", probability=0.3),
        FaultRule(site="lens.parse", match="/etc/ssh/*")))
    block_store, rule_store = BlockStore(), PerRuleStore()
    validators = [load_builtin_validator(verdict_store=store)
                  for store in (block_store, rule_store)]
    script = [(index, ("content", "/etc/ssh/sshd_config", "\n# edit\n"))
              for index in range(len(blobs))]
    try:
        for validator in validators:
            validator.validate_frames(_rebuild(blobs, []))
        reports = []
        for validator in validators:
            arm_plan(plan)
            try:
                reports.append(validator.validate_frames(
                    _rebuild(blobs, script)))
            finally:
                disarm()
        assert any(getattr(r, "volatile", False) for r in reports[0])
        assert render_json(reports[0]) == render_json(reports[1])
        for block in block_store._blocks.values():
            for _manifest, results in block.placements:
                assert not any(getattr(r, "volatile", False)
                               for r in results)
        after = [validator.validate_frames(_rebuild(blobs, script))
                 for validator in validators]
        assert render_json(after[0]) == render_json(after[1])
        assert block_store.stats() == rule_store.stats()
        assert not any(getattr(r, "volatile", False) for r in after[0])
        fresh = load_builtin_validator()
        try:
            assert render_json(after[0]) == render_json(
                fresh.validate_frames(_rebuild(blobs, script)))
        finally:
            fresh.close()
    finally:
        disarm()
        for validator in validators:
            validator.close()
