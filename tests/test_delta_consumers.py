"""Differential tests of the verdict-delta consumers.

* The fleet rollups a scanner updates from each report's verdict delta
  equal the full single-pass rollup kept below as the reference --
  values, dict order, counts and the rendered dashboard -- on engine
  reports and on synthetic reports whose deltas change verdicts,
  messages and severities every cycle, and on tagged synthetic reports
  whose deltas move, empty and bring back entities and tags.  The
  scanner rebuilds only for a delta with no usable base, and the
  dashboard does not depend on string hashing.
* A monitor restarted before every cycle emits the same events (every
  field but the timestamp) as one that runs live, across scan errors,
  regressions, fixes and flaps.
"""

import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro.crawler import ContainerEntity, Crawler, DockerImageEntity
from repro.crawler.serialize import dump_frame, load_frame
from repro.engine import VerdictStore
from repro.engine.batch import (
    BatchScanner,
    EntityRollup,
    FleetSummary,
    RuleRollup,
    _Rollups,
    render_fleet_summary,
    severity_rank,
)
from repro.engine.delta import VerdictDelta, delta_between
from repro.engine.engine import ConfigValidator
from repro.engine.results import Outcome, RuleResult, ValidationReport, Verdict
from repro.history import FleetMonitor, HistoryStore, MonitorConfig
from repro.rules import load_builtin_validator
from repro.telemetry import Telemetry
from repro.workloads import FleetSpec, build_fleet, ubuntu_host_entity

from tests.test_history_runs import RULES, Fleet, _with_delta
from tests.test_incremental import _crawl_fleet, _gen_ops, _rebuild
from tests.test_monitor import SSHD


def reference_rollups(summary: FleetSummary) -> FleetSummary:
    """The dashboard rollups by one pass over the report, as
    ``BatchScanner`` computed them before it applied verdict deltas."""
    reference = replace(summary, rules={}, entities={}, tag_failures={},
                        tally=None)
    for result in summary.report:
        key = (result.entity, result.rule.name)
        rollup = reference.rules.get(key)
        if rollup is None:
            rollup = reference.rules[key] = RuleRollup(
                entity=result.entity, rule_name=result.rule.name,
                severity=result.rule.severity)
        if result.verdict is Verdict.ERROR:
            rollup.errors += 1
            rollup.message = result.message
            continue
        if result.verdict is Verdict.NOT_APPLICABLE:
            rollup.not_applicable += 1
            continue
        entity = reference.entities.get(result.target)
        if entity is None:
            entity = reference.entities[result.target] = EntityRollup(
                target=result.target)
        if result.verdict is Verdict.COMPLIANT:
            rollup.passed += 1
            entity.passed += 1
        else:
            rollup.failed += 1
            rollup.message = result.message
            entity.failed += 1
            if severity_rank(result.rule.severity) > severity_rank(
                    entity.worst_severity):
                entity.worst_severity = result.rule.severity
            for tag in result.rule.tags:
                reference.tag_failures[tag] = (
                    reference.tag_failures.get(tag, 0) + 1)
    return reference


def _assert_same_rollups(summary: FleetSummary) -> None:
    reference = reference_rollups(summary)
    assert list(summary.rules.items()) == list(reference.rules.items())
    assert list(summary.entities.items()) == list(
        reference.entities.items())
    assert list(summary.tag_failures.items()) == list(
        reference.tag_failures.items())
    assert summary.counts() == summary.report.counts()
    assert summary.compliance_rate() == reference.compliance_rate()
    assert render_fleet_summary(summary) == render_fleet_summary(reference)


def _snapshot(summary: FleetSummary) -> str:
    """The rollups' values and order, frozen (rollup objects included)."""
    return repr([list(summary.rules.items()), list(summary.entities.items()),
                 list(summary.tag_failures.items())])


@pytest.fixture
def builds(monkeypatch):
    """The reports ``_Rollups.build`` is called with."""
    calls = []
    build = _Rollups.build.__func__

    def counted(cls, report):
        calls.append(report)
        return build(cls, report)

    monkeypatch.setattr(_Rollups, "build", classmethod(counted))
    return calls


@pytest.mark.parametrize("seed", [4, 9])
def test_engine_deltas_keep_rollups_equal(seed, builds):
    rng = random.Random(seed)
    blobs = [dump_frame(frame) for frame in _crawl_fleet(seed)]
    scanner = BatchScanner(load_builtin_validator(
        verdict_store=VerdictStore()))
    script: list = []
    earlier = []
    applied = 0
    for cycle in range(8):
        if cycle:
            script += _gen_ops(rng, _rebuild(blobs, script), cycle)
        summary = scanner.scan_frames(_rebuild(blobs, script))
        applied += summary.report.delta.base is not None
        # Every delta based on the last report applies; only the others
        # rebuild.
        assert len(builds) == cycle + 1 - applied
        _assert_same_rollups(summary)
        earlier.append((summary, _snapshot(summary)))
    assert applied
    # Updates copy what they change: earlier summaries never move.
    for summary, snapshot in earlier:
        assert _snapshot(summary) == snapshot


@pytest.mark.parametrize("seed", [1, 5, 6])
def test_synthetic_deltas_keep_rollups_equal(seed):
    rng = random.Random(seed)
    fleet = Fleet(rng)
    scanner = BatchScanner(ConfigValidator())
    previous = None
    for cycle in range(40):
        fleet.step()
        report = fleet.report(cycle, provenance=False)
        if rng.random() < 0.9:
            _with_delta(report, previous, rng, False)
        previous = report
        summary = scanner._summarize(report, len(fleet.present), 0.01)
        _assert_same_rollups(summary)


# ---- tagged reports whose deltas move, empty and restore keys ---------------

#: Tags of the synthetic rules: "cis" on rules of both entities, several
#: tags on one rule, and "pci" and "tls" each listed twice on one rule.
TAGS = {
    ("sshd", "r0"): ["cis"],
    ("sshd", "r1"): ["cis", "auth"],
    ("sshd", "r2"): ["pci", "cis", "pci"],
    ("sshd", "r4"): ["net"],
    ("nginx", "r0"): ["cis"],
    ("nginx", "r1"): ["net", "tls", "auth"],
    ("nginx", "r3"): ["auth"],
    ("nginx", "r4"): ["tls", "tls"],
}
TAGGED_RULES = {key: replace(rule, tags=TAGS.get(key, []))
                for key, rule in RULES.items()}
COUNTED = (Verdict.COMPLIANT, Verdict.NONCOMPLIANT)


def _report_order(key):
    """Rule by rule, so the targets' results interleave and a moved
    first counted result can reorder the entities."""
    target, entity, name = key
    return entity, name, target


class TaggedFleet(Fleet):
    """The synthetic fleet on tagged rules.  Besides the random drift,
    :meth:`aim` changes only verdicts, at the results that order the
    dashboards: it moves an entity's first counted result or a tag's
    first failing one, or empties an entity or a tag for one cycle."""

    def __init__(self, rng):
        super().__init__(rng)
        self.emptied = {}

    def keys(self):
        return sorted((key for key in self.state if key[0] in self.present),
                      key=_report_order)

    def tagged_report(self):
        report = ValidationReport(target="fleet")
        for target, entity, name in self.keys():
            verdict, message = self.state[(target, entity, name)]
            report.add(RuleResult(
                rule=TAGGED_RULES[(entity, name)], entity=entity,
                target=target, verdict=verdict, outcome=Outcome.MATCHED,
                message=f"{name}: {message}"))
        return report

    def aim(self):
        rng, state = self.rng, self.state
        if self.emptied:                            # bring it back
            state.update(self.emptied)
            self.emptied = {}
            return
        keys = self.keys()
        if rng.random() < 0.5:
            target = rng.choice(sorted({key[0] for key in keys}))
            owned = [key for key in keys if key[0] == target]
            inside, outside = COUNTED, (Verdict.ERROR, Verdict.NOT_APPLICABLE)
        else:
            tag = rng.choice(sorted({tag for tags in TAGS.values()
                                     for tag in tags}))
            owned = [key for key in keys if tag in TAGS.get(key[1:], ())]
            inside = (Verdict.NONCOMPLIANT,)
            outside = (Verdict.COMPLIANT, Verdict.ERROR,
                       Verdict.NOT_APPLICABLE)
        members = [key for key in owned if state[key][0] in inside]
        roll = rng.random()
        if roll < 0.3:                              # empty it
            for key in members:
                self.emptied[key] = state[key]
                state[key] = (rng.choice(outside), state[key][1])
        elif roll < 0.65 and members:               # first moves later
            key = members[0]
            state[key] = (rng.choice(outside), state[key][1])
        else:                                       # first moves earlier
            earlier = owned[:owned.index(members[0])] if members else owned
            if earlier:
                key = rng.choice(earlier)
                state[key] = (rng.choice(inside), state[key][1])


def _tagged_cycles(seed: int, cycles: int = 60):
    """Each cycle's summary of a tagged fleet, and whether its report's
    delta is based on the report before (a usable base)."""
    rng = random.Random(seed)
    fleet = TaggedFleet(rng)
    scanner = BatchScanner(ConfigValidator())
    previous = None
    for cycle in range(cycles):
        if cycle % 4 == 0 and not fleet.emptied:
            fleet.step()
            report = fleet.tagged_report()
            _with_delta(report, previous, rng, False)
        else:
            fleet.aim()
            report = fleet.tagged_report()
            report.delta = VerdictDelta(
                delta_between(previous, report).changes, token=object(),
                base=previous.delta.token)
        usable = (previous is not None
                  and report.delta.base is previous.delta.token)
        previous = report
        yield scanner._summarize(report, len(fleet.present), 0.01), usable


@pytest.mark.parametrize("seed", [2, 3, 8])
def test_tagged_deltas_move_empty_and_restore_keys(seed, builds):
    earlier = []
    seen = set()
    rebuilt = 0
    previous = None
    for summary, usable in _tagged_cycles(seed):
        rebuilt += not usable
        assert len(builds) == rebuilt
        _assert_same_rollups(summary)
        if usable:
            for name in ("entities", "tag_failures"):
                before = list(getattr(previous, name))
                after = list(getattr(summary, name))
                if set(before) - set(after):
                    seen.add((name, "went"))
                if set(after) - set(before):
                    seen.add((name, "came"))
                if set(before) == set(after) and before != after:
                    seen.add((name, "moved"))
        earlier.append((summary, _snapshot(summary)))
        previous = summary
    # Updates, not rebuilds, dropped, added and reordered both dicts.
    assert seen == {(name, kind) for name in ("entities", "tag_failures")
                    for kind in ("went", "came", "moved")}
    for summary, snapshot in earlier:
        assert _snapshot(summary) == snapshot


_TAGGED_DASHBOARDS = """
from repro.engine.batch import render_fleet_summary
from tests.test_delta_consumers import _tagged_cycles
for summary, _usable in _tagged_cycles(3):
    print(render_fleet_summary(summary))
    print(list(summary.entities), list(summary.tag_failures))
"""


def test_dashboard_order_does_not_depend_on_string_hashing():
    """Updates re-sort entities and tags by report position, never by a
    set's iteration order, so the dashboards of a scan whose deltas
    reorder both (seed 3 above) are the same whatever the hash seed."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]),
                   PYTHONHASHSEED=hash_seed)
        result = subprocess.run([sys.executable, "-c", _TAGGED_DASHBOARDS],
                                capture_output=True, text=True, env=env,
                                cwd=root, timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert "failures by tag:" in outputs[0]


# ---- restarted monitor ------------------------------------------------------


@pytest.fixture(scope="module")
def base_blobs():
    """A small serialized fleet: 1 image, 1 container, 2 hosts."""
    _daemon, images, containers = build_fleet(
        FleetSpec(images=1, containers_per_image=1, misconfig_rate=0.3,
                  seed=9)
    )
    entities = [DockerImageEntity(i) for i in images]
    entities += [ContainerEntity(c) for c in containers]
    entities += [ubuntu_host_entity(f"restart-host-{i}", hardening=0.8,
                                    seed=4 + i) for i in range(2)]
    return [dump_frame(frame) for frame in Crawler().crawl_many(entities)]


def _states(blobs, seed, cycles):
    """Per cycle: fresh frames (sshd posture drifting at random, a host
    sometimes missing) or a scan error."""
    rng = random.Random(seed)
    postures: list[tuple[str, str, bool] | None] = []
    for cycle in range(cycles):
        if cycle and rng.random() < 0.15:
            postures.append(None)
            continue
        postures.append((rng.choice(["no", "yes"]),
                         rng.choice(["no", "yes"]), rng.random() < 0.2))

    def provider(cycle_no):
        posture = postures[cycle_no - 1]
        if posture is None:
            raise RuntimeError(f"crawler exploded in cycle {cycle_no}")
        frames = [load_frame(blob) for blob in blobs]
        if posture[2]:
            del frames[-1]   # a host leaves the fleet for this cycle
        for frame in frames:
            if frame.files.exists(SSHD):
                text = frame.files.read_text(SSHD)
                text = text.replace("PermitRootLogin no",
                                    f"PermitRootLogin {posture[0]}")
                frame.files.write_file(
                    SSHD, text + f"\nPasswordAuthentication {posture[1]}\n")
        return frames

    return provider


def _monitor(store, provider, cycles, events):
    scanner = BatchScanner(
        load_builtin_validator(verdict_store=VerdictStore()),
        telemetry=Telemetry())

    def on_cycle(_cycle_no, _cycle_id, _summary, cycle_events):
        events.append([
            {name: value for name, value in event.to_dict().items()
             if name != "ts"}
            for event in cycle_events
        ])

    return FleetMonitor(
        scanner, store, frames_provider=provider,
        config=MonitorConfig(interval_s=0.0, max_cycles=cycles,
                             flap_window=4, flap_min_transitions=2),
        on_cycle=on_cycle,
    )


@pytest.mark.parametrize("seed", [5, 13])
def test_monitor_restarted_every_cycle_matches_live(base_blobs, seed):
    cycles = 10
    provider = _states(base_blobs, seed, cycles)
    live: list = []
    with HistoryStore() as store:
        _monitor(store, provider, cycles, live).run()
    restarted: list = []
    with HistoryStore() as store:
        for cycle_no in range(1, cycles + 1):
            _monitor(store, lambda _n, c=cycle_no: provider(c), 1,
                     restarted).run()
    assert restarted == live
    kinds = {event["kind"] for cycle_events in live
             for event in cycle_events}
    assert {"regression", "fix", "flap_start", "flap_end", "scan_error",
            "entity_appeared", "entity_disappeared"} <= kinds

