"""Differential tests of the verdict-delta consumers.

* The fleet rollups a scanner updates from each report's verdict delta
  equal the full single-pass rollup kept below as the reference --
  values, dict order, counts and the rendered dashboard -- on engine
  reports and on synthetic reports whose deltas change verdicts,
  messages and severities every cycle.
* A monitor restarted before every cycle emits the same events (every
  field but the timestamp) as one that runs live, across scan errors,
  regressions, fixes and flaps.
"""

import random
from dataclasses import replace

import pytest

from repro.crawler import ContainerEntity, Crawler, DockerImageEntity
from repro.crawler.serialize import dump_frame, load_frame
from repro.engine import VerdictStore
from repro.engine.batch import (
    BatchScanner,
    EntityRollup,
    FleetSummary,
    RuleRollup,
    render_fleet_summary,
    severity_rank,
)
from repro.engine.engine import ConfigValidator
from repro.engine.results import Verdict
from repro.history import FleetMonitor, HistoryStore, MonitorConfig
from repro.rules import load_builtin_validator
from repro.telemetry import Telemetry
from repro.workloads import FleetSpec, build_fleet, ubuntu_host_entity

from tests.test_history_runs import Fleet, _with_delta
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


@pytest.mark.parametrize("seed", [4, 9])
def test_engine_deltas_keep_rollups_equal(seed):
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
        _assert_same_rollups(summary)
        earlier.append((summary, [list(summary.rules.items()),
                                  list(summary.entities.items()),
                                  dict(summary.tag_failures)]))
    assert applied
    # Updates copy what they change: earlier summaries never move.
    for summary, snapshot in earlier:
        assert [list(summary.rules.items()), list(summary.entities.items()),
                dict(summary.tag_failures)] == snapshot


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

