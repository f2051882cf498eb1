"""Soak test: a long-running monitor holds flat memory.

``repro monitor`` runs indefinitely (the paper's continuous validation,
§5), so nothing it keeps may grow with the number of cycles: the span
collector keeps one cycle's window, pending rule metrics and profile
rows are folded every run, and the crawler and the verdict store keep
only the latest cycle's frames.  The heap test runs a small fleet with
one host edit per cycle under ``tracemalloc`` and asserts that the
Python heap after a warm-up stays flat; it runs once plain and once
under a chaos plan that injects read and parse faults.  Only
allocations made by ``repro``'s own code count, and the ``repro`` logger
writes to a handler that keeps nothing, as a daemon's log shipping does:
pytest's own capture keeps every record, and a warning's exception holds
its frame's locals.
"""

import gc
import logging
import os
import tracemalloc

import pytest

import repro
from repro.chaos.fabric import FaultPlan, FaultRule, arm_plan, disarm
from repro.crawler import ContainerEntity, DockerImageEntity
from repro.engine import VerdictStore, render_json
from repro.engine.batch import BatchScanner
from repro.history import FleetMonitor, HistoryStore, MonitorConfig
from repro.rules import load_builtin_validator
from repro.telemetry import Telemetry
from repro.workloads import FleetSpec, build_fleet, ubuntu_host_entity

SSHD = "/etc/ssh/sshd_config"
WARMUP = 40
MEASURED = 100
#: A monitor that kept every span grew about 19 KiB per cycle here.
MAX_GROWTH = 64 * 1024

_FAULTS = FaultPlan(name="soak", seed=7, rules=(
    FaultRule(site="fs.read", probability=0.02),
    FaultRule(site="lens.parse", probability=0.02),
))


def _repro_heap() -> int:
    """Bytes currently held by blocks that ``repro``'s code allocated."""
    gc.collect()
    mine = tracemalloc.Filter(True, os.path.join(
        os.path.dirname(repro.__file__), "*"))
    snapshot = tracemalloc.take_snapshot().filter_traces([mine])
    return sum(stat.size for stat in snapshot.statistics("filename"))


@pytest.fixture()
def logs_kept_nowhere():
    logger = logging.getLogger("repro")
    handler = logging.NullHandler()
    logger.addHandler(handler)
    logger.propagate = False
    yield
    logger.propagate = True
    logger.removeHandler(handler)


@pytest.mark.parametrize("plan", [None, _FAULTS], ids=["plain", "chaos"])
def test_monitor_memory_is_flat(tmp_path, plan, logs_kept_nowhere):
    _daemon, images, containers = build_fleet(
        FleetSpec(images=2, containers_per_image=2, misconfig_rate=0.4,
                  seed=3))
    hosts = [ubuntu_host_entity(f"soak-{i}", hardening=0.5, seed=i,
                                with_nginx=True, with_mysql=True)
             for i in range(2)]
    entities = ([ContainerEntity(c) for c in containers]
                + [DockerImageEntity(i) for i in images] + hosts)
    # Kept here, not read back: an armed plan may fail any read.
    texts = [host.filesystem().read_text(SSHD) for host in hosts]
    telemetry = Telemetry()
    validator = load_builtin_validator(telemetry=telemetry,
                                       verdict_store=VerdictStore())
    store = HistoryStore(str(tmp_path / "soak.sqlite"))
    monitor = FleetMonitor(BatchScanner(validator, telemetry=telemetry),
                           store, entities=entities,
                           config=MonitorConfig(interval_s=0))
    tracemalloc.start()
    try:
        if plan is not None:
            arm_plan(plan)
        for cycle in range(1, WARMUP + MEASURED + 1):
            index = cycle % len(hosts)
            texts[index] = texts[index].replace(
                "PermitRootLogin", "PermitRootLogin-").replace(
                "PermitRootLogin--", "PermitRootLogin")
            hosts[index].filesystem().write_file(SSHD, texts[index])
            monitor.run_cycle(cycle)
            if cycle == WARMUP:
                baseline = _repro_heap()
        growth = _repro_heap() - baseline
    finally:
        disarm()
        tracemalloc.stop()
        store.close()
    assert monitor.stats.cycles == WARMUP + MEASURED
    assert growth < MAX_GROWTH, f"{growth} bytes over {MEASURED} cycles"
    # One cycle's window of spans, whatever the run length.
    assert len(telemetry.spans) < 200


def _stored_keys(store: VerdictStore) -> dict:
    """The keys of everything a verdict store keeps per frame."""
    return {name: set(getattr(store, name))
            for name in ("_entries", "_presence", "_blocks",
                         "_frame_digests")}


def test_departed_hosts_leave_the_verdict_store(tmp_path):
    """A 4-host fleet that swaps one host for a new-named host every
    cycle: after each cycle the store holds what one run over the
    current fleet stores, no more, and the last report is a full
    validation's."""
    hosts: dict[int, object] = {}

    def fleet(cycle_no: int) -> list:
        for gone in [n for n in hosts if n < cycle_no]:
            del hosts[gone]
        return [hosts.setdefault(n, ubuntu_host_entity(
                    f"churn-{n}", hardening=0.5, seed=n, with_nginx=True))
                for n in range(cycle_no, cycle_no + 4)]

    store = VerdictStore()
    history = HistoryStore(str(tmp_path / "churn.sqlite"))
    monitor = FleetMonitor(
        BatchScanner(load_builtin_validator(verdict_store=store)), history,
        entities_provider=fleet, config=MonitorConfig(interval_s=0))
    reference = load_builtin_validator()
    try:
        for cycle in range(1, 31):
            summary = monitor.run_cycle(cycle)
            reference.verdict_store = VerdictStore()
            reference.validate_entities(fleet(cycle))
            assert _stored_keys(store) == _stored_keys(
                reference.verdict_store), f"cycle {cycle}"
    finally:
        history.close()
    assert summary.report.incremental.rules_replayed > 0
    full = load_builtin_validator().validate_entities(fleet(30))
    assert render_json(summary.report) == render_json(full)
