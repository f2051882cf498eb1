"""Parsed trees and scan cycles leave no cyclic garbage.

A config tree links only downward, so a tree the parse cache evicts, or
a caller drops, is freed by reference counting at once.  Objects that
only the cycle collector can free cost a full collection to reclaim,
and every full collection walks the whole heap.  The lens tests parse
one sample per registered lens with the collector off and check that
nothing is left for it; the cycle tests run each kind of scan under
``gc.DEBUG_SAVEALL``, which keeps every object a collection would free,
and check that none was found.
"""

import collections
import gc
import logging
import random

import pytest

from repro.augtree.lenses import default_registry
from repro.chaos.stats import DegradationStats
from repro.crawler import ContainerEntity, DockerImageEntity, HostEntity
from repro.engine import VerdictStore
from repro.engine.batch import BatchScanner
from repro.engine.report import render_json
from repro.engine.results import ValidationReport
from repro.fs.vfs import VirtualFilesystem
from repro.history import FleetMonitor, HistoryStore, MonitorConfig
from repro.rules import load_builtin_validator
from repro.telemetry import Telemetry
from repro.workloads import (
    FleetSpec,
    build_fleet,
    kubernetes_manifest,
    ubuntu_host_entity,
)
from repro.workloads.rulegen import generate_nginx_config, generate_sysctl_config

#: One sample per registered lens, each with nesting where the format
#: has any.
SAMPLES = {
    "sshd": "Port 22\nPermitRootLogin no\nMatch User bob\n"
            "    X11Forwarding no\n",
    "sysctl": "net.ipv4.ip_forward = 0\nkernel.randomize_va_space = 2\n",
    "modprobe": "install cramfs /bin/true\nblacklist udf\n"
                "options snd index=1\n",
    "hadoop": "<configuration><property><name>dfs.replication</name>"
              "<value>3</value></property></configuration>",
    "nginx": "http {\n    server {\n        listen 80;\n    }\n}\n",
    "apache": "ServerTokens Prod\n<VirtualHost *:80>\n"
              "    <Directory /var/www>\n        AllowOverride None\n"
              "    </Directory>\n</VirtualHost>\n",
    "ini": "[mysqld]\nssl-ca = /etc/ca.pem\nskip-networking\n",
    "properties": "a.b=c\nd: e\n",
    "xml": "<a><b attr='1'>text</b><c/></a>",
    "json": '{"a": {"b": [1, 2, {"c": null}]}, "d": true}',
    "yaml": "a:\n  b: [1, 2]\n  c: {d: e}\n",
    "keyvalue": "key value\nother=1\n",
}

WARMUP = 2
CYCLES = 10
SSHD = "/etc/ssh/sshd_config"


def _cyclic_garbage(run) -> collections.Counter:
    """Types of what the collector found over ``CYCLES`` calls of ``run``."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(CYCLES):
            run()
        gc.collect()
        return collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()


@pytest.fixture()
def logs_kept_nowhere():
    """Route the ``repro`` logger to a handler that keeps nothing: pytest's
    capture keeps every record, and a record's exception its frames."""
    logger = logging.getLogger("repro")
    handler = logging.NullHandler()
    logger.addHandler(handler)
    logger.propagate = False
    yield
    logger.propagate = True
    logger.removeHandler(handler)


def test_every_lens_has_a_sample():
    assert sorted(SAMPLES) == sorted(default_registry().names())


@pytest.mark.parametrize("lens_name", sorted(SAMPLES))
def test_dropped_tree_is_freed_without_the_collector(lens_name):
    lens = default_registry().get(lens_name)
    lens.parse(SAMPLES[lens_name])  # first-use caches stay out of the count
    gc.collect()
    gc.disable()
    try:
        tree = lens.parse(SAMPLES[lens_name])
        assert tree.size() > 0
        del tree
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, f"{lens_name}: {found} objects left for the collector"


def _parse_heavy_host(name: str, seed: int) -> HostEntity:
    fs = VirtualFilesystem()
    fs.write_file("/etc/nginx/nginx.conf", generate_nginx_config(4, seed=seed))
    fs.write_file("/etc/sysctl.conf", generate_sysctl_config(30, seed=seed))
    fs.write_file("/etc/kubernetes/manifests/pod-00.yaml",
                  kubernetes_manifest(hardened=seed % 2 == 0))
    return HostEntity(name, fs)


@pytest.mark.parametrize("workers", [1, 2])
def test_parse_heavy_scans_leave_no_cycles(workers, logs_kept_nowhere):
    """New file content every cycle: every parse misses, and the small
    cache evicts a tree per miss."""
    rng = random.Random(workers)
    validator = load_builtin_validator(workers=workers)
    scanner = BatchScanner(validator, workers=workers, cache_size=6)

    def run():
        hosts = [_parse_heavy_host(f"node-{index}", rng.randrange(2**31))
                 for index in range(2)]
        scanner.scan_entities(hosts)

    for _ in range(WARMUP):
        run()
    try:
        assert _cyclic_garbage(run) == {}
    finally:
        validator.close()


def _mixed_fleet() -> list:
    _daemon, images, containers = build_fleet(
        FleetSpec(images=1, containers_per_image=2, misconfig_rate=0.4,
                  seed=5))
    return ([ContainerEntity(c) for c in containers]
            + [DockerImageEntity(i) for i in images]
            + [ubuntu_host_entity("host-0", hardening=0.5, seed=5,
                                  with_nginx=True, with_mysql=True)])


def test_cold_mixed_scans_leave_no_cycles(logs_kept_nowhere):
    """A fresh validator per cycle over containers, an image and a host,
    and the JSON report of each scan."""
    entities = _mixed_fleet()

    def run():
        validator = load_builtin_validator()
        try:
            render_json(BatchScanner(validator).scan_entities(entities).report)
        finally:
            validator.close()

    for _ in range(WARMUP):
        run()
    assert _cyclic_garbage(run) == {}


def test_degraded_report_renders_without_cycles():
    """The degradation block's by-site counts are nested objects."""
    report = ValidationReport(target="fleet")
    report.degradation = DegradationStats(
        plan="fs-error", faults_injected={"fs.read": 2},
        faults_absorbed={"fs.read": 2})
    assert _cyclic_garbage(lambda: render_json(report)) == {}


def test_dropped_validator_with_telemetry_leaves_no_cycles():
    """The scrape-time collectors a validator registers hold neither the
    validator nor the registry they are registered in."""

    def run():
        validator = load_builtin_validator(telemetry=Telemetry(),
                                           verdict_store=VerdictStore())
        validator.telemetry.metrics.render()
        del validator

    run()
    assert _cyclic_garbage(run) == {}


def test_incremental_monitor_cycles_leave_no_cycles(tmp_path,
                                                    logs_kept_nowhere):
    """``repro monitor --incremental``: a verdict store, telemetry on and
    a history store, with one sshd edit per cycle."""
    entities = _mixed_fleet()
    host = entities[-1]
    text = host.filesystem().read_text(SSHD)
    telemetry = Telemetry()
    validator = load_builtin_validator(telemetry=telemetry,
                                       verdict_store=VerdictStore())
    history = HistoryStore(str(tmp_path / "history.sqlite"))
    monitor = FleetMonitor(BatchScanner(validator, telemetry=telemetry),
                           history, entities=entities,
                           config=MonitorConfig(interval_s=0))
    cycle_no = 0

    def run():
        nonlocal cycle_no, text
        cycle_no += 1
        text = text.replace("PermitRootLogin", "PermitRootLogin-").replace(
            "PermitRootLogin--", "PermitRootLogin")
        host.filesystem().write_file(SSHD, text)
        assert monitor.run_cycle(cycle_no) is not None

    try:
        for _ in range(WARMUP):
            run()
        assert _cyclic_garbage(run) == {}
    finally:
        history.close()
        validator.close()
