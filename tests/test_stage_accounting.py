"""The stage table adds up.

Each stage holds self time: ``evaluate`` and ``composite`` exclude the
discovery and parsing they trigger, so at one worker the stages of a
scan cycle sum to at most its wall clock.  Each frame fills a block of
its own, merged at the barrier, so the operation counts do not depend on
the worker count.
"""

import random
import time

import pytest

from repro.augtree.lenses.sshd import SshdLens
from repro.crawler import HostEntity
from repro.engine.batch import BatchScanner
from repro.engine.stages import STAGES
from repro.fs.vfs import VirtualFilesystem
from repro.rules import load_builtin_validator
from repro.workloads import ubuntu_host_entity
from repro.workloads.rulegen import generate_nginx_config, generate_sysctl_config

SLOW_PARSE_S = 0.05


def _stage_sum(summary) -> float:
    return sum(summary.stage_timings.seconds(stage) for stage in STAGES)


def _parse_heavy_hosts(rng: random.Random, count: int = 4) -> list:
    """Hosts like perfbench's fanout-parse ones, each with new content."""
    hosts = []
    for index in range(count):
        seed = rng.randrange(2**31)
        fs = VirtualFilesystem()
        fs.write_file("/etc/nginx/nginx.conf",
                      generate_nginx_config(30, seed=seed))
        fs.write_file("/etc/sysctl.conf",
                      generate_sysctl_config(200, seed=seed))
        hosts.append(HostEntity(f"node-{index}", fs))
    return hosts


def test_a_slow_parse_is_parse_time_not_evaluate_time(monkeypatch):
    parse = SshdLens.parse

    def slow_parse(self, text, source="<memory>"):
        time.sleep(SLOW_PARSE_S)
        return parse(self, text, source=source)

    monkeypatch.setattr(SshdLens, "parse", slow_parse)
    scanner = BatchScanner(load_builtin_validator(only=["sshd"]))
    summary = scanner.scan_entities([ubuntu_host_entity("host-0")])
    timings = summary.stage_timings
    assert timings.seconds("parse") >= SLOW_PARSE_S
    assert timings.seconds("evaluate") < SLOW_PARSE_S
    assert _stage_sum(summary) <= summary.elapsed_s


def test_stages_add_up_to_at_most_the_cycle_at_one_worker():
    rng = random.Random(17)
    scanner = BatchScanner(load_builtin_validator(), workers=1)
    for _ in range(3):
        summary = scanner.scan_entities(_parse_heavy_hosts(rng))
        assert summary.stage_timings.count("parse") > 0
        assert _stage_sum(summary) <= summary.elapsed_s


@pytest.mark.parametrize("scenario", ["parse-heavy", "mixed"])
def test_ops_do_not_depend_on_the_worker_count(scenario):
    def entities():
        if scenario == "parse-heavy":
            return _parse_heavy_hosts(random.Random(3))
        return [ubuntu_host_entity(f"host-{index}", hardening=0.5,
                                   seed=index, with_nginx=True,
                                   with_mysql=True)
                for index in range(3)]

    ops = []
    for workers in (1, 2):
        scanner = BatchScanner(load_builtin_validator(), workers=workers)
        ops.append(scanner.scan_entities(entities()).stage_timings.ops)
    assert ops[0] == ops[1]
    assert ops[0]["evaluate"] > 0 and ops[0]["discover"] > 0
