"""The benchmark's workloads.

Each workload builds its inputs from a seed (outside every timer), sets
the program up, and then runs one scan cycle per :meth:`Workload.cycle`
call through the program's public API.  :meth:`Workload.prepare` makes
the untimed per-cycle input changes.  Program calls go through module
attributes (``rules.load_builtin_validator``, ``report.render_json``,
``export.render_prometheus``) so the tracer's wrappers see them.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro import rules
from repro.crawler.entities import ContainerEntity, DockerImageEntity, HostEntity
from repro.engine import report as engine_report
from repro.engine.batch import BatchScanner
from repro.engine.incremental import VerdictStore
from repro.engine.parse_cache import CacheStats
from repro.fs.vfs import VirtualFilesystem
from repro.history import FleetMonitor, HistoryStore, MonitorConfig
from repro.telemetry import Telemetry
from repro.telemetry import export
from repro.workloads import FleetSpec, build_fleet, kubernetes_manifest, ubuntu_host_entity
from repro.workloads.rulegen import generate_nginx_config, generate_sysctl_config

from oracle import Expectations



def _mixed_fleet(rng: random.Random, *, images: int, hosts: int):
    """The E4 mixed fleet: containers, their images, and Ubuntu hosts."""
    _daemon, image_list, containers = build_fleet(FleetSpec(
        images=images, containers_per_image=4, misconfig_rate=0.3,
        seed=rng.randrange(2**31),
    ))
    host_list = [
        ubuntu_host_entity(f"host-{index:02d}", hardening=0.5,
                           seed=rng.randrange(2**31),
                           with_nginx=True, with_mysql=True)
        for index in range(hosts)
    ]
    expect = Expectations()
    for host in host_list:
        expect.add_host(host)
    for container in containers:
        expect.add_container(container)
    entities = [ContainerEntity(c) for c in containers]
    entities += [DockerImageEntity(i) for i in image_list]
    entities += host_list
    return entities, host_list, expect


class Workload:
    """One named input set and the cycle it drives."""

    name = ""
    workers = 1
    #: Cycles run inside each set-up, before the first timed cycle.
    warmup_cycles = 2

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.entities: list = []
        self.expect = Expectations()
        self.validator = None
        self._cache_before = CacheStats()

    def setup(self) -> None:
        """Build the program's long-lived state and run the warm-up cycles."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed input changes before the next cycle."""
        if self.validator is not None:
            self._cache_before = self.validator.cache_stats()

    def cycle(self):
        """One scan cycle; returns its report (None when it failed)."""
        raise NotImplementedError

    def cache_delta(self) -> CacheStats:
        after = self.validator.cache_stats()
        before = self._cache_before
        return CacheStats(
            hits=after.hits - before.hits,
            misses=after.misses - before.misses,
            bytes_parsed=after.bytes_parsed - before.bytes_parsed,
        )

    def close(self) -> None:
        if self.validator is not None:
            self.validator.close()
            self.validator = None


class FleetCold(Workload):
    """What one fleet audit job or CI run pays: a fresh validator with
    default settings, one scan of the E4 mixed fleet, one JSON report."""

    name = "fleet-cold"
    warmup_cycles = 1

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.entities, _hosts, self.expect = _mixed_fleet(
            self.rng, images=4, hosts=4)

    def setup(self) -> None:
        for _ in range(self.warmup_cycles):
            self.cycle()

    def prepare(self) -> None:
        self._cache_before = CacheStats()

    def cycle(self):
        self.close()
        self.validator = rules.load_builtin_validator()
        summary = BatchScanner(self.validator).scan_entities(self.entities)
        engine_report.render_json(summary.report)
        return summary.report


class MonitorChurn(Workload):
    """``repro monitor --incremental`` in steady state: telemetry on, a
    verdict store, a sqlite history, one /metrics scrape per cycle, and a
    1% config edit before every cycle."""

    name = "monitor-churn"
    edit_rate = 0.01

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.entities, self.hosts, self.expect = _mixed_fleet(
            self.rng, images=20, hosts=20)
        self.edits = max(1, round(self.edit_rate * len(self.entities)))
        self.history = None
        self.db_path: Path | None = None
        self._setups = 0
        self._cycle_no = 0

    def setup(self) -> None:
        self.close()
        self._setups += 1
        self.db_path = self.workdir / f"history-{self._setups}.sqlite"
        self.telemetry = Telemetry()
        self.validator = rules.load_builtin_validator(
            telemetry=self.telemetry, verdict_store=VerdictStore())
        scanner = BatchScanner(self.validator, workers=1,
                               telemetry=self.telemetry)
        self.history = HistoryStore(str(self.db_path))
        self.monitor = FleetMonitor(
            scanner, self.history, entities=self.entities,
            config=MonitorConfig(interval_s=0, workers=1))
        self._cycle_no = 0
        for _ in range(self.warmup_cycles):
            self.cycle()

    def prepare(self) -> None:
        for _ in range(self.edits):
            host = self.rng.choice(self.hosts)
            toggle_permit_root_login(host)
            self.expect.add_host(host)
        super().prepare()

    def cycle(self):
        self._cycle_no += 1
        summary = self.monitor.run_cycle(self._cycle_no)
        export.render_prometheus(self.telemetry.metrics)
        return summary.report if summary is not None else None

    def db_bytes(self) -> int:
        paths = [self.db_path, Path(f"{self.db_path}-wal")]
        return sum(path.stat().st_size for path in paths if path.exists())

    def spans_retained(self) -> int:
        return len(self.telemetry.spans.finished())

    def close(self) -> None:
        super().close()
        if self.history is not None:
            self.history.close()
            self.history = None
        if self.db_path is not None:
            for suffix in ("", "-wal", "-shm"):
                Path(f"{self.db_path}{suffix}").unlink(missing_ok=True)


def toggle_permit_root_login(host: HostEntity) -> None:
    """Flip ``PermitRootLogin`` between yes and no in a host's sshd_config."""
    fs = host.filesystem()
    path = "/etc/ssh/sshd_config"
    mode = fs.stat(path).mode
    lines = []
    for line in fs.read_text(path).splitlines():
        if line.startswith("PermitRootLogin "):
            line = ("PermitRootLogin no" if line.endswith(" yes")
                    else "PermitRootLogin yes")
        lines.append(line)
    fs.write_file(path, "\n".join(lines) + "\n", mode=mode)


class FanoutParse(Workload):
    """Parse-heavy hosts fanned out over two threads on a long-lived
    validator; every cycle brings new file content, so every parse misses
    the cache.

    The parse cache holds two cycles of trees, so the warm-up cycles fill
    it and every timed cycle runs with it full, evicting one tree per
    miss.  The default 4096-entry cache would keep growing for ~170
    cycles, and with it the heap and the cost of each full garbage
    collection, so every figure would depend on how many cycles a run fits.
    """

    name = "fanout-parse"
    workers = 2
    hosts = 8
    nginx_servers = 30
    sysctl_keys = 200
    annotations = 75
    files_per_host = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._regenerate()

    def _regenerate(self) -> None:
        self.entities = []
        self.expect = Expectations()
        for index in range(self.hosts):
            name = f"node-{index}"
            hardened = self.rng.random() < 0.5
            self.entities.append(self._host(name, self.rng.randrange(2**31),
                                            hardened))
            self.expect.add_pod_host(name, hardened=hardened)

    def _host(self, name: str, seed: int, hardened: bool) -> HostEntity:
        fs = VirtualFilesystem()
        fs.write_file("/etc/nginx/nginx.conf",
                      generate_nginx_config(self.nginx_servers, seed=seed))
        fs.write_file("/etc/sysctl.conf",
                      generate_sysctl_config(self.sysctl_keys, seed=seed))
        fs.mkdir("/etc/kubernetes/manifests", mode=0o755)
        annotations = "".join(
            f'    perfbench/note-{index:03d}: "{seed:x}-{index}"\n'
            for index in range(self.annotations)
        )
        pod = kubernetes_manifest(hardened=hardened).replace(
            "\nspec:\n", "\n  annotations:\n" + annotations + "spec:\n", 1)
        fs.write_file("/etc/kubernetes/manifests/pod-00.yaml", pod)
        return HostEntity(name, fs)

    def setup(self) -> None:
        self.close()
        self.validator = rules.load_builtin_validator(workers=self.workers)
        self.validator.rule_count()   # loads every pack
        self.scanner = BatchScanner(
            self.validator, workers=self.workers,
            cache_size=self.warmup_cycles * self.hosts * self.files_per_host)
        for _ in range(self.warmup_cycles):
            self.prepare()
            self.cycle()

    def prepare(self) -> None:
        self._regenerate()
        super().prepare()

    def cycle(self):
        return self.scanner.scan_entities(self.entities).report


WORKLOADS = {cls.name: cls for cls in (FleetCold, MonitorChurn, FanoutParse)}
