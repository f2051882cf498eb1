"""Differential tests of crawl reuse.

A long-lived :class:`~repro.crawler.Crawler` hands an entity its previous
frame back, memoized digests included, while the substrate's change
signals (filesystem and package-database change tokens, each plugin's
signature) prove nothing it reads has changed.  Reuse is a pure
optimization: after any sequence of edits, the long-lived crawler must
give what a fresh ``Crawler()`` gives -- the same serialized frames, the
same whole-frame digests and the same per-dependency digests -- and a
monitor built on it must write the same reports, events and history as
one that crawls every cycle from scratch.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import cli
from repro.chaos.fabric import FaultPlan, arm_plan, disarm
from repro.crawler import (
    ContainerEntity,
    Crawler,
    DockerImageEntity,
    HostEntity,
)
from repro.crawler.docker_sim import (
    Container,
    DockerImage,
    HealthCheck,
    HostConfig,
    ImageConfig,
    Mount,
)
from repro.crawler.fingerprint import (
    FILE,
    FILEMETA,
    LISTING,
    RUNTIME,
    RUNTIME_KEYS,
)
from repro.crawler.plugins import RuntimePlugin, default_plugin_registry
from repro.crawler.serialize import dump_frame
from repro.engine import VerdictStore, render_json
from repro.engine.batch import BatchScanner
from repro.errors import FilesystemError
from repro.fs import RealFilesystem, VirtualFilesystem, whiteout_for
from repro.fs.overlay import OPAQUE_MARKER
from repro.fs.packages import Package, PackageDatabase
from repro.history import EventLog, FleetMonitor, HistoryStore, MonitorConfig
from repro.rules import load_builtin_validator
from repro.telemetry import Telemetry
from repro.workloads import FleetSpec, build_fleet, ubuntu_host_entity

from tests.test_metamorphic import _build_layer, _layer_ops

# ---------------------------------------------------------------------------
# A small fleet over generated layers, and the edits a cycle may bring
# ---------------------------------------------------------------------------

#: What an unsigned plugin reads: state no change token covers.
_UNSIGNED_STATE = {"value": "0"}


class _FailingPlugin(RuntimePlugin):
    """Fails on any entity holding ``/etc/fail``; reads nothing else."""

    name = "failing"

    def signature(self, entity):
        return ()

    def extract(self, entity):
        if entity.filesystem().exists("/etc/fail"):
            raise RuntimeError("extractor failed")
        return {"ok": "true"}


class _UnsignedPlugin(RuntimePlugin):
    """Reads state outside the entity and declares no signature."""

    name = "unsigned"
    kinds = ("host",)

    def extract(self, entity):
        return {"value": _UNSIGNED_STATE["value"]}


_PLUGINS = {"failing": _FailingPlugin, "unsigned": _UnsignedPlugin}


def _registry(names):
    registry = default_plugin_registry()
    for name in names:
        registry.register(_PLUGINS[name]())
    return registry


class _Fleet:
    """An image over generated layers, a container of it, and a host."""

    def __init__(self, stack):
        self.image = DockerImage(
            "app", "1", [_build_layer(ops) for ops in stack],
            ImageConfig(env={"MODE": "prod"}, labels={"tier": "web"},
                        healthcheck=HealthCheck(["CMD", "true"])),
            PackageDatabase([Package("openssl", "3.0.2")]),
        )
        self.container = Container("app-1", self.image,
                                   HostConfig(cap_drop=["ALL"]))
        host_fs = VirtualFilesystem()
        host_fs.write_file("/etc/sysctl.conf", "net.ipv4.ip_forward = 0\n")
        host_fs.write_file("/etc/mysql/my.cnf", "[mysqld]\nlocal-infile = 0\n")
        host_fs.write_file("/proc/mounts", "/dev/sda1 / ext4 rw 0 0\n")
        self.host_packages = PackageDatabase([Package("openssh-server",
                                                      "1:8.9p1")])
        self.host = HostEntity("node", host_fs, self.host_packages,
                               live_sysctl={"kernel.randomize_va_space": "2"})
        self.entities = [DockerImageEntity(self.image),
                         ContainerEntity(self.container), self.host]
        self.plugins: list[str] = []

    def filesystem(self, target: str) -> VirtualFilesystem:
        if target == "bottom":
            return self.image.layers[0]
        if target == "top":
            return self.image.layers[-1]
        if target == "writable":
            return self.container._local
        return self.host.filesystem()


_PATHS = ["/etc/a", "/etc/b", "/etc/sub", "/etc/sub/c", "/opt/d", "/etc/fail"]
_targets = st.sampled_from(["bottom", "top", "writable", "host"])
_paths = st.sampled_from(_PATHS)

_edits = st.one_of(
    st.tuples(st.just("write"), _targets, _paths,
              st.text(alphabet="xyz", max_size=4)),
    st.tuples(st.just("chmod"), _targets, _paths,
              st.sampled_from([0o600, 0o644, 0o755])),
    st.tuples(st.just("chown"), _targets, _paths,
              st.sampled_from([(0, "root"), (33, "www-data")])),
    st.tuples(st.just("remove"), _targets, _paths),
    st.tuples(st.just("whiteout"), _targets,
              st.sampled_from(["/etc/a", "/etc/sub", "/opt"])),
    st.tuples(st.just("opaque"), _targets, st.sampled_from(["/etc", "/opt"])),
    st.tuples(st.just("symlink"), _targets,
              st.sampled_from(["/etc/link", "/opt/link"]),
              st.sampled_from(["/etc/a", "/etc/sub", "/missing"])),
    st.tuples(st.just("append_layer"), _layer_ops),
    st.tuples(st.just("host_config"),
              st.sampled_from(["privileged", "cap_add", "ports", "mount"])),
    st.tuples(st.just("state"), st.sampled_from(["stop", "restart"])),
    st.tuples(st.just("health"), st.sampled_from(["healthy", "unhealthy"])),
    st.tuples(st.just("env"), st.sampled_from(["MODE", "DEBUG"]),
              st.sampled_from(["prod", "1"])),
    st.tuples(st.just("label"), st.sampled_from(["tier", "team"]),
              st.sampled_from(["web", "db"])),
    st.tuples(st.just("install"), st.sampled_from(["image", "host"]),
              st.sampled_from(["openssl", "curl"]),
              st.sampled_from(["3.0.2", "3.0.13"])),
    st.tuples(st.just("uninstall"), st.sampled_from(["image", "host"]),
              st.sampled_from(["openssl", "curl", "openssh-server"])),
    st.tuples(st.just("sysctl"),
              st.sampled_from(["kernel.randomize_va_space", "net.x"]),
              st.sampled_from(["0", "2", None])),
    st.tuples(st.just("register"), st.sampled_from(sorted(_PLUGINS))),
    st.tuples(st.just("unsigned_state"), st.sampled_from(["0", "1"])),
)


def _apply(fleet: _Fleet, crawler: Crawler, edit) -> None:
    kind = edit[0]
    container = fleet.container
    try:
        if kind == "write":
            fleet.filesystem(edit[1]).write_file(edit[2], edit[3])
        elif kind == "chmod":
            fleet.filesystem(edit[1]).chmod(edit[2], edit[3])
        elif kind == "chown":
            uid, owner = edit[3]
            fleet.filesystem(edit[1]).chown(edit[2], uid, uid, owner, owner)
        elif kind == "remove":
            fleet.filesystem(edit[1]).remove(edit[2])
        elif kind == "whiteout":
            fleet.filesystem(edit[1]).write_file(whiteout_for(edit[2]), "")
        elif kind == "opaque":
            fleet.filesystem(edit[1]).write_file(
                f"{edit[2]}/{OPAQUE_MARKER}", "")
        elif kind == "symlink":
            fleet.filesystem(edit[1]).symlink(edit[2], edit[3])
    except FilesystemError:
        pass  # e.g. removing a path this layer does not hold
    if kind == "append_layer":
        fleet.image.layers.append(_build_layer(edit[1]))
    elif kind == "host_config":
        config = container.host_config
        if edit[1] == "privileged":
            config.privileged = not config.privileged
        elif edit[1] == "cap_add":
            config.cap_add.append("NET_ADMIN")
        elif edit[1] == "ports":
            config.port_bindings["80/tcp"] = "0.0.0.0:8080"
        else:
            config.mounts.append(Mount("/var/run/docker.sock",
                                       "/var/run/docker.sock"))
    elif kind == "state":
        if edit[1] == "stop":
            container.stop(exit_code=137)
        else:
            container.state, container.exit_code = "running", None
    elif kind == "health":
        container.health = edit[1]
    elif kind == "env":
        container.env[edit[1]] = edit[2]
    elif kind == "label":
        fleet.image.config.labels[edit[1]] = edit[2]
    elif kind == "install":
        packages = (fleet.image.packages if edit[1] == "image"
                    else fleet.host_packages)
        packages.install(Package(edit[2], edit[3]))
    elif kind == "uninstall":
        packages = (fleet.image.packages if edit[1] == "image"
                    else fleet.host_packages)
        packages.remove(edit[2])
    elif kind == "sysctl":
        if edit[2] is None:
            fleet.host.live_sysctl.pop(edit[1], None)
        else:
            fleet.host.live_sysctl[edit[1]] = edit[2]
    elif kind == "register" and edit[1] not in fleet.plugins:
        fleet.plugins.append(edit[1])
        crawler.plugins.register(_PLUGINS[edit[1]]())
    elif kind == "unsigned_state":
        _UNSIGNED_STATE["value"] = edit[1]


# ---------------------------------------------------------------------------
# What a crawl shows
# ---------------------------------------------------------------------------

_DEPS = (
    [(kind, path) for path in _PATHS + ["/etc/link", "/opt/link", "/etc",
                                        "/opt", "/"]
     for kind in (FILE, FILEMETA)]
    + [(LISTING, "/etc"), (LISTING, "/etc\n/opt"), (LISTING, "/"),
       (RUNTIME_KEYS, "")]
)


def _dump(frame) -> str:
    try:
        return dump_frame(frame)
    except FilesystemError as error:  # a dangling symlink cannot be stat'ed
        return f"unserializable: {type(error).__name__}"


def _observe(frames) -> list:
    """Per frame: its serialized form, whole-frame digest and the digest
    of every dependency a rule may record, in the engine's order."""
    seen = []
    for frame in frames:
        fingerprint = frame.fingerprint()
        deps = _DEPS + [(RUNTIME, ns) for ns in sorted(frame.runtime)]
        seen.append((_dump(frame), fingerprint.frame_digest(),
                     [fingerprint.digest(dep) for dep in deps]))
    return seen


class TestCrawlReuseDifferential:
    @settings(max_examples=60, deadline=None)
    @given(stack=st.lists(_layer_ops, min_size=1, max_size=3),
           edits=st.lists(st.lists(_edits, max_size=3), min_size=1,
                          max_size=8),
           workers=st.sampled_from([1, 2]))
    def test_long_lived_crawler_matches_fresh(self, stack, edits, workers):
        _UNSIGNED_STATE["value"] = "0"
        fleet = _Fleet(stack)
        crawler = Crawler()
        previous = crawler.crawl_many(fleet.entities, workers=workers)
        _observe(previous)
        for step in edits:
            for edit in step:
                _apply(fleet, crawler, edit)
            frames = crawler.crawl_many(fleet.entities, workers=workers)
            fresh = Crawler(plugins=_registry(fleet.plugins)).crawl_many(
                fleet.entities, workers=workers)
            assert _observe(frames) == _observe(fresh)
            if not step:
                # Nothing changed: every frame without a plugin error or
                # an unsigned plugin comes back as it was.
                for before, after in zip(previous, frames):
                    reusable = ("unsigned" not in after.runtime and not any(
                        key.startswith("plugin_error:")
                        for key in after.metadata))
                    assert (after is before) == reusable
            previous = frames

    def test_unchanged_fleet_is_reused_and_counted(self):
        fleet = _Fleet([{"root": None, "nodes": [], "markers": []}])
        telemetry = Telemetry()
        crawler = Crawler(telemetry=telemetry)
        first = crawler.crawl_many(fleet.entities)
        second = crawler.crawl_many(fleet.entities, workers=2)
        assert all(a is b for a, b in zip(first, second))
        metrics = telemetry.metrics
        assert metrics.counter("repro_frames_reused_total").value() == 3
        crawled = metrics.counter("repro_entities_crawled_total",
                                  labels=("kind",))
        assert sum(crawled.value(kind=kind)
                   for kind in ("image", "container", "host")) == 6
        # Reused frames open no crawl span.
        crawl_spans = [span for span in telemetry.spans.finished()
                       if span.category == "crawl"]
        assert len(crawl_spans) == 3

    def test_edit_recrawls_only_the_edited_entities(self):
        fleet = _Fleet([{"root": None, "nodes": [], "markers": []}])
        crawler = Crawler()
        image, container, host = crawler.crawl_many(fleet.entities)
        fleet.container.write_file("/etc/motd", "hi\n")
        again = crawler.crawl_many(fleet.entities)
        assert again[0] is image and again[2] is host
        assert again[1] is not container
        fleet.image.layers[0].chmod("/", 0o700)  # shared by both
        third = crawler.crawl_many(fleet.entities)
        assert third[0] is not again[0] and third[1] is not again[1]
        assert third[2] is host

    def test_real_filesystem_entities_are_never_reused(self, tmp_path):
        (tmp_path / "etc").mkdir()
        (tmp_path / "etc" / "hostname").write_text("box\n")
        host = HostEntity("real", RealFilesystem(str(tmp_path)))
        telemetry = Telemetry()
        crawler = Crawler(telemetry=telemetry)
        first = crawler.crawl_many([host])
        second = crawler.crawl_many([host])
        assert first[0] is not second[0]
        assert _observe(first) == _observe(second)
        assert telemetry.metrics.counter(
            "repro_frames_reused_total").value() == 0

    def test_plugin_error_frames_are_never_reused(self):
        fleet = _Fleet([{"root": None, "nodes": [], "markers": []}])
        crawler = Crawler()
        _apply(fleet, crawler, ("register", "failing"))
        fleet.host.filesystem().write_file("/etc/fail", "")
        first = crawler.crawl_many(fleet.entities)
        second = crawler.crawl_many(fleet.entities)
        assert "plugin_error:failing" in second[2].metadata
        assert second[2] is not first[2]
        assert second[0] is first[0]

    def test_chaos_armed_crawl_is_full_and_keeps_nothing(self):
        fleet = _Fleet([{"root": None, "nodes": [], "markers": []}])
        crawler = Crawler()
        first = crawler.crawl_many(fleet.entities)
        arm_plan(FaultPlan(name="empty"))
        try:
            armed = crawler.crawl_many(fleet.entities)
        finally:
            disarm()
        after = crawler.crawl_many(fleet.entities)
        assert not any(a is b for a, b in zip(first, armed))
        assert not any(a is b for a, b in zip(armed, after))
        assert _observe(first) == _observe(after)


# ---------------------------------------------------------------------------
# Monitor level: reports, events and history against fresh crawls
# ---------------------------------------------------------------------------

#: ``repro history --json`` fields that measure the run rather than
#: describe the fleet: wall times, and the parse-cache counters, which
#: reuse lowers by design (a reused frame runs no plugin parse).
_VOLATILE = {"started_at", "elapsed_s", "crawl_s", "discover_s", "parse_s",
             "evaluate_s", "composite_s", "parse_hits", "parse_misses",
             "parse_hit_rate"}


def _history_json(db: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["history", "--db", db, "--json"]) == 0
    cycles = json.loads(out.getvalue())["cycles"]
    return json.dumps([{key: value for key, value in row.items()
                        if key not in _VOLATILE} for row in cycles],
                      indent=2)


def _events(path) -> list:
    events = []
    for line in path.read_text().splitlines():
        event = json.loads(line)
        event.pop("ts")
        events.append(event)
    return events


def _edit_fleet(rng: random.Random, entities) -> None:
    """Edit each entity with probability 1%: sshd, live state, image
    layers in place, writable layers, runtime options, packages."""
    for entity in entities:
        if rng.random() >= 0.01:
            continue
        choice = rng.randrange(3)
        if isinstance(entity, HostEntity):
            fs = entity.filesystem()
            if choice == 0:
                text = fs.read_text("/etc/ssh/sshd_config")
                flipped = ("PermitRootLogin no" if "PermitRootLogin yes"
                           in text else "PermitRootLogin yes")
                fs.write_file("/etc/ssh/sshd_config", "\n".join(
                    flipped if line.startswith("PermitRootLogin") else line
                    for line in text.splitlines()) + "\n")
            elif choice == 1:
                entity.live_sysctl["net.ipv4.ip_forward"] = rng.choice("01")
            else:
                entity.package_db().install(
                    Package("telnetd", rng.choice(["0.17", "0.18"])))
        elif isinstance(entity, ContainerEntity):
            container = entity.container
            if choice == 0:
                container.host_config.privileged = (
                    not container.host_config.privileged)
            elif choice == 1:
                container.write_file("/etc/motd", f"{rng.random()}\n")
            else:
                container.health = rng.choice(["healthy", "unhealthy"])
        else:
            layer = entity.image.layers[-1]
            layer.write_file("/etc/issue", f"{rng.random()}\n")


@pytest.mark.parametrize("workers", [1, 2])
def test_monitor_matches_fresh_crawls(tmp_path, workers):
    _daemon, images, containers = build_fleet(
        FleetSpec(images=4, containers_per_image=3, misconfig_rate=0.4,
                  seed=31))
    hosts = [ubuntu_host_entity(f"reuse-host-{i}", hardening=0.5, seed=i,
                                with_nginx=True, with_mysql=True)
             for i in range(4)]
    entities = ([ContainerEntity(c) for c in containers]
                + [DockerImageEntity(i) for i in images] + hosts)
    config = MonitorConfig(interval_s=0, workers=workers)
    monitors = {}
    reports = {}
    for name in ("reuse", "fresh"):
        telemetry = Telemetry()
        validator = load_builtin_validator(
            telemetry=telemetry, verdict_store=VerdictStore(),
            workers=workers)
        scanner = BatchScanner(validator, workers=workers,
                               telemetry=telemetry)
        source = ({"entities": entities} if name == "reuse" else {
            "frames_provider": lambda _cycle, validator=validator: Crawler(
                parse_cache=validator.parse_cache).crawl_many(
                    entities, workers=workers)})
        reports[name] = []
        monitors[name] = FleetMonitor(
            scanner, HistoryStore(str(tmp_path / f"{name}.sqlite")),
            config=config,
            sinks=(EventLog(str(tmp_path / f"{name}.ndjson")),),
            on_cycle=lambda _n, _id, summary, _events, out=reports[name]:
                out.append(render_json(summary.report)),
            **source)
    rng = random.Random(workers)
    reused = 0
    for cycle in range(1, 151):
        if cycle > 1:
            _edit_fleet(rng, entities)
        for name in ("reuse", "fresh"):
            monitors[name].run_cycle(cycle)
        assert reports["reuse"][-1] == reports["fresh"][-1], cycle
        reused = monitors["reuse"].scanner.telemetry.metrics.counter(
            "repro_frames_reused_total").value()
    assert reused > 100 * len(entities)  # most frames were reused
    for name, monitor in monitors.items():
        monitor.sinks[0].close()
        monitor.store.close()
    assert (_events(tmp_path / "reuse.ndjson")
            == _events(tmp_path / "fresh.ndjson"))
    assert (_history_json(str(tmp_path / "reuse.sqlite"))
            == _history_json(str(tmp_path / "fresh.sqlite")))
