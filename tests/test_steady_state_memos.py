"""What a steady-state cycle keeps from the last one, and what undoes it.

Three pieces of per-cycle work follow a change instead of being redone:

* the docker plugin signs a container or image with a flat tuple of
  every field its ``inspect()`` reads, so an unchanged entity keeps its
  frame while any edit to one of those fields re-crawls it;
* :func:`ruleset_digest` is memoized on the rule set, under everything
  it reads besides rule content;
* the Prometheus exposition renders each label set once.

Each memo must be invisible: after any edit, the memoized answer equals
the one computed from scratch.
"""

import dataclasses
import hashlib
from types import SimpleNamespace

import pytest

from repro.crawler import ContainerEntity, Crawler, DockerImageEntity
from repro.crawler.docker_sim import (
    Container,
    DockerImage,
    HealthCheck,
    HostConfig,
    ImageConfig,
    Mount,
)
from repro.crawler.serialize import dump_frame
from repro.cvl.model import RuleSet, TreeRule
from repro.engine import incremental
from repro.engine.incremental import ruleset_digest
from repro.engine.plan import clear_plan_cache, plan_cache_stats
from repro.fs import VirtualFilesystem
from repro.rules import load_builtin_validator
from repro.telemetry import export
from repro.telemetry.metrics import MetricsRegistry
from repro.workloads import ubuntu_host_entity

# ---------------------------------------------------------------------------
# Docker signatures
# ---------------------------------------------------------------------------


def _fleet():
    layer = VirtualFilesystem()
    layer.write_file("/etc/issue", "Ubuntu\n")
    image = DockerImage(
        "app", "1", [layer],
        ImageConfig(env={"MODE": "prod"}, user="app",
                    exposed_ports=["80/tcp"], entrypoint=["/bin/app"],
                    cmd=["serve"], labels={"tier": "web"}, workdir="/srv",
                    healthcheck=HealthCheck(["CMD", "true"])),
    )
    container = Container(
        "app-1", image,
        HostConfig(cap_add=["CHOWN"], cap_drop=["ALL"],
                   security_opt=["no-new-privileges"],
                   port_bindings={"80/tcp": "0.0.0.0:8080"},
                   mounts=[Mount("/data", "/data")], devices=["/dev/null"]),
        env={"DEBUG": "0"},
    )
    return image, container


def _changed(value):
    """A different value of the same scalar type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    raise TypeError(f"no scalar edit for {value!r}")


#: In-place edits of the list and dict fields (a new field of another
#: shape has none, and fails the test until it gets one here).
_IN_PLACE = {
    "cap_add": lambda items: items.append("NET_ADMIN"),
    "cap_drop": lambda items: items.__setitem__(0, "NET_RAW"),
    "security_opt": lambda items: items.append("seccomp=unconfined"),
    "port_bindings": lambda items: items.__setitem__("443/tcp",
                                                     "0.0.0.0:8443"),
    "mounts": lambda items: items.append(Mount("/var/run/docker.sock",
                                               "/var/run/docker.sock")),
    "devices": lambda items: items.append("/dev/kmsg"),
    "env": lambda items: items.__setitem__("MODE", "dev"),
    "exposed_ports": lambda items: items.append("443/tcp"),
    "entrypoint": lambda items: items.append("--verbose"),
    "cmd": lambda items: items.append("--debug"),
    "labels": lambda items: items.__setitem__("team", "db"),
}


def _edit_field(owner, name: str) -> None:
    value = getattr(owner, name)
    if isinstance(value, (list, dict)):
        _IN_PLACE[name](value)
    elif isinstance(value, HealthCheck):
        value.test.append("--quiet")
    else:
        setattr(owner, name, _changed(value))


def _container_edits():
    edits = {f"host_config.{field.name}":
             (lambda c, name=field.name: _edit_field(c.host_config, name))
             for field in dataclasses.fields(HostConfig)}
    edits.update({
        "host_config.mounts[0].read_only":
            lambda c: setattr(c.host_config.mounts[0], "read_only", True),
        "host_config.mounts[0].source":
            lambda c: setattr(c.host_config.mounts[0], "source", "/srv"),
        "host_config replaced":
            lambda c: setattr(c, "host_config", HostConfig()),
        "state": lambda c: setattr(c, "state", "exited"),
        "exit_code": lambda c: setattr(c, "exit_code", 137),
        "stop": lambda c: c.stop(exit_code=1),
        "health": lambda c: setattr(c, "health", "unhealthy"),
        "user": lambda c: setattr(c, "user", "root"),
        "env set": lambda c: c.env.__setitem__("DEBUG", "1"),
        "env added": lambda c: c.env.__setitem__("TOKEN", "s3cret"),
        "env removed": lambda c: c.env.pop("MODE"),
        "image labels": lambda c: c.image.config.labels.__setitem__(
            "tier", "db"),
        "image healthcheck test": lambda c: c.image.config.healthcheck
        .test.append("--quiet"),
        "image healthcheck removed": lambda c: setattr(
            c.image.config, "healthcheck", None),
    })
    return edits


def _image_edits():
    edits = {f"config.{field.name}":
             (lambda i, name=field.name: _edit_field(i.config, name))
             for field in dataclasses.fields(ImageConfig)}
    edits.update({
        "labels added": lambda i: i.config.labels.__setitem__("team", "db"),
        "env added": lambda i: i.config.env.__setitem__("DEBUG", "1"),
        "healthcheck removed": lambda i: setattr(i.config, "healthcheck",
                                                 None),
        "healthcheck replaced": lambda i: setattr(
            i.config, "healthcheck", HealthCheck(["CMD", "false"])),
        "layer appended": lambda i: i.layers.append(VirtualFilesystem()),
    })
    return edits


class TestDockerSignatures:
    def _recrawl_after(self, edit, target: str):
        image, container = _fleet()
        entities = [DockerImageEntity(image), ContainerEntity(container)]
        crawler = Crawler()
        before = crawler.crawl_many(entities)
        assert all(a is b for a, b in zip(crawler.crawl_many(entities),
                                          before))  # unchanged: reused
        edit(container if target == "container" else image)
        after = crawler.crawl_many(entities)
        fresh = Crawler().crawl_many(entities)
        for frame, fresh_frame in zip(after, fresh):
            assert dump_frame(frame) == dump_frame(fresh_frame)
            assert (frame.fingerprint().frame_digest()
                    == fresh_frame.fingerprint().frame_digest())
        index = 1 if target == "container" else 0
        # The edit shows in `docker inspect`, and the entity re-crawled.
        assert (after[index].runtime["docker"]
                != before[index].runtime["docker"])
        assert after[index] is not before[index]

    @pytest.mark.parametrize("name", sorted(_container_edits()))
    def test_container_edit_recrawls(self, name):
        self._recrawl_after(_container_edits()[name], "container")

    @pytest.mark.parametrize("name", sorted(_image_edits()))
    def test_image_edit_recrawls(self, name):
        self._recrawl_after(_image_edits()[name], "image")

    def test_rewriting_a_value_keeps_the_signature(self):
        image, container = _fleet()
        signatures = image.inspect_signature(), container.inspect_signature()
        container.env["MODE"] = "prod"  # the values they already hold
        container.host_config.privileged = False
        image.config.labels["tier"] = "web"
        assert (image.inspect_signature(),
                container.inspect_signature()) == signatures


# ---------------------------------------------------------------------------
# Pack digests
# ---------------------------------------------------------------------------


def _unmemoized(manifest, ruleset) -> str:
    return ruleset_digest(manifest, RuleSet(ruleset.entity,
                                            list(ruleset.rules)))


def _other_severity(rule) -> str:
    return "low" if rule.severity != "low" else "high"


_PACK_EDITS = {
    "rule disabled": lambda m, rs: setattr(rs.rules[0], "enabled", False),
    "rule replaced": lambda m, rs: rs.rules.__setitem__(
        0, dataclasses.replace(rs.rules[0],
                               severity=_other_severity(rs.rules[0]))),
    "rule appended": lambda m, rs: rs.rules.append(
        TreeRule(name="extra_rule", config_path=["Extra"],
                 preferred_value=["yes"])),
    "rule removed": lambda m, rs: rs.rules.pop(),
    "rules reordered": lambda m, rs: rs.rules.reverse(),
    "search path appended": lambda m, rs: m.config_search_paths.append(
        "/srv/extra"),
    "search paths replaced": lambda m, rs: setattr(
        m, "config_search_paths", ["/srv/only"]),
    "lens": lambda m, rs: setattr(m, "lens", "keyvalue"),
    "schema parser": lambda m, rs: setattr(m, "schema_parser", "passwd"),
    "entity kinds": lambda m, rs: m.entity_kinds.append("cloud"),
    "entity kinds replaced": lambda m, rs: setattr(m, "entity_kinds",
                                                   ["image"]),
    # A rule that differs in one authored keyword of ``raw`` alone.
    "raw keyword": lambda m, rs: rs.rules.__setitem__(
        0, dataclasses.replace(rs.rules[0],
                               raw={**rs.rules[0].raw, "tags": ["edited"]})),
}


class TestRulesetDigestMemo:
    @staticmethod
    def _pack():
        validator = load_builtin_validator()
        manifest = validator.manifest("sshd")
        return manifest, validator.ruleset_for(manifest)

    @pytest.mark.parametrize("name", sorted(_PACK_EDITS))
    def test_edit_changes_the_memoized_digest(self, name):
        manifest, ruleset = self._pack()
        before = ruleset_digest(manifest, ruleset)
        assert before == _unmemoized(manifest, ruleset)
        _PACK_EDITS[name](manifest, ruleset)
        after = ruleset_digest(manifest, ruleset)
        assert after == _unmemoized(manifest, ruleset)
        assert after != before

    def test_toggle_round_trip(self):
        manifest, ruleset = self._pack()
        digests = []
        for enabled in (True, False, True):
            ruleset.rules[0].enabled = enabled
            digests.append(ruleset_digest(manifest, ruleset))
            assert digests[-1] == _unmemoized(manifest, ruleset)
        assert digests[0] == digests[2] != digests[1]

    def test_unchanged_pack_hashes_nothing(self, monkeypatch):
        manifest, ruleset = self._pack()
        digest = ruleset_digest(manifest, ruleset)
        calls = []
        monkeypatch.setattr(incremental, "hashlib", SimpleNamespace(
            sha256=lambda data: calls.append(data) or hashlib.sha256(data)))
        assert ruleset_digest(manifest, ruleset) == digest
        assert calls == []
        ruleset.rules[0].enabled = False  # the probe sees a recompute
        ruleset_digest(manifest, ruleset)
        assert len(calls) == 1

    def test_fresh_validators_share_digests(self):
        digests = [
            {manifest.entity: ruleset_digest(manifest,
                                             validator.ruleset_for(manifest))
             for manifest in validator.manifests()}
            for validator in (load_builtin_validator(),
                              load_builtin_validator())]
        assert len(digests[0]) == 14
        assert digests[0] == digests[1]

    def test_fresh_validators_compile_each_pack_once(self):
        host = ubuntu_host_entity("host-01", seed=3, with_nginx=True)
        clear_plan_cache()
        try:
            for _ in range(5):
                load_builtin_validator().validate_entity(host)
            stats = plan_cache_stats()
        finally:
            clear_plan_cache()
        assert (stats.compiles, stats.hits) == (14, 4 * 14)

    def test_one_ruleset_under_two_manifests(self):
        manifest, ruleset = self._pack()
        other = dataclasses.replace(manifest, lens="keyvalue")
        first = ruleset_digest(manifest, ruleset)
        second = ruleset_digest(other, ruleset)
        assert second != first
        assert ruleset_digest(manifest, ruleset) == first


# ---------------------------------------------------------------------------
# Label text
# ---------------------------------------------------------------------------


def _registry():
    """A registry of awkward label values, and its three families."""
    registry = MetricsRegistry()
    awkward = ['back\\slash', 'quote"d', "new\nline", 'all\\"\n']
    counter = registry.counter("memo_checks_total", "Checks.",
                               labels=("rule", "verdict"))
    gauge = registry.gauge("memo_flapping", "Flapping rules.",
                           labels=("rule",))
    histogram = registry.histogram("memo_latency_seconds", "Latency.",
                                   labels=("stage",), buckets=(0.1, 1.0))
    for index, value in enumerate(awkward):
        counter.inc(index + 1, rule=value, verdict="pass")
        gauge.set(index, rule=value)
        histogram.observe(0.05 * index, stage=value)
    registry.counter("memo_cycles_total", "Cycles.").inc()
    return registry, counter, gauge, histogram


def _uncached(registry, monkeypatch) -> str:
    with monkeypatch.context() as patch:
        patch.setattr(export, "_format_labels",
                      export._format_labels.__wrapped__)
        return export.render_prometheus(registry)


class TestLabelText:
    def test_consecutive_scrapes_match_an_uncached_render(self, monkeypatch):
        registry, counter, gauge, histogram = _registry()
        first = export.render_prometheus(registry)
        assert first == _uncached(registry, monkeypatch)
        assert 'rule="all\\\\\\"\\n"' in first
        # Values move, a gauge sample goes, a new label set arrives.
        counter.inc(rule='quote"d', verdict="pass")
        gauge.remove(rule="new\nline")
        histogram.observe(2.0, stage="fresh")
        second = export.render_prometheus(registry)
        assert second == _uncached(registry, monkeypatch)
        assert second != first
        assert 'memo_flapping{rule="new\\nline"}' not in second
        assert export.render_prometheus(registry) == second
