"""Tests for the crawler, frames, and runtime plugins."""

import contextlib
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.augtree.lenses import SysctlLens
from repro.errors import CrawlerError
from repro.fs import VirtualFilesystem
from repro.crawler import (
    CloudEntity,
    ContainerEntity,
    Crawler,
    DockerImageEntity,
    HostEntity,
)
from repro.crawler.docker_sim import DockerDaemon, HostConfig, ImageBuilder
from repro.crawler.plugins import flatten_json
from repro.crawler.serialize import dump_frame
from repro.engine.batch import BatchScanner
from repro.engine.parse_cache import ParseCache
from repro.rules import load_builtin_validator
from repro.workloads import build_cloud_project, ubuntu_host_entity


def _mysql_host() -> HostEntity:
    fs = VirtualFilesystem()
    fs.write_file(
        "/etc/mysql/my.cnf",
        "[mysqld]\nssl-ca = /etc/mysql/ca.pem\nssl-cert = /etc/mysql/c.pem\n"
        "local-infile = 0\n",
    )
    fs.write_file("/etc/sysctl.conf", "net.ipv4.ip_forward = 1\n")
    return HostEntity("db-host", fs)


class TestFlattenJson:
    def test_nested_dict(self):
        flat = flatten_json({"a": {"b": {"c": 1}}})
        assert flat == {"a.b.c": "1"}

    def test_booleans_lowercase(self):
        flat = flatten_json({"x": True, "y": False})
        assert flat == {"x": "true", "y": "false"}

    def test_none_is_empty_string(self):
        assert flatten_json({"x": None}) == {"x": ""}

    def test_scalar_list_joined_and_indexed(self):
        flat = flatten_json({"caps": ["A", "B"]})
        assert flat["caps"] == "A,B"
        assert flat["caps.0"] == "A"
        assert flat["caps.1"] == "B"

    def test_empty_containers(self):
        flat = flatten_json({"a": [], "b": {}})
        assert flat == {"a": "", "b": ""}

    def test_list_of_dicts_indexed_only(self):
        flat = flatten_json({"m": [{"s": "/x"}]})
        assert flat == {"m.0.s": "/x"}

    @given(
        mapping=st.dictionaries(
            st.text(alphabet="abc", min_size=1, max_size=3),
            st.one_of(st.integers(), st.booleans(), st.text(max_size=5)),
            max_size=6,
        )
    )
    def test_flat_mapping_preserves_every_key(self, mapping):
        flat = flatten_json(mapping)
        assert set(flat) == set(mapping)


class TestCrawler:
    def test_frame_contents(self):
        crawler = Crawler()
        frame = crawler.crawl(_mysql_host())
        assert frame.entity_kind == "host"
        assert frame.read_config("/etc/mysql/my.cnf").startswith("[mysqld]")
        assert frame.metadata["name"] == "db-host"

    def test_unknown_feature_rejected(self):
        with pytest.raises(CrawlerError):
            Crawler().crawl(_mysql_host(), features=("files", "telepathy"))

    def test_feature_selection_skips_runtime(self):
        frame = Crawler().crawl(_mysql_host(), features=("files",))
        assert frame.runtime == {}

    def test_crawl_many_preserves_order(self):
        crawler = Crawler()
        frames = crawler.crawl_many([_mysql_host(), _mysql_host()])
        assert len(frames) == 2


class TestMySQLPlugin:
    def test_variables_derived_from_my_cnf(self):
        frame = Crawler().crawl(_mysql_host())
        assert frame.runtime_value("mysql", "have_ssl") == "YES"
        assert frame.runtime_value("mysql", "local_infile") == "0"

    def test_defaults_without_ssl(self):
        fs = VirtualFilesystem()
        fs.write_file("/etc/mysql/my.cnf", "[mysqld]\n")
        frame = Crawler().crawl(HostEntity("h", fs))
        assert frame.runtime_value("mysql", "have_ssl") == "DISABLED"

    def test_plugin_skipped_without_my_cnf(self):
        fs = VirtualFilesystem()
        fs.write_file("/etc/hostname", "h\n")
        frame = Crawler().crawl(HostEntity("h", fs))
        assert "mysql" not in frame.runtime


class TestSysctlPlugin:
    def test_conf_overrides_defaults(self):
        frame = Crawler().crawl(_mysql_host())
        assert frame.runtime_value("sysctl", "net.ipv4.ip_forward") == "1"

    def test_live_state_overrides_conf(self):
        entity = _mysql_host()
        entity.live_sysctl["net.ipv4.ip_forward"] = "0"
        frame = Crawler().crawl(entity)
        assert frame.runtime_value("sysctl", "net.ipv4.ip_forward") == "0"

    def test_exposes_unpinned_defaults(self):
        frame = Crawler().crawl(_mysql_host())
        # Not in sysctl.conf, but visible like `sysctl -a` (paper 2.1.3).
        assert frame.runtime_value("sysctl", "kernel.randomize_va_space") == "2"

    def test_not_run_for_containers(self):
        image = ImageBuilder().add_file("/etc/os-release", "x").build("i")
        daemon = DockerDaemon()
        daemon.add_image(image)
        container = daemon.run("i:latest", "c")
        frame = Crawler().crawl(ContainerEntity(container))
        assert "sysctl" not in frame.runtime


class TestDockerPlugin:
    def test_container_state_flattened(self):
        image = ImageBuilder().user("app").build("i")
        daemon = DockerDaemon()
        daemon.add_image(image)
        container = daemon.run(
            "i:latest", "c", host_config=HostConfig(privileged=True)
        )
        frame = Crawler().crawl(ContainerEntity(container))
        assert frame.runtime_value("docker", "HostConfig.Privileged") == "true"
        assert frame.runtime_value("docker", "Config.User") == "app"

    def test_image_state_flattened(self):
        image = ImageBuilder().user("app").build("i", "2.0")
        frame = Crawler().crawl(DockerImageEntity(image))
        assert frame.runtime_value("docker", "RepoTags") == "i:2.0"


class TestCloudPlugin:
    def test_derived_keys(self):
        entity = build_cloud_project("p", violations=True)
        frame = Crawler().crawl(entity)
        assert frame.runtime_value("cloud", "derived.world_open_ssh") == "true"
        assert frame.runtime_value("cloud", "derived.users_without_mfa") == "bob"
        assert "vm-000" in frame.runtime_value(
            "cloud", "derived.instances_without_keypair"
        )

    def test_clean_project(self):
        entity = build_cloud_project("clean", violations=False)
        frame = Crawler().crawl(entity)
        assert frame.runtime_value("cloud", "derived.world_open_ssh") == "false"
        assert frame.runtime_value("cloud", "derived.users_without_mfa") == ""

    def test_cloud_entity_reads_controller_files(self):
        entity = build_cloud_project("files", violations=False)
        frame = Crawler().crawl(entity)
        assert "provider = fernet" in frame.read_config(
            "/etc/keystone/keystone.conf"
        )


def _sysctl_host(name: str, sysctl_text: str) -> HostEntity:
    fs = VirtualFilesystem()
    fs.write_file("/etc/sysctl.conf", sysctl_text)
    return HostEntity(name, fs)


@contextlib.contextmanager
def _counted_sysctl_parses():
    """Record the text of every ``SysctlLens.parse`` call."""
    parsed: list[str] = []
    original = SysctlLens.parse

    def counted(self, text, source="<memory>"):
        parsed.append(text)
        return original(self, text, source)

    with mock.patch.object(SysctlLens, "parse", counted):
        yield parsed


class TestPluginsShareParseCache:
    """Runtime plugins parse through the validator's parse cache."""

    FORWARDING = "net.ipv4.ip_forward = 1\n"
    HARDENED = "net.ipv4.ip_forward = 0\n"

    def _hosts(self):
        return [_sysctl_host("a", self.FORWARDING),
                _sysctl_host("b", self.FORWARDING),
                _sysctl_host("c", self.HARDENED)]

    def test_cycle_parses_each_content_once(self):
        validator = load_builtin_validator()
        scanner = BatchScanner(validator)
        with _counted_sysctl_parses() as parsed:
            summary = scanner.scan_entities(self._hosts())
        assert sorted(parsed) == [self.HARDENED, self.FORWARDING]
        # Two crawl-side misses; a crawl-side hit for host b and one
        # engine hit per host.
        assert (summary.cache_stats.misses, summary.cache_stats.hits) == (2, 4)
        verdicts = {
            result.target: result.verdict.value
            for result in summary.report.results
            if result.rule.name == "net.ipv4.ip_forward"
        }
        assert verdicts == {"host:a": "noncompliant", "host:b": "noncompliant",
                            "host:c": "compliant"}

    def test_steady_cycle_runs_no_parse(self):
        validator = load_builtin_validator()
        scanner = BatchScanner(validator)
        hosts = self._hosts()
        first = scanner.scan_entities(hosts)
        with _counted_sysctl_parses() as parsed:
            second = scanner.scan_entities(hosts)
        assert parsed == []
        assert second.cache_stats.misses == first.cache_stats.misses

    def test_failing_lens_records_plugin_error_and_caches_nothing(
            self, kept_log_records):
        host = _sysctl_host("bad", "not a sysctl line\n")
        expected = Crawler().crawl(host).metadata["plugin_error:sysctl"]
        cache = ParseCache()
        crawler = Crawler(parse_cache=cache)
        with _counted_sysctl_parses() as parsed:
            for _cycle in range(2):
                frame = crawler.crawl(host)
                assert "sysctl" not in frame.runtime
                assert frame.metadata["plugin_error:sysctl"] == expected
        assert len(parsed) == 2  # the failure was not cached
        assert len(cache) == 0
        # The warnings carry the message, not the exception, whose
        # traceback would pin the crawl's frame and entity.
        assert [record.getMessage() for record in kept_log_records] == [
            f"plugin sysctl failed on host:bad: {expected}"] * 3
        assert not [arg for record in kept_log_records
                    for arg in record.args if isinstance(arg, BaseException)]

    def test_frames_match_bare_crawler(self):
        entities = [
            ubuntu_host_entity(f"share-{i}", hardening=0.5, seed=i,
                               with_nginx=True, with_mysql=True)
            for i in range(3)
        ] + [_mysql_host(), _sysctl_host("bad", "not a sysctl line\n")]
        expected = [dump_frame(f) for f in Crawler().crawl_many(entities)]
        validator = load_builtin_validator()
        crawler = Crawler(parse_cache=validator.parse_cache)
        try:
            for _cycle in range(2):  # cold, then warm cache
                frames = crawler.crawl_many(entities, workers=2)
                assert [dump_frame(f) for f in frames] == expected
        finally:
            validator.close()
        assert validator.cache_stats().hits > 0
