"""Tests for the ConfigValidator engine: scoping, composites, reports."""

import json
import threading

import pytest

from repro.errors import EngineError, EntityNotFound
from repro.fs import VirtualFilesystem
from repro.crawler import Crawler, HostEntity
from repro.cvl import Manifest, load_rules
from repro.engine import (
    ConfigValidator,
    Normalizer,
    Verdict,
    render_json,
    render_result,
    render_text,
    summarize_by_entity,
)

RULES = {
    "sshd.yaml": """
config_name: PermitRootLogin
file_context: ["sshd_config"]
preferred_value: ["no"]
preferred_value_match: substr,all
matched_description: "Root login is disabled."
not_matched_preferred_value_description: "PermitRootLogin is present but it is enabled."
tags: ["#security", "#cis"]
---
path_name: /etc/ssh/sshd_config
permission_mask: 644
tags: ["#cis"]
""",
    "sysctl.yaml": """
config_name: net.ipv4.ip_forward
file_context: ["sysctl.conf"]
preferred_value: ["0"]
preferred_value_match: exact,all
tags: ["#cis"]
""",
    "nginx.yaml": """
config_name: listen
config_path: ["server", "http/server"]
file_context: ["nginx.conf"]
tags: ["#owasp"]
---
composite_rule_name: cross_entity
composite_rule: sysctl.net.ipv4.ip_forward && nginx.listen
matched_description: "both good"
not_matched_preferred_value_description: "one bad"
""",
}

MANIFEST = """
sshd: {config_search_paths: [/etc/ssh], cvl_file: sshd.yaml}
sysctl: {config_search_paths: [/etc/sysctl.conf], cvl_file: sysctl.yaml}
nginx: {config_search_paths: [/etc/nginx], cvl_file: nginx.yaml}
"""


def _validator() -> ConfigValidator:
    validator = ConfigValidator(resolver=RULES.__getitem__)
    validator.add_manifest_text(MANIFEST)
    return validator


def _host(forward="0", root_login="no", with_nginx=True) -> HostEntity:
    fs = VirtualFilesystem()
    fs.write_file("/etc/ssh/sshd_config", f"PermitRootLogin {root_login}\n",
                  mode=0o600)
    fs.write_file("/etc/sysctl.conf", f"net.ipv4.ip_forward = {forward}\n")
    if with_nginx:
        fs.write_file("/etc/nginx/nginx.conf", "http { server { listen 443; } }")
    return HostEntity("h", fs)


class TestValidatorCore:
    def test_full_pass(self):
        report = _validator().validate_entity(_host())
        assert report.compliant
        assert report.counts()["total"] == 5

    def test_failures_reported(self):
        report = _validator().validate_entity(_host(forward="1", root_login="yes"))
        failed = {r.rule.name for r in report.failed()}
        assert failed == {"PermitRootLogin", "net.ipv4.ip_forward", "cross_entity"}

    def test_tag_filtering(self):
        report = _validator().validate_entity(_host(), tags=["#owasp"])
        assert {r.rule.name for r in report} == {"listen"}

    def test_component_skipped_when_absent(self):
        report = _validator().validate_entity(_host(with_nginx=False))
        per_entity = [r for r in report.for_entity("nginx")
                      if r.rule.rule_type != "composite"]
        assert not per_entity
        # composite referencing nginx becomes N/A, not a failure
        composites = [r for r in report if r.rule.name == "cross_entity"]
        assert composites[0].verdict is Verdict.NOT_APPLICABLE

    def test_manifest_disabled(self):
        validator = _validator()
        validator.manifest("nginx").enabled = False
        report = validator.validate_entity(_host())
        assert not report.for_entity("nginx")

    def test_kind_scoping(self):
        validator = _validator()
        validator.manifest("nginx").entity_kinds = ["container"]
        report = validator.validate_entity(_host())
        per_entity = [r for r in report.for_entity("nginx")
                      if r.rule.rule_type != "composite"]
        assert not per_entity

    def test_unknown_manifest_lookup(self):
        with pytest.raises(EntityNotFound):
            _validator().manifest("ghost")

    def test_missing_resolver_is_engine_error(self):
        validator = ConfigValidator()
        validator.add_manifest(Manifest(entity="x", cvl_file="x.yaml"))
        with pytest.raises(EngineError):
            validator.ruleset_for(validator.manifest("x"))

    def test_add_ruleset_bypasses_resolver(self):
        validator = ConfigValidator()
        ruleset = load_rules("config_name: k\nfile_context: [f]\n")
        validator.add_ruleset(
            Manifest(entity="e", cvl_file="inline", config_search_paths=["/"]),
            ruleset,
        )
        fs = VirtualFilesystem()
        fs.write_file("/f", "k = v\n")
        report = validator.validate_entity(HostEntity("h", fs))
        assert report.counts()["total"] == 1

    def test_rule_count(self):
        assert _validator().rule_count() == 5

    def test_ruleset_cached(self):
        validator = _validator()
        manifest = validator.manifest("sshd")
        assert validator.ruleset_for(manifest) is validator.ruleset_for(manifest)

    def test_failed_run_stops_its_deadline_watchdog(self, monkeypatch):
        """A run that raises stops its watchdog thread too: left running,
        it would outlive the run and log a missed deadline later."""
        def unreadable(self, frame, search_paths):
            raise OSError("search paths unreadable")

        # Component presence lists the search paths outside the per-rule
        # protection, so the OSError ends the run.
        monkeypatch.setattr(Normalizer, "files_in_search_paths", unreadable)
        validator = ConfigValidator(resolver=RULES.__getitem__, deadline_s=30)
        validator.add_manifest_text(MANIFEST)
        with pytest.raises(OSError):
            validator.validate_entity(_host())
        assert "repro-deadline-watchdog" not in [
            thread.name for thread in threading.enumerate()]


class TestCrossEntityComposites:
    def test_composite_spans_two_frames(self):
        validator = _validator()
        sysctl_fs = VirtualFilesystem()
        sysctl_fs.write_file("/etc/sysctl.conf", "net.ipv4.ip_forward = 0\n")
        nginx_fs = VirtualFilesystem()
        nginx_fs.write_file("/etc/nginx/nginx.conf",
                            "http { server { listen 443; } }")
        report = validator.validate_entities(
            [HostEntity("sys-host", sysctl_fs), HostEntity("web-host", nginx_fs)]
        )
        composite = [r for r in report if r.rule.name == "cross_entity"][0]
        assert composite.verdict is Verdict.COMPLIANT

    def test_composite_evaluated_once_per_group(self):
        validator = _validator()
        report = validator.validate_entities([_host(), _host()])
        composites = [r for r in report if r.rule.name == "cross_entity"]
        assert len(composites) == 1

    def test_composite_fails_with_evidence(self):
        report = _validator().validate_entity(_host(forward="1"))
        composite = [r for r in report if r.rule.name == "cross_entity"][0]
        assert composite.verdict is Verdict.NONCOMPLIANT
        assert composite.message == "one bad"
        values = {e.location: e.value for e in composite.evidence}
        assert values["sysctl.net.ipv4.ip_forward"] == "false"


class TestReportRendering:
    def test_text_report(self):
        report = _validator().validate_entity(_host(root_login="yes"))
        text = render_text(report, verbose=True)
        assert "[FAIL] sshd: PermitRootLogin" in text
        assert "# 5 checks:" in text

    def test_only_failures(self):
        report = _validator().validate_entity(_host(root_login="yes"))
        text = render_text(report, only_failures=True)
        assert "[PASS]" not in text
        assert "[FAIL]" in text

    def test_json_report(self):
        report = _validator().validate_entity(_host())
        data = json.loads(render_json(report))
        assert data["summary"]["total"] == 5
        assert {r["rule"] for r in data["results"]} >= {"PermitRootLogin"}
        assert all("verdict" in r for r in data["results"])

    def test_render_single_result_with_action(self):
        report = _validator().validate_entity(_host(root_login="yes"))
        failing = report.failed()[0]
        failing.rule.suggested_action = "set PermitRootLogin no"
        rendered = render_result(failing, verbose=True)
        assert "action: set PermitRootLogin no" in rendered

    def test_summarize_by_entity(self):
        report = _validator().validate_entity(_host(root_login="yes"))
        summary = summarize_by_entity(report)
        assert summary["sshd"]["noncompliant"] == 1
        assert summary["sysctl"]["compliant"] == 1

    def test_report_selectors(self):
        report = _validator().validate_entity(_host(root_login="yes"))
        assert len(report.with_tag("#cis")) == 3
        assert report.by_severity("medium")
        assert report.errors() == []


class TestTiming:
    def test_durations_recorded(self):
        report = _validator().validate_entity(_host())
        timed = [r for r in report if r.rule.rule_type != "composite"]
        assert all(r.duration_s >= 0 for r in timed)
        assert any(r.duration_s > 0 for r in timed)

    def test_slowest_sorted_descending(self):
        report = _validator().validate_entity(_host())
        slowest = report.slowest(3)
        durations = [r.duration_s for r in slowest]
        assert durations == sorted(durations, reverse=True)
