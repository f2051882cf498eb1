"""Tests for the per-rule-type evaluators."""

import pytest

from repro.fs import VirtualFilesystem
from repro.crawler import Crawler, HostEntity
from repro.cvl import Manifest, build_rule
from repro.engine import Outcome, Verdict
from repro.engine.evaluators import (
    evaluate_path,
    evaluate_schema,
    evaluate_script,
    evaluate_tree,
)
from repro.engine.normalizer import Normalizer


def _frame(**files):
    fs = VirtualFilesystem()
    for path, content in files.items():
        fs.write_file("/" + path.replace("__", "/"), content)
    return Crawler().crawl(HostEntity("test-host", fs), features=("files",))


def _manifest(entity="sshd", paths=("/etc/ssh",), **kwargs):
    return Manifest(
        entity=entity, cvl_file="x.yaml", config_search_paths=list(paths),
        **kwargs,
    )


def _tree_rule(**overrides):
    mapping = {
        "config_name": "PermitRootLogin",
        "config_path": [""],
        "file_context": ["sshd_config"],
        "preferred_value": ["no"],
        "preferred_value_match": "exact,all",
        "not_present_description": "missing",
        "not_matched_preferred_value_description": "bad value",
        "matched_description": "ok",
    }
    mapping.update(overrides)
    return build_rule(mapping)


class TestTreeEvaluator:
    def test_compliant(self):
        frame = _frame(etc__ssh__sshd_config="PermitRootLogin no\n")
        result = evaluate_tree(_tree_rule(), frame, _manifest(), Normalizer())
        assert result.verdict is Verdict.COMPLIANT
        assert result.message == "ok"
        assert result.evidence[0].value == "no"

    def test_noncompliant_value(self):
        frame = _frame(etc__ssh__sshd_config="PermitRootLogin yes\n")
        result = evaluate_tree(_tree_rule(), frame, _manifest(), Normalizer())
        assert result.verdict is Verdict.NONCOMPLIANT
        assert result.outcome is Outcome.NOT_MATCHED_PREFERRED
        assert result.message == "bad value"

    def test_not_present_defaults_to_fail(self):
        frame = _frame(etc__ssh__sshd_config="Port 22\n")
        result = evaluate_tree(_tree_rule(), frame, _manifest(), Normalizer())
        assert result.verdict is Verdict.NONCOMPLIANT
        assert result.outcome is Outcome.NOT_PRESENT
        assert result.message == "missing"

    def test_not_present_pass(self):
        frame = _frame(etc__ssh__sshd_config="Port 22\n")
        rule = _tree_rule(not_present_pass=True)
        result = evaluate_tree(rule, frame, _manifest(), Normalizer())
        assert result.verdict is Verdict.COMPLIANT

    def test_non_preferred_beats_preferred(self):
        frame = _frame(etc__nginx__nginx_conf="")
        frame = _frame(
            etc__ssh__sshd_config="Ciphers aes256-cbc,aes256-gcm\n"
        )
        rule = build_rule({
            "config_name": "Ciphers",
            "file_context": ["sshd_config"],
            "preferred_value": ["aes256-gcm"],
            "preferred_value_match": "substr,any",
            "non_preferred_value": ["-cbc"],
            "non_preferred_value_match": "substr,any",
        })
        result = evaluate_tree(rule, frame, _manifest(), Normalizer())
        assert result.outcome is Outcome.MATCHED_NON_PREFERRED

    def test_multiple_occurrences_all_must_comply(self):
        frame = _frame(
            etc__nginx__nginx_conf=(
                "http { server { autoindex off; } server { autoindex on; } }"
            )
        )
        rule = build_rule({
            "config_name": "autoindex",
            "config_path": ["http/server"],
            "file_context": ["nginx_conf"],
            "preferred_value": ["off"],
            "preferred_value_match": "exact,all",
            "lens": "nginx",
        })
        result = evaluate_tree(
            rule, frame, _manifest("nginx", ("/etc/nginx",)), Normalizer()
        )
        assert result.verdict is Verdict.NONCOMPLIANT
        assert len(result.evidence) == 2

    def test_first_match_only_ignores_later_occurrences(self):
        frame = _frame(
            etc__ssh__sshd_config="PermitRootLogin no\nPermitRootLogin yes\n"
        )
        rule = _tree_rule(first_match_only=True)
        result = evaluate_tree(rule, frame, _manifest(), Normalizer())
        assert result.verdict is Verdict.COMPLIANT

    def test_config_path_alternatives_union(self):
        frame = _frame(
            etc__nginx__nginx_conf="server { listen 80; }"
        )
        rule = build_rule({
            "config_name": "listen",
            "config_path": ["http/server", "server"],
            "file_context": ["nginx_conf"],
            "lens": "nginx",
        })
        result = evaluate_tree(
            rule, frame, _manifest("nginx", ("/etc/nginx",)), Normalizer()
        )
        assert result.verdict is Verdict.COMPLIANT  # presence-only rule

    def test_require_other_configs_missing_is_not_applicable(self):
        frame = _frame(
            etc__nginx__nginx_conf="server { ssl_protocols TLSv1.2; }"
        )
        rule = build_rule({
            "config_name": "ssl_protocols",
            "config_path": ["server"],
            "file_context": ["nginx_conf"],
            "require_other_configs": ["listen", "ssl_certificate"],
            "preferred_value": ["TLSv1.2"],
            "lens": "nginx",
        })
        result = evaluate_tree(
            rule, frame, _manifest("nginx", ("/etc/nginx",)), Normalizer()
        )
        assert result.verdict is Verdict.NOT_APPLICABLE
        assert result.outcome is Outcome.MISSING_DEPENDENCY

    def test_value_separator_splits_before_matching(self):
        frame = _frame(etc__ssh__sshd_config="Protocol 2,1\n")
        rule = build_rule({
            "config_name": "Protocol",
            "file_context": ["sshd_config"],
            "preferred_value": ["2"],
            "preferred_value_match": "exact,all",
            "value_separator": ",",
        })
        result = evaluate_tree(rule, frame, _manifest(), Normalizer())
        assert result.verdict is Verdict.NONCOMPLIANT  # the "1" item fails

    def test_case_insensitive_matching(self):
        frame = _frame(etc__apache2__apache2_conf="TraceEnable OFF\n")
        rule = build_rule({
            "config_name": "TraceEnable",
            "file_context": ["apache2_conf"],
            "preferred_value": ["off"],
            "preferred_value_match": "exact,all",
            "case_insensitive": True,
            "lens": "apache",
        })
        result = evaluate_tree(
            rule, frame, _manifest("apache", ("/etc/apache2",)), Normalizer()
        )
        assert result.verdict is Verdict.COMPLIANT

    def test_path_expression_config_name(self):
        frame = _frame(
            etc__modprobe_d__cis_conf="install cramfs /bin/true\n"
        )
        rule = build_rule({
            "config_name": "install[.='cramfs']/command",
            "rule_type": "tree",
            "file_context": ["cis_conf"],
            "preferred_value": ["/bin/true", "/bin/false"],
            "preferred_value_match": "exact,any",
            "lens": "modprobe",
        })
        result = evaluate_tree(
            rule, frame, _manifest("modprobe", ("/etc/modprobe_d",)), Normalizer()
        )
        assert result.verdict is Verdict.COMPLIANT

    def test_unparseable_file_skipped_still_finds_others(self):
        frame = _frame(
            etc__ssh__broken="install\x00garbage {{{",
            etc__ssh__sshd_config="PermitRootLogin no\n",
        )
        result = evaluate_tree(
            _tree_rule(file_context=["sshd_config", "broken"]),
            frame,
            _manifest(),
            Normalizer(),
        )
        assert result.verdict is Verdict.COMPLIANT


class TestSchemaEvaluator:
    def _rule(self, **overrides):
        mapping = {
            "config_schema_name": "check_tmp_separate_partition",
            "query_constraints": "dir = ?",
            "query_constraints_value": ["/tmp"],
            "query_columns": "*",
            "schema_parser": "fstab",
            "non_preferred_value": [""],
            "non_preferred_value_match": "exact,all",
            "not_matched_preferred_value_description": "/tmp not separate",
            "matched_description": "/tmp separate",
        }
        mapping.update(overrides)
        return build_rule(mapping)

    def test_paper_listing3_pass(self):
        frame = _frame(etc__fstab="/dev/sda2 /tmp ext4 nodev 0 2\n")
        result = evaluate_schema(
            self._rule(), frame, _manifest("fstab", ("/etc/fstab",)), Normalizer()
        )
        assert result.verdict is Verdict.COMPLIANT
        assert result.message == "/tmp separate"

    def test_paper_listing3_fail_when_absent(self):
        frame = _frame(etc__fstab="/dev/sda1 / ext4 defaults 0 1\n")
        result = evaluate_schema(
            self._rule(), frame, _manifest("fstab", ("/etc/fstab",)), Normalizer()
        )
        assert result.verdict is Verdict.NONCOMPLIANT
        assert result.message == "/tmp not separate"

    def test_option_projection_with_preferred(self):
        frame = _frame(etc__fstab="/dev/sda2 /tmp ext4 nodev,nosuid 0 2\n")
        rule = self._rule(
            query_columns="options",
            preferred_value=["nodev"],
            preferred_value_match="substr,all",
        )
        result = evaluate_schema(
            rule, frame, _manifest("fstab", ("/etc/fstab",)), Normalizer()
        )
        assert result.verdict is Verdict.COMPLIANT

    def test_missing_file_is_not_present(self):
        frame = _frame(etc__hostname="x\n")
        result = evaluate_schema(
            self._rule(), frame, _manifest("fstab", ("/etc/fstab",)), Normalizer()
        )
        assert result.outcome is Outcome.NOT_PRESENT

    def test_bad_query_is_error(self):
        frame = _frame(etc__fstab="/dev/sda1 / ext4 defaults 0 1\n")
        rule = self._rule(query_constraints="nonexistent_column = ?")
        result = evaluate_schema(
            rule, frame, _manifest("fstab", ("/etc/fstab",)), Normalizer()
        )
        assert result.verdict is Verdict.ERROR

    def test_query_compiled_once_per_run(self, monkeypatch):
        from repro.cvl import RuleSet
        from repro.engine.incremental import ruleset_digest
        from repro.schema import query as query_module

        parsed = []
        parse = query_module.parse_query
        monkeypatch.setattr(query_module, "parse_query",
                            lambda text: parsed.append(text) or parse(text))
        frame = _frame(etc__fstab="/dev/sda2 /tmp ext4 nodev 0 2\n")
        manifest = _manifest("fstab", ("/etc/fstab",))
        rule = self._rule()
        digest = ruleset_digest(manifest, RuleSet("fstab", [rule]))
        before = dict(vars(rule))
        for _run in range(2):
            normalizer = Normalizer()
            results = [evaluate_schema(rule, frame, manifest, normalizer)
                       for _ in range(3)]
            assert [r.verdict for r in results] == [Verdict.COMPLIANT] * 3
        # Once per run: nothing is kept on the rule, which the plan cache
        # may share with later validators, nor in its digest.
        assert parsed == ["dir = ?"] * 2
        assert vars(rule) == before
        assert ruleset_digest(manifest, RuleSet("fstab", [rule])) == digest

    def test_malformed_query_errors_on_every_evaluation(self):
        from repro.engine import ConfigValidator

        pack = ("config_schema_name: bad_query\n"
                "query_constraints: \"dir = = ?\"\n"
                "query_constraints_value: [/tmp]\n"
                "schema_parser: fstab\n")
        validator = ConfigValidator(resolver={"fstab.yaml": pack}.__getitem__)
        validator.add_manifest_text(
            "fstab: {config_search_paths: [/etc/fstab], cvl_file: fstab.yaml}\n")
        frames = [_frame(etc__fstab="/dev/sda2 /tmp ext4 nodev 0 2\n")
                  for _ in range(2)]
        # Two evaluations in each of two runs.
        results = [result for _run in range(2)
                   for result in validator.validate_frames(frames)]
        assert [r.verdict for r in results] == [Verdict.ERROR] * 4
        assert "Traceback" in results[0].detail
        assert {(r.message, r.evidence[0].location, r.detail)
                for r in results} == {(results[0].message,
                                       "exception:QueryError",
                                       results[0].detail)}

    def test_multirow_projection_joined_with_colon(self):
        frame = _frame(etc__passwd="root:x:0:0:r:/root:/bin/bash\n")
        rule = build_rule({
            "config_schema_name": "root_shell",
            "query_constraints": "user = ?",
            "query_constraints_value": ["root"],
            "query_columns": "user, shell",
            "schema_parser": "passwd",
            "preferred_value": ["root:/bin/bash"],
            "preferred_value_match": "exact,all",
        })
        result = evaluate_schema(
            rule, frame, _manifest("passwd", ("/etc/passwd",)), Normalizer()
        )
        assert result.verdict is Verdict.COMPLIANT


class TestPathEvaluator:
    def test_paper_listing4_pass(self):
        fs = VirtualFilesystem()
        fs.write_file("/etc/mysql/my.cnf", "", mode=0o644, uid=0, gid=0)
        frame = Crawler().crawl(HostEntity("h", fs), features=("files",))
        rule = build_rule({
            "path_name": "/etc/mysql/my.cnf",
            "ownership": "0:0",
            "permission": 644,
        })
        result = evaluate_path(rule, frame, _manifest("mysql"))
        assert result.verdict is Verdict.COMPLIANT

    def test_wrong_permission(self):
        fs = VirtualFilesystem()
        fs.write_file("/etc/mysql/my.cnf", "", mode=0o666)
        frame = Crawler().crawl(HostEntity("h", fs), features=("files",))
        rule = build_rule({"path_name": "/etc/mysql/my.cnf", "permission": 644})
        result = evaluate_path(rule, frame, _manifest("mysql"))
        assert result.verdict is Verdict.NONCOMPLIANT
        assert result.outcome is Outcome.METADATA_MISMATCH
        assert "666" in result.detail

    def test_permission_mask(self):
        fs = VirtualFilesystem()
        fs.write_file("/f", "", mode=0o600)
        frame = Crawler().crawl(HostEntity("h", fs), features=("files",))
        rule = build_rule({"path_name": "/f", "permission_mask": 644})
        assert evaluate_path(rule, frame, _manifest()).passed
        fs.chmod("/f", 0o664)
        frame = Crawler().crawl(HostEntity("h", fs), features=("files",))
        assert not evaluate_path(rule, frame, _manifest()).passed

    def test_symbolic_ownership_accepted(self):
        fs = VirtualFilesystem()
        fs.write_file("/s", "", uid=999, gid=999, owner="app", group="app")
        frame = Crawler().crawl(HostEntity("h", fs), features=("files",))
        rule = build_rule({"path_name": "/s", "ownership": "app:app"})
        assert evaluate_path(rule, frame, _manifest()).passed

    def test_wrong_ownership(self):
        fs = VirtualFilesystem()
        fs.write_file("/s", "", uid=1000, gid=1000)
        frame = Crawler().crawl(HostEntity("h", fs), features=("files",))
        rule = build_rule({"path_name": "/s", "ownership": "0:0"})
        assert not evaluate_path(rule, frame, _manifest()).passed

    def test_missing_path_fails(self):
        frame = _frame(etc__hostname="x")
        rule = build_rule({"path_name": "/etc/shadow", "permission": 640})
        result = evaluate_path(rule, frame, _manifest())
        assert result.outcome is Outcome.NOT_PRESENT
        assert result.verdict is Verdict.NONCOMPLIANT

    def test_exists_false_forbids_presence(self):
        frame = _frame(etc__hostname="x", root__dangerous="")
        rule = build_rule({"path_name": "/root/dangerous", "exists": False})
        result = evaluate_path(rule, frame, _manifest())
        assert result.verdict is Verdict.NONCOMPLIANT
        assert result.outcome is Outcome.PRESENT_UNEXPECTEDLY

    def test_exists_false_passes_when_absent(self):
        frame = _frame(etc__hostname="x")
        rule = build_rule({"path_name": "/root/dangerous", "exists": False})
        assert evaluate_path(rule, frame, _manifest()).passed


class TestScriptEvaluator:
    def _frame_with_runtime(self, namespace, mapping):
        frame = _frame(etc__hostname="x")
        frame.runtime[namespace] = mapping
        return frame

    def _rule(self, script, **overrides):
        mapping = {"script_name": "check", "script": script}
        mapping.update(overrides)
        return build_rule(mapping)

    def test_preferred_match(self):
        frame = self._frame_with_runtime("docker", {"HostConfig.Privileged": "false"})
        rule = self._rule("docker HostConfig.Privileged",
                          preferred_value=["false"])
        result = evaluate_script(rule, frame, _manifest("docker"))
        assert result.passed
        assert result.evidence[0].location == "docker:HostConfig.Privileged"

    def test_non_preferred_match(self):
        frame = self._frame_with_runtime("docker", {"HostConfig.NetworkMode": "host"})
        rule = self._rule("docker HostConfig.NetworkMode",
                          non_preferred_value=["host"])
        assert not evaluate_script(rule, frame, _manifest("docker")).passed

    def test_missing_namespace_not_applicable(self):
        frame = _frame(etc__hostname="x")
        rule = self._rule("docker HostConfig.Privileged",
                          preferred_value=["false"])
        result = evaluate_script(rule, frame, _manifest("docker"))
        assert result.verdict is Verdict.NOT_APPLICABLE
        assert result.outcome is Outcome.PLUGIN_UNAVAILABLE

    def test_missing_key_not_present(self):
        frame = self._frame_with_runtime("docker", {})
        rule = self._rule("docker Some.Key", preferred_value=["x"])
        result = evaluate_script(rule, frame, _manifest("docker"))
        assert result.outcome is Outcome.NOT_PRESENT
        assert result.verdict is Verdict.NONCOMPLIANT

    def test_missing_key_with_not_present_pass(self):
        frame = self._frame_with_runtime("docker", {})
        rule = self._rule("docker Mounts.0.Source",
                          non_preferred_value=["/var/run/docker.sock"],
                          not_present_pass=True)
        assert evaluate_script(rule, frame, _manifest("docker")).passed
