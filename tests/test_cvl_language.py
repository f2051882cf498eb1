"""Tests for CVL keywords, match specs, the loader, and manifests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    CVLKeywordError,
    CVLSyntaxError,
    InheritanceError,
    ManifestError,
)
from repro.cvl import (
    ALL_KEYWORDS,
    COMMON_KEYWORDS,
    KEYWORDS_BY_TYPE,
    MatchSpec,
    PathRule,
    SchemaRule,
    ScriptRule,
    TreeRule,
    allowed_keywords,
    build_rule,
    infer_rule_type,
    load_manifests,
    load_rules,
    parse_match_spec,
)


class TestKeywordInventory:
    def test_total_is_46(self):
        assert len(ALL_KEYWORDS) == 46

    def test_group_sizes_match_paper(self):
        assert len(COMMON_KEYWORDS) == 19
        assert len(KEYWORDS_BY_TYPE["tree"]) == 9
        assert len(KEYWORDS_BY_TYPE["schema"]) == 6
        assert len(KEYWORDS_BY_TYPE["path"]) == 6
        assert len(KEYWORDS_BY_TYPE["script"]) == 3
        assert len(KEYWORDS_BY_TYPE["composite"]) == 3

    def test_groups_are_disjoint(self):
        seen = set(COMMON_KEYWORDS)
        for group in KEYWORDS_BY_TYPE.values():
            assert not (seen & group)
            seen |= group

    def test_infer_rule_type(self):
        assert infer_rule_type({"config_name": "x"}) == "tree"
        assert infer_rule_type({"config_schema_name": "x"}) == "schema"
        assert infer_rule_type({"path_name": "x"}) == "path"
        assert infer_rule_type({"script_name": "x"}) == "script"
        assert infer_rule_type({"composite_rule_name": "x"}) == "composite"
        assert infer_rule_type({"tags": []}) is None
        assert infer_rule_type({"config_name": "a", "path_name": "b"}) is None

    def test_allowed_keywords_union(self):
        assert "config_path" in allowed_keywords("tree")
        assert "config_path" not in allowed_keywords("schema")
        assert "tags" in allowed_keywords("schema")


class TestMatchSpec:
    def test_paper_format_with_stray_space(self):
        spec = parse_match_spec("substr ,all")
        assert spec == MatchSpec("substr", "all")

    def test_default_quantifier_any(self):
        assert parse_match_spec("exact") == MatchSpec("exact", "any")

    def test_none_uses_default(self):
        assert parse_match_spec(None, MatchSpec("regex", "all")) == MatchSpec(
            "regex", "all"
        )

    def test_bad_mode_rejected(self):
        with pytest.raises(CVLKeywordError):
            parse_match_spec("fuzzy,any")

    def test_bad_quantifier_rejected(self):
        with pytest.raises(CVLKeywordError):
            parse_match_spec("exact,most")

    def test_three_parts_rejected(self):
        with pytest.raises(CVLKeywordError):
            parse_match_spec("exact,any,really")

    def test_exact_any(self):
        spec = MatchSpec("exact", "any")
        assert spec.matches("no", ["no", "yes"])
        assert not spec.matches("maybe", ["no", "yes"])

    def test_substr_all(self):
        spec = MatchSpec("substr", "all")
        assert spec.matches("TLSv1.2 TLSv1.3", ["TLSv1.2", "TLSv1.3"])
        assert not spec.matches("TLSv1.2", ["TLSv1.2", "TLSv1.3"])

    def test_substr_any(self):
        spec = MatchSpec("substr", "any")
        assert spec.matches("SSLv3 TLSv1.2", ["SSLv2", "SSLv3"])

    def test_regex(self):
        spec = MatchSpec("regex", "all")
        assert spec.matches("3", ["^[1-4]$"])
        assert not spec.matches("6", ["^[1-4]$"])

    def test_case_insensitive(self):
        spec = MatchSpec("exact", "any")
        assert spec.matches("Off", ["off"], case_insensitive=True)
        assert not spec.matches("Off", ["off"])

    def test_empty_rule_values_never_match(self):
        assert not MatchSpec("exact", "any").matches("x", [])

    def test_bad_regex_raises(self):
        with pytest.raises(CVLKeywordError):
            MatchSpec("regex", "any").matches("x", ["("])

    @given(value=st.text(max_size=20), values=st.lists(st.text(max_size=5), max_size=4))
    def test_all_implies_any(self, value, values):
        spec_all = MatchSpec("substr", "all")
        spec_any = MatchSpec("substr", "any")
        if values and spec_all.matches(value, values):
            assert spec_any.matches(value, values)


_LISTING2 = """
config_name: ssl_protocols
config_path: ["server", "http/server"]
config_description: "Enables the specified SSL protocols."
preferred_value: [ "TLSv1.2", "TLSv1.3" ]
non_preferred_value: [ "SSLv2", "SSLv3", "TLSv1", "TLSv1.1" ]
non_preferred_value_match: substr ,any
preferred_value_match: substr ,all
not_present_description: "ssl_protocols is not present."
not_matched_preferred_value_description: "Non -recommended TLS ver."
matched_description: "ssl_protocols key is set to TLS v1.2/1.3"
tags: ["#security", "#ssl", "#owasp"]
require_other_configs: [ listen , ssl_certificate , ssl_certificate_key ]
file_context: ["nginx.conf", "sites -enabled"]
"""


class TestLoader:
    def test_paper_listing2_tree_rule(self):
        ruleset = load_rules(_LISTING2, "nginx.yaml", entity="nginx")
        rule = ruleset.rules[0]
        assert isinstance(rule, TreeRule)
        assert rule.name == "ssl_protocols"
        assert rule.config_path == ["server", "http/server"]
        assert rule.preferred_match == MatchSpec("substr", "all")
        assert rule.non_preferred_match == MatchSpec("substr", "any")
        assert rule.require_other_configs == [
            "listen", "ssl_certificate", "ssl_certificate_key",
        ]
        assert rule.has_tag("security")
        assert rule.has_tag("#OWASP")

    def test_paper_listing3_schema_rule(self):
        text = """
config_schema_name: check_tmp_separate_partition
config_schema_description: "Check if /tmp is on a separate partition"
query_constraints: "dir = ?"
query_constraints_value: ["/tmp"]
query_columns: "*"
non_preferred_value: [""]
non_preferred_value_match: exact ,all
not_matched_preferred_value_description: "/tmp not on sep. partition"
matched_description: "/tmp is on a separate partition"
tags: ["#cis", "#cisubuntu14.04_2.1"]
"""
        rule = load_rules(text).rules[0]
        assert isinstance(rule, SchemaRule)
        assert rule.query_constraints == "dir = ?"
        assert rule.query_constraints_value == ["/tmp"]
        assert rule.non_preferred_value == [""]

    def test_paper_listing4_path_rule(self):
        text = """
path_name: /etc/mysql/my.cnf
path_description: "Permissions and ownership for mysql config file"
ownership: "0:0"
permission: 644
tags: [ "#owasp" ]
"""
        rule = load_rules(text).rules[0]
        assert isinstance(rule, PathRule)
        assert rule.permission == 0o644
        assert rule.ownership == "0:0"

    def test_permission_int_read_as_octal(self):
        rule = build_rule({"path_name": "/x", "permission": 600})
        assert rule.permission == 0o600

    def test_bad_permission_rejected(self):
        with pytest.raises(CVLKeywordError):
            build_rule({"path_name": "/x", "permission": "rwxr"})

    def test_script_rule_needs_plugin_and_key(self):
        rule = build_rule(
            {"script_name": "s", "script": "docker HostConfig.Privileged"}
        )
        assert isinstance(rule, ScriptRule)
        assert rule.plugin_and_key() == ("docker", "HostConfig.Privileged")
        with pytest.raises(CVLKeywordError):
            build_rule({"script_name": "s", "script": "justplugin"})

    def test_composite_expression_validated_at_load(self):
        with pytest.raises(Exception):
            build_rule(
                {"composite_rule_name": "c", "composite_rule": "a.b &&"}
            )

    def test_unknown_keyword_rejected_with_suggestion(self):
        with pytest.raises(CVLKeywordError) as exc:
            build_rule({"config_name": "x", "preferred_valu": ["1"]})
        assert "preferred_value" in str(exc.value)

    def test_type_specific_keyword_on_wrong_type_rejected(self):
        with pytest.raises(CVLKeywordError):
            build_rule({"path_name": "/x", "config_path": ["a"]})

    def test_missing_name_rejected(self):
        with pytest.raises(CVLKeywordError):
            build_rule({"rule_type": "tree", "preferred_value": ["x"]})

    def test_bad_severity_rejected(self):
        with pytest.raises(CVLKeywordError):
            build_rule({"config_name": "x", "severity": "catastrophic"})

    def test_invalid_yaml_rejected(self):
        with pytest.raises(CVLSyntaxError):
            load_rules("config_name: [unclosed")

    def test_non_mapping_document_rejected(self):
        with pytest.raises(CVLSyntaxError):
            load_rules("- 1\n- [2]\n")

    def test_list_document_of_rules(self):
        text = "- config_name: a\n- config_name: b\n"
        ruleset = load_rules(text)
        assert [rule.name for rule in ruleset.rules] == ["a", "b"]

    def test_rules_key_document(self):
        text = "entity_name: nginx\nrules:\n  - config_name: a\n"
        ruleset = load_rules(text)
        assert ruleset.entity == "nginx"
        assert ruleset.rules[0].name == "a"

    def test_booleans_in_values_normalized(self):
        rule = build_rule({"config_name": "x", "preferred_value": [True]})
        assert rule.preferred_value == ["true"]

    def test_numbers_in_values_normalized(self):
        rule = build_rule({"config_name": "x", "preferred_value": [0, 2]})
        assert rule.preferred_value == ["0", "2"]


class TestCvlNumbers:
    """CVL scalars have no leading-zero octal and no base-60 numbers, so
    the conventional spellings of modes, owners and umasks load as
    written (YAML 1.1 read ``0644`` as 420 and ``33:33`` as 2013)."""

    @pytest.mark.parametrize("spelling,bits", [
        ("0644", 0o644), ("644", 0o644), ("0640", 0o640), ("0600", 0o600),
        ("0755", 0o755), ("'0644'", 0o644), ("0o777", 0o777),
    ], ids=["0644", "644", "0640", "0600", "0755", "quoted-0644", "0o777"])
    def test_permission_spellings(self, spelling, bits):
        rule = load_rules(f"path_name: /x\npermission: {spelling}\n").rules[0]
        assert rule.permission == bits

    @pytest.mark.parametrize("keyword", ["permission", "permission_mask"])
    @pytest.mark.parametrize("spelling", [
        "0x1ff", "0b111", "1_000", "'1_000'", "0o7_77", "+644",
    ])
    def test_non_octal_permission_rejected(self, keyword, spelling):
        """YAML reads these as ints (or Python's ``int(..., 8)`` takes
        them), but none is a string of octal digits."""
        with pytest.raises(CVLKeywordError, match="must be octal digits"):
            load_rules(f"path_name: /x\n{keyword}: {spelling}\n")

    def test_permission_mask_with_leading_zero(self):
        rule = load_rules("path_name: /x\npermission_mask: 0640\n").rules[0]
        assert rule.permission_mask == 0o640

    def test_unquoted_uid_gid_ownership(self):
        rule = load_rules("path_name: /x\nownership: 33:33\n").rules[0]
        assert rule.ownership == "33:33"

    def test_unquoted_root_ownership(self):
        rule = load_rules("path_name: /x\nownership: 0:0\n").rules[0]
        assert rule.ownership == "0:0"

    def test_zero_ownership_is_root_shorthand(self):
        rule = load_rules("path_name: /x\nownership: 0\n").rules[0]
        assert rule.ownership == "0:0"

    def test_leading_zero_preferred_value_kept(self):
        rule = load_rules("config_name: UMask\npreferred_value: 027\n").rules[0]
        assert rule.preferred_value == ["027"]

    def test_other_yaml_numbers_unchanged(self):
        rule = load_rules(
            "config_name: x\npreferred_value: [10, -3, 0, 0x1f, 1_000, 1.5]\n"
        ).rules[0]
        assert rule.preferred_value == ["10", "-3", "0", "31", "1000", "1.5"]

    def test_manifest_keys_load_as_written(self):
        manifest = load_manifests("0644: {cvl_file: x.yaml}\n")[0]
        assert manifest.entity == "0644"


class TestInheritance:
    PARENT = """
config_name: PermitRootLogin
preferred_value: ["no"]
tags: ["#cis"]
---
config_name: X11Forwarding
preferred_value: ["no"]
"""

    def test_child_overrides_parent_value(self):
        child = """
parent_cvl_file: parent.yaml
rules:
  - config_name: PermitRootLogin
    preferred_value: ["no", "without-password"]
"""
        ruleset = load_rules(
            child, resolver=lambda path: self.PARENT
        )
        rule = ruleset.by_name("PermitRootLogin")
        assert rule.preferred_value == ["no", "without-password"]
        assert rule.has_tag("cis")  # merged key-by-key, tags preserved
        assert ruleset.by_name("X11Forwarding") is not None

    def test_child_adds_new_rules(self):
        child = """
parent_cvl_file: parent.yaml
rules:
  - config_name: Banner
    preferred_value: ["/etc/issue.net"]
"""
        ruleset = load_rules(child, resolver=lambda path: self.PARENT)
        assert len(ruleset.rules) == 3

    def test_disabled_rules(self):
        child = """
parent_cvl_file: parent.yaml
disabled_rules: ["X11Forwarding"]
rules: []
"""
        ruleset = load_rules(child, resolver=lambda path: self.PARENT)
        assert not ruleset.by_name("X11Forwarding").enabled
        assert ruleset.by_name("PermitRootLogin").enabled

    def test_disabling_unknown_rule_rejected(self):
        child = (
            "parent_cvl_file: parent.yaml\ndisabled_rules: ['Ghost']\nrules: []\n"
        )
        with pytest.raises(InheritanceError):
            load_rules(child, resolver=lambda path: self.PARENT)

    def test_parent_without_resolver_rejected(self):
        with pytest.raises(InheritanceError):
            load_rules("parent_cvl_file: p.yaml\nrules: []\n")

    def test_cyclic_parents_rejected(self):
        cyclic = "parent_cvl_file: self.yaml\nrules: []\n"
        with pytest.raises(InheritanceError):
            load_rules(cyclic, resolver=lambda path: cyclic)

    def test_grandparent_chain(self):
        documents = {
            "base.yaml": "config_name: A\npreferred_value: ['1']\n",
            "mid.yaml": (
                "parent_cvl_file: base.yaml\nrules:\n"
                "  - config_name: B\n    preferred_value: ['2']\n"
            ),
        }
        child = (
            "parent_cvl_file: mid.yaml\nrules:\n"
            "  - config_name: A\n    preferred_value: ['9']\n"
        )
        ruleset = load_rules(child, resolver=documents.__getitem__)
        assert ruleset.by_name("A").preferred_value == ["9"]
        assert ruleset.by_name("B").preferred_value == ["2"]


class TestManifests:
    def test_paper_listing5(self):
        text = """
nginx:
  enabled: True
  config_search_paths:
    - /etc/nginx
  cvl_file: "component_configs/nginx.yaml"
"""
        manifest = load_manifests(text)[0]
        assert manifest.entity == "nginx"
        assert manifest.enabled
        assert manifest.config_search_paths == ["/etc/nginx"]
        assert manifest.cvl_file == "component_configs/nginx.yaml"

    def test_multiple_entities_in_one_document(self):
        manifests = load_manifests(
            "a: {cvl_file: a.yaml}\nb: {cvl_file: b.yaml}\n"
        )
        assert [m.entity for m in manifests] == ["a", "b"]

    def test_entity_kinds(self):
        manifest = load_manifests(
            "d: {cvl_file: d.yaml, entity_kinds: [container, image]}"
        )[0]
        assert manifest.applies_to_kind("container")
        assert not manifest.applies_to_kind("host")

    def test_no_kinds_applies_everywhere(self):
        manifest = load_manifests("d: {cvl_file: d.yaml}")[0]
        assert manifest.applies_to_kind("host")
        assert manifest.applies_to_kind("cloud")

    def test_invalid_kind_rejected(self):
        with pytest.raises(ManifestError):
            load_manifests("d: {cvl_file: d.yaml, entity_kinds: [vm]}")

    def test_missing_cvl_file_rejected(self):
        with pytest.raises(ManifestError):
            load_manifests("d: {enabled: True}")

    def test_unknown_key_rejected(self):
        with pytest.raises(ManifestError):
            load_manifests("d: {cvl_file: x, frequency: daily}")

    def test_non_boolean_enabled_rejected(self):
        with pytest.raises(ManifestError):
            load_manifests("d: {cvl_file: x, enabled: 'yes'}")

    def test_string_search_path_promoted_to_list(self):
        manifest = load_manifests(
            "d: {cvl_file: x, config_search_paths: /etc/d}"
        )[0]
        assert manifest.config_search_paths == ["/etc/d"]
