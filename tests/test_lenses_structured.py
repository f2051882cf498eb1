"""Tests for the structured lenses: nginx, apache, ini, xml, hadoop, json,
yaml, and the registry."""

import pytest
import yaml
from hypothesis import given, strategies as st

from repro import yamlio
from repro.errors import LensError
from repro.augtree.lenses import (
    ApacheLens,
    HadoopLens,
    IniLens,
    JsonLens,
    NginxLens,
    XmlLens,
    YamlLens,
    default_registry,
    lens_for_file,
)


class TestNginxLens:
    def test_simple_directive(self):
        tree = NginxLens().parse("worker_processes auto;\n")
        assert tree.value_of("worker_processes") == "auto"

    def test_nested_blocks(self):
        tree = NginxLens().parse(
            "http { server { listen 443 ssl; } server { listen 80; } }"
        )
        assert [n.value for n in tree.match("http/server/listen")] == [
            "443 ssl",
            "80",
        ]

    def test_block_with_arguments(self):
        tree = NginxLens().parse("http { location /api { proxy_pass http://b; } }")
        location = tree.first("http/location")
        assert location.value == "/api"
        assert location.get("proxy_pass") == "http://b"

    def test_valueless_directive(self):
        tree = NginxLens().parse("events { }")
        assert tree.first("events").value is None

    def test_quoted_arguments(self):
        tree = NginxLens().parse('add_header X-Test "a; b { }";\n')
        assert tree.value_of("add_header") == "X-Test a; b { }"

    @pytest.mark.parametrize("text,value", [
        ('proxy_set_header Accept-Encoding "";', "Accept-Encoding "),
        ('a "}";', "}"),
        ("a ';' '{';", "; {"),
        ('a "";', ""),
    ])
    def test_quoted_punctuation_is_a_word(self, text, value):
        tree = NginxLens().parse("http { " + text + " server_tokens off; }")
        assert tree.first("http/*").value == value
        assert tree.value_of("http/server_tokens") == "off"

    def test_quoted_brace_opens_no_block(self):
        with pytest.raises(LensError) as exc:
            NginxLens().parse('a "{" }')
        assert str(exc.value) == "lens 'nginx': unexpected '}' after 'a' (line 1)"

    def test_comments_ignored(self):
        tree = NginxLens().parse("# server { bad }\nuser www-data; # inline\n")
        assert tree.size() == 1

    def test_missing_semicolon_rejected(self):
        with pytest.raises(LensError):
            NginxLens().parse("user www-data")

    def test_unbalanced_brace_rejected(self):
        with pytest.raises(LensError):
            NginxLens().parse("http { server {")

    def test_stray_close_rejected(self):
        with pytest.raises(LensError):
            NginxLens().parse("}")

    def test_unterminated_string_rejected(self):
        with pytest.raises(LensError):
            NginxLens().parse('user "www')

    @given(depth=st.integers(min_value=1, max_value=8))
    def test_deep_nesting_roundtrip(self, depth):
        text = ""
        for level in range(depth):
            text += f"level{level} {{\n"
        text += "leaf yes;\n" + "}\n" * depth
        tree = NginxLens().parse(text)
        path = "/".join(f"level{level}" for level in range(depth)) + "/leaf"
        assert tree.value_of(path) == "yes"


class TestApacheLens:
    def test_flat_directive(self):
        tree = ApacheLens().parse("ServerTokens Prod\n")
        assert tree.value_of("ServerTokens") == "Prod"

    def test_section_nesting(self):
        tree = ApacheLens().parse(
            "<Directory /var/www/>\n  Options -Indexes\n</Directory>\n"
        )
        directory = tree.first("Directory")
        assert directory.value == "/var/www/"
        assert directory.get("Options") == "-Indexes"

    def test_nested_sections(self):
        tree = ApacheLens().parse(
            "<VirtualHost *:443>\n<Directory />\nAllowOverride None\n"
            "</Directory>\n</VirtualHost>\n"
        )
        assert tree.value_of("VirtualHost/Directory/AllowOverride") == "None"

    def test_mismatched_close_rejected(self):
        with pytest.raises(LensError):
            ApacheLens().parse("<Directory />\n</VirtualHost>\n")

    def test_unclosed_section_rejected(self):
        with pytest.raises(LensError):
            ApacheLens().parse("<Directory />\nOptions None\n")

    def test_case_insensitive_close(self):
        tree = ApacheLens().parse("<ifmodule x>\nA b\n</IfModule>\n")
        assert tree.value_of("ifmodule/A") == "b"

    def test_quoted_args_unquoted(self):
        tree = ApacheLens().parse('DocumentRoot "/var/www/html"\n')
        assert tree.value_of("DocumentRoot") == "/var/www/html"


class TestIniLens:
    def test_sections_and_keys(self):
        tree = IniLens().parse("[mysqld]\nssl-ca = /etc/ca.pem\n")
        assert tree.value_of("mysqld/ssl-ca") == "/etc/ca.pem"

    def test_bare_flag(self):
        tree = IniLens().parse("[mysqld]\nskip-networking\n")
        node = tree.first("mysqld/skip-networking")
        assert node is not None and node.value is None

    def test_global_section_for_preamble_keys(self):
        tree = IniLens().parse("top = 1\n[s]\nk = 2\n")
        assert tree.value_of("(global)/top") == "1"

    def test_include_directive_preserved(self):
        tree = IniLens().parse("!includedir /etc/mysql/conf.d/\n")
        assert tree.value_of("!includedir") == "/etc/mysql/conf.d/"

    def test_repeated_sections(self):
        tree = IniLens().parse("[s]\nk = 1\n[s]\nk = 2\n")
        assert [n.value for n in tree.match("s/k")] == ["1", "2"]

    def test_malformed_header_rejected(self):
        with pytest.raises(LensError):
            IniLens().parse("[broken\n")

    def test_quoted_value(self):
        tree = IniLens().parse("[s]\nk = 'quoted'\n")
        assert tree.value_of("s/k") == "quoted"


class TestXmlAndHadoop:
    def test_generic_xml_tree(self):
        tree = XmlLens().parse("<a><b attr='1'>text</b></a>")
        assert tree.value_of("a/b") == "text"
        assert tree.value_of("a/b/@attr") == "1"

    def test_invalid_xml_rejected(self):
        with pytest.raises(LensError):
            XmlLens().parse("<a><b></a>")

    def test_namespace_stripped(self):
        tree = XmlLens().parse('<a xmlns="urn:x"><b>v</b></a>')
        assert tree.value_of("a/b") == "v"

    def test_hadoop_properties_flattened(self):
        tree = HadoopLens().parse(
            "<configuration><property>"
            "<name>dfs.permissions.enabled</name><value>true</value>"
            "</property></configuration>"
        )
        assert tree.value_of("dfs.permissions.enabled") == "true"

    def test_hadoop_final_flag(self):
        tree = HadoopLens().parse(
            "<configuration><property><name>k</name><value>v</value>"
            "<final>true</final></property></configuration>"
        )
        assert tree.value_of("k/final") == "true"

    def test_hadoop_property_without_name_rejected(self):
        with pytest.raises(LensError):
            HadoopLens().parse(
                "<configuration><property><value>v</value></property>"
                "</configuration>"
            )

    def test_hadoop_falls_back_on_non_configuration_root(self):
        tree = HadoopLens().parse("<other><x>1</x></other>")
        assert tree.value_of("other/x") == "1"


class TestJsonYaml:
    def test_json_scalars(self):
        tree = JsonLens().parse('{"icc": false, "log-driver": "syslog"}')
        assert tree.value_of("icc") == "false"
        assert tree.value_of("log-driver") == "syslog"

    def test_json_nested_and_lists(self):
        tree = JsonLens().parse('{"hosts": ["fd://", "tcp://0.0.0.0:2375"]}')
        assert [n.value for n in tree.match("hosts")] == [
            "fd://",
            "tcp://0.0.0.0:2375",
        ]

    def test_json_empty_document(self):
        assert JsonLens().parse("").size() == 0

    def test_json_invalid_rejected(self):
        with pytest.raises(LensError):
            JsonLens().parse("{nope}")

    def test_json_non_object_document(self):
        tree = JsonLens().parse("[1, 2]")
        assert [n.value for n in tree.match("(document)")] == ["1", "2"]

    def test_yaml_mapping(self):
        tree = YamlLens().parse("a:\n  b: 1\n  c: true\n")
        assert tree.value_of("a/b") == "1"
        assert tree.value_of("a/c") == "true"

    def test_yaml_invalid_rejected(self):
        with pytest.raises(LensError):
            YamlLens().parse("a: [unclosed")

    def test_yaml_empty(self):
        assert YamlLens().parse("").size() == 0

    def test_yaml_keeps_yaml_1_1_numbers(self):
        # Config files mean what their own tools read; CVL's numbers
        # (0644 stays "0644") apply to rule files only.
        tree = YamlLens().parse("mode: 0644\nwhen: 1:30\nport: 8080\n")
        assert tree.value_of("mode") == "420"
        assert tree.value_of("when") == "90"
        assert tree.value_of("port") == "8080"

    def test_yaml_parses_each_file_once(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("second YAML parse")

        for name in ("compose", "safe_load", "load", "load_all"):
            monkeypatch.setattr(yaml, name, refuse)
        calls = []
        load_single = yamlio.load_single

        def counted(text, loader):
            calls.append(loader)
            return load_single(text, loader)

        monkeypatch.setattr(yamlio, "load_single", counted)
        tree = YamlLens().parse("a:\n  b: [1, 2]\n")
        assert [n.value for n in tree.match("a/b")] == ["1", "2"]
        assert tree.first("a/b").span is not None
        assert calls == [yamlio.Loader]


class TestRegistry:
    def test_pattern_dispatch(self):
        cases = {
            "/etc/ssh/sshd_config": "sshd",
            "/etc/sysctl.conf": "sysctl",
            "/etc/modprobe.d/cis.conf": "modprobe",
            "/etc/nginx/nginx.conf": "nginx",
            "/etc/nginx/sites-enabled/default": "nginx",
            "/etc/apache2/apache2.conf": "apache",
            "/etc/mysql/my.cnf": "ini",
            "/etc/hadoop/hdfs-site.xml": "hadoop",
            "/opt/app/pom.xml": "xml",
            "/etc/docker/daemon.json": "json",
            "/opt/app/config.yaml": "yaml",
            "/opt/app/log4j.properties": "properties",
        }
        for path, expected in cases.items():
            lens = lens_for_file(path)
            assert lens is not None and lens.name == expected, path

    def test_unknown_file_falls_back_or_none(self):
        assert lens_for_file("/etc/unknown.conf").name == "keyvalue"
        assert lens_for_file("/etc/unknownfile") is None

    def test_get_by_name(self):
        registry = default_registry()
        assert registry.get("nginx").name == "nginx"

    def test_unknown_name_raises(self):
        with pytest.raises(LensError):
            default_registry().get("klingon")

    def test_duplicate_registration_rejected(self):
        registry = default_registry()
        with pytest.raises(ValueError):
            registry.register(NginxLens())
