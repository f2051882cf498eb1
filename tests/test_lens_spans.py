"""Differential testing of lens source spans (ISSUE 7, satellite 1).

Every span a lens reports must round-trip against the raw text it was
parsed from: slicing ``text[span.start:span.end]`` has to land on the
construct that produced the node, and the (line, column) pair has to
agree with the offset.  The tests below re-read each reported span from
the raw file and check the node's value is recoverable from the slice
after normalizing the syntax the lens strips (quotes, backslash
continuations, whitespace runs).

Multi-line constructs get dedicated cases: nginx directives whose
arguments wrap across lines, nested blocks, and apache continuation
lines must span from their first line to their last.
"""

import re

import pytest
import yaml

from repro.augtree.lenses import (
    ApacheLens,
    IniLens,
    JsonLens,
    ModprobeLens,
    NginxLens,
    PropertiesLens,
    SshdLens,
    SysctlLens,
    YamlLens,
    default_registry,
)
from repro.augtree.lenses.util import scalar_to_tree
from repro.augtree.tree import ConfigNode, SourceSpan
from repro.errors import LensError


# ---------------------------------------------------------------------------
# Span <-> text agreement machinery
# ---------------------------------------------------------------------------

def _normalize(text: str) -> str:
    """Collapse the syntax lenses strip so containment checks work."""
    text = text.replace("\\\n", " ")          # line continuations
    text = text.replace('"', "").replace("'", "")
    return re.sub(r"\s+", " ", text).strip()


def _walk(tree):
    root = getattr(tree, "root", tree)

    def inner(node: ConfigNode):
        yield node
        for child in node.children:
            yield from inner(child)

    yield from inner(root)


def _span(node: ConfigNode) -> SourceSpan:
    """The named view of a node's span tuple."""
    return SourceSpan._make(node.span)


def _line_col_to_offset(text: str, line: int, column: int) -> int:
    """1-based (line, column) -> character offset into ``text``."""
    offset = 0
    for _ in range(line - 1):
        offset = text.index("\n", offset) + 1
    return offset + column - 1


def assert_spans_consistent(tree: ConfigNode, text: str) -> int:
    """Every span slices cleanly and contains its node's value.

    Returns the number of spanned nodes checked, so callers can assert
    coverage did not silently collapse to zero.
    """
    checked = 0
    for node in _walk(tree):
        if node.span is None:
            continue
        span = _span(node)
        checked += 1
        assert 0 <= span.start < span.end <= len(text), (node.label, span)
        assert 1 <= span.line <= span.end_line, (node.label, span)
        # (line, column) must agree with the character offsets.
        assert _line_col_to_offset(text, span.line, span.column) == span.start
        assert (
            _line_col_to_offset(text, span.end_line, span.end_column)
            == span.end
        ), (node.label, span)
        slice_text = _normalize(text[span.start : span.end])
        if node.value:
            assert _normalize(str(node.value)) in slice_text, (
                node.label, node.value, text[span.start : span.end],
            )
    return checked


# ---------------------------------------------------------------------------
# Per-lens differential cases
# ---------------------------------------------------------------------------

NGINX_TEXT = """\
user www-data;
http {
    server {
        listen 443 ssl;
        ssl_protocols SSLv3
            TLSv1.2;
        add_header X-Frame-Options "SAMEORIGIN";
    }
    server { listen 80; }
}
"""

APACHE_TEXT = """\
ServerTokens Prod
SSLCipherSuite HIGH:\\
    !aNULL:!MD5
<Directory /var/www>
    Options -Indexes
    AllowOverride None
</Directory>
"""

INI_TEXT = """\
[mysqld]
bind-address = 0.0.0.0
local-infile = 1

[client]
port = 3306
"""

SSHD_TEXT = """\
Port 22
PermitRootLogin yes
Match User admin
    PasswordAuthentication no
"""

SYSCTL_TEXT = """\
net.ipv4.ip_forward = 1
kernel.randomize_va_space=2
"""

PROPERTIES_TEXT = """\
dfs.permissions.enabled=false
dfs.replication = 3
long.value = one \\
    two
"""

MODPROBE_TEXT = """\
install cramfs /bin/true
blacklist usb-storage
install udf /bin/false \\
    --quiet
options snd-hda-intel power_save=1 model=auto
"""

JSON_TEXT = """\
{
  "log-driver": "json-file",
  "hosts": ["unix:///var/run/docker.sock", "tcp://0.0.0.0:2375"],
  "tls": false
}
"""

YAML_TEXT = """\
apiVersion: v1
spec:
  privileged: true
  ports:
    - 8080
    - 9090
"""


@pytest.mark.parametrize(
    "lens,text",
    [
        (NginxLens(), NGINX_TEXT),
        (ApacheLens(), APACHE_TEXT),
        (IniLens(), INI_TEXT),
        (SshdLens(), SSHD_TEXT),
        (SysctlLens(), SYSCTL_TEXT),
        (PropertiesLens(), PROPERTIES_TEXT),
        (ModprobeLens(), MODPROBE_TEXT),
        (JsonLens(), JSON_TEXT),
        (YamlLens(), YAML_TEXT),
    ],
    ids=["nginx", "apache", "ini", "sshd", "sysctl", "properties",
         "modprobe", "json", "yaml"],
)
def test_spans_reread_from_raw_text(lens, text):
    tree = lens.parse(text)
    assert assert_spans_consistent(tree, text) > 0


# ---------------------------------------------------------------------------
# Multi-line construct attribution (the satellite's headline cases)
# ---------------------------------------------------------------------------

class TestNginxMultiLine:
    def test_wrapped_directive_spans_all_its_lines(self):
        tree = NginxLens().parse(NGINX_TEXT)
        node = tree.first("http/server/ssl_protocols")
        assert node.value == "SSLv3 TLSv1.2"
        span = _span(node)
        assert span.line == 5
        assert span.end_line == 6
        assert "TLSv1.2" in NGINX_TEXT[span.start : span.end]

    def test_block_spans_open_to_close_brace(self):
        tree = NginxLens().parse(NGINX_TEXT)
        span = _span(tree.first("http"))
        assert span.line == 2
        assert span.end_line == 10
        sliced = NGINX_TEXT[span.start : span.end]
        assert sliced.startswith("http")
        assert sliced.rstrip().endswith("}")

    def test_sibling_blocks_get_distinct_spans(self):
        tree = NginxLens().parse(NGINX_TEXT)
        first, second = map(_span, tree.match("http/server"))
        assert first.line < second.line
        assert first.end < second.start

    def test_single_line_directive_is_exact(self):
        tree = NginxLens().parse(NGINX_TEXT)
        span = _span(tree.first("user"))
        assert NGINX_TEXT[span.start : span.end] == "user www-data;"


class TestApacheMultiLine:
    def test_continuation_line_extends_the_span(self):
        tree = ApacheLens().parse(APACHE_TEXT)
        node = tree.first("SSLCipherSuite")
        assert node.value.split() == ["HIGH:", "!aNULL:!MD5"]
        span = _span(node)
        assert span.line == 2
        assert span.end_line == 3
        assert "!MD5" in APACHE_TEXT[span.start : span.end]

    def test_section_spans_open_to_close_tag(self):
        tree = ApacheLens().parse(APACHE_TEXT)
        span = _span(tree.first("Directory"))
        assert span.line == 4
        assert span.end_line == 7
        sliced = APACHE_TEXT[span.start : span.end]
        assert sliced.startswith("<Directory")
        assert sliced.rstrip().endswith("</Directory>")

    def test_directive_inside_section_spans_its_own_line(self):
        tree = ApacheLens().parse(APACHE_TEXT)
        span = _span(tree.first("Directory/Options"))
        assert span.line == span.end_line == 5


class TestPropertiesContinuation:
    def test_backslash_continuation_spans_both_lines(self):
        tree = PropertiesLens().parse(PROPERTIES_TEXT)
        span = _span(tree.first("long.value"))
        assert span.line == 3
        assert span.end_line == 4


# ---------------------------------------------------------------------------
# Registry-wide smoke: builtin sample files keep spanning
# ---------------------------------------------------------------------------

def test_registry_lenses_span_realistic_configs():
    """Each registered lens produces at least one spanned node on a
    minimal realistic document, and every span re-reads cleanly."""
    samples = {
        "nginx": "server { listen 80; }\n",
        "apache": "KeepAlive On\n",
        "ini": "[a]\nk = v\n",
        "sshd": "PermitRootLogin no\n",
        "sysctl": "kernel.sysrq = 0\n",
        "properties": "a.b=c\n",
        "json": '{"a": 1}\n',
        "yaml": "a: 1\n",
        "keyvalue": "KEY=value\n",
    }
    registry = default_registry()
    covered = 0
    for name, text in samples.items():
        if name not in registry:
            continue
        tree = registry.get(name).parse(text)
        assert assert_spans_consistent(tree, text) > 0, name
        covered += 1
    assert covered >= 8


def test_spans_do_not_affect_equality_or_serialization():
    """Span-aware and span-less trees must stay interchangeable."""
    spanned = NginxLens().parse("user www-data;\n")
    stripped = NginxLens().parse("user www-data;\n")
    for node in _walk(stripped):
        node.span = None
    assert spanned.root == stripped.root
    assert spanned.root.to_dict() == stripped.root.to_dict()


# ---------------------------------------------------------------------------
# YAML lens: one parse, values as yaml.safe_load, spans pinned
# ---------------------------------------------------------------------------

YAML_POD_TEXT = """\
apiVersion: v1
kind: Pod
metadata:
  name: web
  namespace: prod
  annotations:
    perfbench/note-000: "3039-0"
    perfbench/note-001: "3039-1"
spec:
  securityContext:
    runAsNonRoot: true
  containers:
    - name: web
      image: registry.local/web:1.4.2
      securityContext:
        privileged: false
        capabilities:
          drop: ["ALL"]
      resources:
        limits:
          memory: 512Mi
"""

#: (text, spans of every node in depth-first order).  Merge keys, a key
#: given twice, ``!!set`` values and keys that compare equal (``1`` and
#: ``true``) have no one-to-one text for each node, so those trees carry
#: no spans at all.
YAML_PARITY_CASES = {
    "merge_keys": (
        "base: &base\n  replicas: 1\n  image: web\nprod:\n  <<: *base\n"
        "  replicas: 3\n",
        [None] * 6,
    ),
    "anchors_aliases": (
        "defaults: &defaults\n  timeout: 30\n  retries: 3\nservices:\n"
        "  - *defaults\n  - name: api\n    port: &port 8080\nports:\n"
        "  - *port\n  - 9090\n",
        [(1, 1, 4, 1, 0, 47), (2, 3, 2, 14, 22, 33), (3, 3, 3, 13, 36, 46),
         (1, 11, 4, 1, 10, 47), (2, 3, 2, 14, 22, 33), (3, 3, 3, 13, 36, 46),
         (6, 5, 8, 1, 75, 106), (6, 5, 6, 14, 75, 84), (7, 5, 7, 21, 89, 105),
         (7, 11, 7, 21, 95, 105), (10, 5, 10, 9, 127, 131)],
    ),
    "duplicate_keys": ("name: web\nport: 80\nname: api\n", [None] * 2),
    "set": ("allowed: !!set\n  ? read\n  ? write\n", [None]),
    "colliding_keys": ("1: one\ntrue: yes\nother: x\n", [None] * 2),
    "scalar_document": ("just a scalar\n", [(1, 1, 1, 14, 0, 13)]),
    "empty_file": ("", []),
    "non_ascii": (
        "name: café\ngreeting: \"héllo wörld\"\ntags:\n  - ünïcode\n"
        "  - 日本語 😀\n",
        [(1, 1, 1, 11, 0, 10), (2, 1, 2, 24, 11, 34), (4, 5, 4, 12, 45, 52),
         (5, 5, 5, 10, 57, 62)],
    ),
    "pod_manifest": (
        YAML_POD_TEXT,
        [(1, 1, 1, 15, 0, 14), (2, 1, 2, 10, 15, 24), (3, 1, 9, 1, 25, 146),
         (4, 3, 4, 12, 37, 46), (5, 3, 5, 18, 49, 64), (6, 3, 9, 1, 67, 146),
         (7, 5, 7, 33, 84, 112), (8, 5, 8, 33, 117, 145),
         (9, 1, 22, 1, 146, 414), (10, 3, 12, 3, 154, 196),
         (11, 5, 11, 23, 175, 193), (13, 7, 22, 1, 214, 414),
         (13, 7, 13, 16, 214, 223), (14, 7, 14, 38, 230, 261),
         (15, 7, 19, 7, 268, 363), (16, 9, 16, 26, 293, 310),
         (17, 9, 19, 7, 319, 363), (18, 18, 18, 23, 350, 355),
         (19, 7, 22, 1, 363, 414), (20, 9, 22, 1, 382, 414),
         (21, 11, 21, 24, 400, 413)],
    ),
}

#: Pinned spans that do not re-read cleanly, so only values and spans are
#: compared.  A keyed alias spans from its key to the end of the anchored
#: node, which lies earlier in the text.  A byte-order mark counts in the
#: offsets but not in the columns of line 1.
YAML_PINNED_ONLY_CASES = {
    "keyed_alias": (
        "a: &x\n  k: v\nb: *x\nc: &s hello\nd: *s\n",
        [(1, 1, 3, 1, 0, 13), (2, 3, 2, 7, 8, 12), (3, 1, 3, 1, 13, 13),
         (2, 3, 2, 7, 8, 12), (4, 1, 4, 12, 19, 30), (5, 1, 4, 12, 31, 30)],
    ),
    "byte_order_mark": (
        "\ufeffa: 1\nb: [x, y]\n",
        [(1, 1, 1, 5, 1, 5), (2, 5, 2, 6, 10, 11), (2, 8, 2, 9, 13, 14)],
    ),
}


def _safe_load_tree(text: str) -> ConfigNode:
    """The value tree ``yaml.safe_load`` gives, built by scalar_to_tree."""
    data = yaml.safe_load(text)
    root = ConfigNode("(root)")
    if isinstance(data, dict):
        for key, value in data.items():
            scalar_to_tree(str(key), value, root)
    elif data is not None:
        scalar_to_tree("(document)", data, root)
    return root


def _spans(tree) -> list:
    return [tuple(node.span) if node.span else None
            for node in list(_walk(tree))[1:]]


class TestYamlLensParity:
    @pytest.mark.parametrize("case", sorted(YAML_PARITY_CASES))
    def test_values_spans_and_reread(self, case):
        text, expected_spans = YAML_PARITY_CASES[case]
        tree = YamlLens().parse(text)
        assert tree.root == _safe_load_tree(text)
        assert_spans_consistent(tree, text)
        assert _spans(tree) == expected_spans

    @pytest.mark.parametrize("case", sorted(YAML_PINNED_ONLY_CASES))
    def test_values_and_pinned_spans(self, case):
        text, expected_spans = YAML_PINNED_ONLY_CASES[case]
        tree = YamlLens().parse(text)
        assert tree.root == _safe_load_tree(text)
        assert _spans(tree) == expected_spans

    @pytest.mark.parametrize("text,line", [
        ("a: 1\nb: [unclosed\n", 3),
        ("a: 1\nb: c: d\n", 2),
        ("a: 1\n---\nb: 2\n", 2),
    ], ids=["unclosed_flow", "nested_colon", "two_documents"])
    def test_malformed_input_reports_its_line(self, text, line):
        with pytest.raises(LensError) as exc:
            YamlLens().parse(text)
        assert exc.value.line == line

    def test_undecodable_bytes_are_a_lens_error(self):
        with pytest.raises(LensError):
            YamlLens().parse("a: \udc80\n")
