"""Unit + property tests for path expressions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PathExpressionError
from repro.augtree import ConfigNode, PathExpression, parse_path
from repro.augtree.path import Predicate, Segment, apply_predicates


def _tree() -> ConfigNode:
    root = ConfigNode("(root)")
    http = root.add("http")
    for listen, protocols in [("443 ssl", "TLSv1.2"), ("80", None)]:
        server = http.add("server")
        server.add("listen", listen)
        if protocols:
            server.add("ssl_protocols", protocols)
    mysqld = root.add("mysqld")
    mysqld.add("ssl-ca", "/etc/mysql/cacert.pem")
    root.add("net.ipv4.ip_forward", "0")
    modroot = root.add("modprobe")
    for module in ("cramfs", "udf"):
        install = modroot.add("install", module)
        install.add("command", "/bin/true")
    return root


class TestBasicMatching:
    def test_single_segment(self):
        assert parse_path("http").match(_tree())[0].label == "http"

    def test_nested_path(self):
        values = [n.value for n in parse_path("http/server/listen").match(_tree())]
        assert values == ["443 ssl", "80"]

    def test_no_match_is_empty(self):
        assert parse_path("http/nothing").match(_tree()) == []

    def test_empty_expression_matches_root(self):
        root = _tree()
        assert parse_path("").match(root) == [root]

    def test_dotted_label_is_one_segment(self):
        matches = parse_path("net.ipv4.ip_forward").match(_tree())
        assert len(matches) == 1
        assert matches[0].value == "0"

    def test_dash_in_label(self):
        assert parse_path("mysqld/ssl-ca").match(_tree())[0].value == (
            "/etc/mysql/cacert.pem"
        )


class TestWildcards:
    def test_star_matches_any_child(self):
        labels = {n.label for n in parse_path("*").match(_tree())}
        assert labels == {"http", "mysqld", "net.ipv4.ip_forward", "modprobe"}

    def test_star_in_middle(self):
        values = [n.value for n in parse_path("http/*/listen").match(_tree())]
        assert values == ["443 ssl", "80"]

    def test_doublestar_descendant_or_self(self):
        values = [n.value for n in parse_path("**/listen").match(_tree())]
        assert values == ["443 ssl", "80"]

    def test_doublestar_deduplicates(self):
        matches = parse_path("**/**/listen").match(_tree())
        assert len(matches) == 2

    def test_doublestar_rejects_predicates(self):
        with pytest.raises(PathExpressionError):
            parse_path("**[1]/x")


class TestPredicates:
    def test_numeric_index_is_one_based(self):
        node = parse_path("http/server[2]/listen").match(_tree())[0]
        assert node.value == "80"

    def test_index_out_of_range_is_empty(self):
        assert parse_path("http/server[9]").match(_tree()) == []

    def test_last(self):
        node = parse_path("http/server[last()]/listen").match(_tree())[0]
        assert node.value == "80"

    def test_value_predicate(self):
        matches = parse_path("modprobe/install[.='cramfs']").match(_tree())
        assert len(matches) == 1
        assert matches[0].value == "cramfs"

    def test_value_predicate_then_child(self):
        node = parse_path("modprobe/install[.='cramfs']/command").match(_tree())[0]
        assert node.value == "/bin/true"

    def test_child_value_predicate(self):
        matches = parse_path("http/server[listen='80']").match(_tree())
        assert len(matches) == 1
        assert matches[0].child("ssl_protocols") is None

    def test_quoted_predicate_value_with_space(self):
        matches = parse_path("http/server[listen='443 ssl']").match(_tree())
        assert len(matches) == 1

    def test_stacked_predicates(self):
        matches = parse_path("http/server[listen='80'][1]").match(_tree())
        assert len(matches) == 1


class TestQuotingAndErrors:
    def test_quoted_label_with_slash(self):
        root = ConfigNode("(root)")
        root.add("a/b", "weird")
        assert parse_path('"a/b"').match(root)[0].value == "weird"

    def test_zero_index_rejected(self):
        with pytest.raises(PathExpressionError):
            parse_path("a[0]")

    def test_empty_segment_rejected(self):
        with pytest.raises(PathExpressionError):
            parse_path("a//b")

    def test_unbalanced_bracket_rejected(self):
        with pytest.raises(PathExpressionError):
            parse_path("a[1")

    def test_unterminated_quote_rejected(self):
        with pytest.raises(PathExpressionError):
            parse_path('"abc')

    def test_garbage_predicate_rejected(self):
        with pytest.raises(PathExpressionError):
            parse_path("a[?!]")

    def test_parse_is_cached(self):
        assert parse_path("http/server") is parse_path("http/server")


_labels = st.text(alphabet="abcxyz_", min_size=1, max_size=5)


class TestProperties:
    @given(labels=st.lists(_labels, min_size=1, max_size=5))
    def test_exact_chain_always_matches_itself(self, labels):
        root = ConfigNode("(root)")
        node = root
        for label in labels:
            node = node.add(label)
        matches = parse_path("/".join(labels)).match(root)
        assert node in matches

    @given(labels=st.lists(_labels, min_size=1, max_size=4))
    def test_doublestar_finds_leaf_anywhere(self, labels):
        root = ConfigNode("(root)")
        node = root
        for label in labels:
            node = node.add(label)
        matches = parse_path(f"**/{labels[-1]}").match(root)
        assert node in matches

    @given(count=st.integers(min_value=1, max_value=6))
    def test_indexes_partition_siblings(self, count):
        root = ConfigNode("(root)")
        for index in range(count):
            root.add("item", str(index))
        for position in range(1, count + 1):
            matches = parse_path(f"item[{position}]").match(root)
            assert [n.value for n in matches] == [str(position - 1)]


# ---------------------------------------------------------------------------
# Located matching: locate vs a node-only reference matcher
# ---------------------------------------------------------------------------

#: Repeated, empty and dotted labels.
_TREE_LABELS = ["a", "b", "", "a.b"]
_TREE_VALUES = [None, "1", "2"]


@st.composite
def _trees(draw) -> ConfigNode:
    """A random tree of up to 16 nodes: each new node goes under any
    node drawn so far."""
    root = ConfigNode("(root)")
    nodes = [root]
    for _ in range(draw(st.integers(min_value=0, max_value=15))):
        parent = draw(st.sampled_from(nodes))
        nodes.append(parent.add(draw(st.sampled_from(_TREE_LABELS)),
                                draw(st.sampled_from(_TREE_VALUES))))
    return root


_predicates = st.one_of(
    st.builds(Predicate, kind=st.just("index"),
              index=st.integers(min_value=1, max_value=3)),
    st.just(Predicate(kind="last")),
    st.builds(Predicate, kind=st.just("value"),
              value=st.sampled_from(_TREE_VALUES[1:])),
    st.builds(Predicate, kind=st.just("child"),
              label=st.sampled_from(_TREE_LABELS),
              value=st.sampled_from(_TREE_VALUES[1:])),
)
_segments = st.one_of(
    st.just(Segment(name="**")),
    st.builds(Segment, name=st.sampled_from(["*"] + _TREE_LABELS),
              predicates=st.lists(_predicates, max_size=2).map(tuple)),
)
_expressions = st.lists(_segments, max_size=4).map(
    lambda segments: PathExpression(tuple(segments)))


def _preorder(node: ConfigNode) -> list[ConfigNode]:
    nodes = [node]
    for child in node.children:
        nodes.extend(_preorder(child))
    return nodes


def _reference_match(expression: PathExpression,
                     scope: ConfigNode) -> list[ConfigNode]:
    """Node-only matching: each segment steps a frontier of plain nodes,
    and the result keeps each node's first occurrence."""
    current = [scope]
    for segment in expression.segments:
        stepped: list[ConfigNode] = []
        for node in current:
            if segment.name == "**":
                stepped.extend(_preorder(node))
                continue
            candidates = [child for child in node.children
                          if segment.name in ("*", child.label)]
            stepped.extend(apply_predicates(candidates, segment.predicates))
        current = stepped
    return list({id(node): node for node in current}.values())


def _locations(root: ConfigNode) -> dict[int, tuple[str, ...]]:
    """Every node's labels from the root (root label omitted), by a walk
    down from the root: what ``ConfigNode.path()`` computed by walking up
    parent links before nodes lost them."""
    found: dict[int, tuple[str, ...]] = {}

    def visit(node: ConfigNode, labels: tuple[str, ...]) -> None:
        found[id(node)] = labels
        for child in node.children:
            visit(child, labels + (child.label,))

    visit(root, ())
    return found


class TestLocateDifferential:
    @settings(max_examples=300, deadline=None)
    @given(root=_trees(), expression=_expressions, data=st.data())
    def test_locate_is_match_with_each_nodes_location(self, root,
                                                      expression, data):
        locations = _locations(root)
        scope = data.draw(st.sampled_from(_preorder(root)), label="scope")
        located = expression.locate(scope, locations[id(scope)])
        expected = [id(node) for node in _reference_match(expression, scope)]
        assert [id(node) for node in located] == expected
        assert [id(node) for node in expression.match(scope)] == expected
        for node, labels in located.items():
            assert labels == locations[id(node)]
