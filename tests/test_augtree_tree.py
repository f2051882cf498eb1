"""Unit tests for the config tree data model."""

import gc

from hypothesis import given, settings, strategies as st

from repro.augtree import ConfigNode, ConfigTree, parse_path


def _sample_tree() -> ConfigTree:
    root = ConfigNode("(root)")
    http = root.add("http")
    server1 = http.add("server")
    server1.add("listen", "443 ssl")
    server1.add("ssl_protocols", "TLSv1.2 TLSv1.3")
    server2 = http.add("server")
    server2.add("listen", "80")
    root.add("user", "www-data")
    return ConfigTree(root, source="nginx.conf", lens="nginx")


class TestConfigNode:
    def test_node_has_no_link_upward(self):
        root = ConfigNode("(root)")
        child = root.add("a", "1")
        grandchild = child.add("b")
        assert child.value == "1"
        assert root.children == [child]
        for node, above in ((child, [root]), (grandchild, [root, child])):
            assert not hasattr(node, "parent")
            # Only the node's own children hang off it: nothing in any
            # slot refers back to a node above it.
            referents = gc.get_referents(node)
            assert not any(ref is up for ref in referents for up in above)

    def test_child_returns_first(self):
        root = ConfigNode("(root)")
        root.add("k", "first")
        root.add("k", "second")
        assert root.child("k").value == "first"

    def test_children_named_preserves_order(self):
        root = ConfigNode("(root)")
        root.add("k", "1")
        root.add("other")
        root.add("k", "2")
        assert [n.value for n in root.children_named("k")] == ["1", "2"]

    def test_get_missing_is_none(self):
        assert ConfigNode("x").get("nope") is None

    def test_walk_preorder(self):
        tree = _sample_tree()
        labels = [node.label for node in tree.root.walk()]
        assert labels[0] == "(root)"
        assert labels.index("http") < labels.index("server")
        assert labels.index("server") < labels.index("listen")

    def test_locate_excludes_root(self):
        tree = _sample_tree()
        located = parse_path("http/server/listen").locate(tree.root)
        assert list(located) == tree.match("http/server/listen")
        assert {"/".join(labels) for labels in located.values()} == {
            "http/server/listen"
        }

    def test_equality_is_structural(self):
        a = ConfigNode("k", "v")
        b = ConfigNode("k", "v")
        assert a == b
        b.add("child")
        assert a != b

    def test_find_all(self):
        tree = _sample_tree()
        listens = tree.root.find_all(lambda n: n.label == "listen")
        assert len(listens) == 2


class TestToDict:
    def test_leaf(self):
        assert ConfigNode("k", "v").to_dict() == {"k": "v"}

    def test_repeated_labels_become_lists(self):
        tree = _sample_tree()
        data = tree.root.to_dict()["(root)"]
        assert isinstance(data["http"]["server"], list)
        assert data["http"]["server"][1]["listen"] == "80"

    def test_valueless_leaf_is_none(self):
        root = ConfigNode("(root)")
        root.add("flag")
        assert root.to_dict()["(root)"]["flag"] is None


class TestConfigTree:
    def test_value_of(self):
        tree = _sample_tree()
        assert tree.value_of("user") == "www-data"
        assert tree.value_of("missing") is None

    def test_first_none_when_no_match(self):
        assert _sample_tree().first("nope/nope") is None

    def test_size_excludes_root(self):
        tree = _sample_tree()
        assert tree.size() == 7

    def test_render_contains_values(self):
        rendered = _sample_tree().render()
        assert "443 ssl" in rendered
        assert "nginx.conf" in rendered

    def test_default_tree_is_empty(self):
        tree = ConfigTree()
        assert tree.size() == 0
        assert tree.match("anything") == []


#: Tree edits and lookups, each at the node ``at`` (modulo the nodes made
#: so far) with a label from a small alphabet, so labels repeat.
_STEPS = st.lists(st.tuples(
    st.sampled_from(["add", "append", "reappend", "lookup"]),
    st.integers(0, 40), st.sampled_from("abcz")), max_size=80)


class TestLabelIndexDifferential:
    """``children_named``, ``child`` and ``get`` answer from a label index
    that holds a lone child itself and a list once its label repeats; they
    must name what a linear scan of ``children`` names, also after
    ``children`` is edited directly."""

    @staticmethod
    def _check(node: ConfigNode, label: str) -> None:
        scan = [child for child in node.children if child.label == label]
        named = node.children_named(label)
        assert [id(child) for child in named] == [id(child) for child in scan]
        assert node.child(label) is (scan[0] if scan else None)
        assert node.get(label) == (scan[0].value if scan else None)

    @settings(max_examples=300, deadline=None)
    @given(steps=_STEPS)
    def test_lookups_match_a_linear_scan(self, steps):
        nodes = [ConfigNode("(root)")]
        for step, at, label in steps:
            node = nodes[at % len(nodes)]
            if step == "add":
                nodes.append(node.add(label, str(len(nodes))))
            elif step == "append":
                # A direct edit; a leaf shares one empty tuple, so it gets
                # a list of its own.
                child = ConfigNode(label, str(len(nodes)))
                if node.children:
                    node.children.append(child)
                else:
                    node.children = [child]
                nodes.append(child)
            elif step == "reappend" and node.children:
                node.children.append(node.children[at % len(node.children)])
            for probe in (label, "z"):
                self._check(node, probe)
        for node in nodes:
            for label in "abcz":
                self._check(node, label)

    def test_a_leaf_given_children_directly_shares_no_index(self):
        leaf, other = ConfigNode("x"), ConfigNode("y")
        leaf.children = [ConfigNode("a", "1")]
        leaf.add("b", "2")
        assert not other.children_named("b")
        assert [n.value for n in leaf.children_named("b")] == ["2"]

    def test_children_named_sequence_kinds(self):
        root = ConfigNode("(root)")
        root.add("once")
        root.add("twice", "1")
        root.add("twice", "2")
        assert root.children_named("none") == ()
        assert isinstance(root.children_named("once"), tuple)
        assert [n.value for n in root.children_named("twice")] == ["1", "2"]
