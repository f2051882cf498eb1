"""Unit tests for the config tree data model."""

import gc

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
