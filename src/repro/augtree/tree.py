"""Ordered labeled tree -- the normalized form of a configuration file.

The model follows Augeas: every node has a *label*, an optional string
*value*, and an ordered list of children whose labels may repeat.  A parsed
``nginx.conf`` with two ``server`` blocks yields two sibling nodes labeled
``server``; path expressions address them as ``server[1]`` and
``server[2]`` (1-based, as in Augeas).
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence


class SourceSpan(NamedTuple):
    """Where a node came from in the raw file text: the named view of a
    node's plain ``span`` tuple, ``SourceSpan._make(node.span)``.

    Lines and columns are 1-based; ``end_line``/``end_column`` point one
    past the last character of the construct (so single-char constructs
    have ``end_column == column + 1``).  Offsets are character indices
    into the decoded text, suitable for slicing: ``text[start:end]``.
    """

    line: int
    column: int
    end_line: int
    end_column: int
    start: int
    end: int

    @classmethod
    def from_list(cls, payload: object) -> "SourceSpan | None":
        if not isinstance(payload, (list, tuple)) or len(payload) != 6:
            return None
        try:
            return cls(*(int(part) for part in payload))
        except (TypeError, ValueError):
            return None


#: The ``children`` of every leaf: one shared empty tuple, so a leaf
#: carries no list of its own.  :meth:`ConfigNode.add` gives a node its
#: own list when it gets its first child.
_NO_CHILDREN: tuple = ()

#: Every leaf's label index: one shared empty dict, never mutated
#: (:meth:`ConfigNode.add` drops it when a leaf gets its first child).
_NO_INDEX: dict = {}


class ConfigNode:
    """One node of a config tree.

    A node links only downward, to its children: it holds no link to its
    parent, so a tree holds no reference cycle and a dropped tree is freed
    by reference counting at once, without waiting for a full garbage
    collection.  A node's location (its labels from the root) is built
    while matching: see :meth:`repro.augtree.path.PathExpression.locate`.
    """

    __slots__ = ("label", "value", "children", "span",
                 "_label_index", "_indexed_count")

    def __init__(self, label: str, value: str | None = None,
                 span: tuple | None = None):
        self.label = label
        self.value = value
        #: Optional source location, six ints in :class:`SourceSpan` order.
        #: Deliberately excluded from ``__eq__``/``to_dict``/``render`` so
        #: span-aware and span-less trees stay interchangeable.
        self.span = span
        #: Children in document order: a list once the node has any,
        #: the shared empty tuple while it is a leaf.  Build trees with
        #: :meth:`add`.
        self.children: list[ConfigNode] | tuple[()] = _NO_CHILDREN
        #: Lazy label -> child map, a list once the label repeats; kept
        #: current by ``add``.  ``_indexed_count`` guards against direct
        #: ``children`` mutation: a length mismatch forces a rebuild.
        self._label_index: dict | None = _NO_INDEX
        self._indexed_count = 0

    # ---- construction ----------------------------------------------------

    def add(self, label: str, value: str | None = None,
            span: tuple | None = None) -> "ConfigNode":
        """Append a new child and return it."""
        child = ConfigNode(label, value, span)
        children = self.children
        if not children:
            # A leaf's first child: its own list, and no index until
            # the first lookup.
            self.children = [child]
            self._label_index = None
            return child
        index = self._label_index
        if index is not None and self._indexed_count == len(children):
            found = index.get(label)
            if found is None:
                index[label] = child
            elif found.__class__ is list:
                found.append(child)
            else:
                index[label] = [found, child]
            self._indexed_count += 1
        children.append(child)
        return child

    # ---- navigation --------------------------------------------------------

    def _index(self) -> dict[str, "ConfigNode | list[ConfigNode]"]:
        index = self._label_index
        if index is None or self._indexed_count != len(self.children):
            index = {}
            for node in self.children:
                found = index.get(node.label)
                if found is None:
                    index[node.label] = node
                elif found.__class__ is list:
                    found.append(node)
                else:
                    index[node.label] = [found, node]
            self._label_index = index
            self._indexed_count = len(self.children)
        return index

    def child(self, label: str) -> "ConfigNode | None":
        """First child with ``label`` (or None)."""
        found = self._index().get(label)
        return found[0] if found.__class__ is list else found

    def children_named(self, label: str) -> Sequence["ConfigNode"]:
        """All children with ``label``, in document order, as a read-only
        sequence: the index's own list for a repeated label (path matching
        calls this once per candidate parent, and copying dominated ``**``
        traversals on large trees), a one-element tuple for a lone child,
        ``()`` for none."""
        found = self._index().get(label, ())
        return (found,) if isinstance(found, ConfigNode) else found

    def get(self, label: str) -> str | None:
        """Value of the first child named ``label`` (or None)."""
        node = self.child(label)
        return node.value if node else None

    def walk(self) -> Iterator["ConfigNode"]:
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find_all(self, predicate: Callable[["ConfigNode"], bool]) -> list["ConfigNode"]:
        """All descendants (including self) satisfying ``predicate``."""
        return [node for node in self.walk() if predicate(node)]

    # ---- conversion / display ----------------------------------------------

    def to_dict(self) -> dict:
        """Lossy dict form for debugging and JSON output.

        Repeated labels become lists; leaves map to their value.
        """
        if not self.children:
            return {self.label: self.value}
        grouped: dict[str, object] = {}
        for child in self.children:
            rendered = child.to_dict()[child.label]
            if child.label in grouped:
                existing = grouped[child.label]
                if isinstance(existing, list):
                    existing.append(rendered)
                else:
                    grouped[child.label] = [existing, rendered]
            else:
                grouped[child.label] = rendered
        return {self.label: grouped}

    def render(self, indent: int = 0) -> str:
        """Readable multi-line dump (used by the CLI's ``dump`` command)."""
        value = f" = {self.value!r}" if self.value is not None else ""
        lines = [f"{'  ' * indent}{self.label}{value}"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ConfigNode({self.label!r}, value={self.value!r}, "
            f"children={len(self.children)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfigNode):
            return NotImplemented
        return (
            self.label == other.label
            and self.value == other.value
            and self.children == other.children
        )

    #: Nodes are mutable, so they hash by identity (in C: a dict probe
    #: makes no Python call), while ``==`` stays structural.
    __hash__ = object.__hash__


class ConfigTree:
    """A parsed configuration file: a root node plus provenance."""

    def __init__(self, root: ConfigNode | None = None, source: str = "<memory>",
                 lens: str = "unknown"):
        self.root = root if root is not None else ConfigNode("(root)")
        self.source = source
        self.lens = lens

    def match(self, expression: str) -> list[ConfigNode]:
        """All nodes matching an Augeas-style path expression."""
        from repro.augtree.path import parse_path

        return parse_path(expression).match(self.root)

    def first(self, expression: str) -> ConfigNode | None:
        """First match of ``expression`` (or None)."""
        matches = self.match(expression)
        return matches[0] if matches else None

    def value_of(self, expression: str) -> str | None:
        """Value of the first node matching ``expression`` (or None)."""
        node = self.first(expression)
        return node.value if node else None

    def size(self) -> int:
        """Number of nodes in the tree (excluding the synthetic root)."""
        return sum(1 for _ in self.root.walk()) - 1

    def render(self) -> str:
        header = f"# {self.source} ({self.lens})"
        return header + "\n" + self.root.render()

    def __repr__(self) -> str:
        return f"ConfigTree(source={self.source!r}, lens={self.lens!r}, nodes={self.size()})"
