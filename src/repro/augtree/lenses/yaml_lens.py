"""Lens for YAML configuration (cloud service configs, compose files)."""

from __future__ import annotations

from repro import yamlio
from repro.augtree.lenses.base import MAX_NESTING, TOO_DEEP, Lens
from repro.augtree.lenses.util import _render_scalar, scalar_to_tree
from repro.augtree.tree import ConfigNode, ConfigTree


class _NotOneToOne(Exception):
    """The loaded value has nodes no single stretch of text produced."""


class YamlLens(Lens):
    name = "yaml"
    file_patterns = ("*.yaml", "*.yml")

    def parse(self, text: str, source: str = "<memory>") -> ConfigTree:
        # libyaml leaves a leading byte-order mark out of its mark offsets;
        # parse past it and count it back in, so offsets index ``text``.
        shift = 1 if text.startswith("\ufeff") else 0
        root = ConfigNode("(root)")
        try:
            data, marks = yamlio.load_single(text[shift:], yamlio.Loader)
            try:
                _SpannedTree(shift).document(data, marks, root)
            except _NotOneToOne:
                # Merge keys, a key given twice, !!set and !!omap values:
                # keep the values and leave the whole tree without spans.
                root = ConfigNode("(root)")
                if isinstance(data, dict):
                    for key, value in data.items():
                        scalar_to_tree(str(key), value, root)
                elif data is not None:
                    scalar_to_tree("(document)", data, root)
        except yamlio.YAMLError as exc:
            line = getattr(getattr(exc, "problem_mark", None), "line", None)
            raise self.error(
                f"invalid YAML: {exc}", line + 1 if line is not None else None
            ) from exc
        except RecursionError:  # the bound, or deeper than the parser goes
            raise self.error(TOO_DEEP) from None
        return ConfigTree(root, source=source, lens=self.name)


class _SpannedTree:
    """:func:`scalar_to_tree` over a loaded document, with each node's
    span taken from the marks its container kept for it: a mapping entry
    spans its key through its value, a sequence item spans itself."""

    def __init__(self, shift: int):
        self.shift = shift

    def document(self, data, marks, root: ConfigNode) -> None:
        if isinstance(data, dict):
            self.entries(data, root, 1)
        elif data is not None:
            self.value("(document)", data, marks, root, 1)

    def entries(self, mapping: dict, node: ConfigNode, depth: int) -> None:
        marks = getattr(mapping, "marks", None)
        if marks is None:
            raise _NotOneToOne
        for (key, value), entry_marks in zip(mapping.items(), marks):
            self.value(str(key), value, entry_marks, node, depth)

    def value(self, label: str, value, marks, parent: ConfigNode,
              depth: int) -> None:
        if depth > MAX_NESTING:  # as scalar_to_tree counts
            raise RecursionError(TOO_DEEP)
        if isinstance(value, dict):
            self.entries(value, parent.add(label, None, self.span(marks)),
                         depth + 1)
        elif isinstance(value, (list, tuple)):
            item_marks = getattr(value, "marks", None)
            if item_marks is None:
                raise _NotOneToOne
            for item, marks in zip(value, item_marks):
                self.value(label, item, marks, parent, depth + 1)
        elif isinstance(value, set):
            raise _NotOneToOne
        else:
            parent.add(label, _render_scalar(value), self.span(marks))

    def span(self, marks) -> tuple:
        start, end = marks
        return (start.line + 1, start.column + 1, end.line + 1,
                end.column + 1, start.index + self.shift, end.index + self.shift)
