"""Path expressions over config trees (the Augeas path-expression analog).

Grammar (simplified Augeas)::

    path       := segment ('/' segment)*
    segment    := name predicate*
    name       := '*' | '**' | LABEL | '"' anything '"'
    predicate  := '[' INT ']'                -- 1-based index among the
                                                same-labeled children of one
                                                parent, e.g. server[2]
                | '[' '.' '=' string ']'     -- node value equals
                | '[' LABEL '=' string ']'   -- a child named LABEL has the
                                                given value
                | '[' 'last()' ']'           -- last same-labeled child

``*`` matches any single label; ``**`` matches any chain of zero or more
labels (descendant-or-self).  Labels may contain dots (sysctl keys such as
``net.ipv4.ip_forward`` stay a single label, as the Augeas sysctl lens
keeps them); labels containing ``/`` or ``[`` must be double-quoted.

Matching is evaluated against the *children* of the tree root: expression
``http/server/listen`` on a parsed nginx.conf selects every ``listen``
node inside every ``server`` inside ``http``.  The empty expression
matches the root node itself.

Nodes hold no link to their parent, so a node's location (its labels
from the root) is built while matching: :meth:`PathExpression.locate`
returns each matched node with its labels, and a rule's evidence
reports them joined with ``/`` (``http/server/listen``).
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import PathExpressionError
from repro.augtree.tree import ConfigNode

_SEGMENT = re.compile(
    r"""
    (?P<name> \*\* | \* | "[^"\\]*(?:\\.[^"\\]*)*" | [^/\[\]"]+ )
    (?P<preds> (?:\[[^\]]*\])* )
    $""",
    re.VERBOSE,
)

_PRED = re.compile(r"\[([^\]]*)\]")

#: Predicate bodies: a bare 1-based index ...
_PRED_INDEX = re.compile(r"\d+")

#: ... or an ``lhs = rhs`` comparison whose rhs may be quoted.  Compiled
#: once at import: ``_parse_predicate`` runs for every predicate of every
#: path expression the fleet's rule packs mention.
_PRED_COMPARE = re.compile(
    r"""(?P<lhs>\.|[^=\s]+)\s*=\s*(?P<rhs>'[^']*'|"[^"]*"|\S+)"""
)


@dataclass(frozen=True)
class Predicate:
    """One ``[...]`` filter on a segment."""

    kind: str  # "index" | "last" | "value" | "child"
    label: str | None = None
    value: str | None = None
    index: int | None = None


@dataclass(frozen=True)
class Segment:
    name: str  # label, "*", or "**"
    predicates: tuple[Predicate, ...] = ()


def _unquote(text: str) -> str:
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return re.sub(r"\\(.)", r"\1", text[1:-1])
    return text


def _parse_predicate(raw: str, expression: str) -> Predicate:
    raw = raw.strip()
    if not raw:
        raise PathExpressionError(f"{expression!r}: empty predicate []")
    if raw == "last()":
        return Predicate(kind="last")
    if _PRED_INDEX.fullmatch(raw):
        index = int(raw)
        if index < 1:
            raise PathExpressionError(f"{expression!r}: indexes are 1-based")
        return Predicate(kind="index", index=index)
    match = _PRED_COMPARE.fullmatch(raw)
    if not match:
        raise PathExpressionError(f"{expression!r}: bad predicate [{raw}]")
    rhs = match.group("rhs")
    if rhs[0] in "'\"" and rhs[-1] == rhs[0]:
        rhs = rhs[1:-1]
    lhs = match.group("lhs")
    if lhs == ".":
        return Predicate(kind="value", value=rhs)
    return Predicate(kind="child", label=lhs, value=rhs)


@lru_cache(maxsize=4096)
def parse_path(expression: str) -> "PathExpression":
    """Parse ``expression`` into a reusable :class:`PathExpression`.

    Parsed expressions are cached: the rule engine resolves the same
    ``config_path`` for every entity it scans.
    """
    expression = expression.strip()
    if not expression:
        return PathExpression(())
    segments: list[Segment] = []
    for part in _split_segments(expression):
        match = _SEGMENT.match(part)
        if not match:
            raise PathExpressionError(f"{expression!r}: bad segment {part!r}")
        name = _unquote(match.group("name"))
        predicates = tuple(
            _parse_predicate(pred, expression)
            for pred in _PRED.findall(match.group("preds"))
        )
        if name == "**" and predicates:
            raise PathExpressionError(
                f"{expression!r}: '**' does not take predicates"
            )
        segments.append(Segment(name=name, predicates=predicates))
    return PathExpression(tuple(segments))


def _split_segments(expression: str) -> list[str]:
    """Split on '/' outside quotes and brackets."""
    parts: list[str] = []
    current: list[str] = []
    in_quote = False
    depth = 0
    i = 0
    while i < len(expression):
        char = expression[i]
        if char == '"' and (i == 0 or expression[i - 1] != "\\"):
            in_quote = not in_quote
            current.append(char)
        elif char == "[" and not in_quote:
            depth += 1
            current.append(char)
        elif char == "]" and not in_quote:
            depth -= 1
            if depth < 0:
                raise PathExpressionError(f"{expression!r}: unbalanced ']'")
            current.append(char)
        elif char == "/" and not in_quote and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
        i += 1
    if in_quote:
        raise PathExpressionError(f"{expression!r}: unterminated quote")
    if depth:
        raise PathExpressionError(f"{expression!r}: unbalanced '['")
    parts.append("".join(current))
    if any(not part.strip() for part in parts):
        raise PathExpressionError(f"{expression!r}: empty path segment")
    return [part.strip() for part in parts]


def apply_predicates(
    candidates: Sequence[ConfigNode], predicates: tuple[Predicate, ...]
) -> Sequence[ConfigNode]:
    """Filter same-parent ``candidates`` through a segment's predicates."""
    for predicate in predicates:
        if predicate.kind == "index":
            index = predicate.index or 0
            candidates = (
                [candidates[index - 1]] if index <= len(candidates) else []
            )
        elif predicate.kind == "last":
            candidates = [candidates[-1]] if candidates else []
        elif predicate.kind == "value":
            candidates = [
                node for node in candidates if node.value == predicate.value
            ]
        elif predicate.kind == "child":
            candidates = [
                node
                for node in candidates
                if any(
                    child.label == predicate.label
                    and child.value == predicate.value
                    for child in node.children
                )
            ]
    return candidates


#: A node's location: its labels from the tree root, root label omitted
#: (``("http", "server", "listen")``); ``"/".join`` of it is the
#: ``location`` a rule's evidence reports.
Labels = tuple[str, ...]

#: A matching frontier: ``(node, labels)`` pairs.
Located = list[tuple[ConfigNode, Labels]]


def _descend(node: ConfigNode, labels: Labels, out: Located) -> None:
    """Append ``(node, labels)`` and every descendant's pair, pre-order."""
    out.append((node, labels))
    for child in node.children:
        _descend(child, labels + (child.label,), out)


def step_segment(pairs: Located, segment: Segment) -> Located:
    """Advance a frontier of ``(node, labels-from-root)`` pairs through
    one segment; each matched node comes with its own labels.

    Module-level (rather than a ``PathExpression`` method) so the rule
    planner's segment trie steps many expressions' shared segments with
    the exact matching semantics of stand-alone expressions.  A named
    segment builds one labels tuple per parent that has a match, shared
    by the matched siblings; ``*`` and ``**`` build one per node.
    """
    name = segment.name
    stepped: Located = []
    if name == "**":
        for node, labels in pairs:
            _descend(node, labels, stepped)  # descendant-or-self
        return stepped
    predicates = segment.predicates
    for parent, labels in pairs:
        if name == "*":
            candidates = apply_predicates(parent.children, predicates)
            stepped.extend(
                [(node, labels + (node.label,)) for node in candidates]
            )
            continue
        candidates = parent.children_named(name)
        if candidates:
            located = labels + (name,)
            stepped.extend([(node, located) for node in
                            apply_predicates(candidates, predicates)])
    return stepped


class PathExpression:
    """A compiled path expression; ``match`` and ``locate`` evaluate it
    against a tree."""

    def __init__(self, segments: tuple[Segment, ...]):
        self.segments = segments

    def locate(self, root: ConfigNode,
               labels: Labels = ()) -> dict[ConfigNode, Labels]:
        """Every node under ``root`` selected by this expression, mapped
        to its labels from the tree root (``labels`` are ``root``'s own).

        Nodes are in document order with duplicates removed (a ``**`` can
        reach the same node through several chains, always with the
        same labels: a node has one path from the root).
        """
        current: Located = [(root, labels)]
        for segment in self.segments:
            current = step_segment(current, segment)
            if not current:
                return {}
        # Nodes hash by identity, so the dict is an order-preserving
        # identity dedup.
        return dict(current)

    def match(self, root: ConfigNode) -> list[ConfigNode]:
        """All nodes under ``root`` selected by this expression, in
        document order with duplicates removed."""
        return list(self.locate(root))

    def __repr__(self) -> str:
        return f"PathExpression({'/'.join(seg.name for seg in self.segments)!r})"
