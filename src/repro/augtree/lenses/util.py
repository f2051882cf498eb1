"""Shared helpers for lens implementations.

The line helpers scan with compiled regular expressions, as Augeas
lenses do.
"""

from __future__ import annotations

import functools
import re
from typing import Iterator

from repro.augtree.lenses.base import MAX_NESTING, TOO_DEEP
from repro.augtree.tree import ConfigNode

#: Line terminators recognised by ``str.splitlines``.  A line from
#: ``splitlines(keepends=True)`` ends in at most one of them (``\r\n``
#: counting as one) and holds none elsewhere, so stripping these
#: characters leaves exactly its ``splitlines()`` content.
_LINE_ENDS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def logical_spans(
    text: str,
    *,
    comment_chars: str = "#",
    join_backslash: bool = False,
) -> Iterator[tuple[int, tuple, str]]:
    """Yield ``(line_number, span, content)`` for non-blank, non-comment lines.

    ``line_number`` is 1-based and refers to the *first* physical line of
    a backslash-joined logical line (``join_backslash``).  The span covers
    the whole logical construct -- from the first physical line of a
    joined run through the end of its last physical line -- trimmed of
    leading/trailing whitespace.  Inline comments are **not** stripped
    here -- whether ``#`` starts a comment mid-line is format-specific.
    """
    offset = 0
    pending: list[str] = []  # a joined run's lines, continuation dropped
    first = ""
    first_number = first_offset = first_lead = 0
    for number, raw in enumerate(text.splitlines(True), 1):
        line = raw.rstrip(_LINE_ENDS)
        if join_backslash and line[-1:] == "\\":
            if not pending:
                first, first_number, first_offset = line, number, offset
                first_lead = len(line) - len(line.lstrip())
            pending.append(line[:-1])
        elif pending:
            joined = "".join(pending) + line
            pending = []
            stripped = joined.strip()
            if stripped and stripped[0] not in comment_chars:
                tail = len(line.rstrip()) or len(line)
                yield first_number, (
                    first_number, first_lead + 1, number, tail + 1,
                    first_offset + first_lead, offset + tail,
                ), joined
        else:
            stripped = line.strip()
            if stripped and stripped[0] not in comment_chars:
                lead = len(line) - len(line.lstrip())
                tail = lead + len(stripped)
                yield number, (
                    number, lead + 1, number, tail + 1,
                    offset + lead, offset + tail,
                ), line
        offset += len(raw)
    if pending:  # trailing continuation: emit what we have
        joined = "".join(pending)
        stripped = joined.strip()
        if stripped and stripped[0] not in comment_chars:
            last = first.rstrip("\\")
            tail = len(last.rstrip()) or len(last)
            yield first_number, (
                first_number, first_lead + 1, first_number, tail + 1,
                first_offset + first_lead, first_offset + tail,
            ), joined


@functools.lru_cache(maxsize=64)
def _comment_scanner(comment_chars: str) -> re.Pattern[str]:
    """Pattern matching the longest prefix free of unquoted comment
    characters.  A quote opens a string even when it is a comment
    character; an unterminated string runs to the end of the line.

    The alternatives start with distinct characters and closing quotes
    are optional, so a match never fails and never backtracks into the
    loop: the scan is linear in the line.
    """
    stops = "".join(re.escape(char) for char in comment_chars
                    if char not in "'\"")
    return re.compile(rf"""(?:[^'"{stops}]+|'[^']*'?|"[^"]*"?)*""")


def strip_inline_comment(line: str, comment_chars: str = "#") -> str:
    """Drop an unquoted trailing comment from ``line``."""
    return line[:_comment_scanner(comment_chars).match(line).end()].rstrip()


_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def unescape(text: str) -> str:
    """Drop each backslash escape's backslash, keeping the character it
    escapes (a lone trailing backslash stays)."""
    return _ESCAPE.sub(r"\1", text) if "\\" in text else text


def scalar_to_tree(label: str, value: object, parent: ConfigNode,
                   depth: int = 1) -> None:
    """Convert a decoded JSON/YAML value into tree children under ``parent``.

    Mappings become child nodes per key; sequences become repeated children
    with the same label; scalars become string values (booleans rendered
    lowercase like their on-disk form, None as empty value).  Collections
    nested deeper than :data:`MAX_NESTING` raise ``RecursionError``.
    """
    if depth > MAX_NESTING:
        raise RecursionError(TOO_DEEP)
    if isinstance(value, dict):
        node = parent.add(str(label))
        for key, item in value.items():
            scalar_to_tree(str(key), item, node, depth + 1)
    elif isinstance(value, (list, tuple)):
        for item in value:
            scalar_to_tree(str(label), item, parent, depth + 1)
    else:
        parent.add(str(label), _render_scalar(value))


def _render_scalar(value: object) -> str | None:
    if value is None:
        return None
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
