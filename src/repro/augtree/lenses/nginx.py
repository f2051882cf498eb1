"""Lens for nginx configuration.

nginx.conf is a directive language::

    worker_processes auto;            # simple directive
    http {                            # block directive
        server {
            listen 443 ssl;
            ssl_protocols TLSv1.2 TLSv1.3;
        }
    }

Tree shape: each directive becomes a node labeled with the directive name;
simple directives carry their arguments (space-joined) as the node value;
block directives carry their block arguments (e.g. ``location /api``) as
value and their body as children.  Repeated blocks (two ``server``s) become
repeated sibling labels, addressable as ``server[1]`` / ``server[2]``.

The lens scans with one regular-expression match per directive and keeps
its open blocks on a stack: a block nested deeper than
:data:`~repro.augtree.lenses.base.MAX_NESTING` is a ``LensError``.
"""

from __future__ import annotations

import re

from repro.augtree.lenses.base import MAX_NESTING, TOO_DEEP, Lens
from repro.augtree.lenses.util import unescape
from repro.augtree.tree import ConfigNode, ConfigTree
from repro.errors import LensError

#: Whitespace and comments.  Only ``\n`` ends a line; ``\r`` is
#: whitespace.  A comment runs to its line's end: the lookahead keeps a
#: backtracking match from reading a comment's tail as a word.
_GAP = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*"
_WORD = r"[^\n \t\r\#'\"{};]+"

#: One match per directive: the gap before it, a bare name, its bare
#: arguments (``args`` while they are one space apart, ``more`` after
#: that), and the character that stopped the match -- ``;``, ``{``,
#: ``}``, a quote, or none at the end of the text.  Every part may be
#: empty, so the pattern always matches.  After a quoted token the scan
#: goes on with the same pattern; its name is then an argument.
_DIRECTIVE = re.compile(rf"""
    {_GAP} (?P<name>{_WORD})? (?:\x20(?P<args>{_WORD}(?:\x20{_WORD})*))?
    (?P<more>(?:{_GAP}{_WORD})*) {_GAP}
    (?P<end>[;{{}}'"]?)""", re.VERBOSE)
_WORDS = re.compile(_WORD)
_COMMENT = re.compile(r"#[^\n]*")

#: A quoted string from its opening quote; no match if unterminated.
_STRING = re.compile(r""""((?:[^"\\]|\\.)*)"|'((?:[^'\\]|\\.)*)'""", re.DOTALL)

#: Text from a token's start up to an unterminated string, if any.
_TERMINATED = re.compile(
    r"""(?:[^'"#]+|#[^\n]*|"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')*""", re.DOTALL)


class NginxLens(Lens):
    name = "nginx"
    file_patterns = (
        "nginx.conf",
        "*/nginx/*.conf",
        "*/sites-enabled/*",
        "*/sites-available/*",
        "*/conf.d/*.conf",
    )

    def parse(self, text: str, source: str = "<memory>") -> ConfigTree:
        root = parent = ConfigNode("(root)")
        #: Open blocks, innermost last: each node with its name's line,
        #: column and offset.
        stack: list[tuple[ConfigNode, int, int, int]] = []
        #: The directive being read: its name (None between directives)
        #: and its arguments so far, in pieces to join with spaces.
        name = None
        args: list[str] = []
        #: ``line`` is the line of offset ``seen``; it starts at ``line_start``.
        line, line_start, seen = 1, 0, 0

        def locate(at: int) -> tuple[int, int]:
            """Line and column of offset ``at``, which never moves back."""
            nonlocal line, line_start, seen
            newlines = text.count("\n", seen, at)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", seen, at) + 1
            seen = at
            return line, at - line_start + 1

        def fail(message: str, at: int) -> LensError:
            """The error for a parse problem at the token at ``at``.  An
            unterminated string later on is reported instead, as it was
            when a tokenizer read the whole text before parsing."""
            stop = _TERMINATED.match(text, at).end()
            if stop < len(text):
                return self.error("unterminated string",
                                  text.count("\n", 0, stop) + 1)
            return self.error(message, locate(at)[0])

        pos = 0
        while True:
            match = _DIRECTIVE.match(text, pos)
            first, simple, more, end = match.group("name", "args", "more", "end")
            pos = match.end()
            if first is not None:
                if name is None:
                    name, start = first, match.start("name")
                    name_line, name_col = locate(start)
                else:
                    args.append(first)
                if simple:
                    args.append(simple)
                if more:
                    args += _WORDS.findall(_COMMENT.sub("", more))
            if not end:
                break
            at = pos - 1
            if end in "'\"":
                string = _STRING.match(text, at)
                if string is None:
                    raise self.error("unterminated string", locate(at)[0])
                pos = string.end()
                # A quoted token is a word, whatever its text.
                word = unescape(string.group(string.lastindex))
                if name is None:
                    name, start = word, at
                    name_line, name_col = locate(at)
                else:
                    args.append(word)
                continue
            if name is None:
                if end != "}":
                    raise fail(f"unexpected {end!r}", at)
                if not stack:
                    raise fail("unmatched '}'", at)
                node, open_line, open_col, open_start = stack.pop()
                close_line, close_col = locate(at)
                node.span = (open_line, open_col, close_line, close_col + 1,
                             open_start, pos)
                parent = stack[-1][0] if stack else root
                continue
            value = " ".join(args) if args else None
            if end == ";":
                term_line, term_col = locate(at)
                parent.add(name, value, (
                    name_line, name_col, term_line, term_col + 1, start, pos))
            elif end == "{":
                if len(stack) == MAX_NESTING:
                    raise fail(TOO_DEEP, at)
                parent = parent.add(name, value)
                stack.append((parent, name_line, name_col, start))
            else:
                raise fail(f"unexpected '}}' after {name!r}", at)
            name = None
            args = []
        if name is not None:
            raise self.error(f"directive {name!r} missing ';' or '{{'",
                             name_line)
        if stack:
            raise self.error("unexpected end of file inside a block")
        return ConfigTree(root, source=source, lens=self.name)
