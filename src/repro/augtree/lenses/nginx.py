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
"""

from __future__ import annotations

import re

from repro.augtree.lenses.base import Lens
from repro.augtree.lenses.util import unescape
from repro.augtree.tree import ConfigNode, ConfigTree, SourceSpan

_PUNCT = "{};"

#: One token per match, tried where the previous one ended; every
#: character starts exactly one alternative.  Whitespace and comments
#: match no named group.  Only ``\n`` ends a line; ``\r`` is whitespace.
#: A string's closing quote is optional so that the pattern never fails:
#: a string whose match stops short of it is unterminated.
_TOKENS = re.compile(r"""
    (?P<newline>\n)
  | [ \t\r]+
  | \#[^\n]*
  | (?P<punct>[{};])
  | (?P<word>[^\n \t\r\#'"{};]+)
  | "(?P<dquoted>(?:[^"\\]|\\.)*)"?
  | '(?P<squoted>(?:[^'\\]|\\.)*)'?
""", re.VERBOSE | re.DOTALL)


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
        tokens = self._tokenize(text)
        root = ConfigNode("(root)")
        index = self._parse_block(tokens, 0, root, top_level=True)
        if index != len(tokens):
            line = tokens[index][1]
            raise self.error(f"unexpected {tokens[index][0]!r}", line)
        return ConfigTree(root, source=source, lens=self.name)

    # ---- tokenizer ---------------------------------------------------------

    def _tokenize(self, text: str) -> list[tuple[str, int, int, int, int]]:
        """``(token, line, column, start, end)`` tuples.

        Strings keep their content only, but line/column/offsets cover the
        raw region including the quotes.
        """
        tokens = []
        line = 1
        line_start = 0
        match = _TOKENS.match
        pos = 0
        while pos < len(text):
            token = match(text, pos)
            start, pos = token.span()
            kind = token.lastgroup
            if kind is None:  # whitespace or comment
                continue
            if kind == "newline":
                line += 1
                line_start = pos
            elif kind == "word" or kind == "punct":
                tokens.append((token.group(), line, start - line_start + 1,
                               start, pos))
            else:
                body = token.group(kind)
                if token.end(kind) == pos:
                    raise self.error("unterminated string", line)
                tokens.append((unescape(body), line, start - line_start + 1,
                               start, pos))
                newlines = body.count("\n")
                if newlines:
                    line += newlines
                    line_start = start + 2 + body.rindex("\n")
        return tokens

    # ---- recursive-descent parser ------------------------------------------

    def _parse_block(
        self,
        tokens: list[tuple[str, int, int, int, int]],
        index: int,
        parent: ConfigNode,
        *,
        top_level: bool,
    ) -> int:
        """Parse directives until ``}`` (or EOF at top level); return the
        index just past the closing brace (or EOF)."""
        while index < len(tokens):
            token, line = tokens[index][0], tokens[index][1]
            if token == "}":
                if top_level:
                    raise self.error("unmatched '}'", line)
                return index + 1
            if token in "{;":
                raise self.error(f"unexpected {token!r}", line)
            # Collect the directive name and its arguments.
            name = token
            name_line, name_col, name_start = tokens[index][1:4]
            index += 1
            args: list[str] = []
            while index < len(tokens) and tokens[index][0] not in _PUNCT:
                args.append(tokens[index][0])
                index += 1
            if index >= len(tokens):
                raise self.error(f"directive {name!r} missing ';' or '{{'", line)
            terminator, term_line = tokens[index][0], tokens[index][1]
            value = " ".join(args) if args else None
            if terminator == ";":
                term = tokens[index]
                span = SourceSpan(name_line, name_col, term[1], term[2] + 1,
                                  name_start, term[4])
                parent.add(name, value, span)
                index += 1
            elif terminator == "{":
                node = parent.add(name, value)
                index = self._parse_block(tokens, index + 1, node, top_level=False)
                # Span the whole block through its closing brace so nested
                # constructs report their true extent.
                closing = tokens[index - 1]
                node.span = SourceSpan(name_line, name_col, closing[1],
                                       closing[2] + 1, name_start, closing[4])
            else:
                raise self.error(f"unexpected '}}' after {name!r}", term_line)
        if not top_level:
            raise self.error("unexpected end of file inside a block")
        return index
