"""Lens for Apache httpd configuration.

Apache mixes flat directives with XML-ish section containers::

    ServerTokens Prod
    <Directory /var/www/>
        Options -Indexes
        AllowOverride None
    </Directory>

Tree shape: a directive node carries its arguments (space-joined) as the
value; a section node is labeled with the section name, carries the
section arguments as its value, and holds the enclosed directives as
children.  The paper's §6 notes apache's "modular" style is harder to
relate programmatically than sysctl's flat style -- the tree preserves
that structure instead of flattening it.
"""

from __future__ import annotations

import re

from repro.augtree.lenses.base import Lens
from repro.augtree.lenses.util import logical_spans
from repro.augtree.tree import ConfigNode, ConfigTree, SourceSpan

_OPEN = re.compile(r"<\s*(?P<name>[A-Za-z][\w]*)\s*(?P<args>[^>]*)>\s*$")
_CLOSE = re.compile(r"</\s*(?P<name>[A-Za-z][\w]*)\s*>\s*$")


class ApacheLens(Lens):
    name = "apache"
    file_patterns = (
        "apache2.conf",
        "httpd.conf",
        "*/apache2/*.conf",
        "*/httpd/conf.d/*.conf",
        "*/conf-enabled/*.conf",
        "*/mods-enabled/*.conf",
    )

    def parse(self, text: str, source: str = "<memory>") -> ConfigTree:
        root = ConfigNode("(root)")
        stack: list[tuple[str, ConfigNode]] = [("(root)", root)]
        for number, span, line in logical_spans(text, comment_chars="#",
                                                join_backslash=True):
            line = line.strip()
            close = _CLOSE.match(line)
            if close:
                name = close.group("name")
                if len(stack) == 1 or stack[-1][0].lower() != name.lower():
                    raise self.error(f"unmatched </{name}>", number)
                section = stack.pop()[1]
                # The section's span grows to cover its whole body, so
                # nested blocks report their true closing line.
                if section.span is not None:
                    first = SourceSpan._make(section.span)
                    last = SourceSpan._make(span)
                    section.span = (first.line, first.column, last.end_line,
                                    last.end_column, first.start, last.end)
                continue
            opened = _OPEN.match(line)
            if opened:
                args = opened.group("args").strip()
                node = stack[-1][1].add(opened.group("name"), args or None, span)
                stack.append((opened.group("name"), node))
                continue
            directive, _sep, args = line.partition(" ")
            args = args.strip()
            if len(directive) >= 2 and directive[0] in "'\"":
                raise self.error(f"directive cannot be quoted: {line!r}", number)
            stack[-1][1].add(directive, self._unquote(args) if args else None, span)
        if len(stack) > 1:
            raise self.error(f"section <{stack[-1][0]}> never closed")
        return ConfigTree(root, source=source, lens=self.name)

    @staticmethod
    def _unquote(args: str) -> str:
        if len(args) >= 2 and args[0] in "'\"" and args[-1] == args[0]:
            return args[1:-1]
        return args
