"""Lens for modprobe.d configuration.

Directives::

    install <module> <command...>
    blacklist <module>
    options <module> <opt=val ...>
    alias <wildcard> <module>
    remove <module> <command...>

Tree shape: one node per directive, labeled by the directive keyword, with
the module name as the node value and the remainder (command / options)
as a ``command`` or ``options`` child.  CIS rules like "ensure cramfs is
disabled" check ``install[.='cramfs']/command == /bin/true``.
"""

from __future__ import annotations

from repro.augtree.lenses.base import Lens
from repro.augtree.lenses.util import logical_spans, strip_inline_comment
from repro.augtree.tree import ConfigNode, ConfigTree

_DIRECTIVES = {"install", "remove", "blacklist", "alias", "options", "softdep"}


class ModprobeLens(Lens):
    name = "modprobe"
    file_patterns = ("*/modprobe.d/*.conf", "modprobe.conf", "blacklist*.conf")

    def parse(self, text: str, source: str = "<memory>") -> ConfigTree:
        root = ConfigNode("(root)")
        for number, span, line in logical_spans(text, comment_chars="#",
                                                join_backslash=True):
            line = strip_inline_comment(line, "#").strip()
            if not line:
                continue
            parts = line.split(None, 2)
            directive = parts[0]
            if directive not in _DIRECTIVES:
                raise self.error(f"unknown directive {directive!r}", number)
            if len(parts) < 2:
                raise self.error(f"{directive!r} needs a module name", number)
            node = root.add(directive, parts[1], span)
            rest = parts[2].strip() if len(parts) == 3 else ""
            if rest:
                child_label = {
                    "install": "command",
                    "remove": "command",
                    "alias": "module",
                    "softdep": "dependencies",
                }.get(directive, "options")
                if directive == "options":
                    for option in rest.split():
                        key, _sep, value = option.partition("=")
                        node.add(key, value if _sep else None, span)
                else:
                    node.add(child_label, rest, span)
        return ConfigTree(root, source=source, lens=self.name)
