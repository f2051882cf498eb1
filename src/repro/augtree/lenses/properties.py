"""Lens for Java .properties files (Hadoop log4j, Kafka, ...).

Supports ``key=value``, ``key:value``, ``key value``, backslash line
continuation, and ``\\u``-style escapes being left verbatim (rules match
on the raw text form administrators write).
"""

from __future__ import annotations

import re

from repro.augtree.lenses.base import Lens
from repro.augtree.lenses.util import logical_spans, unescape
from repro.augtree.tree import ConfigNode, ConfigTree

#: The key -- up to the first unescaped ``=``, ``:``, space or tab --
#: then blanks, at most one ``=`` or ``:``, and blanks again.  A
#: backslash escapes the next character; a lone trailing one is kept.
_KEY = re.compile(r"((?:[^\\=: \t]|\\.|\\\Z)*)[ \t]*[=:]?[ \t]*", re.DOTALL)


class PropertiesLens(Lens):
    name = "properties"
    file_patterns = ("*.properties",)

    def parse(self, text: str, source: str = "<memory>") -> ConfigTree:
        root = ConfigNode("(root)")
        for _number, span, line in logical_spans(
            text, comment_chars="#!", join_backslash=True
        ):
            line = line.strip()
            key, value = self._split(line)
            root.add(key, value, span)
        return ConfigTree(root, source=source, lens=self.name)

    @staticmethod
    def _split(line: str) -> tuple[str, str | None]:
        match = _KEY.match(line)
        value = line[match.end():]
        return unescape(match.group(1)), value if value else None
