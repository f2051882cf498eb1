"""Lens for JSON configuration (Docker daemon.json, app configs)."""

from __future__ import annotations

import json
import json.decoder
import json.scanner
from bisect import bisect_right

from repro.augtree.lenses.base import TOO_DEEP, Lens
from repro.augtree.lenses.util import _render_scalar, scalar_to_tree
from repro.augtree.tree import ConfigNode, ConfigTree

_WHITESPACE = " \t\n\r"


class _Spanned:
    """A decoded JSON value plus the raw-text region it came from.

    ``value`` is a scalar, a list of ``_Spanned`` items, or -- for objects
    -- a dict mapping each key to ``(key_offset, _Spanned)`` with JSON's
    duplicate-key semantics (last value wins, first position kept).
    """

    __slots__ = ("value", "start", "end")

    def __init__(self, value, start: int, end: int):
        self.value = value
        self.start = start
        self.end = end


class JsonLens(Lens):
    name = "json"
    file_patterns = ("*.json", "daemon.json")

    def parse(self, text: str, source: str = "<memory>") -> ConfigTree:
        if not text.strip():
            return ConfigTree(ConfigNode("(root)"), source=source, lens=self.name)
        root = ConfigNode("(root)")
        try:
            data = json.loads(text)
            if isinstance(data, dict):
                for key, value in data.items():
                    scalar_to_tree(str(key), value, root)
            else:
                scalar_to_tree("(document)", data, root)
        except json.JSONDecodeError as exc:
            raise self.error(f"invalid JSON: {exc.msg}", exc.lineno) from exc
        except ValueError as exc:  # an int past Python's digit limit
            raise self.error(f"invalid JSON: {exc}") from exc
        except RecursionError:  # the bound, or deeper than json.loads goes
            raise self.error(TOO_DEEP) from None
        # ``json.loads`` stays the semantic source of truth; a second
        # span-tracking pass over the (already validated) text harvests
        # offsets, and is only trusted when it rebuilds the identical tree.
        spanned = self._spanned_root(text)
        if spanned is not None and spanned == root:
            root = spanned
        return ConfigTree(root, source=source, lens=self.name)

    # ---- span harvesting ---------------------------------------------------

    def _spanned_root(self, text: str) -> ConfigNode | None:
        try:
            spanned, end = self._parse_value(text, self._skip_ws(text, 0))
            if self._skip_ws(text, end) != len(text):
                return None
            line_starts = [0]
            for index, char in enumerate(text):
                if char == "\n":
                    line_starts.append(index + 1)

            def make_span(start: int, end: int) -> tuple:
                start_line = bisect_right(line_starts, start)
                end_line = bisect_right(line_starts, end)
                return (
                    start_line, start - line_starts[start_line - 1] + 1,
                    end_line, end - line_starts[end_line - 1] + 1,
                    start, end,
                )

            root = ConfigNode("(root)")
            if isinstance(spanned.value, dict):
                for key, (key_start, child) in spanned.value.items():
                    self._spanned_to_tree(str(key), child, root,
                                          make_span(key_start, child.end),
                                          make_span)
            else:
                self._spanned_to_tree("(document)", spanned, root,
                                      make_span(spanned.start, spanned.end),
                                      make_span)
            return root
        except Exception:
            return None

    def _spanned_to_tree(self, label: str, spanned: _Spanned,
                         parent: ConfigNode, span: tuple,
                         make_span) -> None:
        """Mirror of :func:`scalar_to_tree` over spanned JSON values."""
        value = spanned.value
        if isinstance(value, dict):
            node = parent.add(str(label), None, span)
            for key, (key_start, child) in value.items():
                self._spanned_to_tree(str(key), child, node,
                                      make_span(key_start, child.end),
                                      make_span)
        elif isinstance(value, list):
            for item in value:
                self._spanned_to_tree(str(label), item, parent,
                                      make_span(item.start, item.end),
                                      make_span)
        else:
            parent.add(str(label), _render_scalar(value), span)

    # ---- minimal offset-tracking JSON reader -------------------------------
    #
    # Only ever run on text json.loads already accepted, so error handling
    # is just "raise and fall back to the span-less tree".

    @staticmethod
    def _skip_ws(text: str, i: int) -> int:
        while i < len(text) and text[i] in _WHITESPACE:
            i += 1
        return i

    def _parse_value(self, text: str, i: int) -> tuple[_Spanned, int]:
        char = text[i]
        if char == "{":
            return self._parse_object(text, i)
        if char == "[":
            return self._parse_array(text, i)
        if char == '"':
            string, end = json.decoder.scanstring(text, i + 1)
            return _Spanned(string, i, end), end
        for literal, value in (("true", True), ("false", False),
                               ("null", None), ("NaN", float("nan")),
                               ("Infinity", float("inf")),
                               ("-Infinity", float("-inf"))):
            if text.startswith(literal, i):
                return _Spanned(value, i, i + len(literal)), i + len(literal)
        match = json.scanner.NUMBER_RE.match(text, i)
        if match is None:
            raise ValueError(f"unexpected character at offset {i}")
        integer, frac, exp = match.groups()
        number = float(integer + (frac or "") + (exp or "")) if frac or exp \
            else int(integer)
        return _Spanned(number, i, match.end()), match.end()

    def _parse_object(self, text: str, i: int) -> tuple[_Spanned, int]:
        start = i
        entries: dict[str, tuple[int, _Spanned]] = {}
        i = self._skip_ws(text, i + 1)
        if text[i] == "}":
            return _Spanned(entries, start, i + 1), i + 1
        while True:
            if text[i] != '"':
                raise ValueError("expected a string key")
            key_start = i
            key, i = json.decoder.scanstring(text, i + 1)
            i = self._skip_ws(text, i)
            if text[i] != ":":
                raise ValueError("expected ':'")
            i = self._skip_ws(text, i + 1)
            value, i = self._parse_value(text, i)
            entries[key] = (key_start, value)
            i = self._skip_ws(text, i)
            if text[i] == ",":
                i = self._skip_ws(text, i + 1)
                continue
            if text[i] != "}":
                raise ValueError("expected ',' or '}'")
            return _Spanned(entries, start, i + 1), i + 1

    def _parse_array(self, text: str, i: int) -> tuple[_Spanned, int]:
        start = i
        items: list[_Spanned] = []
        i = self._skip_ws(text, i + 1)
        if text[i] == "]":
            return _Spanned(items, start, i + 1), i + 1
        while True:
            item, i = self._parse_value(text, i)
            items.append(item)
            i = self._skip_ws(text, i)
            if text[i] == ",":
                i = self._skip_ws(text, i + 1)
                continue
            if text[i] != "]":
                raise ValueError("expected ',' or ']'")
            return _Spanned(items, start, i + 1), i + 1
