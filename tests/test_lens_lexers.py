"""Differential tests of the lens lexers against per-character references.

``strip_inline_comment``, ``logical_spans`` and ``PropertiesLens._split``
scan with compiled regular expressions, and ``NginxLens`` with one match
per directive.  The per-character loops they replaced, and the nginx
lens's recursive descent over its token list, are kept below, verbatim
but for one fix (a quoted nginx token is always a word), as reference
oracles: on every input the two must give equal output, or raise the
same error type with the same message and line.  Inputs are
drawn from the characters the lexers treat specially -- quotes,
backslashes, comment and punctuation characters, and every kind of line
break ``str.splitlines`` knows -- plus a few words so that lenses build
real trees.
"""

from __future__ import annotations

import contextlib
import importlib
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.augtree.lenses import (
    ApacheLens,
    IniLens,
    KeyValueLens,
    ModprobeLens,
    NginxLens,
    PropertiesLens,
    SshdLens,
    SysctlLens,
)
from repro.augtree.lenses import util
from repro.augtree.tree import ConfigNode, ConfigTree, SourceSpan
from repro.errors import LensError
from repro.workloads.rulegen import generate_nginx_config, generate_sysctl_config


# ---------------------------------------------------------------------------
# Reference oracles: the per-character lexers, as they were
# ---------------------------------------------------------------------------

#: Line terminators recognised by ``str.splitlines``; stripping these from
#: ``splitlines(keepends=True)`` output reproduces ``splitlines()`` exactly
#: while keeping the raw (terminator-inclusive) length for offset tracking.
_LINE_ENDS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def physical_lines(text: str) -> Iterator[tuple[int, int, str]]:
    """Yield ``(line_number, start_offset, content)`` per physical line.

    Content matches ``text.splitlines()`` element-for-element; the offset
    is the character index of the line's first character in ``text``.
    """
    offset = 0
    for number, raw in enumerate(text.splitlines(keepends=True), start=1):
        line = raw
        if line.endswith("\r\n"):
            line = line[:-2]
        elif line and line[-1] in _LINE_ENDS:
            line = line[:-1]
        yield number, offset, line
        offset += len(raw)


def _trimmed_span(start_line: int, start_offset: int, first: str,
                  end_line: int, end_offset: int, last: str) -> SourceSpan:
    """Span covering a logical construct, trimmed of flanking whitespace.

    ``first``/``last`` are the first and last physical lines of the
    construct; ``start_offset``/``end_offset`` are their line-start offsets.
    """
    lead = len(first) - len(first.lstrip())
    if lead == len(first):  # blank first line; anchor at column 1
        lead = 0
    tail = len(last.rstrip())
    if tail == 0 and last.strip() == "":
        tail = len(last)
    return SourceSpan(
        line=start_line,
        column=lead + 1,
        end_line=end_line,
        end_column=tail + 1,
        start=start_offset + lead,
        end=end_offset + tail,
    )


def logical_spans(
    text: str,
    *,
    comment_chars: str = "#",
    join_backslash: bool = False,
) -> Iterator[tuple[int, SourceSpan, str]]:
    """Yield ``(line_number, span, content)`` for non-blank, non-comment lines.

    Like :func:`logical_lines` but also reports a :class:`SourceSpan`
    covering the whole logical construct -- from the first physical line of
    a backslash-joined run through the end of its last physical line --
    trimmed of leading/trailing whitespace.
    """
    pending: list[str] = []
    pending_start = 0
    pending_offset = 0
    pending_first = ""
    for number, offset, raw in physical_lines(text):
        line = raw.rstrip("\n")
        if join_backslash and line.endswith("\\"):
            if not pending:
                pending_start = number
                pending_offset = offset
                pending_first = raw
            pending.append(line[:-1])
            continue
        if pending:
            line = "".join(pending) + line
            start, start_offset, first = pending_start, pending_offset, pending_first
            pending = []
        else:
            start, start_offset, first = number, offset, raw
        stripped = line.strip()
        if not stripped or stripped[0] in comment_chars:
            continue
        yield start, _trimmed_span(start, start_offset, first,
                                   number, offset, raw), line
    if pending:  # trailing continuation: emit what we have
        line = "".join(pending)
        if line.strip() and line.strip()[0] not in comment_chars:
            span = _trimmed_span(pending_start, pending_offset, pending_first,
                                 pending_start, pending_offset,
                                 pending_first.rstrip("\\"))
            yield pending_start, span, line


def strip_inline_comment(line: str, comment_chars: str = "#") -> str:
    """Drop an unquoted trailing comment from ``line``."""
    result: list[str] = []
    quote: str | None = None
    for char in line:
        if quote:
            result.append(char)
            if char == quote:
                quote = None
            continue
        if char in "'\"":
            quote = char
            result.append(char)
            continue
        if char in comment_chars:
            break
        result.append(char)
    return "".join(result).rstrip()


def properties_split(line: str) -> tuple[str, str | None]:
    """``PropertiesLens._split``, as it was."""
    key_chars: list[str] = []
    i = 0
    while i < len(line):
        char = line[i]
        if char == "\\" and i + 1 < len(line):
            key_chars.append(line[i + 1])
            i += 2
            continue
        if char in "=: \t":
            break
        key_chars.append(char)
        i += 1
    # Skip whitespace, then at most one '=' or ':', then whitespace.
    while i < len(line) and line[i] in " \t":
        i += 1
    if i < len(line) and line[i] in "=:":
        i += 1
    while i < len(line) and line[i] in " \t":
        i += 1
    value = line[i:]
    return "".join(key_chars), value if value else None


_PUNCT = "{};"


def _is_punct(token: tuple, chars: str) -> bool:
    """Whether an unquoted ``token`` is one of the punctuation ``chars``."""
    return not token[5] and token[0] in chars


class ReferenceNginxLens(NginxLens):
    """nginx lens as it was: the per-character tokenizer, then a
    recursive descent over its token list.  One change since: a quoted
    token is always a word, whatever its text."""

    def parse(self, text: str, source: str = "<memory>") -> ConfigTree:
        tokens = list(self._tokenize(text))
        root = ConfigNode("(root)")
        index = self._parse_block(tokens, 0, root, top_level=True)
        if index != len(tokens):
            line = tokens[index][1]
            raise self.error(f"unexpected {tokens[index][0]!r}", line)
        return ConfigTree(root, source=source, lens=self.name)

    def _parse_block(
        self,
        tokens: list[tuple[str, int, int, int, int, bool]],
        index: int,
        parent: ConfigNode,
        *,
        top_level: bool,
    ) -> int:
        """Parse directives until ``}`` (or EOF at top level); return the
        index just past the closing brace (or EOF)."""
        while index < len(tokens):
            token, line = tokens[index][0], tokens[index][1]
            if _is_punct(tokens[index], "}"):
                if top_level:
                    raise self.error("unmatched '}'", line)
                return index + 1
            if _is_punct(tokens[index], "{;"):
                raise self.error(f"unexpected {token!r}", line)
            # Collect the directive name and its arguments.
            name = token
            name_line, name_col, name_start = tokens[index][1:4]
            index += 1
            args: list[str] = []
            while index < len(tokens) and not _is_punct(tokens[index], _PUNCT):
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

    def _tokenize(self, text: str):
        """Yield ``(token, line, column, start, end, quoted)`` tuples.

        Strings keep their content only, but line/column/offsets cover the
        raw region including the quotes.
        """
        line = 1
        line_start = 0
        i = 0
        word: list[str] = []
        word_pos = (1, 1, 0)  # (line, column, offset) of the word's start

        def flush():
            nonlocal word
            if word:
                w_line, w_col, w_start = word_pos
                yield ("".join(word), w_line, w_col, w_start,
                       w_start + len(word), False)
                word = []

        while i < len(text):
            char = text[i]
            if char == "\n":
                yield from flush()
                line += 1
                i += 1
                line_start = i
            elif char in " \t\r":
                yield from flush()
                i += 1
            elif char == "#":
                yield from flush()
                while i < len(text) and text[i] != "\n":
                    i += 1
            elif char in "'\"":
                yield from flush()
                quote = char
                start = i
                start_line = line
                start_col = i - line_start + 1
                i += 1
                buffer: list[str] = []
                while i < len(text) and text[i] != quote:
                    if text[i] == "\\" and i + 1 < len(text):
                        buffer.append(text[i + 1])
                        if text[i + 1] == "\n":
                            line += 1
                            line_start = i + 2
                        i += 2
                        continue
                    if text[i] == "\n":
                        line += 1
                        line_start = i + 1
                    buffer.append(text[i])
                    i += 1
                if i >= len(text):
                    raise self.error("unterminated string", start_line)
                i += 1
                yield "".join(buffer), start_line, start_col, start, i, True
            elif char in _PUNCT:
                yield from flush()
                yield char, line, i - line_start + 1, i, i + 1, False
                i += 1
            else:
                if not word:
                    word_pos = (line, i - line_start + 1, i)
                word.append(char)
                i += 1
        yield from flush()


# ---------------------------------------------------------------------------
# Comparison machinery
# ---------------------------------------------------------------------------

def _outcome(call):
    """``("ok", result)`` or ``("error", type, message, line)``."""
    try:
        return ("ok", call())
    except LensError as error:
        return ("error", type(error), str(error), error.line)


def _dump(node) -> tuple:
    return (node.label, node.value, node.span,
            tuple(_dump(child) for child in node.children))


def _tree_outcome(lens, text: str):
    return _outcome(lambda: _dump(lens.parse(text).root))


#: Modules whose lenses read lines through the shared helpers.
_LINE_LENS_MODULES = ("apache", "ini", "keyvalue", "modprobe", "properties",
                      "sshd", "sysctl")


@contextlib.contextmanager
def _reference_helpers():
    """Run the line lenses on the reference ``logical_spans``,
    ``strip_inline_comment`` and properties key splitter."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            PropertiesLens, "_split", staticmethod(properties_split)))
        for name in _LINE_LENS_MODULES:
            module = importlib.import_module(f"repro.augtree.lenses.{name}")
            for helper, reference in (("logical_spans", logical_spans),
                                      ("strip_inline_comment",
                                       strip_inline_comment)):
                if hasattr(module, helper):
                    stack.enter_context(
                        mock.patch.object(module, helper, reference))
        yield


def _assert_same_tree(lens, text: str) -> None:
    if isinstance(lens, NginxLens):
        expected = _tree_outcome(ReferenceNginxLens(), text)
    else:
        with _reference_helpers():
            expected = _tree_outcome(lens, text)
    assert _tree_outcome(lens, text) == expected


# ---------------------------------------------------------------------------
# Input strategies
# ---------------------------------------------------------------------------

#: Characters and sequences the lexers treat specially.
_SPECIAL = ["'", '"', "\\", "#", ";", "{", "}", "=", ":", "[", "]", " ",
            "\t", "\n", "\r\n", "\r", "\v", "\f", "\x85", "\u2028",
            "\\\n"]

_WORDS = ["a", "b1", "key", "install", "options", "blacklist", "alias",
          "server", "listen", "Match", "<Directory /x>", "</Directory>",
          "!include", "x.y"]

_lexer_text = st.lists(st.sampled_from(_SPECIAL + ["a", "b"]),
                       max_size=60).map("".join)
_config_text = st.lists(st.sampled_from(_SPECIAL + _WORDS),
                        max_size=80).map("".join)

_COMMENT_SETS = ["#", "#;", "#'"]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

class TestStripInlineComment:
    @pytest.mark.parametrize("comment_chars", _COMMENT_SETS)
    @settings(max_examples=400, deadline=None)
    @given(line=_lexer_text)
    def test_matches_reference(self, comment_chars, line):
        assert (util.strip_inline_comment(line, comment_chars)
                == strip_inline_comment(line, comment_chars))

    @pytest.mark.parametrize("line,expected", [
        ("a = 'x#y' # c", "a = 'x#y'"),
        ('a = "x;y" ; c', 'a = "x;y"'),
        ("a = 'open # still quoted", "a = 'open # still quoted"),
        ("# only", ""),
    ])
    def test_quoted_comment_characters(self, line, expected):
        assert util.strip_inline_comment(line, "#;") == expected


class TestLogicalSpans:
    @pytest.mark.parametrize("join_backslash", [False, True])
    @pytest.mark.parametrize("comment_chars", ["#", "#;"])
    @settings(max_examples=400, deadline=None)
    @given(text=_lexer_text)
    def test_matches_reference(self, join_backslash, comment_chars, text):
        options = {"comment_chars": comment_chars,
                   "join_backslash": join_backslash}
        assert (list(util.logical_spans(text, **options))
                == list(logical_spans(text, **options)))


class TestPropertiesSplit:
    @settings(max_examples=400, deadline=None)
    @given(line=_lexer_text)
    def test_matches_reference(self, line):
        assert PropertiesLens._split(line) == properties_split(line)


class TestNginxTokens:
    """The scanner has no token stream of its own: text drawn from the
    tokenizer's alphabet must give the reference's tree, spans and
    errors."""

    @settings(max_examples=600, deadline=None)
    @given(text=_lexer_text)
    @example(text="a b # c ; d\n e;")  # a comment between arguments
    @example(text='a "x\ny" b;')  # an argument spanning lines
    @example(text="'a b' c;")  # a quoted name
    @example(text='a "" b;')  # an empty quoted argument
    @example(text='a "";')  # an empty quoted last argument
    @example(text='"}" "{" ";" x;')  # quoted punctuation is a word
    @example(text='a "{" }')  # a quoted brace opens no block
    @example(text="a\vb c\x85d e\u2028f;")  # str.isspace() inside words
    @example(text="\x0b")
    @example(text="a{")
    @example(text="a;;")
    @example(text="a b}")  # ``}`` right after arguments
    @example(text='} "x')  # an unterminated string after a stray ``}``
    def test_token_stream_matches_reference(self, text):
        _assert_same_tree(NginxLens(), text)

    @pytest.mark.parametrize("text", [
        'a "x\\"y\n z" b;\n  c;',
        "a 'q\\\n' b;\r\nc;",
        "k \"unterminated\n",
        'k "ends in backslash\\',
        "x\vy\x85z {\u2028}",
    ])
    def test_edge_cases_match_reference(self, text):
        _assert_same_tree(NginxLens(), text)


_LENSES = [ApacheLens(), IniLens(), KeyValueLens(), ModprobeLens(),
           NginxLens(), PropertiesLens(), SshdLens(), SysctlLens()]


class TestLensTrees:
    @pytest.mark.parametrize("lens", _LENSES, ids=lambda lens: lens.name)
    @settings(max_examples=300, deadline=None)
    @given(text=_config_text)
    def test_tree_matches_reference(self, lens, text):
        _assert_same_tree(lens, text)

    @pytest.mark.parametrize("seed", range(20))
    def test_generated_configs_match_reference(self, seed):
        _assert_same_tree(NginxLens(), generate_nginx_config(30, seed=seed))
        _assert_same_tree(SysctlLens(),
                          generate_sysctl_config(200, seed=seed))
