"""Fuzz-style robustness properties.

Every parser in the system has a documented failure mode (its subsystem's
ReproError subclass).  Arbitrary input must either parse or raise exactly
that — never IndexError, RecursionError, or a hang.  These properties are
what make the validator safe to point at untrusted container filesystems.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    CompositeExpressionError,
    CVLError,
    LensError,
    PathExpressionError,
    QueryError,
    ReproError,
    SchemaError,
)
from repro.augtree.lenses import default_registry
from repro.augtree.path import parse_path
from repro.cvl.composite_expr import parse_composite
from repro.cvl.loader import load_rules
from repro.schema import default_schema_registry, parse_query

_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    max_size=300,
)
_configish = st.text(
    alphabet="abcdefgh =:{}[]<>/#;\"'\n\t.-_*!@()|&?%$,0123456789\\",
    max_size=300,
)


class TestLensRobustness:
    @pytest.mark.parametrize("lens_name", default_registry().names())
    @settings(max_examples=8, deadline=None)
    @given(text=_configish)
    def test_lens_parses_or_raises_lens_error(self, lens_name, text):
        lens = default_registry().get(lens_name)
        try:
            tree = lens.parse(text)
        except LensError:
            return
        assert tree.size() >= 0  # whatever parsed must be a usable tree

    @pytest.mark.parametrize("lens_name", default_registry().names())
    @settings(max_examples=4, deadline=None)
    @given(text=_text)
    def test_lens_survives_arbitrary_unicode(self, lens_name, text):
        lens = default_registry().get(lens_name)
        try:
            lens.parse(text)
        except LensError:
            pass


class TestSchemaRobustness:
    @pytest.mark.parametrize("parser_name", default_schema_registry().names())
    @settings(max_examples=8, deadline=None)
    @given(text=_configish)
    def test_parser_parses_or_raises_schema_error(self, parser_name, text):
        parser = default_schema_registry().get(parser_name)
        try:
            table = parser.parse(text)
        except SchemaError:
            return
        for row in table:
            assert len(row.values) == len(table.columns)


class TestExpressionRobustness:
    @settings(max_examples=20, deadline=None)
    @given(text=_configish)
    def test_path_expressions(self, text):
        try:
            parse_path(text)
        except PathExpressionError:
            pass

    @settings(max_examples=20, deadline=None)
    @given(text=_configish)
    def test_queries(self, text):
        try:
            parse_query(text)
        except QueryError:
            pass

    @settings(max_examples=20, deadline=None)
    @given(text=_configish)
    def test_composites(self, text):
        try:
            parse_composite(text)
        except CompositeExpressionError:
            pass


class TestLoaderRobustness:
    @settings(max_examples=25, deadline=None)
    @given(text=_configish)
    def test_load_rules_raises_only_cvl_errors(self, text):
        try:
            load_rules(text)
        except CVLError:
            pass

    @settings(max_examples=20, deadline=None)
    @given(
        mapping=st.dictionaries(
            st.sampled_from(
                ["config_name", "preferred_value", "tags", "severity",
                 "permission", "config_path", "enabled", "bogus_key",
                 "preferred_value_match", "script"]
            ),
            st.one_of(
                st.text(max_size=20),
                st.integers(),
                st.booleans(),
                st.lists(st.text(max_size=8), max_size=3),
                st.none(),
            ),
            max_size=6,
        )
    )
    def test_build_rule_raises_only_repro_errors(self, mapping):
        from repro.cvl.loader import build_rule

        try:
            build_rule(mapping)
        except ReproError:
            pass


class TestFrameJsonRobustness:
    @settings(max_examples=20, deadline=None)
    @given(text=_configish)
    def test_load_frame_raises_only_crawler_errors(self, text):
        from repro.errors import CrawlerError, FilesystemError
        from repro.crawler.serialize import load_frame

        try:
            load_frame(text)
        except (CrawlerError, FilesystemError):
            pass


class TestReDoSRegressions:
    """Inputs that previously caused catastrophic regex backtracking."""

    def test_path_expression_backslash_bomb(self):
        evil = '"' + "\\" * 200 + "x"
        with pytest.raises(PathExpressionError):
            parse_path(evil)

    def test_query_backslash_bomb(self):
        evil = "'" + "\\" * 200 + "x"
        with pytest.raises(QueryError):
            parse_query(evil)

    def test_double_quoted_query_backslash_bomb(self):
        evil = 'col = "' + "\\" * 200 + "x"
        with pytest.raises(QueryError):
            parse_query(evil)

    @pytest.mark.parametrize("text", [
        "key = " + "'\"" * 100_000,
        "key = '" + "x#" * 100_000,
        'add_header "' + "\\" * 100_000 + '";\n',
        "w " * 100_000,
        "a{" * 100_000,
        ";" * 200_000,
        "w " * 100_000 + '"',
    ], ids=["alternating-quotes", "unterminated-quote",
            "nginx-string-backslashes", "nginx-unterminated-directive",
            "nginx-open-blocks", "nginx-semicolons",
            "nginx-words-then-quote"])
    @pytest.mark.parametrize("lens_name", default_registry().names())
    def test_lens_scan_is_linear(self, lens_name, text):
        # 200k characters: a scan that backtracks or re-reads the line
        # per character takes minutes, a linear one milliseconds.
        started = time.perf_counter()
        try:
            default_registry().get(lens_name).parse(text)
        except LensError:
            pass
        assert time.perf_counter() - started < 2.0

    def test_composite_bare_equals_terminates(self):
        # Previously an infinite loop in the tokenizer.
        with pytest.raises(CompositeExpressionError):
            parse_composite("a = b")

    def test_composite_lone_equals_terminates(self):
        with pytest.raises(CompositeExpressionError):
            parse_composite("=")
