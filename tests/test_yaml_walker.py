"""``yamlio``'s node walker against PyYAML's own construction.

The walker builds documents straight from the composed node graph.  Its
references construct the same graphs PyYAML's way, with a generator per
collection, on the same parser as the walker they check:

* ``tests/test_yamlio.py``'s ``_ReferenceLoader`` (mappings remember
  their first line), and ``_ReferenceCvlLoader`` with CVL numbers (whose
  permission digits stay as written);
* the same construction with the marks the YAML lens reads.

Generated documents cover anchors and aliases (recursive ones too),
merge keys, repeated keys, explicit tags (``!!set``, ``!!omap``,
``!!pairs``, ``!!binary``, ``!!timestamp`` ...), undefined tags and
unhashable keys.  Values, container types, source lines, marks and the
sharing of aliased objects must match, and so must the type of the
error when construction fails.
"""

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st
from yaml.constructor import ConstructorError

from repro import rules, yamlio
from tests.test_yamlio import (
    LENS_TEXTS,
    PACKS,
    _ReferenceCvlLoader,
    _ReferenceLoader,
)

_MAP_TAG = "tag:yaml.org,2002:map"
_SEQ_TAG = "tag:yaml.org,2002:seq"


class _RefLineDict(dict):
    """The lens reference's mappings."""


class _RefLineList(list):
    """The lens reference's sequences."""


def _construct_marked_mapping(loader, node):
    mapping = _RefLineDict()
    mapping.source_line = node.start_mark.line + 1
    yield mapping
    pairs = node.value
    count = len(pairs)
    mapping.update(loader.construct_mapping(node))
    if node.value is pairs and len(mapping) == count:
        mapping.marks = [(key.start_mark, value.end_mark) for key, value in pairs]
    else:
        mapping.marks = None


def _construct_marked_sequence(loader, node):
    sequence = _RefLineList()
    sequence.source_line = node.start_mark.line + 1
    yield sequence
    sequence.extend(loader.construct_sequence(node))
    sequence.marks = [(item.start_mark, item.end_mark) for item in node.value]


def _marked_reference(parser: type) -> type:
    """The lens loader's values, lines and marks, built by PyYAML's
    generator-driven ``construct_document`` on ``parser``."""
    return type(f"Marked{parser.__name__}", (parser,), {
        "yaml_constructors": {**parser.yaml_constructors,
                              _MAP_TAG: _construct_marked_mapping,
                              _SEQ_TAG: _construct_marked_sequence},
        "yaml_implicit_resolvers": yamlio.Loader.yaml_implicit_resolvers,
    })


def _cvl_reference(parser: type) -> type:
    """``_ReferenceCvlLoader``'s construction with CVL numbers on
    ``parser``."""
    return type(f"Cvl{parser.__name__}", (parser,), {
        "yaml_constructors": _ReferenceCvlLoader.yaml_constructors,
        "yaml_implicit_resolvers": yamlio.CvlLoader.yaml_implicit_resolvers,
    })


_PARSERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__
                                else [])


def _walkers(parser: type) -> tuple[type, type]:
    """The lens and CVL loaders on ``parser``."""
    if parser is yaml.SafeLoader:
        return (yamlio._PURE_PYTHON[yamlio.Loader],
                yamlio._PURE_PYTHON[yamlio.CvlLoader])
    return yamlio.Loader, yamlio.CvlLoader


def _shape(value, seen=None):
    """Values, container kinds, source lines, marks and the sharing of
    containers as plain comparable data."""
    if seen is None:
        seen = {}
    if isinstance(value, (dict, list, set)):
        if id(value) in seen:
            return ("ref", seen[id(value)])
        seen[id(value)] = len(seen)
    if isinstance(value, set):
        return ("set", sorted(repr(item) for item in value))
    marks = getattr(value, "marks", None)
    if marks is not None:
        marks = [tuple((mark.line, mark.column, mark.index) for mark in pair)
                 for pair in marks]
    line = getattr(value, "source_line", None)
    if isinstance(value, dict):
        return ("map", line, marks, [(_shape(key, seen), _shape(item, seen))
                                     for key, item in value.items()])
    if isinstance(value, list):
        return ("seq", line, marks, [_shape(item, seen) for item in value])
    if isinstance(value, tuple):
        return ("tuple", [_shape(item, seen) for item in value])
    if value != value:  # NaN
        return "nan"
    return repr(value)


def _outcome(load):
    """Every document's shape, or the type of the error raised."""
    try:
        return [_shape(document) for document in load()]
    except RecursionError:
        raise
    except Exception as exc:  # noqa: BLE001 -- the type is the outcome
        return type(exc)


def _pyyaml_load_all(text, loader):
    try:
        return list(yaml.load_all(text, Loader=loader))
    except ValueError as exc:
        # A value Python refuses (``!!int x``, a date past the calendar):
        # yamlio reports it as the constructor error it is.
        raise ConstructorError(None, None, str(exc)) from exc


# ---- generated documents ---------------------------------------------------

_SCALARS = [
    "a", "b", "'q: uoted'", '"dq\\tx"', "''", "1", "-7", "0x1F", "0b101",
    "0644", "1_000", "1.5", "1e3", ".inf", "-.inf", ".nan", "1:30", "190:20:30",
    "true", "no", "On", "~", "null", "2001-12-14", "2001-12-14t21:59:43.10-05:00",
    "x y", "é",
]
_TAGGED = [
    "!!binary aGVsbG8gd29ybGQ=", "!!timestamp 2002-12-14", "!!int 12",
    "!!float 2.5", "!!bool yes", "!!null ''", "!!str 5", "!!value v",
]
#: Scalars whose construction raises: merge and value keys (``<<``,
#: ``=``) are no values.
_BAD_TAGGED = [
    "!!binary '!!x'", "!!timestamp nope", "!!int x", "!!bool maybe",
    "!!merge x", "!custom thing", "!!python/none ''", "<<", "=",
]


@st.composite
def _documents(draw, max_depth=4):
    """Flow-style YAML texts with anchors, aliases and tags; one to three
    documents."""
    docs = []
    for _ in range(draw(st.integers(1, 3))):
        anchors = []

        def node(depth, kind=None):
            kinds = ["scalar", "scalar", "tagged"]
            if anchors:
                kinds += ["alias", "alias"]
            if depth < max_depth:
                kinds += ["seq", "map", "map", "set", "omap", "tagged_map"]
            kind = kind or draw(st.sampled_from(kinds))
            anchor = ""
            if kind != "alias" and draw(st.integers(0, 3)) == 0:
                name = f"a{len(anchors)}"
                anchors.append(name)  # in scope for its own children
                anchor = f"&{name} "
            if kind == "scalar":
                return anchor + draw(st.sampled_from(_SCALARS))
            if kind == "tagged":
                return anchor + draw(st.sampled_from(_TAGGED * 3 + _BAD_TAGGED))
            if kind == "alias":
                return "*" + draw(st.sampled_from(anchors))
            if kind == "seq":
                items = [node(depth + 1)
                         for _ in range(draw(st.integers(0, 3)))]
                return f"{anchor}[{', '.join(items)}]"
            if kind == "set":
                keys = [draw(st.sampled_from(_SCALARS))
                        for _ in range(draw(st.integers(0, 3)))]
                return f"{anchor}!!set {{{', '.join(keys)}}}"
            if kind == "omap":
                tag = draw(st.sampled_from(["!!omap", "!!pairs"]))
                items = [f"{draw(st.sampled_from(_SCALARS))}: {node(depth + 1)}"
                         if draw(st.integers(0, 9)) else node(depth + 1)
                         for _ in range(draw(st.integers(0, 3)))]
                return f"{anchor}{tag} [{', '.join(items)}]"
            entries, keys = [], []
            for _ in range(draw(st.integers(0, 4))):
                key_kind = draw(st.sampled_from(
                    ["scalar"] * 8 + ["merge"] * 2 + ["node", "repeat", "value"]))
                if key_kind == "merge":
                    # A mapping, an alias or a list of them; anything else
                    # is an error.
                    sources = [node(depth + 1, draw(st.sampled_from(
                        ["map"] * 4 * (depth <= max_depth)
                        + ["alias"] * bool(anchors) + ["scalar"])))
                        for _ in range(draw(st.integers(1, 2)))]
                    value = (f"[{', '.join(sources)}]"
                             if len(sources) > 1 or draw(st.booleans())
                             else sources[0])
                    entries.append(f"<<: {value}")
                    continue
                if key_kind == "node":
                    key = node(depth + 1)  # may be unhashable
                elif key_kind == "repeat" and keys:
                    key = keys[0]
                elif key_kind == "value":
                    key = "="
                else:
                    key = draw(st.sampled_from(_SCALARS))
                keys.append(key)
                entries.append(f"{key} : {node(depth + 1)}")
            tag = "!!map " if kind == "tagged_map" else ""
            return f"{anchor}{tag}{{{', '.join(entries)}}}"

        docs.append(node(0))
    if len(docs) == 1 and draw(st.booleans()):
        return docs[0] + "\n"
    return "".join(f"--- {doc}\n" for doc in docs)


def _check(text):
    # Each walker against PyYAML's construction on the same parser, so a
    # difference between the parsers is not taken for the walker's.
    for parser in _PARSERS:
        lens, cvl = _walkers(parser)
        assert _outcome(lambda: yamlio.load_all(text, lens)) == _outcome(
            lambda: _pyyaml_load_all(text, _marked_reference(parser))), parser
        assert _outcome(lambda: yamlio.load_all(text, cvl)) == _outcome(
            lambda: _pyyaml_load_all(text, _cvl_reference(parser))), parser
    # And _ReferenceLoader itself: YAML 1.1 values and mapping lines.
    lens, _ = _walkers(yaml.SafeLoader)
    assert _outcome(lambda: _strip_lens_extras(
        yamlio.load_all(text, lens))) == _outcome(
            lambda: _pyyaml_load_all(text, _ReferenceLoader))


def _strip_lens_extras(documents):
    """The lens loader's documents with no marks and no sequence lines,
    as ``_ReferenceLoader`` builds them."""
    copies = {}

    def strip(value):
        if id(value) in copies:
            return copies[id(value)]
        if isinstance(value, dict):
            copy = yamlio.LineDict()
            copy.source_line = value.source_line
            copies[id(value)] = copy
            copy.update((strip(k), strip(v)) for k, v in value.items())
            return copy
        if isinstance(value, list):
            copy = []
            copies[id(value)] = copy
            copy.extend(strip(item) for item in value)
            return copy
        if isinstance(value, tuple):
            return tuple(strip(item) for item in value)
        return value

    return [strip(document) for document in documents]


@settings(max_examples=400, deadline=None)
@given(_documents())
# One text both plain and quoted in one file: a loader resolves each
# plain text once, and a quoted one is a string wherever it stands.
@example('{a: "true", b: true, c: \'true\', d: true}\n')
@example('[0644, \'0644\', 0644, "0644"]\n')
@example('{"~": "~", ~: ~, k: ~}\n')
@example("- '1_000'\n- 1_000\n- '1_000'\n")
@example("{d: 2020-01-01, e: '2020-01-01', f: 2020-01-01}\n")
@example('{b: &b {x: 1}, c: {<<: *b, \'<<\': y}, d: {"<<": z, <<: *b}}\n')
@example("{'=': w, =: v, k: {=: x}}\n")
# Permission digits: as written under their keys, last entry kept.
@example("{permission: 0x1f, permission_mask: [0644], k: {permission: 1_000}}\n")
@example("{b: &b {permission: 0b1}, c: {<<: *b, permission_mask: 7}}\n")
@example("{permission: 10, permission: ~, permission_mask: 1, permission_mask: 2}\n")
@example("{a: &a 0x1f, permission: *a, b: *a, permission_mask: !!int x}\n")
def test_walker_matches_pyyaml_construction(text):
    _check(text)


@settings(max_examples=150, deadline=None)
@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.text("ab:-#\n '", max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abc", min_size=1, max_size=2), inner, max_size=3),
    max_leaves=25),
    st.sampled_from([False, True, None]), st.booleans())
def test_walker_matches_on_dumped_block_text(value, flow_style, share):
    # safe_dump writes anchors and aliases for an object it meets twice.
    data = [value, value] if share else value
    _check(yaml.safe_dump(data, default_flow_style=flow_style))


@pytest.mark.parametrize("text", [
    *LENS_TEXTS,
    "&a [*a, b]\n",
    "&a {k: *a}\n",
    "&a {*a: 1}\n",
    "&s !!set {*s}\n",
    "[[a]: 1]\n",
    "{a: &x [1], <<: {b: *x}, c: *x}\n",
    "{a: [&b {<<: {p: 1}, y: 2}], c: {<<: *b}}\n",
    # Filled in the order they were reached: &b before the mapping that
    # merges it (so its own marks are dropped), the first list's error
    # before the second's.
    "{x: &b {<<: {p: 1}, y: 2}, z: [{<<: *b}]}\n",
    "[[!!int x], [!custom y]]\n",
    "{<<: [{a: 1}, {a: 2, b: 3}], b: 4}\n",
    "{<<: x}\n",
    "{<<: [x]}\n",
    "{=: v, k: w}\n",
    "!!str {=: v}\n",
    "!!omap [a: 1, b: [2]]\n",
    "!!omap [[1]]\n",
    "!!pairs [a: 1, a: 2]\n",
    "{a: !!int x, b: [!custom y]}\n",
    "{a: [!custom y], b: !!int x}\n",
    "!!map [a]\n",
    "!!seq {a: b}\n",
    "a: |\n  block\nb: >\n  folded\n",
    "- &a\n  k: v\n- *a\n- <<: *a\n  j: w\n",
], ids=lambda text: repr(text)[:40])
def test_walker_matches_on_chosen_texts(text):
    _check(text)


def test_walker_matches_on_shipped_packs():
    for path in PACKS + ["manifest.yaml"]:
        _check(rules.builtin_resolver(path))


def test_aliases_share_one_object():
    [document] = yamlio.load_all("a: &x {k: [1]}\nb: *x\nc: &s [x]\nd: *s\n",
                                 yamlio.CvlLoader)
    assert document["a"] is document["b"]
    assert document["c"] is document["d"]
    [cycle] = yamlio.load_all("&a [*a]\n", yamlio.Loader)
    assert cycle[0] is cycle


@pytest.mark.skipif(not yaml.__with_libyaml__,
                    reason="the pure-Python composer itself recurses")
def test_walker_nests_deeper_than_the_recursion_limit():
    # Collections are filled from a queue, not by recursion, so libyaml's
    # depth limit is the only one.
    depth = 2000  # libyaml takes it: its nesting bound is 4,002
    data, _ = yamlio.load_single("[" * depth + "]" * depth, yamlio.Loader)
    for _ in range(depth - 1):
        data = data[0]
    assert data == []
