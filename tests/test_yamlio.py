"""The shared YAML loader (``repro.yamlio``) against pure-Python references.

* Every shipped rule pack and the shipped manifest load to the same rules
  and manifests through ``yamlio`` as through PyYAML's pure-Python
  ``SafeLoader`` with YAML 1.1 numbers and permission digits kept as
  written -- which also shows the CVL number resolvers change no shipped
  rule.
* The pure-Python fallback loaders (same constructors and resolvers on
  ``yaml.SafeLoader``) give the same values, source lines and marks as
  the libyaml ones.
* Text nested too deep for libyaml's recursive composer goes to the
  pure-Python parser, and raises there instead of crashing the process.
"""

import os
import subprocess
import sys
from importlib import resources

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import repro
from repro import rules, yamlio
from repro.cvl.loader import load_rules
from repro.cvl.manifest import load_manifests
from repro.workloads import kubernetes_manifest

PACKS = sorted(
    f"component_configs/{entry.name}"
    for entry in (resources.files("repro.rules") / "component_configs").iterdir()
    if entry.name.endswith(".yaml")
)


class _LineDict(dict):
    source_line = 0


def _construct_line_mapping(loader, node):
    mapping = _LineDict()
    yield mapping
    mapping.update(loader.construct_mapping(node))
    mapping.source_line = node.start_mark.line + 1


class _ReferenceLoader(yaml.SafeLoader):
    """Pure-Python, YAML 1.1 numbers; mappings remember their first line."""


_ReferenceLoader.add_constructor("tag:yaml.org,2002:map",
                                 _construct_line_mapping)

#: CVL keys whose int values load as the text written.
_TEXT_KEYS = {"permission", "permission_mask"}


def _construct_cvl_mapping(loader, node):
    """A line mapping whose ``_TEXT_KEYS`` ints stay as written."""
    mapping = _LineDict()
    yield mapping
    mapping.update(loader.construct_mapping(node))
    mapping.source_line = node.start_mark.line + 1
    # construct_mapping flattened merge keys into node.value; the last
    # entry for a key is the one kept.
    last = {key.value: value for key, value in node.value
            if isinstance(key, yaml.ScalarNode)
            and key.tag == "tag:yaml.org,2002:str" and key.value in _TEXT_KEYS}
    mapping.update((key, value.value) for key, value in last.items()
                   if value.tag == "tag:yaml.org,2002:int")


class _ReferenceCvlLoader(yaml.SafeLoader):
    """``_ReferenceLoader``, with permission digits kept as written."""


_ReferenceCvlLoader.add_constructor("tag:yaml.org,2002:map",
                                    _construct_cvl_mapping)


def _reference_load_all(text, loader):
    return list(yaml.load_all(text, Loader=_ReferenceCvlLoader))


def _load_shipped():
    manifests = load_manifests(rules.builtin_manifest_text(),
                               source="manifest.yaml")
    packs = {
        path: load_rules(rules.builtin_resolver(path), source=path,
                         resolver=rules.builtin_resolver)
        for path in PACKS
    }
    return manifests, packs


def test_loader_runs_on_libyaml_when_available():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert issubclass(yamlio.Loader, expected)
    assert issubclass(yamlio.CvlLoader, expected)


def test_shipped_packs_load_identically_to_pure_python(monkeypatch):
    manifests, packs = _load_shipped()
    monkeypatch.setattr(yamlio, "load_all", _reference_load_all)
    ref_manifests, ref_packs = _load_shipped()

    assert len(PACKS) == 14
    assert manifests == ref_manifests
    assert sum(len(ruleset.rules) for ruleset in packs.values()) == 206
    for path in PACKS:
        ruleset, reference = packs[path], ref_packs[path]
        assert (ruleset.entity, ruleset.source, ruleset.parent_source) == (
            reference.entity, reference.source, reference.parent_source)
        assert len(ruleset.rules) == len(reference.rules), path
        for rule, ref in zip(ruleset.rules, reference.rules):
            assert type(rule) is type(ref)
            assert rule.source_line == ref.source_line > 0, (path, rule.name)
            # repr tells 1 from "1" from True, which == does not.
            assert repr(rule.raw) == repr(ref.raw), (path, rule.name)
            assert repr(vars(rule)) == repr(vars(ref)), (path, rule.name)


# ---- libyaml vs the pure-Python fallback -----------------------------------


def _shape(value):
    """Values, source lines and marks as plain comparable data."""
    marks = getattr(value, "marks", None)
    if marks is not None:
        marks = [tuple((mark.line, mark.column, mark.index) for mark in pair)
                 for pair in marks]
    if isinstance(value, dict):
        return ("map", getattr(value, "source_line", None), marks,
                [(repr(key), _shape(item)) for key, item in value.items()])
    if isinstance(value, list):
        return ("seq", getattr(value, "source_line", None), marks,
                [_shape(item) for item in value])
    return repr(value)


LENS_TEXTS = [
    kubernetes_manifest(hardened=True),
    kubernetes_manifest(hardened=False),
    "base: &b {x: 1}\nchild:\n  <<: *b\n  y: [1, 2]\n",
    "a: 1\na: 2\n",
    "- a\n- {b: c}\n- [d, [e]]\n",
    "k: |\n  text\n  more\nt: 2001-12-14\nn: ~\n",
    "mode: 0644\nwhen: 1:30\n",
]


@pytest.mark.parametrize("text", LENS_TEXTS)
def test_fallback_loader_matches_libyaml(text):
    data, marks = yamlio.load_single(text, yamlio.Loader)
    ref_data, ref_marks = yamlio.load_single(
        text, yamlio._PURE_PYTHON[yamlio.Loader])
    assert _shape(data) == _shape(ref_data)
    assert [(m.line, m.column, m.index) for m in marks] == [
        (m.line, m.column, m.index) for m in ref_marks]


def test_fallback_cvl_loader_matches_libyaml_on_packs():
    pure_python = yamlio._PURE_PYTHON[yamlio.CvlLoader]
    for path in PACKS + ["manifest.yaml"]:
        text = rules.builtin_resolver(path)
        assert [_shape(doc) for doc in yamlio.load_all(text, yamlio.CvlLoader)] \
            == [_shape(doc) for doc in yamlio.load_all(text, pure_python)], path


def _containers(value):
    yield value
    items = value.values() if isinstance(value, dict) else value
    for item in items:
        if isinstance(item, (dict, list)):
            yield from _containers(item)


def test_cvl_containers_keep_only_their_line():
    # Rule ``raw`` mappings live as long as the validator and ride every
    # process-backend result, so CVL loads keep no marks.
    _, packs = _load_shipped()
    for ruleset in packs.values():
        for rule in ruleset.rules:
            for container in _containers(rule.raw):
                assert type(container) in (dict, list, yamlio.LineDict), rule.name
    documents = yamlio.load_all("a:\n  b: [1, {c: 2}]\n", yamlio.CvlLoader)
    assert [type(c) for c in _containers(documents[0])] == [
        yamlio.LineDict, yamlio.LineDict, list, yamlio.LineDict]
    assert [c.source_line for c in _containers(documents[0])
            if isinstance(c, dict)] == [1, 2, 2]


# ---- marks -----------------------------------------------------------------


def test_marks_run_from_key_to_value():
    text = "a: 1\nb:\n  - x\n  - {c: d}\n"
    data, _ = yamlio.load_single(text, yamlio.Loader)
    assert data.source_line == 1
    assert [text[start.index:end.index] for start, end in data.marks] == [
        "a: 1", "b:\n  - x\n  - {c: d}\n"]
    items = data["b"]
    assert items.source_line == 3
    assert [text[start.index:end.index] for start, end in items.marks] == [
        "x", "{c: d}"]


@pytest.mark.parametrize("text", [
    "base: &b {x: 1}\nchild: {<<: *b, y: 2}\n",
    "a: 1\nb: 2\na: 3\n",
    "1: one\ntrue: yes\n",
    "e: {<<: {}, k: v}\n",
], ids=["merge", "repeated_key", "equal_keys", "empty_merge"])
def test_marks_dropped_when_entries_are_not_one_to_one(text):
    data, _ = yamlio.load_single(text, yamlio.Loader)
    mappings = [data] + [value for value in data.values()
                         if isinstance(value, dict)]
    assert any(mapping.marks is None for mapping in mappings)
    assert data == yaml.safe_load(text)


def test_cvl_numbers_only_in_cvl_loader():
    text = "a: 0644\nb: 33:33\nc: 027\nd: 644\ne: 1.5\nf: 0x10\n"
    assert yamlio.load_all(text, yamlio.CvlLoader) == [
        {"a": "0644", "b": "33:33", "c": "027", "d": 644, "e": 1.5, "f": 16}]
    assert yamlio.load_all(text, yamlio.Loader) == [yaml.safe_load(text)]


def test_undecodable_text_is_a_yaml_error():
    with pytest.raises(yamlio.YAMLError):
        yamlio.load_all("a: \udc80\n", yamlio.CvlLoader)


# ---- nesting too deep for libyaml ------------------------------------------


def _depth(text):
    """How deep the collections in ``text`` nest, from its parse events:
    the recursion depth of the composer."""
    depth = deepest = 0
    for event in yaml.parse(text, Loader=yaml.SafeLoader):
        if isinstance(event, (yaml.MappingStartEvent, yaml.SequenceStartEvent)):
            depth += 1
            deepest = max(deepest, depth)
        elif isinstance(event, (yaml.MappingEndEvent, yaml.SequenceEndEvent)):
            depth -= 1
    return deepest


def _nested(n):
    """Texts ``n`` levels deep, one per way of nesting."""
    return {
        "compact_sequences": "- " * n + "x\n",
        "explicit_keys": "? " * n + "x\n",
        "indented_mappings": "".join("  " * i + "a:\n" for i in range(n))
        + "  " * n + "x\n",
        "indentless_sequences": "".join("  " * i + "- k:\n"
                                        for i in range(n // 2)) + "  - x\n",
        "flow_sequences": "[" * n + "]" * n,
        "flow_mappings": "{a: " * n + "x" + "}" * n,
        # Each ``[`` opens a sequence and a single-pair mapping.
        "implicit_pairs": "[a: " * (n // 2) + "x" + "]" * (n // 2),
    }


NESTED = _nested(40)


@pytest.mark.parametrize("text", [
    *NESTED.values(),
    "[[a]: b]", "- - - [a: {b: [c: d]}]\n", "- - - a: 1\n      b: [x: [y]]\n",
    "? - a\n  - b\n: - c\n", "\ufeff- - [x]\n", "- a\r\n- - - [b]\r\n",
], ids=[*NESTED, "pair_key", "mixed", "compact_mapping", "explicit_sequences",
        "byte_order_mark", "crlf"])
def test_nesting_bound_is_no_smaller_than_the_depth(text):
    assert yamlio._nesting_bound(text) >= _depth(text) >= 2


_values = st.recursive(
    st.none() | st.integers() | st.text("ab:-[]{}#\n ", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abc", min_size=1, max_size=2), inner, max_size=3),
    max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(_values, st.sampled_from([False, True, None]), st.integers(2, 5))
def test_nesting_bound_holds_for_dumped_values(value, flow_style, indent):
    text = yaml.safe_dump(value, default_flow_style=flow_style, indent=indent)
    assert yamlio._nesting_bound(text) >= _depth(text)


# Mappings nested as keys cannot be constructed (a dict is unhashable), so
# explicit_keys is left out; compact_sequences covers block indicators.
@pytest.mark.parametrize("kind", sorted(set(NESTED) - {"explicit_keys"}))
def test_deep_text_goes_to_pure_python(monkeypatch, kind):
    routed = []

    def spy(loader):
        class Spy(yamlio._PURE_PYTHON[loader]):
            def __init__(self, text):
                routed.append(loader)
                super().__init__(text)
        return Spy

    for loader in (yamlio.Loader, yamlio.CvlLoader):
        monkeypatch.setitem(yamlio._PURE_PYTHON, loader, spy(loader))
    # Below the depth of every NESTED text, above that of a shallow one;
    # implicit_pairs has only 20 brackets for its 40 levels.
    monkeypatch.setattr(yamlio, "_C_NESTING_LIMIT", 30)
    text = NESTED[kind]
    data, _ = yamlio.load_single(text, yamlio.Loader)
    assert data == yaml.safe_load(text)
    assert yamlio.load_all(text, yamlio.CvlLoader) == [data]
    assert routed == [yamlio.Loader, yamlio.CvlLoader]
    routed.clear()
    yamlio.load_single("a: [1, {b: [2]}]\n", yamlio.Loader)
    assert routed == []


_DEEP_SCRIPT = """
import sys
from concurrent.futures import ThreadPoolExecutor
from repro import yamlio

def load(text, loader):
    try:
        yamlio.load_all(text, loader)
    except RecursionError:
        return "RecursionError"
    return "loaded"

n = 30_000  # deep enough to overflow an 8 MB stack in libyaml's composer
for text in ("- " * n + "x", "[" * n + "]" * n, "[a: " * (n // 2) + "]" * (n // 2)):
    print(load(text, yamlio.CvlLoader))
    with ThreadPoolExecutor(1) as pool:  # lens parses run on worker threads
        print(pool.submit(load, text, yamlio.Loader).result())
"""


def test_thirty_thousand_levels_raise_instead_of_crashing():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    result = subprocess.run([sys.executable, "-c", _DEEP_SCRIPT],
                            capture_output=True, text=True, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == ["RecursionError"] * 6
