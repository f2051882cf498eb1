"""The project's one YAML parser.

Every YAML text the program reads -- CVL rule files, entity manifests
and the config files of the YAML lens -- is parsed here, once.  Parsing
runs in libyaml when PyYAML was built with it (``yaml.__with_libyaml__``)
and in PyYAML's pure-Python parser otherwise; the choice is made once,
at import.  Documents are built from the composed nodes by one walker
(:class:`_Walker`) for both loaders and both parsers.  It hands every tag
but ``str``, ``map`` and ``seq`` to PyYAML's ``SafeConstructor``, so
values are exactly what ``yaml.safe_load`` gives, except for the types
of mappings and sequences, and a value Python cannot hold (an int past
its digit limit, a date past the calendar) is a :class:`YAMLError`.

Two loaders:

* :class:`Loader` resolves plain scalars by YAML 1.1, as
  ``yaml.safe_load`` does.  The YAML lens uses it, so Kubernetes
  manifests and other config files mean what their own tools read.  Its
  mappings and sequences are :class:`MarkedDict` and :class:`MarkedList`:
  a ``dict`` or ``list`` that also remembers the line it starts on and
  where each of its entries sits in the text.
* :class:`CvlLoader` reads CVL rule files and manifests.  Its numbers
  have no leading-zero octal (``0644``) and no base-60 (``33:33``)
  forms: such scalars stay strings and mean what a CVL author wrote --
  permission digits, a ``uid:gid`` pair, a umask.  Its mappings are
  :class:`LineDict` (the line a rule starts on is all CVL reports) and
  its sequences plain lists.  It resolves each plain text once per file.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Hashable

import yaml
from yaml.constructor import ConstructorError
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

YAMLError = yaml.YAMLError

_BASE = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

# The resolver's own default tags, so most tag tests are identity hits.
_STR_TAG = _BASE.DEFAULT_SCALAR_TAG
_SEQ_TAG = _BASE.DEFAULT_SEQUENCE_TAG
_MAP_TAG = _BASE.DEFAULT_MAPPING_TAG
_INT_TAG = "tag:yaml.org,2002:int"
_FLOAT_TAG = "tag:yaml.org,2002:float"
#: Keys ``flatten_mapping`` rewrites: merge keys (``<<``) and value keys
#: (``=``).
_FLATTENED_KEY_TAGS = frozenset({"tag:yaml.org,2002:merge",
                                 "tag:yaml.org,2002:value"})
_MISSING = object()

log = logging.getLogger("repro.yamlio")


class LineDict(dict):
    """A YAML mapping that remembers the 1-based line it starts on."""

    __slots__ = ("source_line",)


class MarkedDict(LineDict):
    """A :class:`LineDict` that also remembers where its entries are.

    ``marks`` holds one ``(start, end)`` pair of YAML marks per entry, in
    item order, from the start of the entry's key to the end of its
    value.  It is ``None`` when the entries do not map one to one onto
    the text: merge keys (``<<``) or a key given twice.
    """

    __slots__ = ("marks",)


class MarkedList(list):
    """A YAML sequence that remembers where it came from.

    ``source_line`` is the 1-based line the sequence starts on; ``marks``
    holds the ``(start, end)`` YAML marks of each item.
    """

    __slots__ = ("source_line", "marks")


class _Walker:
    """Builds each document straight from its composed node graph.

    PyYAML's ``construct_document`` runs a generator per collection and a
    handful of calls per scalar.  Here a plain ``str`` scalar is its
    ``node.value``, and the map and seq tags fill :class:`LineDict` (or
    :class:`MarkedDict`) and lists (or :class:`MarkedList`) in one loop.
    Every other tag goes through the loader's registered constructors,
    whose own ``construct_object`` calls come back here; merge keys go
    through ``flatten_mapping``.  Like PyYAML, a collection is created
    when it is first reached and filled later, first reached first
    filled, so aliases share one object, a collection may contain
    itself, and the first error PyYAML would raise is the one raised.
    """

    #: Whether collections remember where their entries are (the lens
    #: loader) or only the line a mapping starts on (CVL).
    marked = False
    #: Mapping keys whose int values load as the text written.
    text_keys: frozenset = frozenset()

    def construct_document(self, node):
        data = self.construct_object(node)
        self._fill_collections()
        self.constructed_objects = {}
        self.recursive_objects = {}
        return data

    def construct_object(self, node, deep=False):
        # ``deep`` is part of PyYAML's signature; the safe constructors
        # never ask for deep construction.
        data = self.constructed_objects.get(node, _MISSING)
        if data is not _MISSING:
            return data
        kind = node.__class__
        tag = node.tag
        if kind is ScalarNode and tag == _STR_TAG:
            return node.value
        if kind is MappingNode and tag == _MAP_TAG:
            data = MarkedDict() if self.marked else LineDict()
            data.source_line = node.start_mark.line + 1
        elif kind is SequenceNode and tag == _SEQ_TAG:
            if self.marked:
                data = MarkedList()
                data.source_line = node.start_mark.line + 1
            else:
                data = []
        else:
            try:
                data = super().construct_object(node, deep)
                if data.__class__ is int:
                    str(data)  # a hex or base-60 int has no digit limit
            except ValueError as exc:
                # Values Python cannot hold: an int past its digit limit,
                # a date past the calendar.
                raise ConstructorError(
                    None, None, f"cannot construct {tag}: {exc}",
                    node.start_mark) from None
            return data
        self.constructed_objects[node] = data
        # Filled by _fill_collections, in the order PyYAML runs its
        # collection generators, which also wait in this queue.
        self.state_generators.append((node, data))
        return data

    def _fill_collections(self) -> None:
        pending = self.state_generators
        build = self.construct_object
        marked = self.marked
        index = 0
        while index < len(pending):
            item = pending[index]
            index += 1
            if item.__class__ is not tuple:
                for _ in item:  # a registered constructor's generator
                    pass
                continue
            node, data = item
            if node.__class__ is SequenceNode:
                children = node.value
                data.extend([
                    child.value
                    if child.tag == _STR_TAG and child.__class__ is ScalarNode
                    else build(child)
                    for child in children])
                if marked:
                    data.marks = [(child.start_mark, child.end_mark)
                                  for child in children]
                continue
            pairs = node.value
            count = len(pairs)
            for key_node, _ in pairs:
                if key_node.tag in _FLATTENED_KEY_TAGS:
                    self.flatten_mapping(node)
                    break
            for key_node, value_node in node.value:
                if key_node.tag == _STR_TAG and key_node.__class__ is ScalarNode:
                    key = key_node.value
                else:
                    key = build(key_node)
                    if not isinstance(key, Hashable):
                        raise ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            "found unhashable key", key_node.start_mark)
                if value_node.tag == _STR_TAG and value_node.__class__ is ScalarNode:
                    data[key] = value_node.value
                else:
                    data[key] = build(value_node)
                    if value_node.tag == _INT_TAG and key in self.text_keys:
                        data[key] = value_node.value  # a valid int, as written
            if marked:
                # Merge keys make flatten_mapping rewrite ``node.value``; a
                # repeated key leaves fewer entries than pairs.
                data.marks = ([(key.start_mark, value.end_mark)
                               for key, value in pairs]
                              if node.value is pairs and len(data) == count
                              else None)
        self.state_generators = []


class Loader(_Walker, _BASE):
    """Safe YAML 1.1 loading into :class:`MarkedDict`/:class:`MarkedList`."""

    marked = True


class _CvlResolver:
    """Resolves each plain scalar's tag once per file, since CVL keywords
    repeat (four in five plain scalars of the shipped packs) where a
    config file's keys mostly do not.  With no path resolvers, PyYAML's
    tag for a plain scalar depends only on its text, so the memo is
    exact; a quoted scalar is a str, a collection takes its default tag.
    """

    def __init__(self, stream):
        super().__init__(stream)
        self._plain_tags = {}

    def resolve(self, kind, value, implicit):
        if kind is not ScalarNode:
            return _SEQ_TAG if kind is SequenceNode else _MAP_TAG
        if not implicit[0]:
            return _STR_TAG
        tag = self._plain_tags.get(value)
        if tag is None:
            tag = self._plain_tags[value] = super().resolve(kind, value,
                                                            implicit)
        return tag


class CvlLoader(_CvlResolver, _Walker, _BASE):
    """Safe loading into :class:`LineDict` and lists, with CVL numbers:
    YAML 1.1 ints and floats without the leading-zero octal and base-60
    forms.  Permission digits stay as written, so that ``0x1ff`` or
    ``1_000`` is not read as some other mode."""

    text_keys = frozenset({"permission", "permission_mask"})


_CVL_NUMBERS = {
    _INT_TAG: re.compile(r"""^(?:[-+]?0b[0-1_]+
                    |[-+]?(?:0|[1-9][0-9_]*)
                    |[-+]?0x[0-9a-fA-F_]+)$""", re.X),
    _FLOAT_TAG: re.compile(r"""^(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+][0-9]+)?
                    |\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?
                    |[-+]?\.(?:inf|Inf|INF)
                    |\.(?:nan|NaN|NAN))$""", re.X),
}
# Same first characters and order as YAML 1.1; only the two patterns change.
CvlLoader.yaml_implicit_resolvers = {
    first: [(tag, _CVL_NUMBERS.get(tag, pattern)) for tag, pattern in resolvers]
    for first, resolvers in _BASE.yaml_implicit_resolvers.items()
}


def _pure_python(loader: type) -> type:
    """``loader``'s walker and resolvers on PyYAML's pure-Python parser."""
    bases = loader.__bases__[:-1] + (yaml.SafeLoader,)
    return type(f"PurePython{loader.__name__}", bases, {
        "marked": loader.marked,
        "text_keys": loader.text_keys,
        "yaml_implicit_resolvers": loader.yaml_implicit_resolvers,
    })


#: The loaders on PyYAML's pure-Python parser, for text libyaml's binding
#: cannot take.
_PURE_PYTHON = {loader: _pure_python(loader) for loader in (Loader, CvlLoader)}

#: Deepest nesting handed to libyaml.  PyYAML's libyaml binding composes
#: nodes by recursing on the C stack, about 350 bytes per level on x86-64:
#: a 1 MB thread stack overflows near 2,900 levels and the common 8 MB
#: default near 25,000, and the process crashes instead of raising.  The
#: pure-Python parser raises RecursionError.
_C_NESTING_LIMIT = 5000

#: The head of the first line: any indentation, block indicators (``-``,
#: ``?``, ``:``) and byte-order marks.
_FIRST_HEAD = re.compile("[\\ufeff \\t?:-]*")


def _longer_head(length: int) -> re.Pattern:
    """A YAML line break and then a head of at least ``length`` indicator
    characters (``re`` caches the compiled patterns)."""
    return re.compile("[\\r\\n\\x85\\u2028\\u2029][\\ufeff \\t?:-]{%d,}" % length)


def _nesting_bound(text: str) -> int:
    """A number no smaller than the nesting depth of the collections in
    ``text``.

    A flow collection opens with ``[`` or ``{``.  A ``[`` may open two
    levels: the sequence and a single-pair mapping inside it
    (``[a: [b: c]]``).  A block collection starts on a deeper column than
    the one it sits in, except that a sequence may share the column of
    its mapping key (two levels per column), and only a line's head can
    stand before it on its line.  So long lines do not raise the bound;
    long runs of indicators do, and so does every bracket, quoted or not.
    """
    # The longest line head, counting the line break before it: search
    # on from each longer head for a longer one, so no head but those
    # becomes a string.
    head = _FIRST_HEAD.match(text).end()
    found = _longer_head(head).search(text)
    while found is not None:
        head = found.end() - found.start()
        found = _longer_head(head).search(text, found.end())
    return 2 * text.count("[") + text.count("{") + 2 * (head + 1)


def _open(text: str, loader: type):
    bound = _nesting_bound(text)
    if bound > _C_NESTING_LIMIT:
        log.debug("YAML text may nest %d levels deep; parsing it in pure "
                  "Python", bound)
        return _PURE_PYTHON[loader](text)
    try:
        return loader(text)
    except UnicodeEncodeError:
        # libyaml reads UTF-8, which cannot encode lone surrogates
        # (undecodable bytes read with surrogateescape); the pure-Python
        # reader rejects them as unacceptable characters.
        return _PURE_PYTHON[loader](text)


def load_single(text: str, loader: type):
    """The one document in ``text`` and the ``(start, end)`` marks of its
    top-level node; ``(None, None)`` for an empty stream.

    Raises :class:`YAMLError` for malformed text and for more than one
    document.
    """
    parser = _open(text, loader)
    try:
        node = parser.get_single_node()
        if node is None:
            return None, None
        return parser.construct_document(node), (node.start_mark, node.end_mark)
    finally:
        parser.dispose()


def load_all(text: str, loader: type) -> list:
    """Every document in ``text``, in order (``None`` for an empty one).

    Raises :class:`YAMLError` for malformed text.
    """
    parser = _open(text, loader)
    try:
        documents = []
        while parser.check_data():
            documents.append(parser.get_data())
        return documents
    finally:
        parser.dispose()
