"""The project's one YAML parser.

Every YAML text the program reads -- CVL rule files, entity manifests
and the config files of the YAML lens -- is parsed here, once.  Parsing
runs in libyaml when PyYAML was built with it (``yaml.__with_libyaml__``)
and in PyYAML's pure-Python parser otherwise; the choice is made once,
at import.  Values are built by PyYAML's ``SafeConstructor``, so they are
exactly what ``yaml.safe_load`` gives, except for the types of mappings
and sequences.

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
  its sequences plain lists.
"""

from __future__ import annotations

import logging
import re

import yaml

YAMLError = yaml.YAMLError

_BASE = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_MAP_TAG = "tag:yaml.org,2002:map"
_SEQ_TAG = "tag:yaml.org,2002:seq"
_INT_TAG = "tag:yaml.org,2002:int"
_FLOAT_TAG = "tag:yaml.org,2002:float"

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


def _construct_line_mapping(loader, node):
    # Yield the container first, as SafeConstructor.construct_yaml_map
    # does, so anchored self-references resolve.
    mapping = LineDict()
    mapping.source_line = node.start_mark.line + 1
    yield mapping
    mapping.update(loader.construct_mapping(node))


def _construct_marked_mapping(loader, node):
    mapping = MarkedDict()
    mapping.source_line = node.start_mark.line + 1
    yield mapping
    pairs = node.value
    count = len(pairs)
    mapping.update(loader.construct_mapping(node))
    # Merge keys make construct_mapping rewrite ``node.value``; a repeated
    # key leaves fewer entries than pairs.
    if node.value is pairs and len(mapping) == count:
        mapping.marks = [(key.start_mark, value.end_mark) for key, value in pairs]
    else:
        mapping.marks = None


def _construct_marked_sequence(loader, node):
    sequence = MarkedList()
    sequence.source_line = node.start_mark.line + 1
    yield sequence
    sequence.extend(loader.construct_sequence(node))
    sequence.marks = [(item.start_mark, item.end_mark) for item in node.value]


class Loader(_BASE):
    """Safe YAML 1.1 loading into :class:`MarkedDict`/:class:`MarkedList`."""


Loader.add_constructor(_MAP_TAG, _construct_marked_mapping)
Loader.add_constructor(_SEQ_TAG, _construct_marked_sequence)


class CvlLoader(_BASE):
    """Safe loading into :class:`LineDict` and lists, with CVL numbers:
    YAML 1.1 ints and floats without the leading-zero octal and base-60
    forms."""


CvlLoader.add_constructor(_MAP_TAG, _construct_line_mapping)

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
    """``loader``'s constructors and resolvers on PyYAML's pure-Python
    parser."""
    return type(f"PurePython{loader.__name__}", (yaml.SafeLoader,), {
        "yaml_constructors": loader.yaml_constructors,
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

#: The head of each line: the start of the text or a YAML line break,
#: then any indentation, block indicators (``-``, ``?``, ``:``) and
#: byte-order marks.
_LINE_HEAD = re.compile("(?:^|[\\r\\n\\x85\\u2028\\u2029])[\\ufeff \\t?:-]*")


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
    head = max(map(len, _LINE_HEAD.findall(text)))
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
