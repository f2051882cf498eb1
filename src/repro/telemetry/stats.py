"""Stats blocks whose every statistic is declared once.

A stats block is a dataclass deriving :class:`Stats`.  Each statistic
is one field declared with :func:`stat`, which names the metric family
it is exported as (if any), the family's help text and its kind, or a
property computed from the fields and declared with :func:`derived`.
From those declarations alone every block has a generic ``to_dict``,
``merge`` and ``publish``, so adding a statistic takes one field.
"""

from __future__ import annotations

import functools
from dataclasses import field, fields
from typing import Callable, NamedTuple

_STAT = "repro.stat"


class _Spec(NamedTuple):
    name: str
    metric: str | None         # family name; None: not exported
    help: str
    kind: str                  # the registry method: counter or gauge
    label: str | None          # a {key: count} statistic's label
    digits: int | None = None  # a derived ratio: rounded into to_dict
    derived: bool = False


def stat(metric: str | None = None, help: str = "", kind: str = "counter",
         *, label: str | None = None, **kwargs):
    """A stats-block field that is a statistic.

    ``metric`` names the family :meth:`Stats.publish` writes the field
    to; without one, only ``to_dict`` reports it.  With ``label`` the
    field is a ``{key: count}`` dict, one sample per key.  Other keyword
    arguments go to :func:`dataclasses.field`; the default value is 0.
    """
    if "default_factory" not in kwargs:
        kwargs.setdefault("default", 0)
    return field(metadata={_STAT: (metric, help, kind, label)}, **kwargs)


class _Derived(property):
    """A property declared as a statistic by :func:`derived`."""


def derived(metric: str | None = None, help: str = "",
            kind: str = "counter", *, digits: int | None = None):
    """Declare a property computed from the fields as a statistic: with
    ``metric`` it is published like a field, and with ``digits`` it is a
    ratio that ``to_dict`` writes rounded to that many digits."""

    def declare(fget) -> _Derived:
        prop = _Derived(fget)
        prop.spec = (metric, help, kind, None, digits)
        return prop

    return declare


@functools.cache
def _specs(cls: type) -> tuple[_Spec, ...]:
    """The statistics ``cls`` and its bases declare, fields first: built
    once per class, since every scrape publishes every snapshot block."""
    properties: dict[str, _Derived] = {}
    for klass in reversed(cls.__mro__):
        properties.update((name, value) for name, value in vars(klass).items()
                          if isinstance(value, _Derived))
    return tuple(
        [_Spec(item.name, *item.metadata[_STAT])
         for item in fields(cls) if _STAT in item.metadata]
        + [_Spec(name, *value.spec, derived=True)
           for name, value in properties.items()])


class Stats:
    """Base of the stats blocks."""

    #: True for a point-in-time block that a scrape-time collector reads:
    #: :meth:`publish` sets its families instead of adding to them.
    snapshot = False

    def to_dict(self) -> dict:
        """The statistic fields in order (a nested block as its own
        dict, by-key counts sorted by key), then the rounded ratios."""
        out = {}
        for spec in _specs(type(self)):
            if spec.derived:
                if spec.digits is not None:
                    out[spec.name] = round(getattr(self, spec.name),
                                           spec.digits)
                continue
            value = getattr(self, spec.name)
            if isinstance(value, Stats):
                value = value.to_dict()
            elif isinstance(value, dict):
                value = dict(sorted(value.items()))
            out[spec.name] = value
        return out

    def merge(self, other: Stats, *, sign: int = 1) -> None:
        """Add ``other``'s numbers and by-key counts into this block
        (``sign=-1`` subtracts them; a key whose count reaches 0 goes);
        flags, names and nested blocks stay as they are."""
        for spec in _specs(type(self)):
            if spec.derived:
                continue
            value = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(value, dict):
                for key, count in theirs.items():
                    value[key] = value.get(key, 0) + sign * count
                    if not value[key]:
                        del value[key]
            elif value.__class__ in (int, float):
                setattr(self, spec.name, value + sign * theirs)

    def publish(self, registry) -> None:
        """Write every exported statistic into ``registry``; a statistic
        that is None (nothing has measured it yet) is left out."""
        write = "set" if self.snapshot else "inc"
        for spec in _specs(type(self)):
            value = None if spec.metric is None else getattr(self, spec.name)
            if value is None:
                continue
            family = getattr(registry, spec.kind)(
                spec.metric, spec.help, (spec.label,) if spec.label else ())
            if spec.label:
                for key, count in value.items():
                    getattr(family, write)(count, **{spec.label: key})
            else:
                getattr(family, write)(value)


def publish_on_scrape(registry, snapshot: Callable[[], Stats]) -> None:
    """Publish ``snapshot()`` into ``registry`` right before each scrape.

    Keyed by the source (a bound method's object, else the function), so
    attaching one source twice registers it once.  The collector holds
    no reference to the registry, which hands itself in.
    """
    source = getattr(snapshot, "__self__", snapshot)
    registry.register_collector(
        f"stats:{type(source).__name__}:{id(source)}",
        lambda into: snapshot().publish(into))
