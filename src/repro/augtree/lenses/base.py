"""Lens abstraction: a parser from raw file text to a ConfigTree.

A *lens* (Augeas terminology) knows one configuration file format.  The
data normalizer picks a lens for each crawled file -- either because the
entity manifest names one explicitly, or by filename pattern through the
:class:`LensRegistry`.
"""

from __future__ import annotations

import fnmatch
import posixpath
from abc import ABC, abstractmethod

from repro.errors import LensError
from repro.augtree.tree import ConfigTree

#: Deepest nesting of blocks, collections or elements a lens accepts.
#: Trees are walked, compared and rendered by recursion (``==`` takes two
#: frames a level), so this stays far enough below Python's default
#: recursion limit of 1000 to leave the caller's frames room on any thread.
MAX_NESTING = 256
TOO_DEEP = f"nested deeper than {MAX_NESTING} levels"


class Lens(ABC):
    """Parser for one config-file format.

    Subclasses set :attr:`name` (the identifier manifests refer to) and
    :attr:`file_patterns` (globs matched against the file's basename, or
    against the full path when the pattern contains a ``/``).
    """

    #: Identifier used in manifests (``lens: nginx``) and error messages.
    name: str = "abstract"

    #: Filename globs this lens auto-applies to.
    file_patterns: tuple[str, ...] = ()

    @abstractmethod
    def parse(self, text: str, source: str = "<memory>") -> ConfigTree:
        """Parse ``text`` into a tree.  Raises :class:`LensError` on garbage
        the format cannot represent; unknown-but-well-formed content must
        still parse (rules decide what matters, not the lens)."""

    def matches(self, path: str) -> bool:
        """True if this lens auto-applies to the file at ``path``."""
        basename = posixpath.basename(path)
        for pattern in self.file_patterns:
            target = path if "/" in pattern else basename
            if fnmatch.fnmatch(target, pattern):
                return True
        return False

    def error(self, message: str, line: int | None = None) -> LensError:
        """Build a LensError tagged with this lens's name."""
        return LensError(self.name, message, line)

    def __repr__(self) -> str:
        return f"<Lens {self.name}>"


class LensRegistry:
    """Name- and pattern-based lookup of lenses.

    Registration order matters for pattern lookup: the first registered
    lens whose pattern matches wins, so register specific lenses before
    generic ones (the default registry registers the catch-all key-value
    lens last).
    """

    def __init__(self):
        self._by_name: dict[str, Lens] = {}
        self._ordered: list[Lens] = []

    def register(self, lens: Lens) -> None:
        if lens.name in self._by_name:
            raise ValueError(f"duplicate lens name {lens.name!r}")
        self._by_name[lens.name] = lens
        self._ordered.append(lens)

    def get(self, name: str) -> Lens:
        try:
            return self._by_name[name]
        except KeyError:
            raise LensError(name, "no such lens registered") from None

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def for_file(self, path: str) -> Lens | None:
        """The first registered lens whose pattern matches ``path``."""
        for lens in self._ordered:
            if lens.matches(path):
                return lens
        return None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._ordered)
