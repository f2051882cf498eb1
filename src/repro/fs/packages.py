"""Installed-software state: a dpkg-style package database.

The paper's definition of "system state" configuration (§2.1.2) includes
"software packages and their versions".  Entities carry a
:class:`PackageDatabase`; rules can assert a package's presence, absence,
or minimum version.  Version comparison implements the Debian ordering
rules (epoch, upstream, revision; digit runs compare numerically,
non-digit runs compare with ``~`` sorting before everything).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Package:
    """One installed package."""

    name: str
    version: str
    architecture: str = "amd64"
    description: str = ""

    def __str__(self) -> str:
        return f"{self.name}={self.version}"


_db_ids = itertools.count(1)  # see PackageDatabase.change_token


class PackageDatabase:
    """Mapping of package name to :class:`Package` with version queries."""

    def __init__(self, packages: list[Package] | None = None):
        self._packages: dict[str, Package] = {}
        self._id = next(_db_ids)
        self._mutations = 0
        for package in packages or []:
            self.install(package)

    def change_token(self) -> tuple[int, int]:
        """``(process-unique id, count of installs and removes)``."""
        return (self._id, self._mutations)

    def install(self, package: Package) -> None:
        """Add or upgrade a package."""
        self._mutations += 1
        self._packages[package.name] = package

    def remove(self, name: str) -> None:
        """Remove a package if installed (no error if absent)."""
        self._mutations += 1
        self._packages.pop(name, None)

    def installed(self, name: str) -> bool:
        return name in self._packages

    def get(self, name: str) -> Package | None:
        return self._packages.get(name)

    def version_of(self, name: str) -> str | None:
        package = self._packages.get(name)
        return package.version if package else None

    def at_least(self, name: str, version: str) -> bool:
        """True if ``name`` is installed at ``version`` or newer."""
        installed = self.version_of(name)
        return installed is not None and compare_versions(installed, version) >= 0

    def names(self) -> list[str]:
        return sorted(self._packages)

    def __len__(self) -> int:
        return len(self._packages)

    def __iter__(self):
        return iter(sorted(self._packages.values(), key=lambda p: p.name))


@dataclass
class _VersionParts:
    epoch: int
    upstream: str
    revision: str = field(default="")


def _split_version(version: str) -> _VersionParts:
    epoch = 0
    rest = version
    if ":" in rest:
        head, rest = rest.split(":", 1)
        if head.isdigit():
            epoch = int(head)
    revision = ""
    if "-" in rest:
        rest, revision = rest.rsplit("-", 1)
    return _VersionParts(epoch=epoch, upstream=rest, revision=revision)


_CHUNK = re.compile(r"(\d+|\D+)")


def _order(char: str) -> int:
    """Debian character ordering: ``~`` < end-of-string < letters < others."""
    if char == "~":
        return -1
    if char.isalpha():
        return ord(char)
    return ord(char) + 256


def _compare_nondigit(left: str, right: str) -> int:
    for l_char, r_char in zip(left, right):
        diff = _order(l_char) - _order(r_char)
        if diff:
            return -1 if diff < 0 else 1
    if len(left) == len(right):
        return 0
    # The longer string is greater, unless it continues with '~' (which
    # sorts before end-of-string).
    longer, sign = (right, -1) if len(left) < len(right) else (left, 1)
    tail = longer[min(len(left), len(right))]
    if tail == "~":
        return -sign
    return sign

def _compare_component(left: str, right: str) -> int:
    left_chunks = _CHUNK.findall(left)
    right_chunks = _CHUNK.findall(right)
    for l_chunk, r_chunk in zip(left_chunks, right_chunks):
        l_digit = l_chunk.isdigit()
        r_digit = r_chunk.isdigit()
        if l_digit and r_digit:
            diff = int(l_chunk) - int(r_chunk)
            if diff:
                return -1 if diff < 0 else 1
        elif l_digit != r_digit:
            # A digit run sorts after an empty/non-digit run except vs '~'.
            if (r_chunk if l_digit else l_chunk).startswith("~"):
                return 1 if l_digit else -1
            return -1 if l_digit else 1
        else:
            diff = _compare_nondigit(l_chunk, r_chunk)
            if diff:
                return diff
    if len(left_chunks) == len(right_chunks):
        return 0
    longer, sign = (
        (right_chunks, -1)
        if len(left_chunks) < len(right_chunks)
        else (left_chunks, 1)
    )
    tail = longer[min(len(left_chunks), len(right_chunks))]
    if tail.startswith("~"):
        return -sign
    return sign


def compare_versions(left: str, right: str) -> int:
    """Compare two Debian-style version strings.

    Returns a negative number if ``left`` is older, zero if equal, positive
    if newer.  Handles epochs (``1:2.0``), revisions (``2.0-3ubuntu1``) and
    tilde pre-releases (``2.0~rc1`` < ``2.0``).
    """
    l_parts = _split_version(left)
    r_parts = _split_version(right)
    if l_parts.epoch != r_parts.epoch:
        return -1 if l_parts.epoch < r_parts.epoch else 1
    upstream = _compare_component(l_parts.upstream, r_parts.upstream)
    if upstream:
        return upstream
    return _compare_component(l_parts.revision, r_parts.revision)
