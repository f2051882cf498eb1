"""The read-only filesystem interface every entity exposes to the crawler."""

from __future__ import annotations

import fnmatch
import posixpath
from abc import ABC, abstractmethod
from typing import Iterator

from repro.fs.meta import FileStat


def normalize_path(path: str) -> str:
    """Return ``path`` as an absolute, ``.``/``..``-free POSIX path.

    All views key their nodes by normalized paths so that lookups like
    ``/etc//ssh/./sshd_config`` behave the way a kernel would resolve them.
    """
    if not path.startswith("/"):
        path = "/" + path
    return posixpath.normpath(path)


class FilesystemView(ABC):
    """Read-only filesystem: just enough surface for configuration crawling.

    Paths are always POSIX-style and absolute.  Implementations must be
    cheap to query repeatedly; the rule engine may stat the same file from
    several rules.
    """

    @abstractmethod
    def exists(self, path: str) -> bool:
        """Return True if ``path`` names a file or directory."""

    @abstractmethod
    def is_dir(self, path: str) -> bool:
        """Return True if ``path`` names a directory."""

    @abstractmethod
    def read_text(self, path: str) -> str:
        """Return the text content of the file at ``path``.

        Raises :class:`repro.errors.FileNotFoundInFrame` if absent and
        :class:`repro.errors.IsADirectoryInFrame` if ``path`` is a directory.
        """

    @abstractmethod
    def stat(self, path: str) -> FileStat:
        """Return metadata for ``path`` (raises if absent)."""

    @abstractmethod
    def listdir(self, path: str) -> list[str]:
        """Return the sorted child names of directory ``path``."""

    def change_token(self) -> object:
        """A value that changes whenever what this view shows may have
        changed; ``None`` (the default) when the view cannot tell."""
        return None

    def realpath(self, path: str) -> str:
        """Where ``path`` leads once every symlink in it is followed, in
        the view's own terms: two paths with one answer name one node.

        :meth:`walk` uses it to skip symlink cycles.  The default, for a
        view without symlinks, is the normalized path.
        """
        return normalize_path(path)

    # ---- derived helpers -------------------------------------------------

    def is_file(self, path: str) -> bool:
        """Return True if ``path`` exists and is not a directory."""
        return self.exists(path) and not self.is_dir(path)

    def walk(self, top: str = "/") -> Iterator[tuple[str, list[str], list[str]]]:
        """Yield ``(dirpath, dirnames, filenames)`` like :func:`os.walk`
        with symlinked directories followed.

        A directory whose :meth:`realpath` is already on the walk's own
        descent chain (a symlink cycle) stays in its parent's
        ``dirnames`` but is not entered, so a walk ends on any tree.
        """
        top = normalize_path(top)
        if self.is_dir(top):
            yield from self._walk(top, ())

    def _walk(self, top: str, chain: tuple[str, ...]
              ) -> Iterator[tuple[str, list[str], list[str]]]:
        real = self.realpath(top)
        if real in chain:
            return
        chain += (real,)
        dirnames: list[str] = []
        filenames: list[str] = []
        for name in self.listdir(top):
            child = posixpath.join(top, name)
            if self.is_dir(child):
                dirnames.append(name)
            else:
                filenames.append(name)
        yield top, dirnames, filenames
        for name in dirnames:
            yield from self._walk(posixpath.join(top, name), chain)

    def find(self, top: str = "/", pattern: str = "*") -> list[str]:
        """Return paths of all files under ``top`` whose *basename* matches
        the glob ``pattern`` (depth-first, sorted within each directory)."""
        matches: list[str] = []
        for dirpath, _dirnames, filenames in self.walk(top):
            for name in filenames:
                if fnmatch.fnmatch(name, pattern):
                    matches.append(posixpath.join(dirpath, name))
        return matches

    def files_under(self, top: str) -> list[str]:
        """Return every file path under ``top`` (or ``[top]`` if it is a file)."""
        top = normalize_path(top)
        if self.is_file(top):
            return [top]
        return self.find(top, "*")
