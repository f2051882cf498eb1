"""In-memory filesystem with stat metadata.

This is the storage layer for synthetic entities (hosts, image layers,
containers).  It stores text files, directories, and symlinks keyed by
normalized absolute path, and carries the metadata that "system state"
configuration rules check: permission bits, numeric and symbolic ownership,
size, and mtime.
"""

from __future__ import annotations

import itertools
import posixpath
from dataclasses import dataclass, field, replace

from repro.chaos.fabric import _CHAOS
from repro.errors import (
    FileNotFoundInFrame,
    FilesystemError,
    IsADirectoryInFrame,
    NotADirectoryInFrame,
)
from repro.fs.meta import FileKind, FileStat, format_mode  # noqa: F401 (re-export)
from repro.fs.view import FilesystemView

_fs_ids = itertools.count(1)  # see VirtualFilesystem.change_token


@dataclass
class _Node:
    stat: FileStat
    content: str = ""
    link_target: str | None = None
    children: set[str] = field(default_factory=set)


class VirtualFilesystem(FilesystemView):
    """A mutable in-memory filesystem.

    The write API mirrors what entity builders need (``write_file``,
    ``mkdir``, ``symlink``, ``chmod``, ``chown``, ``remove``); the read API
    implements :class:`repro.fs.view.FilesystemView`.  Symlinks are resolved
    on read with a bounded hop count.
    """

    _MAX_SYMLINK_HOPS = 16

    def __init__(self):
        self._nodes: dict[str, _Node] = {
            "/": _Node(stat=FileStat(kind=FileKind.DIRECTORY, mode=0o755))
        }
        #: Count of whiteout-marker entries (``.wh.*`` basenames).  Overlay
        #: views consult this to skip per-path whiteout probing entirely on
        #: the common layer that deletes nothing.
        self._whiteout_count = 0
        #: Count of symlink nodes.  :meth:`flat_nodes` only offers the raw
        #: bulk-read path when this is zero, because symlink resolution can
        #: make a walk observe paths that no stored node carries.
        self._symlink_count = 0
        self._id = next(_fs_ids)
        self._mutations = 0  # bumped by every mutator

    def change_token(self) -> tuple[int, int]:
        """``(process-unique id, mutation count)``."""
        return (self._id, self._mutations)

    @property
    def whiteout_count(self) -> int:
        """Number of stored paths whose basename is a whiteout marker."""
        return self._whiteout_count

    @staticmethod
    def _is_whiteout_name(path: str) -> bool:
        return posixpath.basename(path).startswith(".wh.")

    # ---- write API -------------------------------------------------------

    def write_file(
        self,
        path: str,
        content: str = "",
        *,
        mode: int = 0o644,
        uid: int = 0,
        gid: int = 0,
        owner: str = "root",
        group: str = "root",
        mtime: float = 0.0,
    ) -> None:
        """Create or replace a regular file, creating parent directories."""
        path = self._norm(path)
        self._ensure_parents(path)
        existing = self._nodes.get(path)
        if existing is not None and existing.stat.kind is FileKind.DIRECTORY:
            raise IsADirectoryInFrame(path)
        if existing is None and self._is_whiteout_name(path):
            self._whiteout_count += 1
        if existing is not None and existing.link_target is not None:
            self._symlink_count -= 1
        self._mutations += 1
        self._nodes[path] = _Node(
            stat=FileStat(
                kind=FileKind.FILE,
                mode=mode,
                uid=uid,
                gid=gid,
                owner=owner,
                group=group,
                size=len(content.encode()),
                mtime=mtime,
            ),
            content=content,
        )
        self._link_to_parent(path)

    def mkdir(
        self,
        path: str,
        *,
        mode: int = 0o755,
        uid: int = 0,
        gid: int = 0,
        owner: str = "root",
        group: str = "root",
    ) -> None:
        """Create directory ``path`` (and parents); no-op if it exists."""
        path = self._norm(path)
        if path in self._nodes:
            if self._nodes[path].stat.kind is not FileKind.DIRECTORY:
                raise NotADirectoryInFrame(path)
            return
        self._ensure_parents(path)
        if self._is_whiteout_name(path):
            self._whiteout_count += 1
        self._mutations += 1
        self._nodes[path] = _Node(
            stat=FileStat(
                kind=FileKind.DIRECTORY,
                mode=mode,
                uid=uid,
                gid=gid,
                owner=owner,
                group=group,
            )
        )
        self._link_to_parent(path)

    def symlink(self, path: str, target: str) -> None:
        """Create a symlink at ``path`` pointing at ``target``.

        Replaces a file or a symlink.  Like :meth:`write_file`, refuses to
        replace a directory, which would cut its subtree off the root.
        """
        path = self._norm(path)
        self._ensure_parents(path)
        existing = self._nodes.get(path)
        if existing is not None and existing.stat.kind is FileKind.DIRECTORY:
            raise IsADirectoryInFrame(path)
        if existing is None and self._is_whiteout_name(path):
            self._whiteout_count += 1
        if existing is None or existing.link_target is None:
            self._symlink_count += 1
        self._mutations += 1
        self._nodes[path] = _Node(
            stat=FileStat(kind=FileKind.SYMLINK, mode=0o777),
            link_target=target,
        )
        self._link_to_parent(path)

    def chmod(self, path: str, mode: int) -> None:
        """Change the permission bits of an existing node."""
        node = self._require(self._norm(path))
        self._mutations += 1
        node.stat = replace(node.stat, mode=mode)

    def chown(
        self,
        path: str,
        uid: int,
        gid: int,
        owner: str | None = None,
        group: str | None = None,
    ) -> None:
        """Change numeric (and optionally symbolic) ownership of a node."""
        node = self._require(self._norm(path))
        self._mutations += 1
        node.stat = replace(
            node.stat,
            uid=uid,
            gid=gid,
            owner=owner if owner is not None else node.stat.owner,
            group=group if group is not None else node.stat.group,
        )

    def remove(self, path: str) -> None:
        """Remove a node (recursively if a directory)."""
        path = self._norm(path)
        if path == "/":
            raise FilesystemError("cannot remove the filesystem root")
        node = self._require(path)
        self._mutations += 1
        for child in sorted(node.children):
            self.remove(posixpath.join(path, child))
        if self._is_whiteout_name(path):
            self._whiteout_count -= 1
        if node.link_target is not None:
            self._symlink_count -= 1
        del self._nodes[path]
        parent = posixpath.dirname(path)
        self._nodes[parent].children.discard(posixpath.basename(path))

    # ---- read API (FilesystemView) ----------------------------------------

    def exists(self, path: str) -> bool:
        path = self._norm(path)
        if not self._symlink_count:
            # Every stored node hangs off the root, so with no symlink to
            # follow a path exists exactly when it is stored.
            return path in self._nodes
        try:
            self._resolve(path)
            return True
        except FileNotFoundInFrame:
            return False

    def is_dir(self, path: str) -> bool:
        path = self._norm(path)
        if self._symlink_count:
            try:
                path = self._resolve(path)
            except FileNotFoundInFrame:
                return False
        node = self._nodes.get(path)
        return node is not None and node.stat.kind is FileKind.DIRECTORY

    def read_text(self, path: str) -> str:
        if _CHAOS.armed:
            _CHAOS.fire("fs.read", path)
        node = self._nodes[self._resolve(self._norm(path))]
        if node.stat.kind is FileKind.DIRECTORY:
            raise IsADirectoryInFrame(path)
        return node.content

    def stat(self, path: str) -> FileStat:
        """Stat with symlink resolution (like :func:`os.stat`)."""
        return self._nodes[self._resolve(self._norm(path))].stat

    def lstat(self, path: str) -> FileStat:
        """Stat without following a final symlink (like :func:`os.lstat`)."""
        return self._require(self._norm(path)).stat

    def readlink(self, path: str) -> str:
        """Return the target of the symlink at ``path``."""
        node = self._require(self._norm(path))
        if node.link_target is None:
            raise FileNotFoundInFrame(f"{path} is not a symlink")
        return node.link_target

    def realpath(self, path: str) -> str:
        """``path`` with every symlink in it followed (raises
        :class:`FileNotFoundInFrame` on a dangling link or a loop)."""
        path = self._norm(path)
        return self._resolve(path) if self._symlink_count else path

    def listdir(self, path: str) -> list[str]:
        resolved = self._resolve(self._norm(path))
        node = self._nodes[resolved]
        if node.stat.kind is not FileKind.DIRECTORY:
            raise NotADirectoryInFrame(path)
        return sorted(node.children)

    def paths(self) -> list[str]:
        """Every path in the filesystem, sorted (used by overlay + tests)."""
        return sorted(self._nodes)

    def flat_nodes(self) -> list[tuple[str, FileStat, str]] | None:
        """``(path, stat, content)`` for every node, sorted by path.

        Returns ``None`` when the tree contains symlinks: resolution can
        make a walk observe paths no stored node carries, so callers must
        fall back to a real traversal.  With no symlinks the stored nodes
        *are* the observable filesystem, which lets whole-frame
        fingerprinting skip per-path symlink resolution entirely.
        """
        if self._symlink_count:
            return None
        return [
            (path, node.stat, node.content)
            for path, node in sorted(self._nodes.items())
        ]

    # ---- internals --------------------------------------------------------

    @staticmethod
    def _norm(path: str) -> str:
        if not path.startswith("/"):
            path = "/" + path
        return posixpath.normpath(path)

    def _require(self, path: str) -> _Node:
        node = self._nodes.get(path)
        if node is None:
            raise FileNotFoundInFrame(path)
        return node

    def _resolve(self, path: str, hops: int = 0) -> str:
        """Resolve symlinks in every component of ``path``; return the final
        real path.  Raises :class:`FileNotFoundInFrame` on dangling links or
        loops (after a bounded number of hops)."""
        # Fast path: stored keys are canonical (``_ensure_parents`` refuses
        # to create children under symlinks), so a direct dict hit on a
        # non-symlink node needs no component-by-component resolution.
        # This is the hot call of fleet-scale file discovery.
        node = self._nodes.get(path)
        if node is not None and node.link_target is None:
            return path
        if hops > self._MAX_SYMLINK_HOPS:
            raise FileNotFoundInFrame(f"{path}: too many levels of symbolic links")
        resolved = "/"
        parts = [part for part in path.split("/") if part]
        for index, part in enumerate(parts):
            candidate = posixpath.join(resolved, part)
            node = self._nodes.get(candidate)
            if node is None:
                raise FileNotFoundInFrame(path)
            if node.link_target is not None:
                target = node.link_target
                if not target.startswith("/"):
                    target = posixpath.join(resolved, target)
                remainder = "/".join(parts[index + 1:])
                full = posixpath.join(target, remainder) if remainder else target
                return self._resolve(posixpath.normpath(full), hops + 1)
            resolved = candidate
        return resolved

    def _ensure_parents(self, path: str) -> None:
        parent = posixpath.dirname(path)
        if parent == path:
            return
        existing = self._nodes.get(parent)
        if existing is None:
            self.mkdir(parent)
        elif existing.stat.kind is not FileKind.DIRECTORY:
            raise NotADirectoryInFrame(parent)

    def _link_to_parent(self, path: str) -> None:
        parent = posixpath.dirname(path)
        if parent != path:
            self._nodes[parent].children.add(posixpath.basename(path))
