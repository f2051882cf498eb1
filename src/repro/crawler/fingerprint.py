"""Frame fingerprints: content-addressed digests of what rules read.

Incremental revalidation (:mod:`repro.engine.incremental`) skips a rule
when everything it read last cycle is provably unchanged.  "What it
read" is expressed as *dependency keys* -- one per observable slice of a
:class:`~repro.crawler.frame.ConfigFrame` -- and "provably unchanged" is
a digest comparison per key.  :class:`FrameFingerprint` computes those
digests lazily and memoizes them, so a scan cycle hashes each file at
most once per frame no matter how many rules depend on it.

Dependency keys are ``(kind, arg)`` string pairs:

* ``("file", path)``      -- file *content* (sha256, reusing the parse
  cache's address), with ``absent``/``dir`` markers so existence changes
  invalidate too;
* ``("filemeta", path)``  -- permission bits and ownership (what path
  rules read), again with an ``absent`` marker.  Split from ``file`` so
  a ``chmod`` does not dirty every tree rule that parses the file;
* ``("listing", paths)``  -- the ordered file list under one or more
  search paths (``arg`` is the newline-joined path tuple).  Catches
  files appearing or disappearing where a rule discovers candidates;
* ``("runtime", ns)``     -- one plugin runtime namespace, keys+values;
* ``("runtime_keys", "")``-- the set of runtime namespaces.

No rule reads the package database; the whole-frame digest still folds
it in, so an installed or removed package dirties its frame.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.errors import FilesystemError
from repro.fs.view import normalize_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> crawler)
    from repro.crawler.frame import ConfigFrame

#: Dependency-key kinds (the first element of a dep key).
FILE = "file"
FILEMETA = "filemeta"
LISTING = "listing"
RUNTIME = "runtime"
RUNTIME_KEYS = "runtime_keys"

#: Separator used to fold a search-path tuple into one ``listing`` arg.
LISTING_SEP = "\n"

#: Digest markers for non-content states.
ABSENT = "absent"
IS_DIR = "dir"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()


def listing_arg(search_paths: list[str] | tuple[str, ...]) -> str:
    """Canonical ``listing`` dep arg for a search-path sequence."""
    return LISTING_SEP.join(search_paths)


class FrameFingerprint:
    """Lazy, memoized digests of one frame's observable state.

    Frames are immutable snapshots for the duration of a scan cycle, so
    each dep key's digest is computed once and cached.  Digest functions
    deliberately exclude anything rules cannot observe (mtimes, frame
    metadata), so operationally-irrelevant churn never dirties a rule.
    """

    def __init__(self, frame: "ConfigFrame"):
        # Only what the digests read, not the frame: the frame memoizes
        # this object, and a link back would make every frame a
        # reference cycle that only a full collection frees.
        self._files = frame.files
        self._packages = frame.packages
        self._runtime = frame.runtime
        self._memo: dict[tuple[str, str], str] = {}
        #: All file paths, sorted by path when :meth:`frame_digest` read
        #: the nodes in bulk and in walk (DFS, sorted-children) order
        #: otherwise; built by the first :meth:`frame_digest` or
        #: ``listing`` request.
        self._files_index: list[str] | None = None

    def digest(self, dep: tuple[str, str]) -> str:
        """Digest of one dependency key (memoized)."""
        cached = self._memo.get(dep)
        if cached is None:
            cached = self._compute(dep)
            self._memo[dep] = cached
        return cached

    def frame_digest(self) -> str:
        """One digest over everything any dependency kind can observe.

        An unchanged frame digest proves *every* ``(kind, arg)`` digest
        is unchanged: it folds in each file's path, permissions,
        ownership, and content digest (covering ``file``, ``filemeta``,
        and ``listing``), every directory's metadata, the package
        database, and all runtime namespaces.  The verdict store
        compares it first so clean frames skip per-dependency
        verification entirely -- one filesystem pass instead of one per
        recorded dependency.

        The pass doubles as a digest warm-up: each file's ``file`` and
        ``filemeta`` digests land in the memo, so a cold cycle's
        dependency recording never hashes a file a second time.
        """
        cached = self._memo.get(("frame", ""))
        if cached is not None:
            return cached
        import posixpath

        from repro.engine.parse_cache import content_digest

        memo = self._memo
        hasher = hashlib.sha256()

        def fold(text: str) -> None:
            hasher.update(text.encode("utf-8", "surrogateescape"))
            hasher.update(b"\0")

        files = self._files
        file_index: list[str] = []
        flat = getattr(files, "flat_nodes", None)
        entries = flat() if flat is not None else None
        if entries is not None:
            # A symlink-free VirtualFilesystem, or an overlay of such
            # layers with no whiteouts and no file/directory conflicts:
            # the stored nodes are exactly what a walk observes, so fold
            # them directly without per-path symlink resolution, layer
            # probing or listdir/is_dir churn.  Ordering is lexicographic
            # rather than walk order; digests are only ever compared
            # against digests built the same way, so either canonical
            # order works as long as one frame sticks to one.
            from repro.fs.meta import FileKind

            for path, stat, content in entries:
                if stat.kind is FileKind.DIRECTORY:
                    meta = f"{IS_DIR}:{stat.mode:o}:{stat.ownership}:" \
                           f"{stat.ownership_names}"
                    memo[(FILEMETA, path)] = meta
                    fold(f"d:{path}:{meta}")
                else:
                    file_index.append(path)
                    meta = (f"{stat.mode:o}:{stat.ownership}:"
                            f"{stat.ownership_names}")
                    content = content_digest(content)
                    memo[(FILEMETA, path)] = meta
                    memo[(FILE, path)] = content
                    fold(f"f:{path}:{meta}:{content}")
            if self._files_index is None:
                self._files_index = file_index
            for package in self._packages:
                fold(
                    f"p:{package.name}={package.version}:"
                    f"{package.architecture}"
                )
            fold(json.dumps(self._runtime, sort_keys=True))
            digest = hasher.hexdigest()
            memo[("frame", "")] = digest
            return digest
        for dirpath, _dirs, filenames in files.walk("/"):
            stat = files.stat(dirpath)
            meta = f"{IS_DIR}:{stat.mode:o}:{stat.ownership}:" \
                   f"{stat.ownership_names}"
            memo[(FILEMETA, dirpath)] = meta
            fold(f"d:{dirpath}:{meta}")
            for name in filenames:
                path = posixpath.join(dirpath, name)
                file_index.append(path)
                try:
                    file_stat = files.stat(path)
                    meta = (f"{file_stat.mode:o}:{file_stat.ownership}:"
                            f"{file_stat.ownership_names}")
                    content = content_digest(files.read_text(path))
                except (OSError, FilesystemError):
                    # Unreadable entry (e.g. dangling symlink): its
                    # brokenness is itself part of the digest.
                    fold(f"x:{path}")
                    continue
                memo[(FILEMETA, path)] = meta
                memo[(FILE, path)] = content
                fold(f"f:{path}:{meta}:{content}")
        if self._files_index is None:
            self._files_index = file_index
        for package in self._packages:
            fold(f"p:{package.name}={package.version}:{package.architecture}")
        fold(json.dumps(self._runtime, sort_keys=True))
        digest = hasher.hexdigest()
        memo[("frame", "")] = digest
        return digest

    # ---- per-kind digests -------------------------------------------------

    def _compute(self, dep: tuple[str, str]) -> str:
        kind, arg = dep
        if kind == FILE:
            return self._file_digest(arg)
        if kind == FILEMETA:
            return self._filemeta_digest(arg)
        if kind == LISTING:
            return self._listing_digest(arg)
        if kind == RUNTIME:
            return self._runtime_digest(arg)
        if kind == RUNTIME_KEYS:
            return _sha256(",".join(sorted(self._runtime)))
        raise ValueError(f"unknown dependency kind {kind!r}")

    def _file_digest(self, path: str) -> str:
        files = self._files
        if not files.exists(path):
            return ABSENT
        if files.is_dir(path):
            return IS_DIR
        # Reuses the parse cache's content address (sha256 of the text),
        # so incremental mode adds no hashing beyond what a full cycle
        # already pays for content-addressed parsing.
        from repro.engine.parse_cache import content_digest

        return content_digest(files.read_text(path))

    def _filemeta_digest(self, path: str) -> str:
        files = self._files
        if not files.exists(path):
            return ABSENT
        stat = files.stat(path)
        prefix = IS_DIR + ":" if files.is_dir(path) else ""
        return (
            f"{prefix}{stat.mode:o}:{stat.ownership}:{stat.ownership_names}"
        )

    def _file_paths(self) -> list[str]:
        """Every file path in the frame, in the index's order (cached)."""
        if self._files_index is None:
            import posixpath

            paths: list[str] = []
            for dirpath, _dirs, filenames in self._files.walk("/"):
                for name in filenames:
                    paths.append(posixpath.join(dirpath, name))
            self._files_index = paths
        return self._files_index

    def _listing_digest(self, arg: str) -> str:
        # A prefix filter over the cached whole-frame index selects the
        # same path *set* as ``files_under(top)`` without re-walking the
        # tree for every search-path set.  The index's canonical order
        # (walk or lexicographic, depending on how :meth:`frame_digest`
        # built it) is stable per frame, which is all a digest
        # comparison needs.
        index = self._file_paths()
        paths: list[str] = []
        for top in arg.split(LISTING_SEP) if arg else []:
            top = normalize_path(top)
            prefix = top if top.endswith("/") else top + "/"
            paths.extend(
                p for p in index if p == top or p.startswith(prefix)
            )
        return _sha256(LISTING_SEP.join(paths))

    def _runtime_digest(self, namespace: str) -> str:
        values = self._runtime.get(namespace)
        if values is None:
            return ABSENT
        return _sha256(json.dumps(values, sort_keys=True))


def normalize_file_arg(path: str) -> str:
    """Canonical path form for ``file``/``filemeta`` dep args."""
    return normalize_path(path)
