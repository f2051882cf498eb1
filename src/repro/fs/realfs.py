"""Read-only adapter presenting a real directory tree as a FilesystemView.

This is what lets the validator run against an actual machine (or an
unpacked image rootfs on disk) with the exact same rule engine used for
synthetic entities.  The adapter is rooted: path ``/etc/ssh/sshd_config``
resolves to ``<root>/etc/ssh/sshd_config`` on disk, so scanning an unpacked
chroot needs no path rewriting in the rules.
"""

from __future__ import annotations

import os
import stat as statmod

from repro.chaos.fabric import _CHAOS
from repro.errors import FileNotFoundInFrame, IsADirectoryInFrame
from repro.fs.meta import FileKind, FileStat
from repro.fs.view import FilesystemView, normalize_path


class RealFilesystem(FilesystemView):
    """Expose the host filesystem under ``root`` (default ``/``) read-only."""

    def __init__(self, root: str = "/"):
        self._root = os.path.abspath(root)

    @property
    def root(self) -> str:
        return self._root

    def _host_path(self, path: str) -> str:
        relative = normalize_path(path).lstrip("/")
        return os.path.join(self._root, relative) if relative else self._root

    # ---- FilesystemView --------------------------------------------------

    def exists(self, path: str) -> bool:
        return os.path.exists(self._host_path(path))

    def is_dir(self, path: str) -> bool:
        return os.path.isdir(self._host_path(path))

    def read_text(self, path: str) -> str:
        if _CHAOS.armed:
            _CHAOS.fire("fs.read", path)
        host = self._host_path(path)
        if os.path.isdir(host):
            raise IsADirectoryInFrame(path)
        try:
            with open(host, "r", encoding="utf-8", errors="replace") as handle:
                return handle.read()
        except FileNotFoundError:
            raise FileNotFoundInFrame(path) from None

    def stat(self, path: str) -> FileStat:
        host = self._host_path(path)
        try:
            result = os.stat(host)
        except FileNotFoundError:
            raise FileNotFoundInFrame(path) from None
        if statmod.S_ISDIR(result.st_mode):
            kind = FileKind.DIRECTORY
        elif statmod.S_ISLNK(result.st_mode):
            kind = FileKind.SYMLINK
        else:
            kind = FileKind.FILE
        owner, group = _names_for(result.st_uid, result.st_gid)
        return FileStat(
            kind=kind,
            mode=statmod.S_IMODE(result.st_mode),
            uid=result.st_uid,
            gid=result.st_gid,
            owner=owner,
            group=group,
            size=result.st_size,
            mtime=result.st_mtime,
        )

    def realpath(self, path: str) -> str:
        """The host's real path for ``path`` (a symlink may lead out of
        the root, so the answer is not a path inside the view)."""
        return os.path.realpath(self._host_path(path))

    def listdir(self, path: str) -> list[str]:
        host = self._host_path(path)
        try:
            return sorted(os.listdir(host))
        except FileNotFoundError:
            raise FileNotFoundInFrame(path) from None


def _names_for(uid: int, gid: int) -> tuple[str, str]:
    """Best-effort uid/gid to name resolution (falls back to the numbers)."""
    owner = str(uid)
    group = str(gid)
    try:
        import pwd

        owner = pwd.getpwuid(uid).pw_name
    except (ImportError, KeyError):
        pass
    try:
        import grp

        group = grp.getgrgid(gid).gr_name
    except (ImportError, KeyError):
        pass
    return owner, group
