"""Unit tests for the in-memory filesystem."""

import itertools
import posixpath
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import (
    FileNotFoundInFrame,
    FilesystemError,
    IsADirectoryInFrame,
    NotADirectoryInFrame,
)
from repro.fs import FileKind, VirtualFilesystem, format_mode
from repro.fs.view import FilesystemView, normalize_path


@pytest.fixture()
def fs():
    return VirtualFilesystem()


class TestWriteAndRead:
    def test_write_then_read(self, fs):
        fs.write_file("/etc/motd", "hello\n")
        assert fs.read_text("/etc/motd") == "hello\n"

    def test_write_creates_parents(self, fs):
        fs.write_file("/a/b/c/d.txt", "x")
        assert fs.is_dir("/a/b/c")
        assert fs.is_dir("/a")

    def test_overwrite_replaces_content(self, fs):
        fs.write_file("/f", "one")
        fs.write_file("/f", "two")
        assert fs.read_text("/f") == "two"

    def test_relative_path_is_rooted(self, fs):
        fs.write_file("etc/conf", "x")
        assert fs.read_text("/etc/conf") == "x"

    def test_path_normalization(self, fs):
        fs.write_file("/etc/ssh/sshd_config", "Port 22\n")
        assert fs.read_text("/etc//ssh/./sshd_config") == "Port 22\n"

    def test_read_missing_raises(self, fs):
        with pytest.raises(FileNotFoundInFrame):
            fs.read_text("/nope")

    def test_read_directory_raises(self, fs):
        fs.mkdir("/etc")
        with pytest.raises(IsADirectoryInFrame):
            fs.read_text("/etc")

    def test_write_over_directory_raises(self, fs):
        fs.mkdir("/etc")
        with pytest.raises(IsADirectoryInFrame):
            fs.write_file("/etc", "no")

    def test_write_under_file_raises(self, fs):
        fs.write_file("/etc", "a file")
        with pytest.raises(NotADirectoryInFrame):
            fs.write_file("/etc/child", "x")


class TestMetadata:
    def test_default_stat(self, fs):
        fs.write_file("/f", "abc")
        stat = fs.stat("/f")
        assert stat.mode == 0o644
        assert stat.ownership == "0:0"
        assert stat.ownership_names == "root:root"
        assert stat.size == 3

    def test_explicit_metadata(self, fs):
        fs.write_file("/s", "", mode=0o600, uid=107, gid=112,
                      owner="mysql", group="mysql")
        stat = fs.stat("/s")
        assert stat.octal_mode == "600"
        assert stat.ownership == "107:112"
        assert stat.ownership_names == "mysql:mysql"

    def test_chmod(self, fs):
        fs.write_file("/f", "")
        fs.chmod("/f", 0o400)
        assert fs.stat("/f").mode == 0o400

    def test_chown(self, fs):
        fs.write_file("/f", "")
        fs.chown("/f", 33, 33, owner="www-data", group="www-data")
        assert fs.stat("/f").ownership == "33:33"
        assert fs.stat("/f").owner == "www-data"

    def test_chmod_missing_raises(self, fs):
        with pytest.raises(FileNotFoundInFrame):
            fs.chmod("/missing", 0o644)

    def test_format_mode_file(self, fs):
        fs.write_file("/f", "", mode=0o644)
        assert format_mode(fs.stat("/f")) == "-rw-r--r--"

    def test_format_mode_directory(self, fs):
        fs.mkdir("/d", mode=0o755)
        assert format_mode(fs.stat("/d")) == "drwxr-xr-x"

    def test_size_counts_bytes_not_chars(self, fs):
        fs.write_file("/f", "é")  # two UTF-8 bytes
        assert fs.stat("/f").size == 2


class TestDirectories:
    def test_listdir_sorted(self, fs):
        fs.write_file("/d/b", "")
        fs.write_file("/d/a", "")
        fs.write_file("/d/c", "")
        assert fs.listdir("/d") == ["a", "b", "c"]

    def test_listdir_on_file_raises(self, fs):
        fs.write_file("/f", "")
        with pytest.raises(NotADirectoryInFrame):
            fs.listdir("/f")

    def test_mkdir_idempotent(self, fs):
        fs.mkdir("/d")
        fs.mkdir("/d")
        assert fs.is_dir("/d")

    def test_remove_file(self, fs):
        fs.write_file("/d/f", "")
        fs.remove("/d/f")
        assert not fs.exists("/d/f")
        assert fs.listdir("/d") == []

    def test_remove_directory_recursive(self, fs):
        fs.write_file("/d/sub/f", "")
        fs.remove("/d")
        assert not fs.exists("/d/sub/f")
        assert not fs.exists("/d")

    def test_remove_root_refused(self, fs):
        with pytest.raises(FilesystemError):
            fs.remove("/")

    def test_walk_yields_all(self, fs):
        fs.write_file("/etc/ssh/sshd_config", "")
        fs.write_file("/etc/motd", "")
        walked = {dirpath: (dirs, files) for dirpath, dirs, files in fs.walk("/etc")}
        assert walked["/etc"] == (["ssh"], ["motd"])
        assert walked["/etc/ssh"] == ([], ["sshd_config"])

    def test_find_by_glob(self, fs):
        fs.write_file("/etc/sysctl.d/10-net.conf", "")
        fs.write_file("/etc/sysctl.d/readme.txt", "")
        assert fs.find("/etc/sysctl.d", "*.conf") == ["/etc/sysctl.d/10-net.conf"]

    def test_files_under_file_returns_itself(self, fs):
        fs.write_file("/etc/fstab", "")
        assert fs.files_under("/etc/fstab") == ["/etc/fstab"]

    def test_files_under_missing_is_empty(self, fs):
        assert fs.files_under("/nope") == []


class TestSymlinks:
    def test_symlink_resolution(self, fs):
        fs.write_file("/etc/real.conf", "data")
        fs.symlink("/etc/link.conf", "/etc/real.conf")
        assert fs.read_text("/etc/link.conf") == "data"

    def test_relative_symlink(self, fs):
        fs.write_file("/etc/real.conf", "data")
        fs.symlink("/etc/link.conf", "real.conf")
        assert fs.read_text("/etc/link.conf") == "data"

    def test_symlink_in_directory_component(self, fs):
        fs.write_file("/opt/app/conf/a.conf", "x")
        fs.symlink("/etc/app", "/opt/app/conf")
        assert fs.read_text("/etc/app/a.conf") == "x"

    def test_dangling_symlink(self, fs):
        fs.symlink("/l", "/missing")
        assert not fs.exists("/l")
        with pytest.raises(FileNotFoundInFrame):
            fs.read_text("/l")

    def test_symlink_loop_detected(self, fs):
        fs.symlink("/a", "/b")
        fs.symlink("/b", "/a")
        with pytest.raises(FileNotFoundInFrame):
            fs.read_text("/a")

    def test_lstat_does_not_follow(self, fs):
        fs.write_file("/real", "")
        fs.symlink("/link", "/real")
        assert fs.lstat("/link").kind is FileKind.SYMLINK
        assert fs.stat("/link").kind is FileKind.FILE

    def test_readlink(self, fs):
        fs.symlink("/link", "/target")
        assert fs.readlink("/link") == "/target"

    def test_readlink_on_regular_file_raises(self, fs):
        fs.write_file("/f", "")
        with pytest.raises(FileNotFoundInFrame):
            fs.readlink("/f")

    def test_symlink_over_directory_refused(self, fs):
        # Replacing a directory would cut its subtree off the root: the
        # old files would still read and be listed by flat_nodes, while
        # listdir and walks follow the link.
        fs.write_file("/etc/ssh/sshd_config", "Port 22\n")
        fs.write_file("/opt/other/motd", "hi\n")
        with pytest.raises(IsADirectoryInFrame):
            fs.symlink("/etc/ssh", "/opt/other")
        assert fs.lstat("/etc/ssh").kind is FileKind.DIRECTORY
        assert fs.listdir("/etc/ssh") == ["sshd_config"]
        assert fs.read_text("/etc/ssh/sshd_config") == "Port 22\n"
        assert fs.flat_nodes() is not None
        fs.mkdir("/empty")
        with pytest.raises(IsADirectoryInFrame):
            fs.symlink("/empty", "/opt/other")
        with pytest.raises(IsADirectoryInFrame):
            fs.symlink("/", "/opt/other")

    def test_symlink_replaces_file_and_symlink(self, fs):
        fs.write_file("/etc/a.conf", "a")
        fs.write_file("/etc/b.conf", "b")
        fs.write_file("/etc/link", "old")
        fs.symlink("/etc/link", "/etc/a.conf")
        assert fs.read_text("/etc/link") == "a"
        fs.symlink("/etc/link", "/etc/b.conf")
        assert fs.read_text("/etc/link") == "b"
        fs.remove("/etc/link")
        assert fs.flat_nodes() is not None


_path_segments = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=6), min_size=1, max_size=4
)


class TestProperties:
    @given(segments=_path_segments, content=st.text(max_size=64))
    def test_roundtrip_any_path(self, segments, content):
        fs = VirtualFilesystem()
        path = "/" + "/".join(segments)
        fs.write_file(path, content)
        assert fs.read_text(path) == content
        assert fs.exists(path)

    @given(segments=_path_segments)
    def test_parents_exist_after_write(self, segments):
        fs = VirtualFilesystem()
        path = "/" + "/".join(segments)
        fs.write_file(path, "")
        parent = "/".join(path.split("/")[:-1]) or "/"
        assert fs.is_dir(parent)

    @given(
        paths=st.lists(
            _path_segments.map(lambda segs: "/" + "/".join(segs)),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    def test_walk_visits_every_written_file(self, paths):
        fs = VirtualFilesystem()
        written = set()
        for path in paths:
            # Skip paths that collide with an already-written file acting
            # as a directory prefix.
            try:
                fs.write_file(path, "x")
                written.add(path)
            except (NotADirectoryInFrame, IsADirectoryInFrame):
                pass
        found = {
            f"{dirpath.rstrip('/')}/{name}"
            for dirpath, _dirs, files in fs.walk("/")
            for name in files
        }
        assert written <= found


# ---- probes against a reference that resolves every component ---------------

_NAMES = ["a", "b", "c"]
#: Every path up to three components deep over three names, and the root.
_PROBES = ["/"] + ["/" + "/".join(parts) for depth in (1, 2, 3)
                   for parts in itertools.product(_NAMES, repeat=depth)]


def _reference_resolve(fs, path, stored, hops=0):
    """The real path ``path`` names, or None: every component looked up
    in ``stored`` (the stored paths), symlinks followed, a non-directory
    ending the walk -- no shortcut for stored paths."""
    resolved = "/"
    parts = [part for part in path.split("/") if part]
    for index, part in enumerate(parts):
        if fs.lstat(resolved).kind is not FileKind.DIRECTORY:
            return None
        candidate = posixpath.join(resolved, part)
        if candidate not in stored:
            return None
        if fs.lstat(candidate).kind is FileKind.SYMLINK:
            if hops > VirtualFilesystem._MAX_SYMLINK_HOPS:
                return None  # a loop, or too long a chain
            target = fs.readlink(candidate)
            if not target.startswith("/"):
                target = posixpath.join(resolved, target)
            rest = "/".join(parts[index + 1:])
            full = posixpath.join(target, rest) if rest else target
            return _reference_resolve(fs, posixpath.normpath(full), stored,
                                      hops + 1)
        resolved = candidate
    return resolved


class _ComponentView(FilesystemView):
    """``fs`` probed through :func:`_reference_resolve`; listings come
    from the stored paths."""

    def __init__(self, fs):
        self._fs = fs
        self._stored = set(fs.paths())

    def _resolve(self, path):
        return _reference_resolve(self._fs, normalize_path(path), self._stored)

    def realpath(self, path):
        return self._resolve(path)

    def exists(self, path):
        return self._resolve(path) is not None

    def is_dir(self, path):
        real = self._resolve(path)
        return real is not None \
            and self._fs.lstat(real).kind is FileKind.DIRECTORY

    def read_text(self, path):
        return self._fs.read_text(path)

    def stat(self, path):
        return self._fs.stat(path)

    def listdir(self, path):
        real = self._resolve(path)
        return sorted(posixpath.basename(stored) for stored in self._stored
                      if stored != "/" and posixpath.dirname(stored) == real)


def _assert_probes_match(fs):
    reference = _ComponentView(fs)
    for path in _PROBES:
        assert fs.exists(path) == reference.exists(path), path
        assert fs.is_dir(path) == reference.is_dir(path), path
    # Walks from the top cover the deeper paths.
    for path in _PROBES[:1 + len(_NAMES)]:
        assert fs.files_under(path) == reference.files_under(path), path
    flat = fs.flat_nodes()
    if flat is not None:
        walked = {posixpath.join(top, name)
                  for top, dirs, files in reference.walk("/")
                  for name in dirs + files} | {"/"}
        assert [path for path, _stat, _content in flat] == sorted(walked)


_paths = st.sampled_from(_PROBES[1:])
_targets = st.sampled_from(_PROBES[1:] + ["b", "../a", "/missing", "."])
_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), _paths),
    st.tuples(st.just("mkdir"), _paths),
    st.tuples(st.just("symlink"), _paths, _targets),
    st.tuples(st.just("remove"), _paths),
), max_size=12)


#: Two symlinks to one ancestor: a walk that followed them would visit
#: 2^depth directories.
_CYCLE_OPS = [("write", "/a/f"), ("symlink", "/a/b", "/a"),
              ("symlink", "/a/c", "/a")]


class TestSymlinkCycleWalk:
    def test_walk_skips_a_directory_already_on_its_chain(self):
        fs = VirtualFilesystem()
        fs.write_file("/a/f", "x")
        fs.symlink("/a/b", "/a")
        fs.symlink("/a/c", "/a")
        started = time.perf_counter()
        walked = list(fs.walk("/"))
        assert fs.files_under("/") == ["/a/f"]
        assert time.perf_counter() - started < 0.5
        # The links stay listed; only their descent is skipped.
        assert walked == [("/", ["a"], []), ("/a", ["b", "c"], ["f"])]

    def test_acyclic_links_are_still_followed(self):
        fs = VirtualFilesystem()
        fs.write_file("/x/f", "x")
        fs.symlink("/y/l", "/x")
        assert fs.files_under("/") == ["/x/f", "/y/l/f"]


class TestProbeDifferential:
    """``exists``, ``is_dir`` and ``files_under`` answer as if every
    component were resolved, with and without symlinks in the tree."""

    @settings(max_examples=200, deadline=None)
    @given(_ops)
    @example(_CYCLE_OPS)
    def test_probes_match_component_resolution(self, ops):
        fs = VirtualFilesystem()
        for op in ops:
            try:
                if op[0] == "write":
                    fs.write_file(op[1], op[1])
                elif op[0] == "mkdir":
                    fs.mkdir(op[1])
                elif op[0] == "symlink":
                    fs.symlink(op[1], op[2])
                else:
                    fs.remove(op[1])
            except FilesystemError:
                continue  # refused; the tree is unchanged
            _assert_probes_match(fs)
        # Remove the symlinks one by one, down to a tree with none.
        for path in fs.paths():
            if fs.lstat(path).kind is FileKind.SYMLINK:
                fs.remove(path)
                _assert_probes_match(fs)
        assert fs.flat_nodes() is not None
