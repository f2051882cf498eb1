"""Tests for the real-filesystem adapter (uses pytest tmp_path)."""

import pytest

from repro.errors import FileNotFoundInFrame, IsADirectoryInFrame
from repro.fs import FileKind, RealFilesystem


@pytest.fixture()
def rootfs(tmp_path):
    (tmp_path / "etc" / "ssh").mkdir(parents=True)
    (tmp_path / "etc" / "ssh" / "sshd_config").write_text("PermitRootLogin no\n")
    (tmp_path / "etc" / "motd").write_text("welcome\n")
    return RealFilesystem(str(tmp_path))


class TestRealFilesystem:
    def test_read_text(self, rootfs):
        assert rootfs.read_text("/etc/motd") == "welcome\n"

    def test_exists(self, rootfs):
        assert rootfs.exists("/etc/ssh/sshd_config")
        assert not rootfs.exists("/etc/nothing")

    def test_is_dir(self, rootfs):
        assert rootfs.is_dir("/etc")
        assert not rootfs.is_dir("/etc/motd")

    def test_listdir(self, rootfs):
        assert rootfs.listdir("/etc") == ["motd", "ssh"]

    def test_missing_read_raises(self, rootfs):
        with pytest.raises(FileNotFoundInFrame):
            rootfs.read_text("/nope")

    def test_read_directory_raises(self, rootfs):
        with pytest.raises(IsADirectoryInFrame):
            rootfs.read_text("/etc")

    def test_stat_kind_and_mode(self, rootfs, tmp_path):
        (tmp_path / "etc" / "motd").chmod(0o640)
        stat = rootfs.stat("/etc/motd")
        assert stat.kind is FileKind.FILE
        assert stat.mode == 0o640

    def test_stat_missing_raises(self, rootfs):
        with pytest.raises(FileNotFoundInFrame):
            rootfs.stat("/nope")

    def test_walk_and_find(self, rootfs):
        assert rootfs.find("/", "sshd_config") == ["/etc/ssh/sshd_config"]

    def test_rooting_prevents_escape_above_root(self, rootfs):
        # ".." segments are normalized before hitting the host path.
        assert not rootfs.exists("/../../etc/passwd-outside")

    def test_walk_skips_symlink_cycles(self, rootfs, tmp_path):
        loop = tmp_path / "etc" / "ssh" / "loop"
        loop.symlink_to(tmp_path / "etc")
        assert rootfs.files_under("/etc") == [
            "/etc/motd", "/etc/ssh/sshd_config",
        ]
