"""Unit tests for the union/overlay filesystem (Docker layer semantics)."""

import pytest

from repro.errors import FileNotFoundInFrame
from repro.fs import (
    OverlayFilesystem,
    VirtualFilesystem,
    flatten,
    whiteout_for,
)
from repro.fs.overlay import OPAQUE_MARKER


def _layer(**files) -> VirtualFilesystem:
    fs = VirtualFilesystem()
    for path, content in files.items():
        fs.write_file("/" + path.replace("__", "/"), content)
    return fs


class TestShadowing:
    def test_upper_layer_wins(self):
        lower = _layer(**{"etc__conf": "old"})
        upper = _layer(**{"etc__conf": "new"})
        overlay = OverlayFilesystem([lower, upper])
        assert overlay.read_text("/etc/conf") == "new"

    def test_lower_visible_when_not_shadowed(self):
        lower = _layer(**{"etc__base": "base"})
        upper = _layer(**{"etc__extra": "extra"})
        overlay = OverlayFilesystem([lower, upper])
        assert overlay.read_text("/etc/base") == "base"
        assert overlay.read_text("/etc/extra") == "extra"

    def test_listdir_merges_layers(self):
        lower = _layer(**{"etc__a": "", "etc__b": ""})
        upper = _layer(**{"etc__c": ""})
        overlay = OverlayFilesystem([lower, upper])
        assert overlay.listdir("/etc") == ["a", "b", "c"]

    def test_stat_comes_from_topmost_provider(self):
        lower = VirtualFilesystem()
        lower.write_file("/f", "x", mode=0o644)
        upper = VirtualFilesystem()
        upper.write_file("/f", "y", mode=0o600)
        overlay = OverlayFilesystem([lower, upper])
        assert overlay.stat("/f").mode == 0o600

    def test_empty_layerlist_rejected(self):
        with pytest.raises(ValueError):
            OverlayFilesystem([])


class TestWhiteouts:
    def test_whiteout_hides_lower_file(self):
        lower = _layer(**{"etc__secret": "hide me"})
        upper = VirtualFilesystem()
        upper.write_file(whiteout_for("/etc/secret"), "")
        overlay = OverlayFilesystem([lower, upper])
        assert not overlay.exists("/etc/secret")
        with pytest.raises(FileNotFoundInFrame):
            overlay.read_text("/etc/secret")

    def test_whiteout_hides_from_listdir(self):
        lower = _layer(**{"etc__secret": "", "etc__keep": ""})
        upper = VirtualFilesystem()
        upper.write_file(whiteout_for("/etc/secret"), "")
        overlay = OverlayFilesystem([lower, upper])
        assert overlay.listdir("/etc") == ["keep"]

    def test_recreate_after_whiteout_in_same_layer(self):
        lower = _layer(**{"etc__conf": "v1"})
        upper = VirtualFilesystem()
        upper.write_file(whiteout_for("/etc/conf"), "")
        upper.write_file("/etc/conf", "v2")
        overlay = OverlayFilesystem([lower, upper])
        assert overlay.read_text("/etc/conf") == "v2"

    def test_whiteout_of_directory_hides_children(self):
        lower = _layer(**{"opt__app__conf": "x"})
        upper = VirtualFilesystem()
        upper.write_file(whiteout_for("/opt/app"), "")
        overlay = OverlayFilesystem([lower, upper])
        assert not overlay.exists("/opt/app/conf")
        assert not overlay.exists("/opt/app")

    def test_whiteout_markers_invisible(self):
        lower = _layer(**{"etc__gone": ""})
        upper = VirtualFilesystem()
        upper.write_file(whiteout_for("/etc/gone"), "")
        overlay = OverlayFilesystem([lower, upper])
        assert ".wh.gone" not in overlay.listdir("/etc")

    def test_opaque_directory_hides_lower_entries(self):
        lower = _layer(**{"etc__app__old": ""})
        upper = VirtualFilesystem()
        upper.write_file(f"/etc/app/{OPAQUE_MARKER}", "")
        upper.write_file("/etc/app/new", "")
        overlay = OverlayFilesystem([lower, upper])
        assert overlay.listdir("/etc/app") == ["new"]
        assert not overlay.exists("/etc/app/old")


class TestFlatten:
    def test_flatten_materializes_merged_view(self):
        lower = _layer(**{"etc__a": "A", "etc__b": "old"})
        upper = _layer(**{"etc__b": "new"})
        merged = flatten(OverlayFilesystem([lower, upper]))
        assert merged.read_text("/etc/a") == "A"
        assert merged.read_text("/etc/b") == "new"

    def test_flatten_preserves_metadata(self):
        lower = VirtualFilesystem()
        lower.write_file("/s", "x", mode=0o600, uid=5, gid=6,
                         owner="app", group="app")
        merged = flatten(OverlayFilesystem([lower]))
        stat = merged.stat("/s")
        assert (stat.mode, stat.uid, stat.gid) == (0o600, 5, 6)

    def test_flatten_applies_whiteouts(self):
        lower = _layer(**{"etc__gone": ""})
        upper = VirtualFilesystem()
        upper.write_file(whiteout_for("/etc/gone"), "")
        merged = flatten(OverlayFilesystem([lower, upper]))
        assert not merged.exists("/etc/gone")


class TestThreeLayers:
    def test_middle_layer_deletion_then_top_recreation(self):
        bottom = _layer(**{"f": "v1"})
        middle = VirtualFilesystem()
        middle.write_file(whiteout_for("/f"), "")
        top = _layer(**{"f": "v3"})
        overlay = OverlayFilesystem([bottom, middle, top])
        assert overlay.read_text("/f") == "v3"

    def test_deletion_stays_effective_without_recreation(self):
        bottom = _layer(**{"f": "v1"})
        middle = VirtualFilesystem()
        middle.write_file(whiteout_for("/f"), "")
        top = _layer(**{"other": ""})
        overlay = OverlayFilesystem([bottom, middle, top])
        assert not overlay.exists("/f")


class TestSymlinkCycles:
    def test_walk_skips_a_cycle_in_the_top_layer(self):
        bottom = _layer(**{"a__f": "v"})
        top = VirtualFilesystem()
        top.write_file("/a/g", "w")
        top.symlink("/a/b", "/a")
        overlay = OverlayFilesystem([bottom, top])
        assert overlay.files_under("/") == ["/a/f", "/a/g"]
