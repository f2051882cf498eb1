"""Metamorphic properties of the engine and substrates.

These don't check specific verdicts -- they check invariants that must
hold under transformations: reordering rules, duplicating frames,
filtering by tags, flattening overlays, serializing frames.
"""

import posixpath
import random

from hypothesis import example, given, settings, strategies as st

from repro.errors import FilesystemError
from repro.fs import (
    FileKind,
    FilesystemView,
    OverlayFilesystem,
    VirtualFilesystem,
    WHITEOUT_PREFIX,
    flatten,
    whiteout_for,
)
from repro.fs.overlay import OPAQUE_MARKER
from repro.crawler import Crawler, HostEntity
from repro.crawler.fingerprint import FILE, FILEMETA, FrameFingerprint
from repro.crawler.frame import ConfigFrame
from repro.crawler.serialize import dump_frame, load_frame
from repro.cvl import Manifest, RuleSet
from repro.engine import ConfigValidator, Verdict
from repro.rules import load_builtin_validator
from repro.workloads import generate_keyvalue_config, generate_tree_rules, ubuntu_host_entity


def _verdict_map(report):
    return {
        (r.entity, r.rule.name): r.verdict
        for r in report
        if r.rule.rule_type != "composite"
    }


class TestEngineMetamorphic:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_rule_order_does_not_change_verdicts(self, seed):
        config = generate_keyvalue_config(60, misconfig_rate=0.3, seed=seed)
        fs = VirtualFilesystem()
        fs.write_file("/etc/synthetic/synthetic.conf", config)
        frame = Crawler().crawl(HostEntity("m", fs), features=("files",))

        rules = list(generate_tree_rules(60))
        shuffled = list(rules)
        random.Random(seed).shuffle(shuffled)

        def run(rule_list):
            validator = ConfigValidator()
            validator.add_ruleset(
                Manifest(entity="synthetic", cvl_file="<m>",
                         config_search_paths=["/etc/synthetic"]),
                RuleSet(entity="synthetic", rules=rule_list),
            )
            return _verdict_map(validator.validate_frame(frame))

        assert run(rules) == run(shuffled)

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        hardening=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_duplicating_a_frame_keeps_per_rule_verdicts(self, seed, hardening):
        validator = load_builtin_validator(only=["sshd", "sysctl", "fstab"])
        frame = Crawler().crawl(
            ubuntu_host_entity("dup", hardening=hardening, seed=seed)
        )
        single = _verdict_map(validator.validate_frame(frame))
        doubled_report = validator.validate_frames([frame, frame])
        # Every (entity, rule) verdict from the single run appears, with the
        # same value, in the doubled run.
        doubled = _verdict_map(doubled_report)
        assert single == doubled

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_tag_filter_yields_subset_with_same_verdicts(self, seed):
        validator = load_builtin_validator(only=["sshd", "sysctl"])
        frame = Crawler().crawl(
            ubuntu_host_entity("tagf", hardening=0.5, seed=seed)
        )
        full = _verdict_map(validator.validate_frame(frame))
        filtered = _verdict_map(
            validator.validate_frame(frame, tags=["#cis"])
        )
        assert set(filtered) <= set(full)
        for key, verdict in filtered.items():
            assert full[key] == verdict

    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        hardening=st.sampled_from([0.2, 0.8]),
    )
    def test_validation_is_deterministic(self, seed, hardening):
        validator = load_builtin_validator(only=["sshd", "audit"])
        frame = Crawler().crawl(
            ubuntu_host_entity("det", hardening=hardening, seed=seed)
        )
        first = _verdict_map(validator.validate_frame(frame))
        second = _verdict_map(validator.validate_frame(frame))
        assert first == second


_layer_files = st.dictionaries(
    st.sampled_from(["/etc/a", "/etc/b", "/etc/sub/c", "/opt/d"]),
    st.text(alphabet="xyz", max_size=5),
    max_size=4,
)

_ROOT = (0, 0, "root", "root")
_WWW = (33, 33, "www-data", "www-data")
_modes = st.sampled_from([0o600, 0o644, 0o700, 0o755])
_owners = st.sampled_from([_ROOT, _WWW])

#: One layer: an optional root chmod/chown, files and directories with
#: modes and owners (``/etc/sub`` can be a file in one layer and a
#: directory in another), sometimes a whiteout, an opaque marker or a
#: symlink, and then in-place edits: chmod, chown and remove.
_layer_ops = st.fixed_dictionaries({
    "root": st.none() | st.tuples(_modes, _owners),
    "nodes": st.lists(st.one_of(
        st.tuples(st.just("file"),
                  st.sampled_from(["/etc/a", "/etc/b", "/etc/sub",
                                   "/etc/sub/c", "/opt/d"]),
                  st.text(alphabet="xyz", max_size=5), _modes, _owners),
        st.tuples(st.just("dir"),
                  st.sampled_from(["/etc", "/etc/a", "/etc/sub", "/opt"]),
                  _modes, _owners),
    ), max_size=5),
    "markers": st.one_of(
        st.just([]), st.just([]), st.just([]),
        st.lists(st.one_of(
            st.tuples(st.just("whiteout"),
                      st.sampled_from(["/etc/a", "/etc/sub", "/opt"])),
            st.tuples(st.just("opaque"), st.sampled_from(["/etc", "/opt"])),
            st.tuples(st.just("symlink"),
                      st.sampled_from(["/etc/link", "/opt/link"]),
                      st.sampled_from(["/etc/a", "/etc/sub", "/missing"])),
        ), min_size=1, max_size=2),
    ),
    "edits": st.lists(st.one_of(
        st.tuples(st.just("chmod"),
                  st.sampled_from(["/etc", "/etc/a", "/etc/sub/c"]), _modes),
        st.tuples(st.just("chown"),
                  st.sampled_from(["/", "/etc/b", "/opt"]), _owners),
        st.tuples(st.just("remove"),
                  st.sampled_from(["/etc/a", "/etc/sub", "/opt"])),
    ), max_size=2),
})


def _build_layer(ops) -> VirtualFilesystem:
    fs = VirtualFilesystem()
    if ops["root"] is not None:
        mode, (uid, gid, owner, group) = ops["root"]
        fs.chmod("/", mode)
        fs.chown("/", uid, gid, owner, group)
    for op in ops["nodes"] + ops["markers"] + ops.get("edits", []):
        kind, path = op[0], op[1]
        try:
            if kind == "file":
                _, _, content, mode, (uid, gid, owner, group) = op
                fs.write_file(path, content, mode=mode, uid=uid, gid=gid,
                              owner=owner, group=group)
            elif kind == "dir":
                _, _, mode, (uid, gid, owner, group) = op
                fs.mkdir(path)
                fs.chmod(path, mode)
                fs.chown(path, uid, gid, owner, group)
            elif kind == "whiteout":
                fs.write_file(whiteout_for(path), "")
            elif kind == "opaque":
                fs.write_file(posixpath.join(path, OPAQUE_MARKER), "")
            elif kind == "symlink" and not fs.exists(path):
                fs.symlink(path, op[2])
            elif kind == "chmod":
                fs.chmod(path, op[2])
            elif kind == "chown":
                uid, gid, owner, group = op[2]
                fs.chown(path, uid, gid, owner, group)
            elif kind == "remove":
                fs.remove(path)
        except FilesystemError:
            continue  # e.g. a file under a path this layer holds as a file
    return fs


def _expects_walk(layers) -> bool:
    """The cases where an overlay must refuse a bulk read: a symlink, a
    whiteout or opaque marker, or a path that is a directory in one
    layer and not in another."""
    is_dir: dict[str, set[bool]] = {}
    for layer in layers:
        for path in layer.paths():
            stat = layer.lstat(path)
            if stat.kind is FileKind.SYMLINK \
                    or posixpath.basename(path).startswith(WHITEOUT_PREFIX):
                return True
            is_dir.setdefault(path, set()).add(stat.is_dir)
    return any(len(kinds) > 1 for kinds in is_dir.values())


class _WalkOnly(FilesystemView):
    """The overlay's view without its bulk read: fingerprints walk it."""

    def __init__(self, inner: FilesystemView):
        self._inner = inner

    def exists(self, path):
        return self._inner.exists(path)

    def is_dir(self, path):
        return self._inner.is_dir(path)

    def read_text(self, path):
        return self._inner.read_text(path)

    def stat(self, path):
        return self._inner.stat(path)

    def listdir(self, path):
        return self._inner.listdir(path)


def _image_frame(files: FilesystemView) -> ConfigFrame:
    return ConfigFrame(entity_name="layers", entity_kind="image", files=files)


class TestSubstrateMetamorphic:
    @settings(max_examples=20, deadline=None)
    @given(layers=st.lists(_layer_files, min_size=1, max_size=4))
    def test_flatten_preserves_overlay_view(self, layers):
        stacks = []
        for files in layers:
            fs = VirtualFilesystem()
            for path, content in files.items():
                fs.write_file(path, content)
            stacks.append(fs)
        overlay = OverlayFilesystem(stacks)
        merged = flatten(overlay)
        overlay_files = {
            f"{d}/{n}".replace("//", "/")
            for d, _s, names in overlay.walk("/")
            for n in names
        }
        merged_files = {
            f"{d}/{n}".replace("//", "/")
            for d, _s, names in merged.walk("/")
            for n in names
        }
        assert overlay_files == merged_files
        for path in overlay_files:
            assert merged.read_text(path) == overlay.read_text(path)

    @settings(max_examples=80, deadline=None)
    @given(stack=st.lists(_layer_ops, min_size=1, max_size=4))
    @example(stack=[  # the root takes the bottom layer's stat
        {"root": None, "nodes": [("file", "/etc/a", "x", 0o644, _ROOT)],
         "markers": []},
        {"root": (0o700, _WWW), "nodes": [], "markers": []},
    ])
    @example(stack=[  # /etc/sub: a directory below, a file above
        {"root": None, "nodes": [("file", "/etc/sub/c", "x", 0o644, _ROOT)],
         "markers": []},
        {"root": None, "nodes": [("file", "/etc/sub", "y", 0o600, _WWW)],
         "markers": []},
    ])
    def test_overlay_bulk_read_matches_walk(self, stack):
        layers = [_build_layer(ops) for ops in stack]
        overlay = OverlayFilesystem(layers)
        flat = overlay.flat_nodes()
        if _expects_walk(layers):
            assert flat is None
            return
        walked = []
        for dirpath, _dirs, names in overlay.walk("/"):
            walked.append((dirpath, overlay.stat(dirpath), ""))
            for name in names:
                path = posixpath.join(dirpath, name)
                walked.append((path, overlay.stat(path),
                               overlay.read_text(path)))
        assert flat == sorted(walked, key=lambda entry: entry[0])

        bulk = FrameFingerprint(_image_frame(overlay))
        walk = FrameFingerprint(_image_frame(_WalkOnly(overlay)))
        bulk.frame_digest()
        walk.frame_digest()
        for path, stat, _content in walked:
            assert bulk.digest((FILEMETA, path)) == walk.digest((FILEMETA, path))
            if not stat.is_dir:
                assert bulk.digest((FILE, path)) == walk.digest((FILE, path))
        assert sorted(bulk._file_paths()) == sorted(walk._file_paths())

    @settings(max_examples=10, deadline=None)
    @given(files=_layer_files, seed=st.integers(min_value=0, max_value=99))
    def test_serialize_roundtrip_preserves_walk(self, files, seed):
        fs = VirtualFilesystem()
        for path, content in files.items():
            fs.write_file(path, content, mode=0o640 if seed % 2 else 0o644)
        frame = Crawler().crawl(HostEntity("s", fs), features=("files",))
        restored = load_frame(dump_frame(frame))
        assert list(restored.files.walk("/")) == list(frame.files.walk("/"))
        for path in files:
            assert restored.read_config(path) == frame.read_config(path)
            assert restored.stat(path).mode == frame.stat(path).mode
