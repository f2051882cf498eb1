"""Differential testing of incremental revalidation.

The contract: a validator running with a long-lived
:class:`~repro.engine.incremental.VerdictStore` must render reports
**byte-identical** to a fresh full validator, at every worker count,
across scan cycles that mutate frames arbitrarily -- file content,
permissions, file adds/removes, package installs/removals, runtime-state
keys.  Incremental is a pure optimization or it is nothing.

Frames are rebuilt from serialized blobs each cycle (as a real scan
pipeline re-crawls entities each cycle); cumulative mutation scripts are
replayed onto the fresh frames so every cycle sees new frame objects
with fresh fingerprint memos.
"""

import posixpath
import random

import pytest

from repro.crawler import ContainerEntity, Crawler, DockerImageEntity
from repro.crawler.serialize import dump_frame, load_frame
from repro.engine import VerdictStore, render_json, render_text
from repro.engine.results import Outcome
from repro.fs import FileKind, WHITEOUT_PREFIX, whiteout_for
from repro.fs.packages import Package
from repro.rules import load_builtin_validator
from repro.workloads import FleetSpec, build_fleet, ubuntu_host_entity

WORKER_COUNTS = (1, 8)


# ---------------------------------------------------------------------------
# Fleet construction and mutation machinery
# ---------------------------------------------------------------------------

def _crawl_fleet(seed: int = 11) -> list:
    _daemon, images, containers = build_fleet(
        FleetSpec(images=3, containers_per_image=2, misconfig_rate=0.4,
                  seed=seed)
    )
    entities = [DockerImageEntity(i) for i in images]
    entities += [ContainerEntity(c) for c in containers]
    # Hosts exercise the composite rules (cross-entity references).
    hosts = [
        ubuntu_host_entity(f"inc-host-{i}", hardening=0.5, seed=i,
                           with_nginx=True, with_mysql=True)
        for i in range(2)
    ]
    return Crawler().crawl_many(entities + hosts)


@pytest.fixture(scope="module")
def base_blobs():
    """Serialized fleet snapshots -- the immutable cycle-0 baseline."""
    return [dump_frame(frame) for frame in _crawl_fleet()]


def _etc_files(frame) -> list[str]:
    paths = []
    for dirpath, _dirs, filenames in frame.files.walk("/etc"):
        for name in filenames:
            paths.append(f"{dirpath.rstrip('/')}/{name}")
    return sorted(paths)


def _apply(frame, op) -> None:
    """Apply one concrete mutation op to a freshly rebuilt frame."""
    kind = op[0]
    if kind == "content":
        _, path, suffix = op
        if frame.files.exists(path):
            frame.files.write_file(path,
                                   frame.files.read_text(path) + suffix)
    elif kind == "chmod":
        _, path, mode = op
        if frame.files.exists(path):
            frame.files.chmod(path, mode)
    elif kind == "add":
        _, path, content = op
        frame.files.write_file(path, content)
    elif kind == "remove":
        _, path = op
        if frame.files.exists(path):
            frame.files.remove(path)
    elif kind == "pkg_add":
        _, name, version = op
        frame.packages.install(Package(name=name, version=version))
    elif kind == "pkg_remove":
        _, name = op
        frame.packages.remove(name)
    elif kind == "runtime":
        _, namespace, key, value = op
        frame.runtime.setdefault(namespace, {})[key] = value


def _gen_ops(rng: random.Random, frames, counter: int) -> list[tuple[int, tuple]]:
    """A batch of random (frame_index, op) mutations against current state."""
    ops: list[tuple[int, tuple]] = []
    for n in range(rng.randint(1, 4)):
        index = rng.randrange(len(frames))
        frame = frames[index]
        files = _etc_files(frame)
        kind = rng.choice(
            ["content", "chmod", "add", "remove",
             "pkg_add", "pkg_remove", "runtime"]
        )
        tag = f"{counter}-{n}"
        if kind == "content" and files:
            ops.append((index, ("content", rng.choice(files),
                                f"\n# mutation {tag}\n")))
        elif kind == "chmod" and files:
            ops.append((index, ("chmod", rng.choice(files),
                                rng.choice([0o600, 0o640, 0o644, 0o755,
                                            0o777]))))
        elif kind == "add":
            ops.append((index, ("add", f"/etc/ssh/mut_{tag}.conf",
                                f"# added {tag}\nPort 22\n")))
        elif kind == "remove" and files:
            ops.append((index, ("remove", rng.choice(files))))
        elif kind == "pkg_add":
            ops.append((index, ("pkg_add", f"mut-pkg-{tag}", "1.0")))
        elif kind == "pkg_remove":
            names = frame.packages.names()
            if names:
                ops.append((index, ("pkg_remove", rng.choice(names))))
        elif kind == "runtime":
            ops.append((index, ("runtime", "sshd", f"mut_{tag}", "yes")))
    return ops


def _rebuild(blobs, script) -> list:
    """Fresh frames from the baseline blobs with the cumulative script."""
    frames = [load_frame(blob) for blob in blobs]
    for index, op in script:
        _apply(frames[index], op)
    return frames


def _render_pair(report) -> tuple[str, str]:
    return render_text(report, verbose=True), render_json(report)


# ---------------------------------------------------------------------------
# Differential suite
# ---------------------------------------------------------------------------

class TestUnchangedFleet:
    def test_second_cycle_replays_everything(self, base_blobs):
        store = VerdictStore()
        frames = _rebuild(base_blobs, [])
        first = load_builtin_validator(verdict_store=store)
        first.validate_frames(frames, workers=1)

        frames = _rebuild(base_blobs, [])
        second = load_builtin_validator(verdict_store=store)
        report = second.validate_frames(frames, workers=1)

        stats = report.incremental
        assert stats is not None and stats.active
        assert stats.rules_evaluated == 0
        assert stats.composites_evaluated == 0
        assert stats.frames_dirty == 0
        assert stats.frames_clean == len(frames)
        assert stats.rules_replayed > 0

    def test_replay_byte_identical(self, base_blobs):
        frames = _rebuild(base_blobs, [])
        reference = _render_pair(
            load_builtin_validator().validate_frames(frames, workers=1)
        )
        store = VerdictStore()
        for workers in WORKER_COUNTS:
            frames = _rebuild(base_blobs, [])
            validator = load_builtin_validator(verdict_store=store)
            report = validator.validate_frames(frames, workers=workers)
            assert _render_pair(report) == reference


class TestRandomizedMutations:
    @pytest.mark.parametrize("seed", [3, 17])
    def test_incremental_matches_full_across_cycles(self, base_blobs, seed):
        rng = random.Random(seed)
        store = VerdictStore()
        script: list[tuple[int, tuple]] = []
        for cycle in range(4):
            frames = _rebuild(base_blobs, script)
            reference = _render_pair(
                load_builtin_validator().validate_frames(frames, workers=1)
            )
            for workers in WORKER_COUNTS:
                validator = load_builtin_validator(verdict_store=store)
                report = validator.validate_frames(frames, workers=workers)
                assert _render_pair(report) == reference, (
                    f"cycle {cycle}, workers {workers}: incremental report "
                    f"diverged from full validation"
                )
            script.extend(_gen_ops(rng, frames, cycle))

    def test_mutated_cycle_skips_clean_frames(self, base_blobs):
        store = VerdictStore()
        frames = _rebuild(base_blobs, [])
        load_builtin_validator(verdict_store=store).validate_frames(
            frames, workers=1
        )
        # Touch exactly one frame's sshd config.
        target = next(
            i for i, frame in enumerate(frames)
            if frame.files.exists("/etc/ssh/sshd_config")
        )
        script = [(target,
                   ("content", "/etc/ssh/sshd_config", "\n# touched\n"))]
        frames = _rebuild(base_blobs, script)
        report = load_builtin_validator(verdict_store=store).validate_frames(
            frames, workers=1
        )
        stats = report.incremental
        assert stats.frames_dirty == 1
        assert stats.frames_clean == len(frames) - 1
        assert 0 < stats.rules_evaluated < stats.rules_replayed


class TestCompositeInvalidation:
    def test_composite_reruns_when_referenced_rule_dirty(self, base_blobs):
        store = VerdictStore()
        frames = _rebuild(base_blobs, [])
        first = load_builtin_validator(verdict_store=store).validate_frames(
            frames, workers=1
        )
        composites = [r for r in first if r.outcome is Outcome.COMPOSITE]
        assert composites, "fleet must exercise composite rules"

        # Cycle 2 unchanged: composite replays.
        frames = _rebuild(base_blobs, [])
        clean = load_builtin_validator(verdict_store=store).validate_frames(
            frames, workers=1
        )
        assert clean.incremental.composites_evaluated == 0
        assert clean.incremental.composites_replayed == len(composites)

        # Dirty a host's sysctl state (composites reference sysctl rules):
        # the composite must be recomputed, not replayed.
        host_index = next(
            i for i, frame in enumerate(frames)
            if frame.entity_kind == "host"
        )
        script = [(host_index,
                   ("content", "/etc/sysctl.conf",
                    "\nnet.ipv4.ip_forward = 1\n"))]
        frames = _rebuild(base_blobs, script)
        reference = _render_pair(
            load_builtin_validator().validate_frames(frames, workers=1)
        )
        report = load_builtin_validator(verdict_store=store).validate_frames(
            frames, workers=1
        )
        assert _render_pair(report) == reference
        assert report.incremental.composites_evaluated == len(composites)
        assert report.incremental.composites_replayed == 0


class TestRulesetInvalidation:
    MANIFEST = "svc: {config_search_paths: [/etc/svc], cvl_file: svc.yaml}"

    def _validator(self, rules_text, store):
        from repro.engine import ConfigValidator

        validator = ConfigValidator(
            resolver=lambda _path: rules_text, verdict_store=store
        )
        validator.add_manifest_text(self.MANIFEST)
        return validator

    def _frame(self):
        return load_frame(dump_frame(_make_svc_frame()))

    def test_rule_change_invalidates_entity_entries(self):
        store = VerdictStore()
        frame = self._frame()
        rules_v1 = 'config_name: Port\npreferred_value: ["22"]\n'
        self._validator(rules_v1, store).validate_frames([frame], workers=1)

        rules_v2 = 'config_name: Port\npreferred_value: ["2222"]\n'
        frame = self._frame()
        report = self._validator(rules_v2, store).validate_frames(
            [frame], workers=1
        )
        stats = report.incremental
        assert stats.rules_replayed == 0
        assert stats.rules_evaluated == 1
        # And the verdict reflects the new pack, not the cached one.
        fresh = self._validator(rules_v2, VerdictStore()).validate_frames(
            [self._frame()], workers=1
        )
        assert _render_pair(report) == _render_pair(fresh)

    def test_unchanged_ruleset_replays(self):
        store = VerdictStore()
        rules = 'config_name: Port\npreferred_value: ["22"]\n'
        self._validator(rules, store).validate_frames(
            [self._frame()], workers=1
        )
        report = self._validator(rules, store).validate_frames(
            [self._frame()], workers=1
        )
        assert report.incremental.rules_replayed == 1
        assert report.incremental.rules_evaluated == 0


class TestDuplicateIdentities:
    def test_duplicate_frames_disable_incremental(self, base_blobs):
        store = VerdictStore()
        frame_a = load_frame(base_blobs[0])
        frame_b = load_frame(base_blobs[0])
        report = load_builtin_validator(verdict_store=store).validate_frames(
            [frame_a, frame_b], workers=1
        )
        stats = report.incremental
        assert stats is not None and not stats.active
        assert stats.reason
        # The run is still a valid full validation.
        reference = load_builtin_validator().validate_frames(
            [load_frame(base_blobs[0]), load_frame(base_blobs[0])], workers=1
        )
        assert _render_pair(report) == _render_pair(reference)


def _make_svc_frame():
    from repro.crawler.frame import ConfigFrame
    from repro.fs.packages import PackageDatabase
    from repro.fs.vfs import VirtualFilesystem

    fs = VirtualFilesystem()
    fs.write_file("/etc/svc/svc.conf", "Port 22\n")
    return ConfigFrame(
        entity_name="svc-host",
        entity_kind="host",
        files=fs,
        packages=PackageDatabase([]),
        runtime={},
        metadata={},
    )


# ---------------------------------------------------------------------------
# Live overlay frames: images and containers crawled straight from their
# layer stacks, so whole-frame fingerprints read the overlay itself
# ---------------------------------------------------------------------------

def _regular_files(layer) -> list[str]:
    return [path for path in layer.paths()
            if layer.lstat(path).kind is FileKind.FILE
            and not posixpath.basename(path).startswith(WHITEOUT_PREFIX)]


def _observable(entity) -> list[tuple]:
    """Everything a walk of the entity's merged filesystem observes."""
    files = entity.filesystem()
    seen = []
    for dirpath, _dirs, names in files.walk("/"):
        seen.append((dirpath, files.stat(dirpath)))
        for name in names:
            path = posixpath.join(dirpath, name)
            seen.append((path, files.stat(path), files.read_text(path)))
    return seen


def _edit_layers(rng: random.Random, kind: str, images, containers,
                 tag: str):
    """One random layer edit of ``kind`` on the live fleet; returns the
    image or container whose layer it edited."""
    if kind == "append":
        container = rng.choice(containers)
        view = container.filesystem()
        path = rng.choice(view.files_under("/etc") or view.files_under("/"))
        container.write_file(path, view.read_text(path) + f"\n# {tag}\n")
        return container
    if kind == "whiteout":
        container = rng.choice(containers)
        view = container.filesystem()
        writable = view.layers[-1]
        path = rng.choice([p for p in view.files_under("/")
                           if not writable.exists(p)])
        container.write_file(whiteout_for(path), "")
        return container
    image = rng.choice(images)
    if kind == "chmod":
        layer = rng.choice(image.layers)
        path = rng.choice(_regular_files(layer))
        mode = layer.stat(path).mode
        layer.chmod(path, rng.choice(
            [m for m in (0o600, 0o640, 0o644, 0o755, 0o777) if m != mode]))
    elif kind == "add":
        directory = rng.choice(["/etc/ssh", "/etc/nginx/conf.d",
                                "/etc/mysql/conf.d", "/app"])
        image.layers[-1].write_file(f"{directory}/mut_{tag}.conf",
                                    f"# added {tag}\nPort 22\n")
    else:  # symlink to a file of the same layer
        layer = image.layers[-1]
        target = rng.choice(_regular_files(layer))
        layer.symlink(f"{posixpath.dirname(target)}/mut_{tag}.link", target)
    return image


class TestLiveOverlayFrames:
    EDITS = ("append", "chmod", "add", "whiteout", "symlink")

    def test_layer_edits_match_full_validation(self):
        rng = random.Random(29)
        _daemon, images, containers = build_fleet(
            FleetSpec(images=3, containers_per_image=2, misconfig_rate=0.4,
                      seed=5)
        )
        entities = [DockerImageEntity(i) for i in images]
        entities += [ContainerEntity(c) for c in containers]
        # The entity indices whose filesystem holds each image's or
        # container's layers.
        family: dict[int, set[int]] = {}
        for index, entity in enumerate(entities):
            if isinstance(entity, DockerImageEntity):
                family.setdefault(id(entity.image), set()).add(index)
            else:
                family[id(entity.container)] = {index}
                family.setdefault(id(entity.container.image), set()).add(index)
        full = load_builtin_validator()
        validator = load_builtin_validator(verdict_store=VerdictStore())
        frames = Crawler().crawl_many(entities)
        validator.validate_frames(frames, workers=1)
        digests = [frame.fingerprint().frame_digest() for frame in frames]
        for cycle in range(8):
            before = [_observable(entity) for entity in entities]
            kinds = [self.EDITS[cycle % len(self.EDITS)]]
            kinds += rng.sample(self.EDITS, rng.randint(0, 2))
            touched: set[int] = set()
            for n, kind in enumerate(kinds):
                seen = [_observable(entity) for entity in entities]
                edited = _edit_layers(rng, kind, images, containers,
                                      f"{cycle}-{n}")
                touched |= family[id(edited)]
                if kind == "add":
                    # A file added to an image layer shows in every
                    # container started from that image.
                    assert all(_observable(entities[index]) != seen[index]
                               for index in family[id(edited)])
            changed = {index for index, entity in enumerate(entities)
                       if _observable(entity) != before[index]}
            reference = _render_pair(full.validate_frames(
                Crawler().crawl_many(entities), workers=1))
            frames = Crawler().crawl_many(entities)
            for workers in WORKER_COUNTS:
                report = validator.validate_frames(frames, workers=workers)
                assert _render_pair(report) == reference, (
                    f"cycle {cycle} ({kinds}), workers {workers}: "
                    f"incremental report diverged from full validation"
                )
            # Every frame whose merged view changed gets a new whole-frame
            # digest, and no frame with untouched layers does.  (A frame
            # moving from the bulk read to the walk may re-digest with an
            # unchanged view: its paths fold in walk order.)
            previous = digests
            digests = [frame.fingerprint().frame_digest() for frame in frames]
            redigested = {index for index, digest in enumerate(digests)
                          if digest != previous[index]}
            assert changed <= redigested <= touched
        flat = [frame.files.flat_nodes() is not None for frame in frames]
        assert any(flat) and not all(flat), \
            "the fleet must keep both bulk-read and walked frames"
