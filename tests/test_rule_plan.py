"""Compiled rule plans: trie units, plan cache, and differential identity.

The contract (ISSUE 6): a validator running with compiled rule plans
(fused single-pass tree evaluation) must render reports **byte-identical**
to the per-rule engine (``--no-plan``), at every worker count, with
incremental revalidation on or off, across scan cycles that mutate
frames arbitrarily.  Fusion is a pure optimization or it is nothing.
"""

import random

import pytest

from repro.errors import PathExpressionError
from repro.augtree import ConfigNode, parse_path
from repro.crawler import ContainerEntity, Crawler, DockerImageEntity
from repro.crawler.frame import ConfigFrame
from repro.crawler.serialize import dump_frame, load_frame
from repro.cvl.loader import load_rules
from repro.cvl.manifest import Manifest
from repro.engine import ConfigValidator, VerdictStore, render_json, render_text
from repro.engine.incremental import ruleset_digest
from repro.engine.normalizer import Normalizer
from repro.engine.plan import (
    RulePlan,
    SegmentTrie,
    clear_plan_cache,
    plan_cache_stats,
    plan_for,
)
from repro.engine.report import render_junit
from repro.fs.packages import PackageDatabase
from repro.fs.vfs import VirtualFilesystem
from repro.rules import load_builtin_validator
from repro.workloads import FleetSpec, build_fleet, ubuntu_host_entity

WORKER_COUNTS = (1, 8)


def _tree() -> ConfigNode:
    root = ConfigNode("(root)")
    http = root.add("http")
    for listen, protocols in [("443 ssl", "TLSv1.2"), ("80", None)]:
        server = http.add("server")
        server.add("listen", listen)
        if protocols:
            server.add("ssl_protocols", protocols)
    mysqld = root.add("mysqld")
    mysqld.add("ssl-ca", "/etc/mysql/cacert.pem")
    root.add("a/b", "weird")
    modroot = root.add("modprobe")
    for module in ("cramfs", "udf"):
        install = modroot.add("install", module)
        install.add("command", "/bin/true")
    return root


# ---------------------------------------------------------------------------
# SegmentTrie: many expressions, one traversal, per-slot identity
# ---------------------------------------------------------------------------

EXPRESSIONS = [
    "http/server/listen",            # shared prefix with the next two
    "http/server/ssl_protocols",
    "http/server",
    "*",                             # wildcard fan-out
    "**/listen",                     # descendant-or-self
    "**/**/command",                 # stacked ** must still dedup
    "http/server[2]/listen",         # numeric predicate (1-based)
    "http/server[last()]/listen",    # last() predicate
    "http/server[listen='80']",      # child-compare predicate
    "http/server[listen='443 ssl']", # quoted value with a space
    "modprobe/install[.='udf']/command",  # self-value predicate
    "http/server[listen='80'][1]",   # stacked predicates
    '"a/b"',                         # quoted label containing '/'
    "http/nothing/here",             # no match: slot must be absent
]


class TestSegmentTrie:
    def test_matches_each_expression_identically(self):
        root = _tree()
        trie = SegmentTrie()
        slots = {
            expr: trie.insert(parse_path(expr).segments, member)
            for member, expr in enumerate(EXPRESSIONS)
        }
        results = trie.match(root)
        for expr, slot in slots.items():
            expected = parse_path(expr).locate(root)
            located = results.get(slot, {})
            # Node for node (by identity, in document order), labels for
            # labels.
            assert [id(node) for node in located] == [
                id(node) for node in expected
            ], expr
            assert list(located.values()) == list(expected.values()), expr

    def test_active_set_prunes_other_members_slots(self):
        root = _tree()
        trie = SegmentTrie()
        kept = trie.insert(parse_path("http/server/listen").segments, 0)
        pruned = trie.insert(parse_path("mysqld/ssl-ca").segments, 1)
        results = trie.match(root, active={0})
        assert kept in results
        assert pruned not in results

    def test_shared_prefix_still_separates_slots(self):
        root = _tree()
        trie = SegmentTrie()
        a = trie.insert(parse_path("http/server/listen").segments, 0)
        b = trie.insert(parse_path("http/server/listen").segments, 1)
        results = trie.match(root)
        assert results[a] == results[b]
        assert results[a] is not results[b]  # per-slot lists stay private

    def test_empty_expression_rejected(self):
        with pytest.raises(ValueError):
            SegmentTrie().insert((), 0)


# ---------------------------------------------------------------------------
# Plan compilation and the process-wide cache
# ---------------------------------------------------------------------------

SVC_MANIFEST = Manifest(
    entity="svc", cvl_file="svc.yaml", config_search_paths=["/etc/svc"]
)

SVC_RULES = """\
config_name: Port
preferred_value: ["22"]
---
config_name: Protocol
preferred_value: ["2"]
---
config_name: root/logging/level
file_context: ["app"]
preferred_value: ["info"]
"""


def _svc_plan(rules_text: str = SVC_RULES):
    ruleset = load_rules(rules_text, entity="svc")
    digest = ruleset_digest(SVC_MANIFEST, ruleset)
    return ruleset, digest


class TestPlanCompilation:
    def test_rules_group_by_file_context(self):
        ruleset, digest = _svc_plan()
        plan = RulePlan(SVC_MANIFEST, ruleset, digest)
        assert plan.usable
        assert plan.fused_rule_count == 3
        # Port/Protocol share the empty file_context; the app rule is alone.
        assert [len(unit.members) for unit in plan.units] == [2, 1]

    def test_unparsable_expression_falls_back(self):
        ruleset, digest = _svc_plan(
            SVC_RULES + '---\nconfig_name: "Broken["\npreferred_value: ["x"]\n'
        )
        with pytest.raises(PathExpressionError):
            parse_path("Broken[")
        plan = RulePlan(SVC_MANIFEST, ruleset, digest)
        assert plan.usable
        assert "Broken[" in plan.fallback_names
        assert plan.fused_rule_count == 3

    def test_duplicate_rule_names_disable_the_plan(self):
        ruleset, digest = _svc_plan(
            'config_name: Port\npreferred_value: ["22"]\n---\n'
            'config_name: Port\npreferred_value: ["2222"]\n'
        )
        plan = RulePlan(SVC_MANIFEST, ruleset, digest)
        assert not plan.usable
        assert plan.fused_rule_count == 0

    def test_cache_hits_on_same_digest(self):
        clear_plan_cache()
        ruleset, digest = _svc_plan()
        first = plan_for(SVC_MANIFEST, ruleset, digest)
        second = plan_for(SVC_MANIFEST, ruleset, digest)
        assert first is second
        stats = plan_cache_stats()
        assert stats.compiles == 1
        assert stats.hits == 1
        assert stats.entries == 1

    def test_digest_change_compiles_a_new_plan(self):
        clear_plan_cache()
        ruleset, digest = _svc_plan()
        first = plan_for(SVC_MANIFEST, ruleset, digest)
        ruleset.rules[0].enabled = False
        changed = ruleset_digest(SVC_MANIFEST, ruleset)
        assert changed != digest
        second = plan_for(SVC_MANIFEST, ruleset, changed)
        assert second is not first
        assert len(second.rules) == len(first.rules) - 1
        assert plan_cache_stats().compiles == 2


# ---------------------------------------------------------------------------
# File-target index (satellite: candidate_files reuse)
# ---------------------------------------------------------------------------

def _svc_frame() -> ConfigFrame:
    fs = VirtualFilesystem()
    fs.write_file("/etc/svc/svc.conf", "Port 22\n")
    fs.write_file("/etc/svc/app.ini", "level info\n")
    fs.write_file("/etc/svc/sites-enabled/web.conf", "listen 80\n")
    return ConfigFrame(
        entity_name="svc-host", entity_kind="host", files=fs,
        packages=PackageDatabase([]), runtime={}, metadata={},
    )


class TestFileTargetIndex:
    def test_selections_are_memoized_objects(self):
        normalizer = Normalizer()
        frame = _svc_frame()
        paths = ["/etc/svc"]
        listing = normalizer.files_in_search_paths(frame, paths)
        # Empty context returns the listing object itself.
        assert normalizer.candidate_files(frame, paths, []) is listing
        first = normalizer.candidate_files(frame, paths, ["*.conf"])
        second = normalizer.candidate_files(frame, paths, ["*.conf"])
        assert first is second  # cached list: callers must not mutate it

    def test_selection_semantics(self):
        normalizer = Normalizer()
        frame = _svc_frame()
        paths = ["/etc/svc"]
        assert normalizer.candidate_files(frame, paths, ["*.conf"]) == [
            "/etc/svc/svc.conf", "/etc/svc/sites-enabled/web.conf",
        ]
        assert normalizer.candidate_files(frame, paths, ["sites-enabled"]) == [
            "/etc/svc/sites-enabled/web.conf",
        ]
        assert normalizer.candidate_files(
            frame, paths, ["/etc/svc/*.ini"]
        ) == ["/etc/svc/app.ini"]


# ---------------------------------------------------------------------------
# Differential suite: planned vs --no-plan, byte for byte
# ---------------------------------------------------------------------------

def _crawl_fleet(seed: int = 23) -> list:
    _daemon, images, containers = build_fleet(
        FleetSpec(images=2, containers_per_image=2, misconfig_rate=0.4,
                  seed=seed)
    )
    entities = [DockerImageEntity(i) for i in images]
    entities += [ContainerEntity(c) for c in containers]
    hosts = [
        ubuntu_host_entity(f"plan-host-{i}", hardening=0.5, seed=i,
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


def _gen_ops(rng: random.Random, frames, counter: int) -> list[tuple[int, tuple]]:
    """A batch of random (frame_index, op) mutations against current state."""
    ops: list[tuple[int, tuple]] = []
    for n in range(rng.randint(1, 4)):
        index = rng.randrange(len(frames))
        files = _etc_files(frames[index])
        kind = rng.choice(["content", "chmod", "add", "remove", "runtime"])
        tag = f"{counter}-{n}"
        if kind == "content" and files:
            ops.append((index, ("content", rng.choice(files),
                                f"\n# mutation {tag}\n")))
        elif kind == "chmod" and files:
            ops.append((index, ("chmod", rng.choice(files),
                                rng.choice([0o600, 0o640, 0o644, 0o777]))))
        elif kind == "add":
            ops.append((index, ("add", f"/etc/ssh/mut_{tag}.conf",
                                f"# added {tag}\nPort 22\n")))
        elif kind == "remove" and files:
            ops.append((index, ("remove", rng.choice(files))))
        elif kind == "runtime":
            ops.append((index, ("runtime", "sshd", f"mut_{tag}", "yes")))
    return ops


def _apply(frame, op) -> None:
    kind = op[0]
    if kind == "content":
        _, path, suffix = op
        if frame.files.exists(path):
            frame.files.write_file(path, frame.files.read_text(path) + suffix)
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
    elif kind == "runtime":
        _, namespace, key, value = op
        frame.runtime.setdefault(namespace, {})[key] = value


def _rebuild(blobs, script) -> list:
    frames = [load_frame(blob) for blob in blobs]
    for index, op in script:
        _apply(frames[index], op)
    return frames


def _render_triple(report) -> tuple[str, str, str]:
    return (
        render_text(report, verbose=True),
        render_json(report),
        render_junit(report),
    )


class TestDifferential:
    def test_planned_matches_no_plan_byte_identical(self, base_blobs):
        frames = _rebuild(base_blobs, [])
        reference = _render_triple(
            load_builtin_validator(use_plans=False).validate_frames(
                frames, workers=1
            )
        )
        for workers in WORKER_COUNTS:
            frames = _rebuild(base_blobs, [])
            report = load_builtin_validator().validate_frames(
                frames, workers=workers
            )
            assert _render_triple(report) == reference, (
                f"workers {workers}: planned report diverged from --no-plan"
            )
            assert report.plan is not None
            assert report.plan.rules_fused > 0
            assert report.plan.units_evaluated > 0
            assert report.plan.traversals_saved > 0

    def test_no_plan_report_carries_no_plan_stats(self, base_blobs):
        frames = _rebuild(base_blobs, [])
        report = load_builtin_validator(use_plans=False).validate_frames(
            frames, workers=1
        )
        assert report.plan is None

    @pytest.mark.parametrize("seed", [5, 29])
    def test_planned_matches_across_mutated_cycles(self, base_blobs, seed):
        """Planned x incremental stays identical to unplanned full runs."""
        rng = random.Random(seed)
        store = VerdictStore()
        script: list[tuple[int, tuple]] = []
        for cycle in range(3):
            frames = _rebuild(base_blobs, script)
            reference = _render_triple(
                load_builtin_validator(use_plans=False).validate_frames(
                    frames, workers=1
                )
            )
            for workers in WORKER_COUNTS:
                # Full planned run...
                report = load_builtin_validator().validate_frames(
                    frames, workers=workers
                )
                assert _render_triple(report) == reference, (
                    f"cycle {cycle}, workers {workers}: planned full run"
                )
            # ... and a planned incremental run sharing one store.
            report = load_builtin_validator(
                verdict_store=store
            ).validate_frames(frames, workers=1)
            assert _render_triple(report) == reference, (
                f"cycle {cycle}: planned incremental run"
            )
            assert report.incremental is not None and report.incremental.active
            script.extend(_gen_ops(rng, frames, cycle))

    def test_incremental_replay_still_skips_work(self, base_blobs):
        """Fused tapes must keep the skip/replay semantics intact."""
        store = VerdictStore()
        frames = _rebuild(base_blobs, [])
        load_builtin_validator(verdict_store=store).validate_frames(
            frames, workers=1
        )
        frames = _rebuild(base_blobs, [])
        report = load_builtin_validator(verdict_store=store).validate_frames(
            frames, workers=1
        )
        stats = report.incremental
        assert stats.rules_evaluated == 0
        assert stats.rules_replayed > 0
        # Nothing was fresh, so the planner had nothing to fuse.
        assert report.plan is not None
        assert report.plan.rules_fused == 0


class TestEngineFallbacks:
    MANIFEST = "svc: {config_search_paths: [/etc/svc], cvl_file: svc.yaml}"

    def _validator(self, rules_text, **kwargs):
        validator = ConfigValidator(
            resolver=lambda _path: rules_text, **kwargs
        )
        validator.add_manifest_text(self.MANIFEST)
        return validator

    def _frame(self):
        return load_frame(dump_frame(_svc_frame()))

    def _pair(self, rules_text):
        planned = self._validator(rules_text).validate_frames(
            [self._frame()], workers=1
        )
        unplanned = self._validator(rules_text, use_plans=False).validate_frames(
            [self._frame()], workers=1
        )
        return planned, unplanned

    def test_unparsable_expression_identical_error(self):
        rules = 'config_name: "Broken["\npreferred_value: ["x"]\n'
        planned, unplanned = self._pair(rules)
        assert _render_triple(planned) == _render_triple(unplanned)
        assert planned.plan.rules_fallback == 1

    def test_fusion_counters_split_fused_direct_and_fallback(self):
        rules = SVC_RULES + (
            '---\npath_name: /etc/svc/svc.conf\npermission: 644\n'
            '---\nconfig_name: "Broken["\npreferred_value: ["x"]\n'
        )
        planned, unplanned = self._pair(rules)
        assert _render_triple(planned) == _render_triple(unplanned)
        stats = planned.plan
        # Port, Protocol and the app rule in units; the path rule direct;
        # the unparsable tree rule falls back per-rule.
        assert (stats.rules_fused, stats.rules_direct,
                stats.rules_fallback) == (3, 1, 1)
        assert unplanned.plan is None

    def test_duplicate_names_run_unfused_identically(self):
        rules = (
            'config_name: Port\npreferred_value: ["22"]\n---\n'
            'config_name: Port\npreferred_value: ["2222"]\n'
        )
        planned, unplanned = self._pair(rules)
        reference = _render_triple(unplanned)
        assert _render_triple(planned) == reference
        assert (planned.plan.rules_fused, planned.plan.rules_direct) == (0, 2)
        # The two rules would share one verdict-store key, so incremental
        # cycles must run as full validations instead of replaying one
        # rule's verdict for the other.
        for use_plans in (True, False):
            validator = self._validator(rules, use_plans=use_plans,
                                        verdict_store=VerdictStore())
            for cycle in range(2):
                report = validator.validate_frames([self._frame()],
                                                   workers=1)
                assert _render_triple(report) == reference, (
                    f"plans={use_plans}, cycle {cycle}"
                )
                assert not report.incremental.active
                assert report.incremental.reason == (
                    "duplicate rule names in pack 'svc'; "
                    "ran full validation"
                )
