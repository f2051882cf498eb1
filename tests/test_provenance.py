"""Verdict provenance contract tests (ISSUE 7, tentpole + satellite 3).

The contract, stated once:

* **Completeness** -- with provenance on, *every* result carries a
  record, and every NONCOMPLIANT/ERROR verdict explains itself: a
  predicate, and for value-based tree-rule failures at least one source
  anchor whose span re-reads cleanly from the frame's file text.  This
  must hold at every worker count, full and incremental, plans on and
  off.
* **Byte-identity** -- with provenance off, reports are byte-identical
  to a provenance-capable engine's output; no record leaks into JSON.
* **Replay fidelity** -- incremental replays rehydrate stored records
  with ``route=replayed`` and the original route preserved as
  ``origin``; a provenance-off cycle over a record-carrying store stays
  record-free.
* **Durability** -- records survive the history store round-trip, and
  the ``--since`` analyzer finds failing-streak starts from them.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.augtree.tree import SourceSpan
from repro.crawler import ContainerEntity, Crawler, DockerImageEntity
from repro.cvl.model import TreeRule
from repro.crawler.serialize import dump_frame, load_frame
from repro.engine import VerdictStore, render_json, render_text
from repro.engine.batch import BatchScanner
from repro.engine.explain import (
    explanation_to_dict,
    failing_streak_start,
    render_explanation,
    render_transition,
)
from repro.engine.provenance import (
    ROUTE_COMPOSITE,
    ROUTE_DIRECT,
    ROUTE_FUSED,
    ROUTE_REPLAYED,
    ProvenanceRecord,
    SourceAnchor,
)
from repro.engine.results import Verdict
from repro.history import HistoryStore
from repro.rules import load_builtin_validator
from repro.workloads import FleetSpec, build_fleet, ubuntu_host_entity

WORKER_COUNTS = (1, 8)

FAILING = (Verdict.NONCOMPLIANT, Verdict.ERROR)


# ---------------------------------------------------------------------------
# Fleet fixture: serialized blobs so each case gets pristine frames
# ---------------------------------------------------------------------------

def _crawl_fleet() -> list:
    _daemon, images, containers = build_fleet(
        FleetSpec(images=2, containers_per_image=2, misconfig_rate=0.5,
                  seed=19)
    )
    entities = [DockerImageEntity(i) for i in images]
    entities += [ContainerEntity(c) for c in containers]
    hosts = [
        ubuntu_host_entity(f"prov-host-{i}", hardening=0.3, seed=i,
                           with_nginx=True, with_mysql=True)
        for i in range(2)
    ]
    return Crawler().crawl_many(entities + hosts)


@pytest.fixture(scope="module")
def blobs():
    return [dump_frame(frame) for frame in _crawl_fleet()]


def _frames(blobs):
    return [load_frame(blob) for blob in blobs]


def _validator(**kwargs):
    return load_builtin_validator(**kwargs)


def _assert_record_complete(result, frame) -> int:
    """One failing result's record is structurally valid; returns the
    number of spans that were re-read against the frame's file text.

    ``frame`` is None for composite results (their target names the whole
    group); those are checked structurally but carry no file anchors.
    """
    record = result.provenance
    assert record is not None, (result.entity, result.rule.name)
    assert record.route in (
        ROUTE_DIRECT, ROUTE_FUSED, ROUTE_COMPOSITE, ROUTE_REPLAYED,
    )
    assert record.predicate, (result.entity, result.rule.name)
    if frame is None:
        assert record.route in (ROUTE_COMPOSITE, ROUTE_REPLAYED)
        assert record.referents, (result.entity, result.rule.name)
        return 0
    spans_checked = 0
    for anchor in record.anchors:
        if anchor.span is None:
            continue
        span = anchor.span
        assert anchor.file, (result.entity, result.rule.name)
        text = frame.read_config(anchor.file)
        assert 0 <= span.start < span.end <= len(text), (
            result.entity, result.rule.name, anchor.file, span,
        )
        sliced = text[span.start : span.end]
        # The one-line excerpt stored alongside the span must come from
        # the line the span starts on.
        if anchor.excerpt:
            assert anchor.excerpt.strip() in (
                text.splitlines()[span.line - 1]
            ), (anchor.excerpt, span)
        assert sliced.strip(), (result.entity, result.rule.name)
        spans_checked += 1
    return spans_checked


# ---------------------------------------------------------------------------
# Completeness: every failing verdict explains itself, in every mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("use_plans", [True, False],
                         ids=["plan", "no-plan"])
@pytest.mark.parametrize("incremental", [False, True],
                         ids=["full", "incremental"])
def test_every_failing_verdict_has_provenance(
    blobs, workers, use_plans, incremental,
):
    store = VerdictStore() if incremental else None
    validator = _validator(workers=workers, verdict_store=store,
                           use_plans=use_plans, provenance=True)
    frames = _frames(blobs)
    by_target = {frame.describe(): frame for frame in frames}
    report = validator.validate_frames(frames, workers=workers)

    failing = [r for r in report.results if r.verdict in FAILING]
    assert failing, "fixture fleet must produce failures"
    assert all(r.provenance is not None for r in report.results)

    total_spans = 0
    for result in failing:
        total_spans += _assert_record_complete(
            result, by_target.get(result.target)
        )
    # The fleet's nginx/mysql misconfigurations are file-backed: a
    # meaningful share of failures must resolve to real source spans.
    assert total_spans > 0


def test_value_failures_carry_at_least_one_span(blobs):
    """Tree-rule failures decided by a found value must anchor it."""
    validator = _validator(provenance=True)
    frames = _frames(blobs)
    report = validator.validate_frames(frames, workers=4)
    value_failures = [
        r for r in report.results
        if r.verdict is Verdict.NONCOMPLIANT
        and isinstance(r.rule, TreeRule)
        and r.evidence
        and any(e.span is not None for e in r.evidence)
    ]
    assert value_failures, "fixture must produce span-backed tree failures"
    for result in value_failures:
        spanned = [a for a in result.provenance.anchors
                   if a.span is not None]
        assert spanned, (result.entity, result.rule.name)


# ---------------------------------------------------------------------------
# Byte-identity: provenance is an observability layer, not a behavior
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_provenance_off_reports_are_byte_identical(blobs, workers):
    frames_a, frames_b = _frames(blobs), _frames(blobs)
    off = _validator(workers=workers).validate_frames(
        frames_a, workers=workers,
    )
    on = _validator(workers=workers, provenance=True).validate_frames(
        frames_b, workers=workers,
    )
    assert render_text(on, verbose=True) == render_text(off, verbose=True)
    assert render_json(off) == render_json(
        _validator(workers=workers).validate_frames(
            _frames(blobs), workers=workers,
        )
    )


def test_off_mode_json_has_no_provenance_keys(blobs):
    report = _validator().validate_frames(_frames(blobs), workers=4)
    payload = json.loads(render_json(report))
    assert all("provenance" not in r for r in payload["results"])


def test_on_mode_json_embeds_records(blobs):
    report = _validator(provenance=True).validate_frames(
        _frames(blobs), workers=4,
    )
    payload = json.loads(render_json(report))
    embedded = [r for r in payload["results"] if "provenance" in r]
    assert len(embedded) == len(payload["results"])
    sample = embedded[0]["provenance"]
    assert {"route", "origin", "predicate"} <= set(sample)


# ---------------------------------------------------------------------------
# Replay fidelity across incremental cycles
# ---------------------------------------------------------------------------

def test_replayed_verdicts_rehydrate_records(blobs):
    store = VerdictStore()
    validator = _validator(verdict_store=store, provenance=True)
    first = validator.validate_frames(_frames(blobs), workers=4)
    second = validator.validate_frames(_frames(blobs), workers=4)

    assert render_text(first, verbose=True) == render_text(
        second, verbose=True
    )
    routes = {r.provenance.route for r in second.results}
    assert routes == {ROUTE_REPLAYED}
    origins = {r.provenance.origin for r in second.results}
    assert ROUTE_REPLAYED not in origins
    assert origins & {ROUTE_DIRECT, ROUTE_FUSED}


def test_provenance_off_cycle_on_recorded_store_stays_clean(blobs):
    store = VerdictStore()
    validator = _validator(verdict_store=store, provenance=True)
    validator.validate_frames(_frames(blobs), workers=4)

    plain = _validator(verdict_store=store)
    baseline = _validator()
    replayed = plain.validate_frames(_frames(blobs), workers=4)
    full = baseline.validate_frames(_frames(blobs), workers=4)
    assert all(r.provenance is None for r in replayed.results)
    assert render_text(replayed, verbose=True) == render_text(
        full, verbose=True
    )


def test_provenance_on_cycle_misses_recordless_store(blobs):
    """A store filled without records cannot satisfy a --provenance run:
    the engine must re-evaluate rather than replay record-less entries."""
    store = VerdictStore()
    _validator(verdict_store=store).validate_frames(
        _frames(blobs), workers=4,
    )
    wanting = _validator(verdict_store=store, provenance=True)
    report = wanting.validate_frames(_frames(blobs), workers=4)
    assert all(r.provenance is not None for r in report.results)
    assert {r.provenance.route for r in report.results} <= {
        ROUTE_DIRECT, ROUTE_FUSED, ROUTE_COMPOSITE,
    }


# ---------------------------------------------------------------------------
# History-store durability and --since analysis
# ---------------------------------------------------------------------------

def test_history_store_round_trips_records(blobs):
    scanner = BatchScanner(_validator(provenance=True))
    summary = scanner.scan_frames(_frames(blobs))
    failing = [r for r in summary.report.results if r.verdict in FAILING]
    with HistoryStore() as store:
        cycle_id = store.record_cycle(summary)
        sample = failing[0]
        stored = store.provenance_for(
            sample.target, sample.entity, sample.rule.name,
            cycle_id=cycle_id,
        )
        assert stored == sample.provenance.to_dict()
        # Newest-record lookup (cycle_id=None) finds the same payload.
        assert store.provenance_for(
            sample.target, sample.entity, sample.rule.name,
        ) == stored
        assert store.provenance_for(
            sample.target, sample.entity, "no-such-rule",
        ) is None


class TestFailingStreakStart:
    def test_not_failing_now(self):
        assert failing_streak_start([(1, "noncompliant"),
                                     (2, "compliant")]) is None
        assert failing_streak_start([]) is None

    def test_streak_with_last_pass(self):
        history = [(1, "compliant"), (2, "compliant"),
                   (3, "noncompliant"), (4, "error"), (5, "noncompliant")]
        assert failing_streak_start(history) == (3, 2)

    def test_failing_from_first_cycle(self):
        history = [(1, "noncompliant"), (2, "noncompliant")]
        assert failing_streak_start(history) == (1, None)

    def test_flap_uses_latest_streak(self):
        history = [(1, "noncompliant"), (2, "compliant"),
                   (3, "noncompliant")]
        assert failing_streak_start(history) == (3, 2)


# ---------------------------------------------------------------------------
# Explanation rendering
# ---------------------------------------------------------------------------

def _one_spanned_failure(blobs):
    validator = _validator(provenance=True)
    frames = _frames(blobs)
    report = validator.validate_frames(frames, workers=4)
    by_target = {frame.describe(): frame for frame in frames}
    for result in report.results:
        if result.verdict is Verdict.NONCOMPLIANT and any(
            a.span is not None for a in result.provenance.anchors
        ):
            return result, by_target[result.target]
    raise AssertionError("no spanned failure in fixture fleet")


_MIXED_FLEET_SCAN = """
from repro.crawler import ContainerEntity, DockerImageEntity
from repro.engine import render_json
from repro.engine.batch import BatchScanner
from repro.rules import load_builtin_validator
from repro.workloads import FleetSpec, build_fleet, ubuntu_host_entity

_daemon, images, containers = build_fleet(FleetSpec(
    images=2, containers_per_image=4, misconfig_rate=0.3, seed=7))
entities = [ContainerEntity(c) for c in containers]
entities += [DockerImageEntity(i) for i in images]
entities += [ubuntu_host_entity(f"host-{i:02d}", hardening=0.5, seed=i,
                                with_nginx=True, with_mysql=True)
             for i in range(2)]
validator = load_builtin_validator(provenance=True)
print(render_json(BatchScanner(validator).scan_entities(entities).report))
"""


def test_composite_referents_do_not_depend_on_string_hashing():
    """Composite referents follow the expression, so a provenance-on
    report is the same in every process whatever its hash seed."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        result = subprocess.run([sys.executable, "-c", _MIXED_FLEET_SCAN],
                                capture_output=True, text=True, env=env,
                                timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    composites = [
        result["provenance"] for result in json.loads(outputs[0])["results"]
        if result["outcome"] == "composite"
    ]
    assert any(len(record["referents"]) > 1 for record in composites)
    for record in composites:
        # In order of first appearance in the expression.
        expression = record["predicate"]
        positions = [expression.index(f"{ref['entity']}.{ref['rule']}")
                     for ref in record["referents"]]
        assert positions == sorted(positions)


def test_render_explanation_includes_source_block(blobs):
    result, frame = _one_spanned_failure(blobs)
    text = render_explanation(
        result, read_text=lambda _target, path: frame.read_config(path),
    )
    assert f"[NONCOMPLIANT] {result.entity}/{result.rule.name}" in text
    assert "-->" in text
    assert "^" in text           # caret underline rendered
    assert "why:" in text
    anchor = result.provenance.first_spanned_anchor()
    assert f"{anchor.file}:{anchor.span.line}:" in text


def test_render_explanation_without_record_hints_at_flag(blobs):
    report = _validator().validate_frames(_frames(blobs), workers=4)
    failing = next(r for r in report.results if r.verdict in FAILING)
    text = render_explanation(failing)
    assert "run with --provenance" in text


def test_explanation_to_dict_round_trips_record(blobs):
    result, _frame = _one_spanned_failure(blobs)
    payload = explanation_to_dict(result)
    assert payload["rule"] == result.rule.name
    assert payload["rule_source_line"] == result.rule.source_line
    assert ProvenanceRecord.from_dict(
        payload["provenance"]
    ).predicate == result.provenance.predicate


def test_render_transition_diffs_anchored_lines():
    def record(excerpt):
        return ProvenanceRecord(
            route=ROUTE_DIRECT, origin=ROUTE_DIRECT,
            predicate="a found value matches non_preferred_value",
            observed=[excerpt.split()[-1]], expected={},
            anchors=[SourceAnchor(
                file="/etc/nginx/nginx.conf", path="x", value="v",
                span=None, excerpt=excerpt,
            )],
        ).to_dict()

    # Spanless anchors are excluded from the diff -- exercise both arms.
    text = render_transition(
        "host:h", "nginx", "ssl_protocols",
        first_fail=7, last_pass=6,
        failing=record("ssl_protocols SSLv3;"),
        passing=record("ssl_protocols TLSv1.2;"),
    )
    assert "first failing cycle: 7 (last passed: 6)" in text
    assert "why:" in text

    spanned_fail = ProvenanceRecord.from_dict(
        record("ssl_protocols SSLv3;")
    )
    spanned_fail.anchors[0] = SourceAnchor(
        file="/etc/nginx/nginx.conf", path="x", value="v",
        span=SourceSpan(8, 9, 8, 30, 100, 121),
        excerpt="ssl_protocols SSLv3;",
    )
    spanned_pass = ProvenanceRecord.from_dict(
        record("ssl_protocols TLSv1.2;")
    )
    spanned_pass.anchors[0] = SourceAnchor(
        file="/etc/nginx/nginx.conf", path="x", value="v",
        span=SourceSpan(8, 9, 8, 32, 100, 123),
        excerpt="ssl_protocols TLSv1.2;",
    )
    diffed = render_transition(
        "host:h", "nginx", "ssl_protocols",
        first_fail=7, last_pass=6,
        failing=spanned_fail.to_dict(), passing=spanned_pass.to_dict(),
    )
    assert "- ssl_protocols TLSv1.2;" in diffed
    assert "+ ssl_protocols SSLv3;" in diffed
