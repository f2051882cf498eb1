"""``render_json`` against ``json.dumps`` of ``result_to_dict``.

``render_json`` writes each result's indent-2 block itself, escaping
strings with the C escaper.  Its reference is the document it stands
for -- target, summary, ``result_to_dict`` of every result, and the
degradation block of a degraded cycle -- through ``json.dumps(doc,
indent=2)``: the two must agree byte for byte on any report.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.chaos.stats import DegradationStats
from repro.cvl.model import CompositeRule, PathRule, SchemaRule, ScriptRule, TreeRule
from repro.engine import render_json
from repro.engine.provenance import ProvenanceRecord, SourceAnchor
from repro.engine.report import result_to_dict
from repro.engine.results import Evidence, Outcome, RuleResult, ValidationReport, Verdict
from repro.augtree.tree import SourceSpan


def _reference(report: ValidationReport) -> str:
    doc = {
        "target": report.target,
        "summary": report.counts(),
        "results": [result_to_dict(result) for result in report],
    }
    degradation = report.degradation
    if degradation is not None and degradation.degraded:
        doc["degraded"] = True
        doc["degradation"] = degradation.to_dict()
    return json.dumps(doc, indent=2)


# Text that exercises the escaper: quotes, backslashes, control
# characters, non-ASCII, characters outside the BMP and lone surrogates.
_tricky = st.text(st.sampled_from(
    ['"', "\\", "/", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\x85",
     "é", " ", "﻿", "\U0001f600", "\ud800", "\udfff", "a", " ",
     "#", ":"]), max_size=8)
_text = st.one_of(_tricky, st.text(st.characters(exclude_categories=()),
                                   max_size=12))
# Rule and evidence fields are strings; anything else json.dumps takes
# must render the same too.
_value = st.one_of(_text, st.none(), st.booleans(), st.integers(),
                   st.floats())

_RULE_TYPES = [TreeRule, SchemaRule, PathRule, ScriptRule, CompositeRule]

_rules = st.builds(
    lambda cls, name, tags, severity, action: cls(
        name=name, tags=tags, severity=severity, suggested_action=action),
    st.sampled_from(_RULE_TYPES), _text, st.lists(_text, max_size=3),
    st.sampled_from(["informational", "low", "medium", "high", "critical"]),
    _text)

_evidence = st.builds(Evidence, file=_value, location=_value, value=_value)

_spans = st.builds(SourceSpan, *[st.integers(0, 10**6)] * 6)

_anchors = st.builds(SourceAnchor, file=_text, path=_text, value=_text,
                     span=st.none() | _spans, excerpt=_text)

_json_scalars = st.none() | st.booleans() | st.integers() | _text

_provenance = st.builds(
    ProvenanceRecord,
    route=st.sampled_from(["direct", "fused", "composite", "replayed"]),
    origin=_text, predicate=_text,
    observed=st.lists(_text, max_size=3),
    expected=st.dictionaries(_text, st.lists(_text, max_size=2)
                             | _json_scalars, max_size=3),
    anchors=st.lists(_anchors, max_size=2),
    referents=st.lists(st.fixed_dictionaries(
        {"entity": _text, "rule": _text,
         "verdict": st.none() | st.sampled_from([v.value for v in Verdict])}),
        max_size=2),
)


@st.composite
def _results(draw, provenance):
    result = RuleResult(
        rule=draw(_rules),
        entity=draw(_text),
        target=draw(_text),
        verdict=draw(st.sampled_from(list(Verdict))),
        outcome=draw(st.sampled_from(list(Outcome))),
        message=draw(_text),
        evidence=draw(st.lists(_evidence, max_size=3)),
        detail=draw(_text),
    )
    if provenance:
        result.provenance = draw(st.none() | _provenance)
    return result


_degradation = st.builds(
    DegradationStats,
    faults_injected=st.dictionaries(_text, st.integers(0, 5), max_size=2),
    faults_absorbed=st.dictionaries(_text, st.integers(0, 5), max_size=2),
    frames_quarantined=st.integers(0, 3),
    deadline_cancellations=st.integers(0, 3),
    stores_quarantined=st.integers(0, 3),
    plan=st.none() | _text,
)


@st.composite
def _reports(draw):
    provenance = draw(st.booleans())
    report = ValidationReport(
        target=draw(_text),
        results=draw(st.lists(_results(provenance), max_size=6)))
    report.degradation = draw(st.none() | _degradation)
    return report


@st.composite
def _shared_reports(draw):
    """Results drawn from a small pool of rule objects, entities and
    targets, so one report renders each of them many times."""
    rules = draw(st.lists(_rules, min_size=1, max_size=3))
    places = draw(st.lists(st.tuples(_text, _text), min_size=1, max_size=3))
    results = []
    for _ in range(draw(st.integers(0, 12))):
        entity, target = draw(st.sampled_from(places))
        result = draw(_results(provenance=False))
        result.rule = draw(st.sampled_from(rules))
        result.entity, result.target = entity, target
        results.append(result)
    return ValidationReport(target=draw(_text), results=results)


@settings(max_examples=300, deadline=None)
@given(_reports())
def test_render_json_matches_json_dumps(report):
    assert render_json(report) == _reference(report)


@settings(max_examples=200, deadline=None)
@given(_shared_reports())
def test_shared_rules_and_places_render_like_json_dumps(report):
    assert render_json(report) == _reference(report)


def test_rule_edited_between_renders_shows_its_edit():
    rule = TreeRule(name="first", tags=["#CIS"], severity="low",
                    suggested_action="fix it")
    report = ValidationReport(target="fleet", results=[
        RuleResult(rule=rule, entity=entity, target="host-01",
                   verdict=Verdict.NONCOMPLIANT,
                   outcome=Outcome.NOT_MATCHED_PREFERRED, message="m")
        for entity in ("sshd", "sshd", "nginx")])
    before = render_json(report)
    assert before == _reference(report)
    rule.name = "renamed"
    rule.tags.append("#PCI")
    rule.severity = "critical"
    rule.suggested_action = "fix it now"
    after = render_json(report)
    assert after == _reference(report)
    assert after != before and '"renamed"' in after


def test_empty_report():
    report = ValidationReport(target="host:empty")
    assert render_json(report) == _reference(report)
    assert '"results": []' in render_json(report)


def test_degraded_report_carries_its_block():
    report = ValidationReport(target="fleet")
    report.degradation = DegradationStats(faults_injected={"fs.read": 2},
                                          plan="fs-error")
    text = render_json(report)
    assert text == _reference(report)
    assert json.loads(text)["degraded"] is True


def test_scanned_fleet_report_with_provenance():
    """A real scan, provenance on: deferred records render as the
    reference renders them."""
    from repro.crawler.crawler import Crawler
    from repro.rules import load_builtin_validator
    from repro.workloads import ubuntu_host_entity

    frame = Crawler().crawl(ubuntu_host_entity("host-01", hardening=0.5,
                                               seed=3, with_nginx=True,
                                               with_mysql=True))
    validator = load_builtin_validator()
    for provenance in (False, True):
        report = validator.validate_frame(frame, provenance=provenance)
        assert len(report) > 50
        assert render_json(report) == _reference(report)
