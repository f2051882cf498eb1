"""Output processing: validation results -> human- and machine-readable
reports (paper Fig. 1's last stage).

The text renderer combines each result's verdict with the rule's
descriptions and suggested action, exactly as the paper describes:
"It combines the rule engine's validation result with a rule description,
validation output description and a possible suggestive action."
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _escape

from repro.engine.results import Outcome, RuleResult, ValidationReport, Verdict

_BADGES = {
    Verdict.COMPLIANT: "PASS",
    Verdict.NONCOMPLIANT: "FAIL",
    Verdict.NOT_APPLICABLE: "N/A ",
    Verdict.ERROR: "ERR ",
}


def render_result(result: RuleResult, *, verbose: bool = False) -> str:
    """One result as a single line (plus evidence lines when verbose)."""
    badge = _BADGES[result.verdict]
    line = f"[{badge}] {result.entity}: {result.rule.name} -- {result.message}"
    if result.rule.tags:
        line += f"  ({' '.join(result.rule.tags)})"
    if not verbose:
        return line
    lines = [line]
    for item in result.evidence:
        rendered = item.render()
        if rendered:
            lines.append(f"        {rendered}")
    if result.verdict is Verdict.ERROR and result.detail:
        # The captured traceback: indented so it reads as part of the
        # result block, prefixed so log scrapers can skip it.
        for row in result.detail.splitlines():
            lines.append(f"        | {row}")
    if result.failed and result.rule.suggested_action:
        lines.append(f"        action: {result.rule.suggested_action}")
    return "\n".join(lines)


def render_text(
    report: ValidationReport,
    *,
    verbose: bool = False,
    only_failures: bool = False,
) -> str:
    """Full text report with a summary footer."""
    lines = [f"# ConfigValidator report for {report.target}"]
    for result in report:
        if only_failures and not result.failed and result.verdict is not Verdict.ERROR:
            continue
        lines.append(render_result(result, verbose=verbose))
    counts = report.counts()
    lines.append(
        f"# {counts['total']} checks: {counts['compliant']} passed, "
        f"{counts['noncompliant']} failed, {counts['not_applicable']} n/a, "
        f"{counts['error']} errors"
    )
    return "\n".join(lines)


def render_stats(cache_stats, report: ValidationReport) -> list[str]:
    """A run's stats blocks as text, in order: the parse cache, then the
    report's incremental replay, rule plans and degradation, leaving out
    a block that is None.  ``--stage-timings`` and the fleet summary
    both print these."""
    return [stats.render()
            for stats in (cache_stats, report.incremental, report.plan,
                          report.degradation)
            if stats is not None]


def result_to_dict(result: RuleResult) -> dict:
    payload = {
        "rule": result.rule.name,
        "rule_type": result.rule.rule_type,
        "entity": result.entity,
        "target": result.target,
        "verdict": result.verdict.value,
        "outcome": result.outcome.value,
        "severity": result.rule.severity,
        "message": result.message,
        "tags": list(result.rule.tags),
        "suggested_action": result.rule.suggested_action,
        "evidence": [
            {"file": e.file, "location": e.location, "value": e.value}
            for e in result.evidence
        ],
        "detail": result.detail,
    }
    if result.provenance is not None:
        # Only present on --provenance runs, keeping default JSON output
        # byte-identical to provenance-free engines.
        payload["provenance"] = result.provenance.to_dict()
    return payload


#: A line break and the indent of each depth of the JSON report: the
#: top-level fields, results, a result's fields, its tags and evidence
#: entries, and an evidence entry's fields.
_L1, _L2, _L3, _L4, _L5 = ("\n" + "  " * depth for depth in range(1, 6))


def _json(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it at the depth
    whose line break and indent is ``newline``.

    ``json.dumps`` with an indent runs CPython's pure-Python encoder,
    whose closures refer to each other and so leave garbage for the
    cycle collector.  So strings, nearly every value of a report, go
    straight to the C string escaper, objects with string keys and
    arrays are written here, and other scalars go through the C
    encoder.
    """
    cls = value.__class__
    if cls is str:
        return _escape(value)
    if cls is dict and all(key.__class__ is str for key in value):
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + ",".join(
            f"{inner}{_escape(key)}: {_json(item, inner)}"
            for key, item in value.items()) + newline + "}"
    if cls is list or cls is tuple:
        return _array([_json(item, newline + "  ") for item in value],
                      newline)
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, indent=2).replace("\n", newline)
    return json.dumps(value)


def _array(items: list[str], newline: str) -> str:
    """A JSON array of rendered ``items`` whose brackets sit at ``newline``."""
    if not items:
        return "[]"
    inner = newline + "  "
    return f"[{inner}{(',' + inner).join(items)}{newline}]"


#: Each verdict's and outcome's rendered value.
_ENUMS = {member: _escape(member.value)
          for enum in (Verdict, Outcome) for member in enum}


def _rule_json(rule) -> tuple[str, str, str]:
    """A rule's fields in a result of it: its name and type (the head of
    the result), its severity, and its tags with its suggested action."""
    tags = _array([_json(tag, _L4) for tag in rule.tags], _L3)
    return (f'{{{_L3}"rule": {_json(rule.name, _L3)},'
            f'{_L3}"rule_type": {_json(rule.rule_type, _L3)},',
            _json(rule.severity, _L3),
            f'{tags},{_L3}"suggested_action": '
            f'{_json(rule.suggested_action, _L3)}')


def _result_json(result: RuleResult, rules: dict, places: dict) -> str:
    """:func:`result_to_dict` as ``json.dumps(doc, indent=2)`` writes it
    in a report's results.  ``rules`` (by rule identity) and ``places``
    (by entity and target) hold what one render has already written."""
    parts = rules.get(id(result.rule))
    if parts is None:
        parts = rules[id(result.rule)] = _rule_json(result.rule)
    head, severity, tags = parts
    key = (result.entity, result.target)
    place = places.get(key)
    if place is None:
        place = places[key] = (f'{_L3}"entity": {_json(key[0], _L3)},'
                               f'{_L3}"target": {_json(key[1], _L3)},')
    evidence = _array([
        f'{{{_L5}"file": {_json(item.file, _L5)},'
        f'{_L5}"location": {_json(item.location, _L5)},'
        f'{_L5}"value": {_json(item.value, _L5)}{_L4}}}'
        for item in result.evidence
    ], _L3)
    text = (
        f'{head}{place}'
        f'{_L3}"verdict": {_ENUMS[result.verdict]},'
        f'{_L3}"outcome": {_ENUMS[result.outcome]},'
        f'{_L3}"severity": {severity},'
        f'{_L3}"message": {_json(result.message, _L3)},'
        f'{_L3}"tags": {tags},'
        f'{_L3}"evidence": {evidence},'
        f'{_L3}"detail": {_json(result.detail, _L3)}'
    )
    provenance = result.provenance
    if provenance is not None:
        # Only present on --provenance runs, as in result_to_dict.
        text += f',{_L3}"provenance": {_json(provenance.to_dict(), _L3)}'
    return text + _L2 + "}"


def render_json(report: ValidationReport) -> str:
    """Machine-readable report (one document per run).

    The text is what ``json.dumps(doc, indent=2)`` gives for ``doc =
    {"target": ..., "summary": report.counts(), "results":
    [result_to_dict(result), ...]}`` (and ``"degraded"`` and
    ``"degradation"`` on a degraded cycle), written field by field.
    Each rule's fields and each entity and target are written once per
    call, so a rule edited between two calls shows its edit.
    """
    rules: dict[int, tuple[str, str, str]] = {}
    places: dict[tuple, str] = {}
    results = _array([_result_json(result, rules, places)
                      for result in report], _L1)
    text = (
        f'{{{_L1}"target": {_json(report.target, _L1)},'
        f'{_L1}"summary": {_json(report.counts(), _L1)},'
        f'{_L1}"results": {results}'
    )
    degradation = getattr(report, "degradation", None)
    if degradation is not None and degradation.degraded:
        # Only present on cycles that actually degraded, keeping clean
        # runs byte-identical to pre-chaos output.
        text += (f',{_L1}"degraded": true,'
                 f'{_L1}"degradation": {_json(degradation.to_dict(), _L1)}')
    return text + "\n}"


def render_junit(report: ValidationReport, *, suite_name: str = "configvalidator") -> str:
    """JUnit-style XML so CI systems can consume validation runs.

    Verdict mapping: NONCOMPLIANT -> ``<failure>``, ERROR -> ``<error>``,
    NOT_APPLICABLE -> ``<skipped>``, COMPLIANT -> plain testcase.
    """
    from xml.sax.saxutils import escape, quoteattr

    counts = report.counts()
    degradation = getattr(report, "degradation", None)
    degraded = degradation is not None and degradation.degraded
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<testsuite name={quoteattr(suite_name)} "
        f'tests="{counts["total"]}" failures="{counts["noncompliant"]}" '
        f'errors="{counts["error"]}" skipped="{counts["not_applicable"]}">',
    ]
    if degraded:
        # Marker for CI consumers: verdicts in this suite were produced
        # by a degraded cycle (injected faults, quarantined frames, or
        # deadline cancellations).  Absent on clean runs.
        lines.append(
            "  <properties>"
            '<property name="degraded" value="true"/>'
            "</properties>"
        )
    for result in report:
        case_name = quoteattr(result.rule.name)
        class_name = quoteattr(f"{result.target}.{result.entity}")
        if result.verdict is Verdict.COMPLIANT:
            lines.append(
                f"  <testcase classname={class_name} name={case_name}/>"
            )
            continue
        lines.append(
            f"  <testcase classname={class_name} name={case_name}>"
        )
        message = escape(result.message)
        if result.verdict is Verdict.NONCOMPLIANT:
            failure_message = result.message
            record = result.provenance
            anchor = (record.first_spanned_anchor()
                      if record is not None else None)
            if anchor is not None:
                # Provenance runs anchor CI failure messages to source.
                failure_message = f"{anchor.location()}: {failure_message}"
            body = escape(
                "\n".join(item.render() for item in result.evidence)
            )
            lines.append(
                f'    <failure message="{escape(failure_message, {chr(34): "&quot;"})}"'
                f" type={quoteattr(result.outcome.value)}>{body}</failure>"
            )
        elif result.verdict is Verdict.ERROR:
            body = message
            if result.detail:
                body += "\n" + escape(result.detail)
            error_type = next(
                (
                    item.location.split(":", 1)[1]
                    for item in result.evidence
                    if item.location.startswith("exception:")
                ),
                result.outcome.value,
            )
            lines.append(
                f"    <error type={quoteattr(error_type)}>{body}</error>"
            )
        else:
            lines.append(f"    <skipped>{message}</skipped>")
        lines.append("  </testcase>")
    lines.append("</testsuite>")
    return "\n".join(lines) + "\n"


def summarize_by_entity(report: ValidationReport) -> dict[str, dict[str, int]]:
    """Per-entity pass/fail tally (used by fleet-scale reporting)."""
    tally: dict[str, dict[str, int]] = {}
    for result in report:
        bucket = tally.setdefault(
            result.entity, {v.value: 0 for v in Verdict}
        )
        bucket[result.verdict.value] += 1
    return tally
