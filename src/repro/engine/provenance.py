"""Verdict provenance: why a rule decided what it decided, anchored to source.

A :class:`ProvenanceRecord` rides on :attr:`RuleResult.provenance` when a
run asks for it.  It captures:

- the **anchors**: the matched nodes' file / tree path / value, with the
  :class:`~repro.augtree.tree.SourceSpan` the lens recorded at parse time
  and the raw source line it points at;
- the **predicate** that decided the verdict, with observed vs expected
  values;
- the evaluation **route**: ``direct`` (per-rule evaluator), ``fused``
  (compiled plan unit), ``composite`` (expression over other verdicts,
  with its referents), or ``replayed`` (incremental store hit; ``origin``
  keeps the route the verdict was originally computed by).

Records are built *after* evaluation from the finished result, so the
evaluators stay provenance-free and provenance-off runs take no new code
path at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.augtree.tree import SourceSpan
from repro.engine.results import Outcome, RuleResult

ROUTE_DIRECT = "direct"
ROUTE_FUSED = "fused"
ROUTE_COMPOSITE = "composite"
ROUTE_REPLAYED = "replayed"

#: Longest excerpt kept per anchor; lines beyond this are truncated.
_EXCERPT_CAP = 400


@dataclass
class SourceAnchor:
    """One matched node, tied back to the raw file text."""

    file: str = ""
    path: str = ""       # tree path / table name / runtime key
    value: str = ""
    span: SourceSpan | None = None
    excerpt: str = ""    # the span's first source line, verbatim

    def to_dict(self) -> dict:
        payload: dict = {"file": self.file, "path": self.path,
                         "value": self.value}
        if self.span is not None:
            payload["span"] = list(self.span)
        if self.excerpt:
            payload["excerpt"] = self.excerpt
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SourceAnchor":
        return cls(
            file=str(payload.get("file", "")),
            path=str(payload.get("path", "")),
            value=str(payload.get("value", "")),
            span=SourceSpan.from_list(payload.get("span")),
            excerpt=str(payload.get("excerpt", "")),
        )

    def location(self) -> str:
        """``file:line:column`` (as much of it as is known)."""
        if not self.file:
            return self.path
        if self.span is None:
            return self.file
        return f"{self.file}:{self.span.line}:{self.span.column}"


@dataclass
class ProvenanceRecord:
    """Structured why-and-where for one RuleResult."""

    route: str
    origin: str
    predicate: str
    observed: list[str] = field(default_factory=list)
    expected: dict = field(default_factory=dict)
    anchors: list[SourceAnchor] = field(default_factory=list)
    #: Composite rules: the per-entity verdicts the expression referenced,
    #: as ``{"entity", "rule", "verdict"}`` dicts (verdict may be None when
    #: the referenced pair never produced a result).
    referents: list[dict] = field(default_factory=list)

    def as_route(self, route: str) -> "ProvenanceRecord":
        """A copy re-labelled with ``route`` (``origin`` is preserved)."""
        return replace(self, route=route)

    def first_spanned_anchor(self) -> SourceAnchor | None:
        for anchor in self.anchors:
            if anchor.file and anchor.span is not None:
                return anchor
        return None

    def to_dict(self) -> dict:
        payload: dict = {
            "route": self.route,
            "origin": self.origin,
            "predicate": self.predicate,
            "observed": list(self.observed),
            "expected": dict(self.expected),
        }
        if self.anchors:
            payload["anchors"] = [anchor.to_dict() for anchor in self.anchors]
        if self.referents:
            payload["referents"] = [dict(ref) for ref in self.referents]
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> "ProvenanceRecord | None":
        if not isinstance(payload, dict):
            return None
        try:
            return cls(
                route=str(payload.get("route", ROUTE_DIRECT)),
                origin=str(payload.get("origin",
                                       payload.get("route", ROUTE_DIRECT))),
                predicate=str(payload.get("predicate", "")),
                observed=[str(v) for v in payload.get("observed", [])],
                expected=dict(payload.get("expected", {})),
                anchors=[SourceAnchor.from_dict(a)
                         for a in payload.get("anchors", [])
                         if isinstance(a, dict)],
                referents=[dict(r) for r in payload.get("referents", [])
                           if isinstance(r, dict)],
            )
        except (TypeError, ValueError):
            return None


class ExcerptReader:
    """Per-run memoized access to frame file lines.

    Anchors only ever reference files the rule itself read, so pulling the
    text again is a parse-cache-warm re-read; the memo makes it once per
    (frame, file) per scan cycle.
    """

    def __init__(self):
        self._memo: dict[tuple, list[str] | None] = {}

    def _lines(self, frame, path: str) -> list[str] | None:
        key = (getattr(frame, "cache_token", None) or id(frame), path)
        if key not in self._memo:
            try:
                self._memo[key] = frame.read_config(path).splitlines()
            except Exception:
                self._memo[key] = None
        return self._memo[key]

    def excerpt(self, frame, path: str, span: SourceSpan | None) -> str:
        if frame is None or not path or span is None:
            return ""
        lines = self._lines(frame, path)
        if not lines or not 1 <= span.line <= len(lines):
            return ""
        return lines[span.line - 1].rstrip()[:_EXCERPT_CAP]


def _match_mode(spec) -> str:
    return str(spec)


def _predicate(rule, outcome: Outcome) -> str:
    """The decision rule, in words, specialised with the rule's values."""
    if outcome is Outcome.MATCHED:
        if rule.preferred_value:
            return (f"every found value matches preferred_value "
                    f"{rule.preferred_value} ({_match_mode(rule.preferred_match)})")
        return "config is present"
    if outcome is Outcome.MATCHED_NON_PREFERRED:
        return (f"a found value matches non_preferred_value "
                f"{rule.non_preferred_value} "
                f"({_match_mode(rule.non_preferred_match)})")
    if outcome is Outcome.NOT_MATCHED_PREFERRED:
        return (f"a found value does not match preferred_value "
                f"{rule.preferred_value} ({_match_mode(rule.preferred_match)})")
    if outcome is Outcome.NOT_PRESENT:
        return (f"config is absent "
                f"(not_present_pass={str(rule.not_present_pass).lower()})")
    if outcome is Outcome.PRESENT_UNEXPECTEDLY:
        return "path exists but the rule requires absence"
    if outcome is Outcome.MISSING_DEPENDENCY:
        required = getattr(rule, "require_other_configs", None) or []
        return f"required co-configurations are absent: {list(required)}"
    if outcome is Outcome.METADATA_MISMATCH:
        return "file ownership/permissions differ from the rule's requirement"
    if outcome is Outcome.PLUGIN_UNAVAILABLE:
        return "runtime state is unavailable for this entity"
    if outcome is Outcome.EVALUATION_ERROR:
        return "rule evaluation raised an exception"
    if outcome is Outcome.COMPOSITE:
        return f"composite expression: {getattr(rule, 'expression', '')}"
    return outcome.value


def _expected(rule) -> dict:
    expected: dict = {}
    if rule.preferred_value:
        expected["preferred_value"] = list(rule.preferred_value)
        expected["preferred_match"] = _match_mode(rule.preferred_match)
    if rule.non_preferred_value:
        expected["non_preferred_value"] = list(rule.non_preferred_value)
        expected["non_preferred_match"] = _match_mode(rule.non_preferred_match)
    if not expected:
        expected["presence"] = (
            "must be absent" if rule.not_present_pass else "must be present"
        )
    return expected


def build_provenance(
    result: RuleResult,
    *,
    route: str,
    reader: ExcerptReader | None = None,
    frame=None,
    referents: list[dict] | None = None,
) -> ProvenanceRecord:
    """Derive a record from a finished result (post-hoc, evaluator-free)."""
    anchors = []
    for item in result.evidence:
        span = SourceSpan._make(item.span) if item.span is not None else None
        excerpt = ""
        if reader is not None and span is not None:
            excerpt = reader.excerpt(frame, item.file, span)
        anchors.append(SourceAnchor(
            file=item.file,
            path=item.location,
            value=item.value,
            span=span,
            excerpt=excerpt,
        ))
    return ProvenanceRecord(
        route=route,
        origin=route,
        predicate=_predicate(result.rule, result.outcome),
        observed=[item.value for item in result.evidence],
        expected=_expected(result.rule),
        anchors=anchors,
        referents=list(referents) if referents else [],
    )
