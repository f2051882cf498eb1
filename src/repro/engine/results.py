"""Validation results: what the rule engine produces.

A :class:`RuleResult` records one rule evaluated against one entity:
the verdict, a finer-grained *outcome* (why), the chosen human-readable
message (the output-processing module picks it from the rule's
description keywords), and the evidence (which file/value/row the verdict
rests on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.cvl.model import Rule


class Verdict(Enum):
    """The four terminal states of a rule evaluation."""

    COMPLIANT = "compliant"
    NONCOMPLIANT = "noncompliant"
    NOT_APPLICABLE = "not_applicable"
    ERROR = "error"


class Outcome(Enum):
    """Why the verdict came out the way it did."""

    MATCHED = "matched"                       # preferred satisfied
    MATCHED_NON_PREFERRED = "matched_non_preferred"
    NOT_MATCHED_PREFERRED = "not_matched_preferred"
    NOT_PRESENT = "not_present"               # config key / file / path absent
    PRESENT_UNEXPECTEDLY = "present_unexpectedly"   # path rules with exists: false
    MISSING_DEPENDENCY = "missing_dependency"       # require_other_configs unmet
    METADATA_MISMATCH = "metadata_mismatch"         # ownership / permission
    PLUGIN_UNAVAILABLE = "plugin_unavailable"
    EVALUATION_ERROR = "evaluation_error"
    COMPOSITE = "composite"


@dataclass
class Evidence:
    """Where a found value came from."""

    file: str = ""
    location: str = ""   # tree path, row line, runtime key, ...
    value: str = ""
    #: Source location recorded by the lens, when known: the node's plain
    #: span tuple, in :class:`repro.augtree.tree.SourceSpan` order.  Never
    #: rendered here -- provenance records surface it -- and excluded from
    #: equality so span-aware and span-less results stay interchangeable.
    span: object = field(default=None, repr=False, compare=False)

    @classmethod
    def from_exception(cls, error: BaseException) -> "Evidence":
        """Evidence for an ERROR verdict: exception class + message.

        The full traceback rides on :attr:`RuleResult.detail` (it is
        multi-line); the evidence line keeps the machine-matchable
        ``exception:<ClassName>`` location.
        """
        return cls(
            location=f"exception:{type(error).__name__}",
            value=str(error),
        )

    def render(self) -> str:
        parts = []
        if self.value != "":
            parts.append(f"value {self.value!r}")
        if self.location:
            parts.append(f"at {self.location}")
        if self.file:
            parts.append(f"in {self.file}")
        return " ".join(parts)


@dataclass
class RuleResult:
    """One rule evaluated against one entity."""

    rule: Rule
    entity: str                      # component name (manifest entity)
    target: str                      # frame description, e.g. "container:web1"
    verdict: Verdict
    outcome: Outcome
    message: str = ""
    evidence: list[Evidence] = field(default_factory=list)
    detail: str = ""                 # free-form extra (composite term dump...)
    duration_s: float = 0.0          # wall time spent evaluating this rule
    started_s: float = 0.0           # perf_counter stamp at evaluation start
    #: Structured provenance (:class:`repro.engine.provenance.
    #: ProvenanceRecord`); attached only when the run asked for it, and
    #: excluded from equality/repr so provenance-on and -off results
    #: compare equal.  The engine stores a deferred-construction marker
    #: here -- a ``(route, reader, frame)`` tuple shared by every result
    #: of a frame -- and the :attr:`provenance` property materializes
    #: the record on first read, so the scan cycle pays one attribute
    #: store per result instead of full record construction (the
    #: telemetry cost model: expansion happens at export/read time).
    _provenance: object = field(default=None, repr=False, compare=False)

    @property
    def provenance(self):
        value = self._provenance
        if type(value) is tuple:
            # Deferred marker from the engine: build the record now.
            # Imported here to keep results free of a provenance import
            # cycle (provenance reads Evidence from this module).
            from repro.engine.provenance import build_provenance

            route, reader, frame = value
            value = build_provenance(self, route=route, reader=reader,
                                     frame=frame)
            self._provenance = value
        elif callable(value):
            value = value()
            self._provenance = value
        return value

    @provenance.setter
    def provenance(self, value) -> None:
        self._provenance = value

    @property
    def passed(self) -> bool:
        return self.verdict is Verdict.COMPLIANT

    @property
    def failed(self) -> bool:
        return self.verdict is Verdict.NONCOMPLIANT

    def __repr__(self) -> str:
        return (
            f"RuleResult({self.rule.name!r}, {self.entity!r}, "
            f"{self.verdict.value}, {self.outcome.value})"
        )


@dataclass
class ValidationReport:
    """All results from one validation run."""

    target: str
    results: list[RuleResult] = field(default_factory=list)
    #: Incremental-run statistics
    #: (:class:`repro.engine.incremental.IncrementalRunStats`; untyped here
    #: to keep this module free of engine imports).  None on full runs.
    incremental: object = field(default=None, repr=False, compare=False)
    #: Rule-plan statistics (:class:`repro.engine.plan.PlanRunStats`);
    #: None when the run's plans had no fused units (``--no-plan``).
    #: Like ``incremental``, never rendered into reports.
    plan: object = field(default=None, repr=False, compare=False)
    #: Degradation accounting (:class:`repro.chaos.stats.DegradationStats`);
    #: None on clean runs with no chaos plan armed.  Rendered into
    #: JSON/JUnit output *only* when the cycle actually degraded, so
    #: clean reports stay byte-identical to pre-chaos output.
    degradation: object = field(default=None, repr=False, compare=False)
    #: What changed since the previous run
    #: (:class:`repro.engine.delta.VerdictDelta`); set by incremental
    #: runs only.  Never rendered into reports.
    delta: object = field(default=None, repr=False, compare=False)

    def add(self, result: RuleResult) -> None:
        self.results.append(result)

    def extend(self, results: list[RuleResult]) -> None:
        self.results.extend(results)

    # ---- selection -----------------------------------------------------

    def passed(self) -> list[RuleResult]:
        return [r for r in self.results if r.verdict is Verdict.COMPLIANT]

    def failed(self) -> list[RuleResult]:
        return [r for r in self.results if r.verdict is Verdict.NONCOMPLIANT]

    def errors(self) -> list[RuleResult]:
        return [r for r in self.results if r.verdict is Verdict.ERROR]

    def not_applicable(self) -> list[RuleResult]:
        return [r for r in self.results if r.verdict is Verdict.NOT_APPLICABLE]

    def with_tag(self, tag: str) -> "ValidationReport":
        subset = ValidationReport(target=self.target)
        subset.results = [r for r in self.results if r.rule.has_tag(tag)]
        return subset

    def for_entity(self, entity: str) -> list[RuleResult]:
        return [r for r in self.results if r.entity == entity]

    def by_severity(self, severity: str) -> list[RuleResult]:
        return [r for r in self.results if r.rule.severity == severity]

    def slowest(self, count: int = 10) -> list[RuleResult]:
        """The most expensive evaluations of the run (ops view)."""
        return sorted(
            self.results, key=lambda r: r.duration_s, reverse=True
        )[:count]

    # ---- summary ---------------------------------------------------------

    def counts(self) -> dict[str, int]:
        tally = {verdict.value: 0 for verdict in Verdict}
        for result in self.results:
            tally[result.verdict.value] += 1
        tally["total"] = len(self.results)
        return tally

    @property
    def compliant(self) -> bool:
        """True when nothing failed and nothing errored."""
        return not self.failed() and not self.errors()

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)
