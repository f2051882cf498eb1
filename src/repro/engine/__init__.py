"""The rule engine and output processing (paper Fig. 1, right half)."""

from repro.engine.engine import ConfigValidator
from repro.engine.incremental import (
    DependencyRecorder,
    IncrementalRunStats,
    StoreStats,
    VerdictStore,
    ruleset_digest,
)
from repro.engine.normalizer import Normalizer
from repro.engine.parse_cache import CacheStats, ParseCache
from repro.engine.stages import StageTimings
from repro.engine.results import (
    Evidence,
    Outcome,
    RuleResult,
    ValidationReport,
    Verdict,
)
from repro.engine.drift import DriftEntry, DriftReport, diff_reports, render_drift
from repro.engine.report import (
    render_json,
    render_result,
    render_text,
    result_to_dict,
    summarize_by_entity,
)

__all__ = [
    "CacheStats",
    "ConfigValidator",
    "ParseCache",
    "StageTimings",
    "DriftEntry",
    "DriftReport",
    "diff_reports",
    "render_drift",
    "DependencyRecorder",
    "Evidence",
    "IncrementalRunStats",
    "Normalizer",
    "Outcome",
    "StoreStats",
    "VerdictStore",
    "ruleset_digest",
    "RuleResult",
    "ValidationReport",
    "Verdict",
    "render_json",
    "render_result",
    "render_text",
    "result_to_dict",
    "summarize_by_entity",
]
