"""Per-rule-type evaluation: a rule + a frame -> a RuleResult.

Shared verdict semantics for value-bearing rules (tree, schema, script):

1. if ``non_preferred_value`` is set and **any** found value matches it
   (under ``non_preferred_value_match``), the rule is NONCOMPLIANT;
2. otherwise, if ``preferred_value`` is set, **every** found value must
   match it (under ``preferred_value_match``) for COMPLIANT;
3. with neither list set, the rule is a presence check.

Absence of the config (no key found / file missing / runtime key missing)
is the NOT_PRESENT outcome: NONCOMPLIANT by default, COMPLIANT when the
rule says ``not_present_pass: true`` (e.g. "SSLv2 must not be configured
anywhere").
"""

from __future__ import annotations

import traceback

from repro.chaos.fabric import absorbed as _chaos_absorbed
from repro.errors import (
    FileNotFoundInFrame,
    LensError,
    PathExpressionError,
    QueryError,
    ReproError,
    SchemaError,
)
from repro.augtree.path import Labels, parse_path
from repro.augtree.tree import ConfigNode
from repro.crawler.frame import ConfigFrame
from repro.cvl.manifest import Manifest
from repro.cvl.model import PathRule, Rule, SchemaRule, ScriptRule, TreeRule
from repro.engine.normalizer import Normalizer
from repro.engine.results import Evidence, Outcome, RuleResult, Verdict


def _message(rule: Rule, outcome: Outcome) -> str:
    """Output processing: pick the rule's description for the outcome."""
    if outcome is Outcome.MATCHED:
        return rule.matched_description or f"{rule.name} matches the preferred value."
    if outcome is Outcome.NOT_PRESENT:
        return rule.not_present_description or f"{rule.name} is not present."
    if outcome in (Outcome.MATCHED_NON_PREFERRED, Outcome.NOT_MATCHED_PREFERRED):
        return (
            rule.not_matched_description
            or f"{rule.name} does not match the preferred value."
        )
    if outcome is Outcome.MISSING_DEPENDENCY:
        return f"{rule.name}: required co-configurations are absent."
    if outcome is Outcome.PLUGIN_UNAVAILABLE:
        return f"{rule.name}: runtime state is unavailable for this entity."
    return rule.not_matched_description or rule.description or rule.name


def _value_verdict(
    rule: Rule, values: list[str], *, case_insensitive: bool = False
) -> tuple[Verdict, Outcome]:
    """Apply the shared preferred / non-preferred semantics."""
    if rule.non_preferred_value:
        for value in values:
            if rule.non_preferred_match.matches(
                value, rule.non_preferred_value, case_insensitive=case_insensitive
            ):
                return Verdict.NONCOMPLIANT, Outcome.MATCHED_NON_PREFERRED
    if rule.preferred_value:
        for value in values:
            if not rule.preferred_match.matches(
                value, rule.preferred_value, case_insensitive=case_insensitive
            ):
                return Verdict.NONCOMPLIANT, Outcome.NOT_MATCHED_PREFERRED
    return Verdict.COMPLIANT, Outcome.MATCHED


def _absent_result(rule: Rule, entity: str, target: str,
                   *, not_present_pass: bool) -> RuleResult:
    verdict = Verdict.COMPLIANT if not_present_pass else Verdict.NONCOMPLIANT
    return RuleResult(
        rule=rule,
        entity=entity,
        target=target,
        verdict=verdict,
        outcome=Outcome.NOT_PRESENT,
        message=_message(rule, Outcome.NOT_PRESENT),
    )


def _error_result(rule: Rule, entity: str, target: str, error: Exception) -> RuleResult:
    """An ERROR verdict that keeps the full failure context.

    The exception class and message become evidence and, when the
    exception was actually raised (vs constructed for a message), the
    traceback lands in ``detail`` -- so a fleet dashboard can answer
    "*why* does this rule error on 400 containers" without a rerun.
    """
    detail = ""
    if error.__traceback__ is not None:
        detail = "".join(
            traceback.format_exception(type(error), error,
                                       error.__traceback__)
        ).rstrip()
    result = RuleResult(
        rule=rule,
        entity=entity,
        target=target,
        verdict=Verdict.ERROR,
        outcome=Outcome.EVALUATION_ERROR,
        message=f"{rule.name}: {error}",
        evidence=[Evidence.from_exception(error)],
        detail=detail,
    )
    if _chaos_absorbed(error):
        # An injected fault turned into an ERROR verdict: the cycle
        # absorbed it.  Mark the result volatile so the verdict store
        # never replays a chaos artifact into a fault-free cycle.
        result.volatile = True
    return result


# ---- config tree rules -------------------------------------------------------


def evaluate_tree(
    rule: TreeRule,
    frame: ConfigFrame,
    manifest: Manifest,
    normalizer: Normalizer,
) -> RuleResult:
    """Evaluate a config-tree rule (paper Listing 2)."""
    entity = manifest.entity
    target = frame.describe()
    try:
        files = normalizer.candidate_files(
            frame, manifest.config_search_paths, rule.file_context
        )
    except ReproError as exc:
        return _error_result(rule, entity, target, exc)
    lens_name = rule.lens or manifest.lens

    evidence: list[Evidence] = []
    dependency_ok = not rule.require_other_configs
    parse_errors: list[str] = []
    volatile = False
    for path in files:
        try:
            tree = normalizer.tree_for(frame, path, lens_name)
        except (LensError, FileNotFoundInFrame) as exc:
            if _chaos_absorbed(exc):
                volatile = True
            parse_errors.append(str(exc))
            continue
        scopes = _scopes(tree, rule.config_path)
        found_here = False
        try:
            name_expression = parse_path(rule.name)
        except PathExpressionError as exc:
            return _error_result(rule, entity, target, exc)
        for scope, labels in scopes.items():
            for node, node_labels in name_expression.locate(
                scope, labels
            ).items():
                found_here = True
                evidence.append(
                    Evidence(
                        file=path,
                        location="/".join(node_labels),
                        value=node.value if node.value is not None else "",
                        span=node.span,
                    )
                )
        if found_here and rule.require_other_configs:
            present = {n.label for n in tree.root.walk()}
            if all(req in present for req in rule.require_other_configs):
                dependency_ok = True

    result = finalize_tree_rule(
        rule, entity, target,
        evidence=evidence, parse_errors=parse_errors, files=files,
        dependency_ok=dependency_ok,
    )
    if volatile:
        result.volatile = True
    return result


def finalize_tree_rule(
    rule: TreeRule,
    entity: str,
    target: str,
    *,
    evidence: list[Evidence],
    parse_errors: list[str],
    files: list[str],
    dependency_ok: bool,
) -> RuleResult:
    """Turn collected evidence into a tree-rule verdict.

    Shared by :func:`evaluate_tree` and the fused plan evaluator
    (:mod:`repro.engine.plan`): once both paths have gathered the same
    evidence list, this single tail guarantees identical results.
    """
    if not evidence:
        if parse_errors and not files:
            return _error_result(
                rule, entity, target, ReproError("; ".join(parse_errors))
            )
        return _absent_result(
            rule, entity, target, not_present_pass=rule.not_present_pass
        )
    if rule.first_match_only and len(evidence) > 1:
        evidence = evidence[:1]
    if not dependency_ok:
        return RuleResult(
            rule=rule,
            entity=entity,
            target=target,
            verdict=Verdict.NOT_APPLICABLE,
            outcome=Outcome.MISSING_DEPENDENCY,
            message=_message(rule, Outcome.MISSING_DEPENDENCY),
            evidence=evidence,
        )

    values = _split_values(
        [item.value for item in evidence], rule.value_separator
    )
    verdict, outcome = _value_verdict(
        rule, values, case_insensitive=rule.case_insensitive
    )
    return RuleResult(
        rule=rule,
        entity=entity,
        target=target,
        verdict=verdict,
        outcome=outcome,
        message=_message(rule, outcome),
        evidence=evidence,
    )


def _scopes(tree, config_path: list[str]) -> dict[ConfigNode, Labels]:
    """Parent nodes the config key is searched under, each with its
    labels from the root: the union over the rule's path alternatives;
    an empty alternative means the tree root."""
    scopes: dict[ConfigNode, Labels] = {}
    for alternative in config_path or [""]:
        alternative = alternative.strip()
        if not alternative:
            scopes.setdefault(tree.root, ())
        else:
            # Identity-hashed nodes: the dict is an order-preserving dedup.
            scopes.update(parse_path(alternative).locate(tree.root))
    return scopes


def _split_values(values: list[str], separator: str | None) -> list[str]:
    if separator is None:
        return values
    split: list[str] = []
    for value in values:
        parts = value.split(separator) if separator else value.split()
        split.extend(part.strip() for part in parts if part.strip())
    return split or values


# ---- schema rules ---------------------------------------------------------


def evaluate_schema(
    rule: SchemaRule,
    frame: ConfigFrame,
    manifest: Manifest,
    normalizer: Normalizer,
) -> RuleResult:
    """Evaluate a schema rule (paper Listing 3).

    The query's matching rows are projected to ``query_columns``; each row
    becomes one found value (multi-column projections joined with ``:``).
    An empty result set contributes the single found value ``""`` so rules
    can assert emptiness/non-emptiness the way Listing 3 does
    (``non_preferred_value: [""]`` = "the row must exist").
    """
    entity = manifest.entity
    target = frame.describe()
    parser_name = rule.schema_parser or manifest.schema_parser
    try:
        files = normalizer.candidate_files(
            frame, manifest.config_search_paths, rule.file_context
        )
        if not rule.file_context and parser_name:
            # Keep only files the named parser recognizes, unless the rule
            # pinned explicit files.  No recognized file means the config is
            # absent -- never feed unrelated files to the wrong parser.
            parser = normalizer.schemas.get(parser_name)
            if parser.file_patterns:
                files = normalizer.candidate_files(
                    frame,
                    manifest.config_search_paths,
                    list(parser.file_patterns),
                )
    except ReproError as exc:
        return _error_result(rule, entity, target, exc)
    if not files:
        return _absent_result(
            rule, entity, target, not_present_pass=rule.not_present_pass
        )

    query = normalizer.query_for(rule)
    evidence: list[Evidence] = []
    try:
        for path in files:
            table = normalizer.table_for(frame, path, parser_name)
            for projected in query.execute(table, rule.query_constraints_value):
                evidence.append(
                    Evidence(file=path, location=table.name, value=":".join(projected))
                )
    except (SchemaError, QueryError, FileNotFoundInFrame) as exc:
        return _error_result(rule, entity, target, exc)

    values = [item.value for item in evidence] or [""]
    verdict, outcome = _value_verdict(rule, values)
    if not evidence and verdict is Verdict.COMPLIANT and not rule.non_preferred_value:
        # No rows and nothing to assert about absent rows: treat as absent.
        return _absent_result(
            rule, entity, target, not_present_pass=rule.not_present_pass
        )
    return RuleResult(
        rule=rule,
        entity=entity,
        target=target,
        verdict=verdict,
        outcome=outcome,
        message=_message(rule, outcome),
        evidence=evidence,
    )


# ---- path rules ------------------------------------------------------------


def evaluate_path(
    rule: PathRule, frame: ConfigFrame, manifest: Manifest
) -> RuleResult:
    """Evaluate a path/metadata rule (paper Listing 4)."""
    entity = manifest.entity
    target = frame.describe()
    path = rule.name
    exists = frame.exists(path)

    if not rule.expects_existence():
        if exists:
            return RuleResult(
                rule=rule,
                entity=entity,
                target=target,
                verdict=Verdict.NONCOMPLIANT,
                outcome=Outcome.PRESENT_UNEXPECTEDLY,
                message=rule.not_matched_description
                or f"{path} exists but must not.",
                evidence=[Evidence(file=path)],
            )
        return RuleResult(
            rule=rule,
            entity=entity,
            target=target,
            verdict=Verdict.COMPLIANT,
            outcome=Outcome.MATCHED,
            message=rule.matched_description or f"{path} is absent as required.",
        )

    if not exists:
        return _absent_result(rule, entity, target, not_present_pass=False)

    stat = frame.stat(path)
    problems: list[str] = []
    if rule.ownership is not None:
        if rule.ownership not in (stat.ownership, stat.ownership_names):
            problems.append(
                f"ownership is {stat.ownership} ({stat.ownership_names}), "
                f"expected {rule.ownership}"
            )
    if rule.permission is not None and stat.mode != rule.permission:
        problems.append(
            f"permission is {stat.octal_mode}, expected {format(rule.permission, 'o')}"
        )
    if rule.permission_mask is not None and stat.mode & ~rule.permission_mask:
        problems.append(
            f"permission {stat.octal_mode} exceeds mask "
            f"{format(rule.permission_mask, 'o')}"
        )

    if problems:
        return RuleResult(
            rule=rule,
            entity=entity,
            target=target,
            verdict=Verdict.NONCOMPLIANT,
            outcome=Outcome.METADATA_MISMATCH,
            message=rule.not_matched_description or f"{path}: " + "; ".join(problems),
            evidence=[Evidence(file=path, value=stat.octal_mode)],
            detail="; ".join(problems),
        )
    return RuleResult(
        rule=rule,
        entity=entity,
        target=target,
        verdict=Verdict.COMPLIANT,
        outcome=Outcome.MATCHED,
        message=rule.matched_description or f"{path} metadata is as required.",
        evidence=[Evidence(file=path, value=stat.octal_mode)],
    )


# ---- script rules --------------------------------------------------------------


def evaluate_script(
    rule: ScriptRule, frame: ConfigFrame, manifest: Manifest
) -> RuleResult:
    """Evaluate a script rule against plugin-extracted runtime state."""
    entity = manifest.entity
    target = frame.describe()
    try:
        plugin, key = rule.plugin_and_key()
    except ReproError as exc:
        return _error_result(rule, entity, target, exc)
    namespace = frame.runtime.get(plugin)
    if namespace is None:
        return RuleResult(
            rule=rule,
            entity=entity,
            target=target,
            verdict=Verdict.NOT_APPLICABLE,
            outcome=Outcome.PLUGIN_UNAVAILABLE,
            message=_message(rule, Outcome.PLUGIN_UNAVAILABLE),
        )
    value = namespace.get(key)
    if value is None:
        return _absent_result(
            rule, entity, target, not_present_pass=rule.not_present_pass
        )
    verdict, outcome = _value_verdict(rule, [value])
    return RuleResult(
        rule=rule,
        entity=entity,
        target=target,
        verdict=verdict,
        outcome=outcome,
        message=_message(rule, outcome),
        evidence=[Evidence(location=f"{plugin}:{key}", value=value)],
    )
