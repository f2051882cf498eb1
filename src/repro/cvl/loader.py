"""Loading CVL documents: YAML text -> validated rule objects.

Accepted file shapes (all YAML):

* a multi-document stream, one rule mapping per document (the paper's
  listings);
* a single document that is a list of rule mappings;
* a single mapping with a ``rules:`` list, optionally carrying file-level
  keys (``entity_name``, ``parent_cvl_file``, ``disabled_rules``).

Rule types are inferred from the name keyword present (``config_name`` ->
tree, ``config_schema_name`` -> schema, ``path_name`` -> path,
``script_name`` -> script, ``composite_rule_name`` -> composite) or given
explicitly with ``rule_type``.  Unknown keywords are hard errors -- a
typoed keyword must not silently disable a security check.

Inheritance (paper §3.2 "Inheritance"): a file naming a
``parent_cvl_file`` starts from the parent's rules; a child rule with the
same name *merges over* the parent rule key-by-key (so a deployment can
override just ``preferred_value``); names listed in ``disabled_rules``
are disabled.
"""

from __future__ import annotations

import re
from typing import Callable

from repro import yamlio
from repro.errors import CVLKeywordError, CVLSyntaxError, InheritanceError
from repro.cvl.keywords import (
    NAME_KEYWORD_BY_TYPE,
    allowed_keywords,
    infer_rule_type,
)
from repro.cvl.match import MatchSpec, parse_match_spec
from repro.cvl.model import (
    SEVERITIES,
    CompositeRule,
    PathRule,
    Rule,
    RuleSet,
    SchemaRule,
    ScriptRule,
    TreeRule,
)

#: Loads the text of a referenced CVL file (used for parent_cvl_file).
Resolver = Callable[[str], str]

#: Keys that configure the file, not an individual rule.
_FILE_LEVEL_KEYS = {"entity_name", "parent_cvl_file", "disabled_rules", "rules"}

_MAX_PARENT_DEPTH = 16

#: Permission bits as written: octal digits, optionally after ``0o``.
_OCTAL = re.compile(r"(?:0o)?[0-7]+")


def load_rules(
    text: str,
    source: str = "<memory>",
    *,
    entity: str = "",
    resolver: Resolver | None = None,
    _depth: int = 0,
) -> RuleSet:
    """Parse CVL YAML ``text`` into a :class:`RuleSet` (resolving parents)."""
    if _depth > _MAX_PARENT_DEPTH:
        raise InheritanceError(f"{source}: parent_cvl_file chain too deep")
    documents = _documents(text, source)
    file_settings, rule_mappings = _split(documents, source)
    entity = str(file_settings.get("entity_name", entity) or entity)

    parent_set: RuleSet | None = None
    parent_file = file_settings.get("parent_cvl_file")
    if parent_file:
        if resolver is None:
            raise InheritanceError(
                f"{source}: parent_cvl_file {parent_file!r} given but no "
                f"resolver to load it"
            )
        parent_text = resolver(str(parent_file))
        parent_set = load_rules(
            parent_text,
            source=str(parent_file),
            entity=entity,
            resolver=resolver,
            _depth=_depth + 1,
        )

    rules = [build_rule(mapping, source) for mapping in rule_mappings]
    ruleset = RuleSet(entity=entity, rules=rules, source=source,
                      parent_source=str(parent_file) if parent_file else None)
    if parent_set is not None:
        ruleset = merge_inherited(parent_set, ruleset)
    for disabled in _string_list(file_settings.get("disabled_rules"), source):
        rule = ruleset.by_name(disabled)
        if rule is None:
            raise InheritanceError(
                f"{source}: disabled_rules names unknown rule {disabled!r}"
            )
        rule.enabled = False
    return ruleset


def merge_inherited(parent: RuleSet, child: RuleSet) -> RuleSet:
    """Parent rules first; same-named child rules merge over them."""
    merged: list[Rule] = []
    child_by_name = {rule.name: rule for rule in child.rules}
    for rule in parent.rules:
        override = child_by_name.pop(rule.name, None)
        if override is None:
            merged.append(rule)
            continue
        combined_raw = yamlio.LineDict(rule.raw)
        combined_raw.update(override.raw)
        # The merged rule reads as the child's override: point at it.
        combined_raw.source_line = override.source_line or rule.source_line
        merged.append(build_rule(combined_raw, child.source))
    for rule in child.rules:
        if rule.name in child_by_name:  # genuinely new rule
            merged.append(rule)
    return RuleSet(
        entity=child.entity or parent.entity,
        rules=merged,
        source=child.source,
        parent_source=parent.source,
    )


# ---- document handling ---------------------------------------------------


def _documents(text: str, source: str) -> list:
    try:
        return [doc for doc in yamlio.load_all(text, yamlio.CvlLoader)
                if doc is not None]
    except yamlio.YAMLError as exc:
        raise CVLSyntaxError(str(exc), source) from exc


def _split(documents: list, source: str) -> tuple[dict, list[dict]]:
    """Separate file-level settings from the individual rule mappings."""
    settings: dict = {}
    mappings: list[dict] = []
    for document in documents:
        if isinstance(document, list):
            for item in document:
                _require_mapping(item, source)
                mappings.append(item)
        elif isinstance(document, dict):
            if "rules" in document or _is_file_header(document):
                for key in document:
                    if key not in _FILE_LEVEL_KEYS:
                        raise CVLSyntaxError(
                            f"unexpected file-level key {key!r}", source
                        )
                settings.update(
                    {k: v for k, v in document.items() if k != "rules"}
                )
                for item in document.get("rules", []):
                    _require_mapping(item, source)
                    mappings.append(item)
            else:
                mappings.append(document)
        else:
            raise CVLSyntaxError(
                f"expected a mapping or list, got {type(document).__name__}",
                source,
            )
    return settings, mappings


def _is_file_header(document: dict) -> bool:
    return bool(document) and set(document) <= _FILE_LEVEL_KEYS


def _require_mapping(item: object, source: str) -> None:
    if not isinstance(item, dict):
        raise CVLSyntaxError(
            f"rule entries must be mappings, got {type(item).__name__}", source
        )


# ---- rule construction ------------------------------------------------------


def build_rule(mapping: dict, source: str = "<memory>") -> Rule:
    """Validate a rule mapping and construct the typed rule object."""
    rule_type = mapping.get("rule_type") or infer_rule_type(mapping.keys())
    if rule_type is None:
        raise CVLKeywordError(
            f"{source}: cannot infer rule type; exactly one of "
            f"{sorted(NAME_KEYWORD_BY_TYPE.values())} is required "
            f"(keys: {sorted(mapping.keys())})"
        )
    if rule_type not in NAME_KEYWORD_BY_TYPE:
        raise CVLKeywordError(f"{source}: unknown rule_type {rule_type!r}")
    allowed = allowed_keywords(rule_type)
    unknown = set(mapping) - allowed
    if unknown:
        raise CVLKeywordError(
            f"{source}: unknown keyword(s) {sorted(unknown)} for "
            f"{rule_type} rule (did you mean one of {_closest(unknown, allowed)}?)"
        )
    name_key = NAME_KEYWORD_BY_TYPE[rule_type]
    name = mapping.get(name_key)
    if not name or not str(name).strip():
        raise CVLKeywordError(f"{source}: rule is missing {name_key!r}")

    common = _common_fields(mapping, rule_type, source)
    builder = {
        "tree": _build_tree,
        "schema": _build_schema,
        "path": _build_path,
        "script": _build_script,
        "composite": _build_composite,
    }[rule_type]
    return builder(str(name).strip(), mapping, common, source)


def _closest(unknown: set, allowed: frozenset) -> list[str]:
    import difflib

    suggestions: list[str] = []
    for keyword in sorted(unknown):
        suggestions.extend(difflib.get_close_matches(keyword, allowed, n=1))
    return suggestions or sorted(allowed)[:3]


def _common_fields(mapping: dict, rule_type: str, source: str) -> dict:
    severity = str(mapping.get("severity", "medium")).lower()
    if severity not in SEVERITIES:
        raise CVLKeywordError(
            f"{source}: severity {severity!r} not in {list(SEVERITIES)}"
        )
    description_key = {
        "tree": "config_description",
        "schema": "config_schema_description",
        "path": "path_description",
        "script": "script_description",
        "composite": "composite_rule_description",
    }[rule_type]
    description = str(mapping.get(description_key) or "")
    return {
        "description": description,
        "tags": _string_list(mapping.get("tags"), source),
        "severity": severity,
        "enabled": _boolean(mapping.get("enabled", True), "enabled", source),
        "suggested_action": str(mapping.get("suggested_action", "")),
        "preferred_value": _value_list(mapping.get("preferred_value")),
        "non_preferred_value": _value_list(mapping.get("non_preferred_value")),
        "preferred_match": parse_match_spec(
            mapping.get("preferred_value_match"),
            default=MatchSpec("exact", "any"),
        ),
        "non_preferred_match": parse_match_spec(
            mapping.get("non_preferred_value_match"),
            default=MatchSpec("exact", "any"),
        ),
        "matched_description": str(mapping.get("matched_description", "")),
        "not_matched_description": str(
            mapping.get("not_matched_preferred_value_description", "")
        ),
        "not_present_description": str(mapping.get("not_present_description", "")),
        "not_present_pass": _boolean(
            mapping.get("not_present_pass", False), "not_present_pass", source
        ),
        "source": source,
        "source_line": int(getattr(mapping, "source_line", 0)),
        "raw": dict(mapping),
    }


def _build_tree(name: str, mapping: dict, common: dict, source: str) -> TreeRule:
    config_path = _string_list(mapping.get("config_path", [""]), source) or [""]
    return TreeRule(
        name=name,
        config_path=config_path,
        file_context=_string_list(mapping.get("file_context"), source),
        require_other_configs=_string_list(
            mapping.get("require_other_configs"), source
        ),
        lens=str(mapping["lens"]) if mapping.get("lens") else None,
        first_match_only=_boolean(
            mapping.get("first_match_only", False), "first_match_only", source
        ),
        value_separator=(
            str(mapping["value_separator"])
            if mapping.get("value_separator") is not None
            else None
        ),
        case_insensitive=_boolean(
            mapping.get("case_insensitive", False), "case_insensitive", source
        ),
        **common,
    )


def _build_schema(name: str, mapping: dict, common: dict, source: str) -> SchemaRule:
    return SchemaRule(
        name=name,
        query_constraints=str(mapping.get("query_constraints", "")),
        query_constraints_value=_value_list(mapping.get("query_constraints_value")),
        query_columns=_columns(mapping.get("query_columns", "*")),
        schema_parser=(
            str(mapping["schema_parser"]) if mapping.get("schema_parser") else None
        ),
        file_context=_string_list(mapping.get("file_context"), source),
        **common,
    )


def _build_path(name: str, mapping: dict, common: dict, source: str) -> PathRule:
    return PathRule(
        name=name,
        ownership=_ownership(mapping.get("ownership")),
        permission=_permission(mapping.get("permission"), "permission", source),
        permission_mask=_permission(
            mapping.get("permission_mask"), "permission_mask", source
        ),
        must_exist=(
            _boolean(mapping["exists"], "exists", source)
            if "exists" in mapping
            else None
        ),
        **common,
    )


def _build_script(name: str, mapping: dict, common: dict, source: str) -> ScriptRule:
    script = str(mapping.get("script", "")).strip()
    if len(script.split(None, 1)) != 2:
        raise CVLKeywordError(
            f"{source}: script rule {name!r} needs script: '<plugin> <key>'"
        )
    return ScriptRule(name=name, script=script, **common)


def _build_composite(
    name: str, mapping: dict, common: dict, source: str
) -> CompositeRule:
    expression = str(mapping.get("composite_rule", "")).strip()
    if not expression:
        raise CVLKeywordError(
            f"{source}: composite rule {name!r} needs a composite_rule expression"
        )
    # Validate eagerly so syntax errors surface at load time, not scan time.
    from repro.cvl.composite_expr import parse_composite

    parse_composite(expression)
    return CompositeRule(name=name, expression=expression, **common)


# ---- scalar coercion helpers -----------------------------------------------


def _string_list(value: object, source: str) -> list[str]:
    if value is None:
        return []
    if isinstance(value, str):
        return [value] if value.strip() or value == "" else []
    if isinstance(value, (list, tuple)):
        return [_scalar(item) for item in value]
    raise CVLSyntaxError(f"expected a string or list, got {value!r}", source)


def _value_list(value: object) -> list[str]:
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return [_scalar(item) for item in value]
    return [_scalar(value)]


def _scalar(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _boolean(value: object, keyword: str, source: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.strip().lower() in ("true", "false"):
        return value.strip().lower() == "true"
    raise CVLKeywordError(f"{source}: {keyword} must be a boolean, got {value!r}")


def _columns(value: object) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(str(item) for item in value)
    return str(value)


def _permission(value: object, keyword: str, source: str) -> int | None:
    """Permissions are written as octal digits (``644``, ``0644`` or
    ``0o644``), whether YAML hands us an int or a string."""
    if value is None:
        return None
    if not _OCTAL.fullmatch(str(value)):
        raise CVLKeywordError(
            f"{source}: {keyword} must be octal digits, got {value!r}")
    bits = int(str(value), 8)
    if not 0 <= bits <= 0o7777:
        raise CVLKeywordError(f"{source}: {keyword} {value!r} out of range")
    return bits


def _ownership(value: object) -> str | None:
    if value is None:
        return None
    # ``0:0`` and ``33:33`` load as strings; a bare ``0`` is shorthand
    # for root's ``0:0``.
    if isinstance(value, int):
        return f"{value}:{value}" if value == 0 else str(value)
    return str(value)
