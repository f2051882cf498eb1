"""Shipped, named fault plans.

Each plan targets one injection site with deterministic (probability
1.0, match-scoped, count-capped) rules, so a ``repro chaos`` run under
it is exactly reproducible: the same faults fire on the same keys every
run, which is what lets the runner assert that unaffected frames are
byte-identical to a fault-free cycle.

``resolve_plan`` accepts either a shipped name or a path to a JSON plan
file (anything containing a path separator or ending in ``.json``).
"""

from __future__ import annotations

import os

from repro.chaos.fabric import ChaosPlanError, FaultPlan

#: The shipped plan documents.  Matches are scoped to files the demo
#: fleet actually contains, so every plan demonstrably fires there.
NAMED_PLANS: dict[str, dict] = {
    # Unreadable file: every read of nginx.conf fails the way a torn
    # bind-mount would.  Absorbed as a per-file parse error; frames
    # without that file are untouched.
    "fs-error": {
        "name": "fs-error",
        "seed": 101,
        "rules": [
            {"site": "fs.read", "match": "*/etc/nginx/nginx.conf"},
        ],
    },
    # Hung/crashing parser on mysql configs: the lens raises instead of
    # returning a tree.  Absorbed as a parse error on that file.
    "parser-crash": {
        "name": "parser-crash",
        "seed": 211,
        "rules": [
            {"site": "lens.parse", "match": "*/etc/mysql/my.cnf"},
        ],
    },
    # Corrupt history store: the first store open reports a malformed
    # database; the guard quarantines the file and reopens cold.
    # Verdicts never depend on the store, so no frame changes.
    "store-corruption": {
        "name": "store-corruption",
        "seed": 401,
        "rules": [
            {"site": "store.sqlite", "match": "*", "count": 1},
        ],
    },
    # A wall clock two minutes fast: cycle start stamps skew, exercising
    # every duration computation.  Fully absorbed.
    "clock-skew": {
        "name": "clock-skew",
        "seed": 503,
        "rules": [
            {"site": "clock.skew", "match": "*",
             "mode": "skew", "skew_s": 120.0},
        ],
    },
    # Slow rules: injected latency on one entity's evaluations, for
    # exercising frame deadlines without a pathological workload.
    "slow-rules": {
        "name": "slow-rules",
        "seed": 601,
        "rules": [
            {"site": "rule.eval", "match": "*", "mode": "delay",
             "delay_s": 0.02, "probability": 0.25},
        ],
    },
    # Every site armed, nothing ever fires: the disarmed-overhead bench
    # gate uses this to price the per-site dispatch beyond the armed
    # flag itself.
    "null": {
        "name": "null",
        "seed": 0,
        "rules": [
            {"site": "fs.read", "probability": 0.0},
            {"site": "lens.parse", "probability": 0.0},
            {"site": "rule.eval", "probability": 0.0},
            {"site": "store.sqlite", "probability": 0.0},
            {"site": "webhook.send", "probability": 0.0},
            {"site": "clock.skew", "probability": 0.0, "mode": "skew"},
        ],
    },
}


def plan_names() -> list[str]:
    return sorted(NAMED_PLANS)


def named_plan(name: str) -> FaultPlan:
    try:
        doc = NAMED_PLANS[name]
    except KeyError:
        raise ChaosPlanError(
            f"unknown fault plan {name!r}; shipped plans: "
            + ", ".join(plan_names())
        ) from None
    return FaultPlan.from_dict(doc)


def resolve_plan(name_or_path: str) -> FaultPlan:
    """A shipped plan by name, or a plan document by path."""
    looks_like_path = (
        os.sep in name_or_path
        or name_or_path.endswith(".json")
        or os.path.exists(name_or_path)
    )
    if looks_like_path:
        return FaultPlan.from_file(name_or_path)
    return named_plan(name_or_path)
