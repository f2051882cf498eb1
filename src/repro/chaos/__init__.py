"""Deterministic fault injection, deadlines, and degradation accounting.

The chaos fabric is how this codebase *proves* its robustness story:
seeded fault plans fire typed failures through the production error
paths, soft deadlines quarantine runaway frames without losing the
cycle, corrupt stores are moved aside and rebuilt, and every absorbed
fault is accounted in :class:`DegradationStats` so a partial cycle can
never masquerade as a clean one.

Hot-path contract: every injection site is guarded by
``if _CHAOS.armed`` -- one attribute read and a branch when no plan is
armed (enforced by ``benchmarks/bench_chaos.py``).
"""

from repro.chaos.deadline import RunDeadline
from repro.chaos.fabric import (
    SITES,
    ChaosAccount,
    ChaosFabric,
    ChaosPlanError,
    FaultPlan,
    FaultRule,
    _CHAOS,
    absorbed,
    arm_plan,
    chaos_site,
    disarm,
    fabric,
)
from repro.chaos.plans import NAMED_PLANS, named_plan, plan_names, resolve_plan
from repro.chaos.quarantine import is_corruption, quarantine_database
from repro.chaos.stats import DegradationStats

__all__ = [
    "SITES",
    "ChaosAccount",
    "ChaosFabric",
    "ChaosPlanError",
    "DegradationStats",
    "FaultPlan",
    "FaultRule",
    "NAMED_PLANS",
    "RunDeadline",
    "_CHAOS",
    "absorbed",
    "arm_plan",
    "chaos_site",
    "disarm",
    "fabric",
    "is_corruption",
    "named_plan",
    "plan_names",
    "quarantine_database",
    "resolve_plan",
]
