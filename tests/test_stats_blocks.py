"""Stats blocks: each statistic is declared once, as one field.

A field declared with ``stat`` appears in ``to_dict``, adds up in
``merge`` and, when it names a metric, is published -- with no other
code.  Per-run blocks add to their families; snapshot blocks, read by
scrape-time collectors, set them.
"""

from dataclasses import dataclass

from repro.chaos.stats import DegradationStats
from repro.engine.incremental import IncrementalRunStats, StoreStats
from repro.engine.parse_cache import CacheStats
from repro.engine.plan import PlanCacheStats, PlanRunStats
from repro.telemetry import MetricsRegistry
from repro.telemetry.export import render_prometheus
from repro.telemetry.stats import publish_on_scrape, stat


@dataclass
class WidenedPlanStats(PlanRunStats):
    rules_widened: int = stat("repro_rules_widened_total",
                              "Rules widened by the planner.")


def test_one_new_field_is_reported_merged_and_published():
    total = WidenedPlanStats(rules_fused=2, rules_widened=3)
    total.merge(WidenedPlanStats(rules_fused=1, rules_widened=4))
    assert (total.rules_fused, total.rules_widened) == (3, 7)
    assert total.to_dict()["rules_widened"] == 7
    assert total.to_dict()["fusion_ratio"] == 1.0   # inherited ratio
    registry = MetricsRegistry()
    total.publish(registry)
    total.publish(registry)
    text = render_prometheus(registry)
    assert "# HELP repro_rules_widened_total Rules widened by the planner." \
        in text
    assert "repro_rules_widened_total 14" in text
    assert "repro_plan_rules_fused_total 6" in text


def test_snapshot_blocks_set_their_families():
    registry = MetricsRegistry()
    stats = StoreStats(entries=4, composites=1, hits=9)
    publish_on_scrape(registry, lambda: stats)
    render_prometheus(registry)
    text = render_prometheus(registry)
    assert "repro_verdict_store_hits_total 9" in text
    assert "repro_verdict_store_entries 5" in text   # derived: both kinds
    assert "# TYPE repro_verdict_store_entries gauge" in text


def test_by_key_counts_publish_one_sample_per_key():
    registry = MetricsRegistry()
    stats = DegradationStats(faults_injected={"fs.read": 2, "parse": 1},
                             frames_quarantined=1)
    stats.publish(registry)
    injected = registry.counter("repro_chaos_faults_injected_total",
                                labels=("site",))
    assert injected.value(site="fs.read") == 2
    assert injected.value(site="parse") == 1
    assert registry.counter("repro_degraded_cycles_total").value() == 1
    merged = DegradationStats(faults_injected={"parse": 2})
    merged.merge(stats)
    assert merged.faults_injected == {"parse": 3, "fs.read": 2}
    assert list(stats.to_dict()) == [
        "plan", "faults_injected", "faults_absorbed", "frames_quarantined",
        "deadline_cancellations", "stores_quarantined"]


def test_merge_leaves_flags_names_and_snapshots_alone():
    store = StoreStats(hits=1)
    total = IncrementalRunStats(active=False, reason="off", rules_replayed=1,
                                store=store)
    total.merge(IncrementalRunStats(rules_replayed=2, composites_replayed=1,
                                    store=StoreStats(hits=5)))
    assert (total.active, total.reason, total.store) == (False, "off", store)
    assert total.rules_skipped == 4
    assert total.to_dict()["store"] == store.to_dict()


def test_dict_keys_the_benchmarks_write():
    """``bench_rule_plan.py`` and ``bench_incremental.py`` write these."""
    assert set(PlanRunStats(cache=PlanCacheStats()).to_dict()) == {
        "rules_fused", "rules_direct", "rules_fallback", "units_evaluated",
        "files_traversed", "traversals_saved", "fusion_ratio", "cache"}
    assert set(StoreStats().to_dict()) == {
        "entries", "composites", "presence", "hits", "misses", "hit_rate",
        "invalidations"}
    assert CacheStats(hits=1, misses=2).to_dict()["hit_rate"] == 0.3333
