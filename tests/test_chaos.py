"""Chaos fabric: deterministic injection, degraded-but-accounted cycles.

The contract under test: with a fault plan armed, a scan cycle always
terminates, every injected fault is absorbed and accounted, stores
quarantine-and-rebuild instead of dying, and frames the plan could not
have touched produce byte-identical results to a fault-free run -- at
any worker count.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos.fabric import (
    ChaosFabric,
    ChaosPlanError,
    FaultPlan,
    FaultRule,
    arm_plan,
    disarm,
    fabric,
)
from repro.chaos.plans import named_plan, plan_names, resolve_plan
from repro.chaos.quarantine import is_corruption, quarantine_database
from repro.chaos.runner import run_chaos
from repro.crawler import Crawler
from repro.engine import render_json, render_text
from repro.engine.batch import BatchScanner, ScanStageError
from repro.engine.incremental import VerdictStore
from repro.history import HistoryStore
from repro.history.events import HealthEvent, WebhookSink
from repro.rules import load_builtin_validator
from repro.util import RetryError, retry_with_backoff
from repro.workloads import ubuntu_host_entity


@pytest.fixture(autouse=True)
def disarmed():
    """Every test starts and ends with the fabric at rest."""
    disarm()
    yield
    disarm()


@pytest.fixture(scope="module")
def host_frame():
    return Crawler().crawl(
        ubuntu_host_entity("chaos-host", hardening=0.5, seed=5,
                           with_nginx=True, with_mysql=True)
    )


def _plan(*rules, seed=42, name="test"):
    return FaultPlan(name=name, seed=seed,
                     rules=tuple(FaultRule(**r) for r in rules))


# ---------------------------------------------------------------------------
# Fabric semantics


class TestFabricDeterminism:
    def test_same_seed_same_decisions(self):
        decisions = []
        for _ in range(2):
            fab = ChaosFabric()
            fab.arm(_plan({"site": "fs.read", "probability": 0.5}))
            run = [fab._draw("fs.read", f"/etc/f{i}") is not None
                   for i in range(64)]
            decisions.append(run)
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_different_seed_different_decisions(self):
        runs = {}
        for seed in (1, 2):
            fab = ChaosFabric()
            fab.arm(_plan({"site": "fs.read", "probability": 0.5},
                          seed=seed))
            runs[seed] = tuple(fab._draw("fs.read", f"/etc/f{i}") is not None
                               for i in range(64))
        assert runs[1] != runs[2]

    def test_count_caps_fires(self):
        fab = ChaosFabric()
        fab.arm(_plan({"site": "fs.read", "count": 3}))
        fired = sum(fab._draw("fs.read", "/etc/x") is not None
                    for _ in range(10))
        assert fired == 3

    def test_match_scopes_fires(self):
        fab = ChaosFabric()
        fab.arm(_plan({"site": "fs.read", "match": "*/nginx.conf"}))
        assert fab._draw("fs.read", "/etc/nginx/nginx.conf") is not None
        assert fab._draw("fs.read", "/etc/mysql/my.cnf") is None

    def test_fire_injects_typed_absorbable_error(self):
        from repro.errors import FileNotFoundInFrame

        arm_plan(_plan({"site": "fs.read"}))
        with pytest.raises(FileNotFoundInFrame):
            fabric().fire("fs.read", "/etc/passwd")
        account = fabric().account
        assert account.totals.faults_injected == {"fs.read": 1}
        assert account.totals.fired == [("fs.read", "/etc/passwd")]

    def test_store_error_is_sqlite_error(self):
        arm_plan(_plan({"site": "store.sqlite"}))
        with pytest.raises(sqlite3.Error) as excinfo:
            fabric().fire("store.sqlite", "/tmp/db")
        assert is_corruption(excinfo.value)

    def test_unknown_plan_name(self):
        with pytest.raises(ChaosPlanError):
            resolve_plan("no-such-plan")

    def test_shipped_plans_resolve(self):
        for name in plan_names():
            plan = named_plan(name)
            assert plan.name == name and plan.rules


# ---------------------------------------------------------------------------
# retry_with_backoff


class TestRetryWithBackoff:
    def test_succeeds_after_retries(self):
        sleeps = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        assert retry_with_backoff(flaky, attempts=5, base_delay_s=0.1,
                                  label="t", sleep=sleeps.append) == "ok"
        assert calls["n"] == 3 and len(sleeps) == 2
        assert all(0 <= s <= 0.4 for s in sleeps)

    def test_raises_retry_error_after_attempts(self):
        def dead():
            raise OSError("down")

        with pytest.raises(RetryError) as excinfo:
            retry_with_backoff(dead, attempts=3, base_delay_s=0.0,
                               label="dead-endpoint", sleep=lambda _s: None)
        err = excinfo.value
        assert err.attempts == 3 and isinstance(err.last, OSError)
        assert "dead-endpoint" in str(err)

    def test_non_retryable_raises_through(self):
        def boom():
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            retry_with_backoff(boom, attempts=3, retry_on=(OSError,),
                               label="t", sleep=lambda _s: None)

    def test_on_retry_hook_sees_each_failure(self):
        seen = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("once")

        retry_with_backoff(flaky, attempts=2, base_delay_s=0.0, label="t",
                           sleep=lambda _s: None,
                           on_retry=lambda n, e, d: seen.append((n, type(e))))
        assert seen == [(1, OSError)]

    def test_deadline_cuts_attempts_short(self):
        def dead():
            raise OSError("down")

        with pytest.raises(RetryError) as excinfo:
            retry_with_backoff(dead, attempts=100, base_delay_s=10.0,
                               deadline_s=0.0, label="t",
                               sleep=lambda _s: None)
        assert excinfo.value.attempts < 100


# ---------------------------------------------------------------------------
# Differential: unaffected frames byte-identical, at 1 and 8 workers


class TestDifferential:
    @pytest.mark.parametrize("workers", (1, 8))
    def test_fs_error_blast_radius(self, workers):
        result = run_chaos("fs-error", workers=workers, size=3)
        assert result.ok, result.render()
        assert result.degradation.total_injected > 0
        assert result.affected_frames  # nginx frames differ, others don't
        assert not result.unexpected_diffs

    def test_parser_crash(self):
        result = run_chaos("parser-crash", workers=2, size=3)
        assert result.ok, result.render()
        assert result.degradation.faults_injected.get("lens.parse", 0) > 0

    def test_store_corruption_quarantines_and_rebuilds(self):
        result = run_chaos("store-corruption", workers=2, size=2)
        assert result.ok, result.render()
        assert result.degradation.stores_quarantined >= 1
        assert not result.affected_frames

    def test_clock_skew_absorbed(self):
        result = run_chaos("clock-skew", workers=2, size=2)
        assert result.ok, result.render()
        assert result.degradation.faults_injected.get("clock.skew", 0) >= 1

    def test_null_plan_no_faults_no_diffs(self):
        result = run_chaos("null", workers=2, size=2)
        assert result.ok, result.render()
        assert result.degradation.total_injected == 0
        assert not result.affected_frames and not result.unexpected_diffs


class TestCleanRunByteIdentity:
    def test_armed_null_plan_output_identical(self, host_frame):
        validator = load_builtin_validator()
        try:
            clean = validator.validate_frame(host_frame)
            clean_text = render_text(clean, verbose=True)
            clean_json = render_json(clean)
        finally:
            validator.close()
        arm_plan(resolve_plan("null"))
        validator = load_builtin_validator()
        try:
            armed = validator.validate_frame(host_frame)
        finally:
            validator.close()
            disarm()
        assert render_text(armed, verbose=True) == clean_text
        assert render_json(armed) == clean_json
        assert "degraded" not in json.loads(clean_json)


# ---------------------------------------------------------------------------
# Deadlines


class TestDeadlines:
    def test_frame_deadline_quarantines_frames(self, host_frame):
        validator = load_builtin_validator(frame_deadline_s=0.0)
        try:
            report = validator.validate_frame(host_frame)
        finally:
            validator.close()
        degradation = report.degradation
        assert degradation is not None and degradation.degraded
        assert degradation.deadline_cancellations > 0
        cancelled = [r for r in report
                     if "cancelled: deadline exceeded" in r.message]
        assert cancelled
        doc = json.loads(render_json(report))
        assert doc["degraded"] is True

    def test_cycle_deadline_cycle_terminates(self, host_frame):
        arm_plan(_plan({"site": "rule.eval", "mode": "delay",
                        "delay_s": 0.05}))
        validator = load_builtin_validator(deadline_s=0.2)
        started = time.perf_counter()
        try:
            report = validator.validate_frame(host_frame)
        finally:
            validator.close()
            disarm()
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        assert len(report) > 0
        degradation = report.degradation
        assert degradation is not None
        assert degradation.deadline_cancellations > 0

    def test_cancelled_results_not_persisted(self, host_frame):
        store = VerdictStore()
        validator = load_builtin_validator(frame_deadline_s=0.0,
                                           verdict_store=store)
        try:
            validator.validate_frame(host_frame)
        finally:
            validator.close()
        # The next full-budget cycle re-evaluates: nothing replays as a
        # cancelled ERROR.
        validator = load_builtin_validator(verdict_store=store)
        try:
            report = validator.validate_frame(host_frame)
        finally:
            validator.close()
        assert not [r for r in report
                    if "cancelled: deadline exceeded" in r.message]


# ---------------------------------------------------------------------------
# Store quarantine


class TestStoreQuarantine:
    def test_history_store_corrupt_db_quarantined(self, tmp_path):
        path = tmp_path / "history.sqlite"
        path.write_bytes(b"garbage" * 100)
        store = HistoryStore(str(path))
        try:
            store.record_scan_error("smoke", stage="crawl")
            assert len(store.cycles()) == 1
        finally:
            store.close()
        assert list(tmp_path.glob("history.sqlite.quarantined.*"))

    def test_quarantine_missing_file_counts_only(self):
        before = fabric().account.snapshot()
        assert quarantine_database("/nonexistent/nowhere.db",
                                   reason="test") is None
        delta = fabric().account.delta_since(before)
        assert delta.stores_quarantined == 1


# ---------------------------------------------------------------------------
# Webhook chaos + scan-error attribution


class TestWebhookChaos:
    def _event(self):
        return [HealthEvent(kind="fix", cycle_id=1, target="t",
                            entity="e", rule="r")]

    def test_injected_failure_accounted_on_drop(self):
        arm_plan(_plan({"site": "webhook.send"}))
        sink = WebhookSink("http://127.0.0.1:9/hook", timeout=0.2,
                           retries=1, backoff_s=0.0, sleep=lambda _s: None)
        sink.emit_many(self._event())
        account = fabric().account
        assert sink.failed_batches == 1
        assert account.totals.faults_injected.get("webhook.send", 0) > 0
        assert (account.totals.faults_absorbed.get("webhook.send", 0)
                == account.totals.faults_injected.get("webhook.send", 0))

    def test_injected_failure_absorbed_by_retry(self, monkeypatch):
        # Fault fires on the first post only (count=1): the retry
        # succeeds and the absorption is credited by the backoff hook.
        arm_plan(_plan({"site": "webhook.send", "count": 1}))
        sink = WebhookSink("http://127.0.0.1:9/hook", timeout=0.2,
                           retries=2, backoff_s=0.0, sleep=lambda _s: None)

        def fake_urlopen(request, timeout):
            class _Resp:
                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    return False

                def read(self):
                    return b"ok"

            return _Resp()

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        sink.emit_many(self._event())
        account = fabric().account
        assert sink.delivered == 1 and sink.failed_batches == 0
        assert account.totals.faults_absorbed.get("webhook.send", 0) == 1


class TestScanErrorAttribution:
    def test_crawl_failure_names_stage_and_frame(self):
        class ExplodingEntity:
            name = "bad-entity"
            kind = "container"

            def describe(self):
                return "container:bad-entity"

            def filesystem(self):
                raise RuntimeError("containerd gone")

            def package_db(self):
                return None

        validator = load_builtin_validator()
        scanner = BatchScanner(validator)
        try:
            with pytest.raises(ScanStageError) as excinfo:
                scanner.scan_entities([ExplodingEntity()])
        finally:
            validator.close()
        assert excinfo.value.stage == "crawl"

    def test_history_row_carries_stage_and_frame(self):
        with HistoryStore() as store:
            store.record_scan_error("RuntimeError: crawl died",
                                    stage="crawl",
                                    frame="container:web-1")
            row = store.cycles()[0]
        assert row.scan_error_stage == "crawl"
        assert row.scan_error_frame == "container:web-1"
        doc = row.to_dict()
        assert doc["scan_error_stage"] == "crawl"
        assert doc["scan_error_frame"] == "container:web-1"


# ---------------------------------------------------------------------------
# Monitor SIGTERM (subprocess; unix only)


@pytest.mark.skipif(not hasattr(signal, "SIGTERM") or os.name == "nt",
                    reason="POSIX signals required")
def test_monitor_sigterm_graceful(tmp_path):
    db = tmp_path / "history.sqlite"
    events = tmp_path / "events.ndjson"
    env = dict(os.environ)
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "monitor",
         "--scenario", "host", "--size", "1", "--interval", "60",
         "--history-db", str(db), "--events-out", str(events)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        text=True,
    )
    try:
        deadline = time.time() + 60
        # Wait for the first cycle to land before signalling.
        while time.time() < deadline:
            if db.exists():
                try:
                    with HistoryStore(str(db)) as store:
                        if store.cycles():
                            break
                except sqlite3.Error:
                    pass
            time.sleep(0.2)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert "SIGTERM received" in stderr
    assert "monitor:" in stdout  # final stats flushed
    with HistoryStore(str(db)) as store:
        assert store.cycles()  # history intact after shutdown


# ---------------------------------------------------------------------------
# Never-hang property


@st.composite
def small_plans(draw):
    sites = draw(st.lists(
        st.sampled_from(("fs.read", "lens.parse", "rule.eval")),
        min_size=1, max_size=3, unique=True))
    rules = tuple(
        FaultRule(site=site,
                  probability=draw(st.floats(min_value=0.0, max_value=1.0)),
                  count=draw(st.integers(min_value=0, max_value=4)))
        for site in sites
    )
    return FaultPlan(name="prop", seed=draw(st.integers(0, 2 ** 16)),
                     rules=rules)


class TestNeverHang:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(plan=small_plans())
    def test_cycle_terminates_and_accounts(self, plan, host_frame):
        frame = host_frame
        arm_plan(plan)
        validator = load_builtin_validator()
        try:
            report = validator.validate_frame(frame)
        finally:
            validator.close()
            disarm()
        assert len(report) > 0
        degradation = report.degradation
        assert degradation is not None
        assert degradation.total_absorbed == degradation.total_injected


# ---------------------------------------------------------------------------
# Reporting surfaces


class TestDegradationReporting:
    def test_junit_degraded_property(self, host_frame):
        from repro.engine.report import render_junit

        arm_plan(_plan({"site": "fs.read"}))
        validator = load_builtin_validator()
        try:
            report = validator.validate_frame(host_frame)
        finally:
            validator.close()
            disarm()
        xml = render_junit(report)
        assert '<property name="degraded" value="true"/>' in xml

    def test_stats_render_and_dict_round_trip(self):
        account = fabric().account
        before = account.snapshot()
        account.note_injected("fs.read", "/etc/x")
        account.note_absorbed("fs.read")
        account.note_frame_quarantined()
        stats = account.delta_since(before)
        stats.plan = "unit"
        assert stats.degraded
        assert stats.total_injected == 1 == stats.total_absorbed
        doc = stats.to_dict()
        assert doc["plan"] == "unit"
        assert doc["frames_quarantined"] == 1
        assert "degradation:" in stats.render()
