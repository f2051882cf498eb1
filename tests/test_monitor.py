"""FleetMonitor contract tests.

The acceptance bar for the monitor (ISSUE 4):

* its regression/fix events must *exactly* match what
  :func:`repro.engine.drift.diff_reports` computes between consecutive
  cycle reports;
* its per-cycle report must stay byte-identical to a standalone
  ``repro validate`` of the same fleet state at any worker count --
  monitoring is observation, never perturbation;
* ``/metrics`` and ``/status`` must be scrapeable *while* the loop is
  running;
* flap detection must agree with a brute-force sliding-window oracle on
  randomized verdict oscillations (hypothesis).
"""

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings, strategies as st

from repro.crawler import ContainerEntity, Crawler, DockerImageEntity
from repro.crawler.serialize import dump_frame, load_frame
from repro.engine import render_json
from repro.engine.batch import BatchScanner
from repro.engine.drift import diff_reports
from repro.history import (
    EventLog,
    FlapDetector,
    FleetMonitor,
    HealthAnalyzer,
    HealthEvent,
    HistoryStore,
    MonitorConfig,
    WebhookSink,
    count_transitions,
)
from repro.rules import load_builtin_validator
from repro.telemetry import Telemetry
from repro.workloads import FleetSpec, build_fleet, ubuntu_host_entity

SSHD = "/etc/ssh/sshd_config"


@pytest.fixture(scope="module")
def base_blobs():
    """A small serialized fleet: 1 image, 1 container, 1 host."""
    _daemon, images, containers = build_fleet(
        FleetSpec(images=1, containers_per_image=1, misconfig_rate=0.3,
                  seed=9)
    )
    entities = [DockerImageEntity(i) for i in images]
    entities += [ContainerEntity(c) for c in containers]
    entities.append(
        ubuntu_host_entity("mon-host", hardening=0.8, seed=4)
    )
    return [dump_frame(frame) for frame in Crawler().crawl_many(entities)]


def _host_frame(frames):
    for frame in frames:
        if frame.files.exists(SSHD):
            return frame
    raise AssertionError("no frame with an sshd_config")


def _fleet_state(blobs, cycle_no):
    """Fresh frames for one cycle: cycle 2 regresses sshd, 3+ reverts."""
    frames = [load_frame(blob) for blob in blobs]
    if cycle_no == 2:
        host = _host_frame(frames)
        text = host.files.read_text(SSHD)
        host.files.write_file(
            SSHD,
            text.replace("PermitRootLogin no", "PermitRootLogin yes")
            + "\nPasswordAuthentication yes\n",
        )
    return frames


def _make_monitor(blobs, store, *, cycles, workers=1, telemetry=None,
                  sinks=(), reports=None, provider=None, **config):
    scanner = BatchScanner(load_builtin_validator(),
                           telemetry=telemetry or Telemetry())

    def on_cycle(_cycle_no, cycle_id, summary, events):
        if reports is not None:
            reports.append((cycle_id, summary, list(events)))

    return FleetMonitor(
        scanner, store,
        frames_provider=provider or (lambda n: _fleet_state(blobs, n)),
        config=MonitorConfig(interval_s=0.0, max_cycles=cycles,
                             workers=workers, **config),
        sinks=sinks,
        on_cycle=on_cycle,
    )


def _drift_events(reports):
    """The oracle: diff consecutive reports exactly as ``repro drift``
    would, keyed the same way the monitor's events are."""
    expected = []
    for previous, current in zip(reports, reports[1:]):
        drift = diff_reports(previous, current)
        for kind, entries in (("regression", drift.regressions()),
                              ("fix", drift.fixes())):
            for entry in entries:
                expected.append((
                    kind, entry.target, entry.entity, entry.rule_name,
                    entry.before.value if entry.before else "",
                    entry.after.value if entry.after else "",
                    entry.severity, entry.message,
                ))
    return expected


def _event_tuples(events):
    return [(e.kind, e.target, e.entity, e.rule, e.before, e.after,
             e.severity, e.message)
            for e in events if e.kind in ("regression", "fix")]


class TestEventStream:
    def test_events_exactly_match_diff_reports(self, base_blobs):
        reports = []
        with HistoryStore() as store:
            monitor = _make_monitor(base_blobs, store, cycles=4,
                                    reports=reports)
            stats = monitor.run()
        assert stats.cycles == 4 and stats.scan_errors == 0
        observed = [event for _id, _summary, events in reports
                    for event in events]
        expected = _drift_events(
            [summary.report for _id, summary, _events in reports]
        )
        assert _event_tuples(observed) == expected
        # The scripted mutation must actually produce both event kinds.
        kinds = {event.kind for event in observed}
        assert "regression" in kinds and "fix" in kinds

    def test_events_persist_to_ndjson(self, base_blobs, tmp_path):
        path = str(tmp_path / "events.ndjson")
        reports = []
        with HistoryStore() as store, EventLog(path) as event_log:
            monitor = _make_monitor(base_blobs, store, cycles=3,
                                    sinks=(event_log,), reports=reports)
            monitor.run()
        emitted = [event for _id, _summary, events in reports
                   for event in events]
        assert emitted, "mutation produced no events"
        replayed = EventLog.read(path)
        assert [e.to_dict() for e in replayed] \
            == [e.to_dict() for e in emitted]

    def test_failing_sink_is_survived(self, base_blobs, kept_log_records):
        class BrokenSink:
            def emit_many(self, events):
                raise RuntimeError("sink down")

        with HistoryStore() as store:
            monitor = _make_monitor(base_blobs, store, cycles=3,
                                    sinks=(BrokenSink(),))
            stats = monitor.run()
        assert stats.cycles == 3 and stats.scan_errors == 0
        assert stats.events > 0
        warnings = [record.getMessage() for record in kept_log_records]
        assert "event sink 'BrokenSink' failed: sink down" in warnings
        # A kept record must not pin the exception and its traceback.
        assert not [arg for record in kept_log_records
                    for arg in record.args if isinstance(arg, BaseException)]

    def test_scan_error_is_survived(self, base_blobs):
        def provider(cycle_no):
            if cycle_no == 2:
                raise RuntimeError("crawler exploded")
            return _fleet_state(base_blobs, 1)

        reports = []
        with HistoryStore() as store:
            monitor = _make_monitor(base_blobs, store, cycles=3,
                                    reports=reports, provider=provider)
            stats = monitor.run()
            error_rows = [row for row in store.cycles()
                          if row.failed_cycle]
        assert stats.cycles == 3
        assert stats.scan_errors == 1
        assert stats.events_by_kind.get("scan_error") == 1
        # The error cycle is a row; the next good cycle diffs against
        # the last good one, so the identical fleet produces no events.
        _id, summary, events = reports[-1]
        assert summary is not None and events == []
        assert len(error_rows) == 1
        assert error_rows[0].scan_error.startswith("RuntimeError")

    def test_restart_diffs_against_stored_cycle(self, base_blobs):
        """Across a daemon restart the first diff runs on stored
        verdicts and must classify identically to a live diff, severity
        and message included."""
        reports = []
        with HistoryStore() as store:
            first = _make_monitor(base_blobs, store, cycles=1,
                                  reports=reports)
            first.run()
            # "Restart": a brand-new monitor + analyzer on the same
            # store observes the mutated fleet as its first cycle.
            second = _make_monitor(
                base_blobs, store, cycles=1, reports=reports,
                provider=lambda _n: _fleet_state(base_blobs, 2),
            )
            second.run()
        live_expected = _drift_events(
            [summary.report for _id, summary, _events in reports]
        )
        _id, _summary, restart_events = reports[-1]
        assert _event_tuples(restart_events) == live_expected
        assert live_expected, "restart cycle produced no drift"
        assert all(event[-1] for event in live_expected), \
            "every regression and fix carries its result's message"


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_final_report_matches_standalone_validate(self, base_blobs,
                                                      workers):
        with HistoryStore() as store:
            monitor = _make_monitor(base_blobs, store, cycles=3,
                                    workers=workers)
            monitor.run()
            monitored = render_json(monitor.last_summary.report)
        reference = load_builtin_validator().validate_frames(
            _fleet_state(base_blobs, 3), workers=1
        )
        assert monitored == render_json(reference)


class TestLiveEndpoint:
    def test_endpoints_scrapeable_mid_run(self, base_blobs):
        with HistoryStore() as store:
            monitor = _make_monitor(base_blobs, store, cycles=6,
                                    status_cycles=4)
            monitor.config.interval_s = 0.25
            server = monitor.serve(0)
            thread = threading.Thread(target=monitor.run)
            thread.start()
            try:
                base = f"http://127.0.0.1:{server.port}"
                deadline = time.time() + 30
                while not monitor.ready and time.time() < deadline:
                    time.sleep(0.02)
                assert monitor.ready, "no cycle completed in 30s"
                assert thread.is_alive(), "loop ended before the scrape"

                with urllib.request.urlopen(f"{base}/healthz") as response:
                    assert response.read() == b"ok\n"
                with urllib.request.urlopen(f"{base}/readyz") as response:
                    assert response.read() == b"ready\n"
                with urllib.request.urlopen(f"{base}/status") as response:
                    status = json.loads(response.read())
                assert status["ready"] is True
                assert status["cycles_completed"] >= 1
                assert status["max_cycles"] == 6
                assert status["last_cycle"]["checks"] > 0
                with urllib.request.urlopen(f"{base}/metrics") as response:
                    metrics = response.read().decode("utf-8")
                assert "repro_monitor_cycles_total" in metrics
                assert "repro_history_db_cycles" in metrics
                assert "repro_fleet_compliance_ratio" in metrics
                with urllib.request.urlopen(f"{base}/history") as response:
                    history = json.loads(response.read())
                assert 1 <= len(history["cycles"]) <= 4
                assert history["targets"]
            finally:
                monitor.request_stop()
                thread.join()
                server.close()

    def test_readyz_503_before_first_cycle(self, base_blobs):
        with HistoryStore() as store:
            monitor = _make_monitor(base_blobs, store, cycles=1)
            server = monitor.serve(0)
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(
                        f"http://127.0.0.1:{server.port}/readyz"
                    )
                assert excinfo.value.code == 503
            finally:
                server.close()


class _WebhookReceiver(BaseHTTPRequestHandler):
    batches: list[dict] = []
    failures_left = 0

    def do_POST(self):  # noqa: N802 (http.server naming)
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if type(self).failures_left > 0:
            type(self).failures_left -= 1
            self.send_response(500)
            self.end_headers()
            return
        type(self).batches.append(json.loads(body))
        self.send_response(200)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture()
def webhook_server():
    _WebhookReceiver.batches = []
    _WebhookReceiver.failures_left = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _WebhookReceiver)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/hook", _WebhookReceiver
    server.shutdown()
    server.server_close()


class TestWebhookSink:
    def _events(self):
        return [HealthEvent(kind="regression", cycle_id=7, target="t",
                            entity="e", rule="r", before="compliant",
                            after="noncompliant")]

    def test_delivers_batch(self, webhook_server):
        url, receiver = webhook_server
        sink = WebhookSink(url, timeout=5.0)
        events = self._events()
        sink.emit_many(events)
        assert sink.delivered == 1 and sink.failed_batches == 0
        assert receiver.batches == [
            {"events": [events[0].to_dict()]}
        ]

    def test_retries_then_succeeds(self, webhook_server):
        url, receiver = webhook_server
        receiver.failures_left = 1
        sink = WebhookSink(url, timeout=5.0, retries=2, backoff_s=0.01)
        sink.emit_many(self._events())
        assert sink.delivered == 1 and sink.failed_batches == 0

    def test_dead_endpoint_never_raises(self):
        sink = WebhookSink("http://127.0.0.1:9/hook", timeout=0.2,
                           retries=1, backoff_s=0.0)
        sink.emit_many(self._events())
        assert sink.delivered == 0 and sink.failed_batches == 1


class TestFlapDetection:
    def test_oscillation_starts_then_stability_ends_a_flap(self):
        detector = FlapDetector(window=6, min_transitions=3)
        key = ("host:a", "sshd", "root-login")
        verdicts = ["compliant", "noncompliant", "compliant",
                    "noncompliant"]
        events = [detector.observe_cycle({key: v}) for v in verdicts]
        assert events[-1] == ([key], [])          # 3rd transition: start
        assert detector.flapping() == [key]
        stable = [detector.observe_cycle({key: "noncompliant"})
                  for _ in range(5)]
        # The flap ends exactly once, when the oscillation scrolls out
        # of the window, and never restarts.
        assert [ends for _starts, ends in stable].count([key]) == 1
        assert all(starts == [] for starts, _ends in stable)
        assert detector.flapping() == []

    def test_disappearing_key_ends_its_flap(self):
        detector = FlapDetector(window=4, min_transitions=2)
        key = ("host:a", "sshd", "root-login")
        for verdict in ("compliant", "noncompliant", "compliant"):
            detector.observe_cycle({key: verdict})
        assert detector.flapping() == [key]
        starts, ends = detector.observe_cycle({})
        assert (starts, ends) == ([], [key])
        assert detector.series(key) == ()

    @settings(max_examples=60, deadline=None)
    @given(
        verdicts=st.lists(
            st.sampled_from(["compliant", "noncompliant", "error"]),
            min_size=1, max_size=40,
        ),
        window=st.integers(min_value=2, max_value=8),
        data=st.data(),
    )
    def test_matches_sliding_window_oracle(self, verdicts, window, data):
        """At every step, flapping state equals the brute-force oracle
        (>= min_transitions changes within the last ``window``
        verdicts), and start/end events are exactly its transitions."""
        min_transitions = data.draw(
            st.integers(min_value=1, max_value=window - 1)
        )
        detector = FlapDetector(window=window,
                                min_transitions=min_transitions)
        key = ("f", "e", "r")
        was_flapping = False
        for step, verdict in enumerate(verdicts):
            starts, ends = detector.observe_cycle({key: verdict})
            tail = verdicts[max(0, step + 1 - window):step + 1]
            oracle = count_transitions(tail) >= min_transitions
            assert (key in detector.flapping()) == oracle
            assert starts == ([key] if oracle and not was_flapping else [])
            assert ends == ([key] if was_flapping and not oracle else [])
            was_flapping = oracle

    def test_monitor_emits_flap_events_for_oscillating_rule(
            self, base_blobs):
        """End to end: a fleet whose sshd posture oscillates every cycle
        must surface flap_start through the monitor."""
        reports = []
        with HistoryStore() as store:
            monitor = _make_monitor(
                base_blobs, store, cycles=5, reports=reports,
                provider=lambda n: _fleet_state(base_blobs,
                                                2 if n % 2 == 0 else 1),
                flap_window=4, flap_min_transitions=3,
            )
            stats = monitor.run()
        assert stats.events_by_kind.get("flap_start", 0) >= 1
        flapping = monitor.analyzer.flapping_details()
        assert flapping
        assert all(entry["transitions"] >= 3 for entry in flapping)

    def test_detector_parameter_validation(self):
        with pytest.raises(ValueError):
            FlapDetector(window=1)
        with pytest.raises(ValueError):
            FlapDetector(window=4, min_transitions=4)


class TestAnalyzerRehydration:
    def test_seeded_detector_resumes_mid_streak(self, base_blobs):
        """Rehydration from the store must not re-announce flaps the
        previous process already reported."""
        reports = []
        with HistoryStore() as store:
            oscillate = lambda n: _fleet_state(base_blobs,  # noqa: E731
                                               2 if n % 2 == 0 else 1)
            first = _make_monitor(base_blobs, store, cycles=4,
                                  reports=reports, provider=oscillate,
                                  flap_window=4, flap_min_transitions=3)
            first.run()
            flapping_before = first.analyzer.flapping()
            assert flapping_before
            analyzer = HealthAnalyzer(store, flap_window=4,
                                      flap_min_transitions=3)
            assert analyzer.flapping() == flapping_before

    def test_restart_after_scan_error_diffs_against_last_good(
            self, base_blobs):
        """Cycles good -> scan error -> regressed sshd: a monitor
        restarted after the error loads the last good cycle's map and
        emits the live monitor's regressions."""
        def provider(cycle_no):
            if cycle_no == 2:
                raise RuntimeError("crawler exploded")
            return _fleet_state(base_blobs, 1 if cycle_no == 1 else 2)

        live, restarted = [], []
        with HistoryStore() as store:
            _make_monitor(base_blobs, store, cycles=3, reports=live,
                          provider=provider).run()
        with HistoryStore() as store:
            _make_monitor(base_blobs, store, cycles=2, reports=restarted,
                          provider=provider).run()
            _make_monitor(base_blobs, store, cycles=1, reports=restarted,
                          provider=lambda _n: provider(3)).run()
        live_events = _event_tuples(live[-1][2])
        assert [event[0] for event in live_events] == ["regression"] * 2
        assert _event_tuples(restarted[-1][2]) == live_events

    def test_restart_seeds_flap_windows_from_successful_cycles(
            self, base_blobs):
        """Window 4, 3 transitions, cycles a, b, a, scan error, b: the
        live analyzer flags the oscillating keys, and so does one
        restarted from the store (the failed cycle is no observation)."""
        def provider(cycle_no):
            if cycle_no == 4:
                raise RuntimeError("crawler exploded")
            return _fleet_state(base_blobs, 2 if cycle_no in (2, 5) else 1)

        with HistoryStore() as store:
            live = _make_monitor(base_blobs, store, cycles=5,
                                 provider=provider, flap_window=4,
                                 flap_min_transitions=3)
            live.run()
            flapping = live.analyzer.flapping()
            assert len(flapping) == 2
            restarted = HealthAnalyzer(store, flap_window=4,
                                       flap_min_transitions=3)
            assert restarted.flapping() == flapping
            assert restarted.flapping_details() == \
                live.analyzer.flapping_details()


class TestMonitorCli:
    def test_monitor_cli_end_to_end(self, tmp_path):
        """`repro monitor --max-cycles 2` over the synthetic fleet:
        store populated, event log created, /metrics live mid-run, and
        the final report byte-identical to the standalone scan."""
        from repro.cli import main

        db = tmp_path / "history.sqlite"
        events = tmp_path / "events.ndjson"
        port_file = tmp_path / "port"
        report_out = tmp_path / "report.json"
        argv = [
            "monitor", "--scenario", "fleet", "--size", "1",
            "--interval", "0.4", "--max-cycles", "2",
            "--history-db", str(db), "--events-out", str(events),
            "--port", "0", "--port-file", str(port_file),
            "--report-out", str(report_out),
        ]
        result: dict = {}

        def run() -> None:
            result["exit"] = main(argv)

        thread = threading.Thread(target=run)
        thread.start()
        try:
            deadline = time.time() + 60
            while not port_file.exists() and time.time() < deadline:
                time.sleep(0.05)
            assert port_file.exists(), "monitor never bound its port"
            port = int(port_file.read_text())
            scraped = ""
            while thread.is_alive() and time.time() < deadline:
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/metrics", timeout=2
                    ) as response:
                        scraped = response.read().decode("utf-8")
                    if "repro_monitor_cycles_total" in scraped:
                        break  # a cycle has completed mid-run
                except (urllib.error.URLError, OSError):
                    pass
                time.sleep(0.05)
        finally:
            thread.join()
        assert result["exit"] == 0
        assert "repro_monitor_cycles_total" in scraped
        assert events.exists()
        with HistoryStore(str(db)) as store:
            assert store.cycle_count() == 2
            assert all(not row.failed_cycle for row in store.cycles())
        # Byte-identity against the CLI's own fleet builder.
        import argparse

        from repro.cli import _scenario_entities
        from repro.engine import render_json as render

        args = argparse.Namespace(root="", scenario="fleet", size=1,
                                  hardening=0.5, name="host")
        reference = load_builtin_validator().validate_entities(
            _scenario_entities(args)
        )
        assert report_out.read_text() == render(reference) + "\n"
