"""Tests for the telemetry subsystem: spans, metrics, profiler, logs,
exporters, and the observability guarantees the pipeline makes
(well-formed span trees, deterministic counters, byte-identical reports
with telemetry on or off).
"""

import json
import logging
import re
import threading
import urllib.request

import pytest

from repro.crawler import ContainerEntity, Crawler, DockerImageEntity, HostEntity
from repro.cvl import CompositeRule, Manifest, build_rule
from repro.engine import Verdict, render_json, render_text
from repro.engine.batch import BatchScanner, render_fleet_summary
from repro.engine.evaluators import evaluate_schema
from repro.engine.normalizer import Normalizer
from repro.engine.report import render_junit
from repro.engine.stages import STAGE_METRIC, StageTimings
from repro.fs import VirtualFilesystem
from repro.rules import load_builtin_validator
from repro.telemetry import (
    DISABLED,
    JsonLogFormatter,
    MetricsRegistry,
    RuleProfiler,
    SpanCollector,
    Telemetry,
    configure_logging,
    get_logger,
)
from repro.telemetry.export import (
    MetricsServer,
    render_prometheus,
    serve_metrics_once,
    to_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.telemetry.traceview import (
    analyze_trace,
    load_trace,
    render_trace_analysis,
)
from repro.workloads import FleetSpec, build_fleet, ubuntu_host_entity


def _fleet_entities(images=2):
    _daemon, imgs, containers = build_fleet(
        FleetSpec(images=images, containers_per_image=2, misconfig_rate=0.5)
    )
    return [ContainerEntity(c) for c in containers] + [
        DockerImageEntity(i) for i in imgs
    ]


def _scan(workers=1, telemetry=None):
    telemetry = telemetry or Telemetry()
    validator = load_builtin_validator(telemetry=telemetry)
    scanner = BatchScanner(validator, workers=workers, telemetry=telemetry)
    summary = scanner.scan_entities(_fleet_entities(), workers=workers)
    return summary, telemetry


# ---- span collector ----------------------------------------------------------


class TestSpanCollector:
    def test_nesting_is_implicit_within_a_thread(self):
        spans = SpanCollector()
        with spans.span("outer", category="a"):
            with spans.span("inner", category="b"):
                pass
        inner, outer = sorted(spans.finished(), key=lambda s: s.name)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration_s >= 0.0

    def test_explicit_parent_crosses_threads(self):
        spans = SpanCollector()
        with spans.span("root") as root:
            def work():
                with spans.span("child", parent=root):
                    pass
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        child = next(s for s in spans.finished() if s.name == "child")
        assert child.parent_id == root.span_id
        assert child.thread_id != root.thread_id

    def test_record_preserves_measured_duration(self):
        spans = SpanCollector()
        spans.record("rule", category="rule",
                     start_s=spans.origin_perf, duration_s=0.25,
                     verdict="compliant")
        (span,) = spans.finished()
        assert span.duration_s == 0.25
        assert span.start_s == pytest.approx(0.0)
        assert span.attrs == {"verdict": "compliant"}

    def test_noop_collector_records_nothing(self):
        spans = DISABLED.spans
        with spans.span("whatever"):
            pass
        assert len(spans) == 0
        assert spans.current() is None
        assert spans.finished() == []


class TestScanCycleSpanTree:
    def test_tree_is_well_formed_under_workers(self):
        summary, telemetry = _scan(workers=4)
        spans = telemetry.spans.finished()
        assert spans, "an enabled scan must record spans"
        ids = {s.span_id for s in spans}
        assert len(ids) == len(spans)  # unique ids
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in ids, f"orphan parent on {span.name}"
        roots = [s for s in spans if s.parent_id is None]
        assert [r.name for r in roots] == ["scan_cycle"]
        categories = {s.category for s in spans}
        assert {"cycle", "run", "frame", "stage", "crawl", "rule"} <= categories
        # Every frame span nests under the validation run span.
        run = next(s for s in spans if s.category == "run")
        for frame in (s for s in spans if s.category == "frame"):
            assert frame.parent_id == run.span_id
        # One frame span per scanned entity.
        frames = [s for s in spans if s.category == "frame"]
        assert len(frames) == summary.entities_scanned

    def test_rule_span_count_matches_report(self):
        summary, telemetry = _scan(workers=1)
        rule_spans = [
            s for s in telemetry.spans.finished() if s.category == "rule"
        ]
        assert len(rule_spans) == len(summary.report)

    @pytest.mark.parametrize("workers", (1, 4))
    def test_composite_rule_telemetry(self, workers):
        summary, telemetry = _scan(workers=workers)
        (composite,) = [r for r in summary.report
                        if isinstance(r.rule, CompositeRule)]
        assert composite.entity == "mysql"
        spans = telemetry.spans.finished()
        by_id = {s.span_id: s for s in spans}
        (span,) = [s for s in spans
                   if s.category == "rule" and s.name == composite.rule.name]
        parent = by_id[span.parent_id]
        assert (parent.category, parent.name) == ("stage", "composite")
        (entry,) = [e for e in telemetry.profiler.entries("rule")
                    if e.key == f"mysql/{composite.rule.name}"]
        assert entry.calls == 1
        telemetry.metrics.collect()
        evaluated = telemetry.metrics.counter(
            "repro_rules_evaluated_total", labels=("verdict",)
        )
        assert sum(value for _labels, value in evaluated.samples()) == (
            summary.report.counts()["total"]
        )


# ---- metrics registry --------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_labels_and_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total", "help", labels=("verdict",))
        counter.inc(verdict="pass")
        counter.inc(2, verdict="fail")
        assert counter.value(verdict="pass") == 1
        assert counter.value(verdict="fail") == 2
        with pytest.raises(ValueError):
            counter.inc(wrong="label")

    def test_schema_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", labels=("b",))
        with pytest.raises(ValueError):
            registry.gauge("x_total", labels=("a",))

    def test_histogram_stats(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(2.55)
        assert hist.min() == 0.05
        assert hist.max() == 2.0
        assert hist.mean() == pytest.approx(0.85)

    def test_observe_aggregate_folds_extremes(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        hist.observe_aggregate(3.0, 4, min_value=0.01, max_value=2.5)
        assert hist.count() == 4
        assert hist.sum() == 3.0
        assert hist.min() == 0.01
        assert hist.max() == 2.5

    def test_pull_collector_runs_at_scrape_time(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("pulled")
        registry.register_collector("src", lambda: gauge.set(42))
        registry.register_collector("src", lambda: gauge.set(7))  # replaces
        text = render_prometheus(registry)
        assert "pulled 7" in text

    def test_noop_registry_is_inert(self):
        noop = DISABLED.metrics
        counter = noop.counter("x_total")
        counter.inc()
        assert counter.value() == 0.0
        assert noop.render() == ""


class TestDeterministicCounters:
    def test_counts_identical_workers_1_vs_8(self):
        # Parse-cache misses race under concurrency, so determinism is
        # asserted only on the frame/rule counters the ISSUE guarantees.
        results = {}
        for workers in (1, 8):
            summary, telemetry = _scan(workers=workers)
            # Rule verdict/latency folds are pull-style (scrape-time).
            telemetry.metrics.collect()
            frames = telemetry.metrics.counter(
                "repro_frames_scanned_total"
            ).value()
            by_verdict = dict(
                telemetry.metrics.counter(
                    "repro_rules_evaluated_total", labels=("verdict",)
                ).samples()
            )
            results[workers] = (frames, by_verdict, summary.report.counts())
        assert results[1] == results[8]
        frames, by_verdict, counts = results[1]
        assert frames == 6  # 2 images * 2 containers + the 2 images
        assert sum(by_verdict.values()) == counts["total"]


# ---- exporters ---------------------------------------------------------------


class TestChromeTraceExport:
    def test_trace_loads_and_references_resolve(self, tmp_path):
        _summary, telemetry = _scan(workers=2)
        path = tmp_path / "trace.json"
        count = write_chrome_trace(telemetry.spans, str(path))
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == count == len(telemetry.spans)
        for event in complete:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert event["ts"] >= 0 and event["dur"] >= 0
        # Thread metadata labels every tid used by a span event.
        meta_tids = {
            e["tid"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {e["tid"] for e in complete} <= meta_tids

    def test_empty_collector_is_valid_trace(self):
        payload = to_chrome_trace(SpanCollector())
        assert payload["traceEvents"] == []


class TestTraceAnalysis:
    """``repro trace`` over the trace of one run on a 4-thread pool."""

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        telemetry = Telemetry()
        validator = load_builtin_validator(telemetry=telemetry)
        frames = Crawler().crawl_many(_fleet_entities(images=3))
        validator.validate_frames(frames, workers=4)
        path = tmp_path_factory.mktemp("trace") / "trace.json"
        write_chrome_trace(telemetry.spans, str(path))
        return str(path)

    def test_analysis_sections(self, trace_path):
        events = load_trace(trace_path)
        analysis = analyze_trace(events, top=10)
        assert analysis["root"]["name"] == "validate_frames"
        assert analysis["spans"] == len(events)
        path = analysis["critical_path"]
        assert path[0]["name"] == "validate_frames"
        # The run ends with its last frame or its composite stage.
        assert (path[1]["category"] == "frame"
                or path[1]["name"] == "composite")
        assert all(hop["duration_ms"] >= 0 for hop in path)
        lanes = analysis["workers"]
        # The run's own thread plus at least one pool thread, and every
        # span on exactly one lane.
        assert len(lanes) >= 2
        assert sum(lane["spans"] for lane in lanes) == len(events)
        assert all(0.0 <= lane["utilization"] <= 1.0 for lane in lanes)
        rendered = render_trace_analysis(analysis, top=10)
        assert "critical path (root validate_frames" in rendered
        assert "worker lanes" in rendered

    def test_cli_trace_json(self, trace_path, capsys):
        from repro.cli import main

        assert main(["trace", trace_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] > 0
        assert payload["critical_path"][0]["name"] == "validate_frames"
        assert payload["workers"]

    def test_cli_trace_text_and_errors(self, trace_path, capsys, tmp_path):
        from repro.cli import main

        assert main(["trace", trace_path]) == 0
        assert "critical path" in capsys.readouterr().out
        bogus = tmp_path / "not-a-trace.json"
        bogus.write_text("{}")
        assert main(["trace", str(bogus)]) == 2


class TestPrometheusExport:
    SAMPLE = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'  # first label
        r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
        r" (-?\d+(\.\d+)?([eE][-+]?\d+)?|[-+]Inf|NaN)$"
    )

    def test_every_line_is_valid_exposition(self, tmp_path):
        _summary, telemetry = _scan(workers=2)
        path = tmp_path / "metrics.prom"
        samples = write_metrics(telemetry.metrics, str(path))
        lines = path.read_text().splitlines()
        assert samples == sum(
            1 for ln in lines if ln and not ln.startswith("#")
        )
        seen_types = {}
        for line in lines:
            if line.startswith("# TYPE"):
                _, _, name, kind = line.split(" ", 3)
                seen_types[name] = kind
                continue
            if line.startswith("#"):
                assert line.startswith("# HELP")
                continue
            assert self.SAMPLE.match(line), f"bad exposition line: {line!r}"
        assert seen_types.get("repro_frames_scanned_total") == "counter"
        assert seen_types.get("repro_workers") == "gauge"
        assert seen_types.get(STAGE_METRIC) == "histogram"

    def test_histogram_buckets_cumulative_and_capped(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        text = render_prometheus(registry)
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("h_seconds_bucket")
        ]
        assert buckets == sorted(buckets)      # monotone
        assert buckets[-1] == 4                # +Inf == _count
        assert "h_seconds_count 4" in text
        assert "h_seconds_sum 6.05" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("p",)).inc(p='a"b\\c\nd')
        text = render_prometheus(registry)
        assert 'p="a\\"b\\\\c\\nd"' in text

    def test_one_shot_http_scrape(self):
        registry = MetricsRegistry()
        registry.counter("scraped_total").inc(3)
        result = {}

        def scrape_when_up(port):
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=5
            ) as response:
                result["body"] = response.read().decode()
                result["ctype"] = response.headers["Content-Type"]

        with MetricsServer(registry) as server:
            scrape_when_up(server.port)
        assert "scraped_total 3" in result["body"]
        assert result["ctype"].startswith("text/plain")

    def test_serve_metrics_once_serves_exactly_one(self):
        registry = MetricsRegistry()
        registry.counter("once_total").inc()
        ports = {}
        ready = threading.Event()

        def serve():
            # Bind an ephemeral port, publish it, serve one request.
            from http.server import ThreadingHTTPServer

            from repro.telemetry.export import _make_handler

            server = ThreadingHTTPServer(
                ("127.0.0.1", 0), _make_handler(registry)
            )
            ports["port"] = server.server_address[1]
            ready.set()
            try:
                server.handle_request()
            finally:
                server.server_close()

        thread = threading.Thread(target=serve)
        thread.start()
        assert ready.wait(timeout=5)
        with urllib.request.urlopen(
            f"http://127.0.0.1:{ports['port']}/metrics", timeout=5
        ) as response:
            body = response.read().decode()
        thread.join(timeout=5)
        assert "once_total 1" in body
        assert serve_metrics_once is not None  # public API exists


# ---- stage timings -----------------------------------------------------------


class TestStageTimingsStats:
    def test_min_max_mean(self):
        timings = StageTimings()
        for seconds in (0.1, 0.3, 0.2):
            timings.add("parse", seconds)
        assert timings.min_seconds("parse") == pytest.approx(0.1)
        assert timings.max_seconds("parse") == pytest.approx(0.3)
        assert timings.mean_seconds("parse") == pytest.approx(0.2)
        stats = timings.as_dict()["parse"]
        assert stats["count"] == 3
        assert stats["seconds"] == pytest.approx(0.6)

    def test_render_format_unchanged(self):
        timings = StageTimings()
        timings.add("evaluate", 0.5)
        lines = timings.render().splitlines()
        assert lines[0] == f"{'stage':<12}{'time [ms]':>12}{'share':>8}{'ops':>10}"
        assert any(line.startswith("evaluate") for line in lines)
        extended = timings.render_extended().splitlines()
        assert "min [ms]" in extended[0] and "max [ms]" in extended[0]

    def test_publish_folds_into_registry(self):
        registry = MetricsRegistry()
        timings = StageTimings()
        timings.add("crawl", 0.2)
        timings.add("crawl", 0.4)
        timings.publish(registry)
        hist = registry.histogram(STAGE_METRIC, labels=("stage",))
        assert hist.count(stage="crawl") == 2
        assert hist.sum(stage="crawl") == pytest.approx(0.6)
        assert hist.min(stage="crawl") == pytest.approx(0.2)
        assert hist.max(stage="crawl") == pytest.approx(0.4)

    def test_merge_keeps_per_cycle_isolation(self):
        first, second = StageTimings(), StageTimings()
        first.add("parse", 0.1)
        second.add("parse", 0.2)
        total = StageTimings()
        total.merge(first)
        total.merge(second)
        assert total.count("parse") == 2
        assert first.count("parse") == 1  # unchanged


# ---- profiler ----------------------------------------------------------------


class TestRuleProfiler:
    def test_rankings(self):
        profiler = RuleProfiler()
        profiler.record("rule", "sshd/a", 0.5)
        profiler.record("rule", "sshd/b", 0.1, error=True)
        profiler.record("rule", "sshd/b", 0.1, error=True)
        profiler.record("lens", "nginx", 0.2)
        hottest = profiler.hottest("rule")
        assert [e.key for e in hottest] == ["sshd/a", "sshd/b"]
        assert [e.key for e in profiler.most_erroring()] == ["sshd/b"]
        assert profiler.hottest("lens")[0].calls == 1
        text = profiler.render(top=5)
        assert "hottest rules:" in text
        assert "most erroring:" in text

    def test_fleet_summary_renders_profile_section(self):
        summary, _telemetry = _scan(workers=1)
        text = render_fleet_summary(summary)
        assert "rule/lens profile (process-cumulative):" in text
        assert "hottest rules:" in text

    def test_disabled_scan_has_no_profile_section(self):
        validator = load_builtin_validator()
        scanner = BatchScanner(validator)
        summary = scanner.scan_entities(_fleet_entities())
        assert summary.profile is None
        assert "rule/lens profile" not in render_fleet_summary(summary)


# ---- reports: telemetry on/off parity + error detail -------------------------


class TestReportParity:
    def test_reports_byte_identical_with_and_without_telemetry(self):
        entity = ubuntu_host_entity(
            "parity-host", hardening=0.4, with_nginx=True, with_mysql=True
        )
        frame = Crawler().crawl(entity)
        plain = load_builtin_validator().validate_frame(frame)
        telemetry = Telemetry()
        instrumented = load_builtin_validator(
            telemetry=telemetry
        ).validate_frame(frame)
        for renderer in (
            lambda r: render_text(r, verbose=True),
            render_json,
            render_junit,
        ):
            assert renderer(plain) == renderer(instrumented)
        assert len(telemetry.spans) > 0  # telemetry did actually run


class TestErrorEvidence:
    def _error_result(self):
        fs = VirtualFilesystem()
        fs.write_file("/etc/fstab", "/dev/sda1 / ext4 defaults 0 1\n")
        frame = Crawler().crawl(
            HostEntity("err-host", fs), features=("files",)
        )
        rule = build_rule({
            "config_schema_name": "tmp_partition",
            "query_constraints": "nonexistent_column = ?",
            "query_constraints_value": ["/tmp"],
            "query_columns": "mount_point",
            "schema_parser": "fstab",
            "preferred_value": ["/tmp"],
            "preferred_value_match": "exact,all",
        })
        manifest = Manifest(
            entity="fstab", cvl_file="x.yaml",
            config_search_paths=["/etc/fstab"],
        )
        return evaluate_schema(rule, frame, manifest, Normalizer())

    def test_evidence_carries_exception_type_and_detail_traceback(self):
        result = self._error_result()
        assert result.verdict is Verdict.ERROR
        locations = [e.location for e in result.evidence]
        assert any(loc.startswith("exception:") for loc in locations)
        assert "Traceback" in result.detail

    def test_text_json_junit_render_the_error(self):
        from repro.engine import ValidationReport
        from repro.engine.report import render_result, result_to_dict

        result = self._error_result()
        text = render_result(result, verbose=True)
        assert "        | Traceback" in text
        payload = result_to_dict(result)
        assert "Traceback" in payload["detail"]
        exc_name = next(
            e.location.split(":", 1)[1]
            for e in result.evidence
            if e.location.startswith("exception:")
        )
        report = ValidationReport(target="err-host", results=[result])
        xml = render_junit(report)
        assert f'<error type="{exc_name}">' in xml
        assert "Traceback" in xml


# ---- structured logging ------------------------------------------------------


class TestStructuredLogging:
    def test_json_formatter_emits_parseable_lines(self):
        formatter = JsonLogFormatter()
        record = logging.LogRecord(
            "repro.engine", logging.WARNING, __file__, 1,
            "rule %s errored", ("sshd/x",), None,
        )
        record.entity = "web1"
        payload = json.loads(formatter.format(record))
        assert payload["level"] == "warning"
        assert payload["logger"] == "repro.engine"
        assert payload["message"] == "rule sshd/x errored"
        assert payload["entity"] == "web1"
        assert "ts" in payload

    def test_json_formatter_captures_exception(self):
        formatter = JsonLogFormatter()
        try:
            raise ValueError("boom")
        except ValueError:
            import sys

            record = logging.LogRecord(
                "repro", logging.ERROR, __file__, 1, "failed", (),
                sys.exc_info(),
            )
        payload = json.loads(formatter.format(record))
        assert payload["exc_type"] == "ValueError"
        assert "boom" in payload["traceback"]

    def test_configure_logging_idempotent(self):
        root = logging.getLogger("repro")
        before = list(root.handlers)
        try:
            configure_logging("info")
            configure_logging("debug", json_output=True)
            ours = [
                h for h in root.handlers if h.name == "repro-telemetry"
            ]
            assert len(ours) == 1
            assert root.level == logging.DEBUG
            assert isinstance(ours[0].formatter, JsonLogFormatter)
            with pytest.raises(ValueError):
                configure_logging("loud")
        finally:
            root.handlers[:] = before
            root.setLevel(logging.NOTSET)

    def test_get_logger_namespaced(self):
        assert get_logger("engine").name == "repro.engine"


# ---- CLI ---------------------------------------------------------------------


class TestTelemetryCli:
    def test_validate_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        ssh = tmp_path / "root" / "etc" / "ssh"
        ssh.mkdir(parents=True)
        (ssh / "sshd_config").write_text("PermitRootLogin no\n")
        trace = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        main([
            "validate", "--root", str(tmp_path / "root"),
            "--targets", "sshd", "--workers", "2",
            "--trace-out", str(trace), "--metrics-out", str(prom),
        ])
        err = capsys.readouterr().err
        assert "spans" in err and "metric samples" in err
        assert json.loads(trace.read_text())["traceEvents"]
        assert "repro_frames_scanned_total 1" in prom.read_text()

    def test_json_junit_mutually_exclusive(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "--json", "--junit", "--root", "/tmp"])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_profile_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "profile", "--scenario", "fleet", "--size", "2",
            "--workers", "2",
            "--metrics-out", str(tmp_path / "m.prom"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hottest rules:" in out
        assert "stage" in out and "mean [ms]" in out
        assert (tmp_path / "m.prom").exists()
