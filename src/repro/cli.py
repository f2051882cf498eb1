"""Command-line interface.

``configvalidator`` (or ``python -m repro``) drives the same pipeline the
paper's production deployment runs:

* ``validate`` -- scan a directory tree (an unpacked rootfs / chroot)
  with the shipped rule packs, or with a custom manifest;
* ``coverage`` -- print the Table 1-style target/rule inventory;
* ``rules``    -- list the rules of one target, with tags;
* ``dump``     -- parse one config file with a lens and print the tree
  (handy when writing new rules);
* ``demo``     -- validate a synthetic host / fleet / cloud without
  touching the real filesystem;
* ``profile``  -- scan with telemetry on and rank the hottest /
  most-erroring rules and lenses;
* ``monitor``  -- run scan cycles on an interval with durable verdict
  history, a live HTTP endpoint, and a health event stream;
* ``history`` / ``flaps`` -- offline views over a monitor's history
  store (cycle table, per-entity trends, flapping rules).

Scanning commands share the telemetry flags: ``--trace-out`` (Chrome
``trace_event`` spans for chrome://tracing / Perfetto), ``--metrics-out``
(Prometheus text exposition), ``--metrics-port`` (threaded scrape
endpoint served for the duration of the run; ``--metrics-oneshot``
restores the block-for-one-scrape behavior), and ``--log-level`` /
``--log-json`` (structured logs on stderr).  Reports on stdout are
byte-identical with telemetry on or off.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.augtree.lenses import default_registry, lens_for_file
from repro.crawler import (
    ContainerEntity,
    Crawler,
    DockerImageEntity,
    HostEntity,
)
from repro.engine import StageTimings, render_json, render_text
from repro.engine.report import render_stats
from repro.fs import RealFilesystem
from repro.rules import (
    EXTENSION_TARGETS,
    TABLE1_TARGETS,
    inventory,
    load_builtin_validator,
)
from repro.workloads import FleetSpec, build_cloud_project, build_fleet, ubuntu_host_entity


def _cmd_validate(args: argparse.Namespace) -> int:
    telemetry = _telemetry_from_args(args)
    validator = _validator_from_args(args, telemetry)
    timings = StageTimings() if args.stage_timings else None
    server = _start_metrics_server(args, telemetry)
    entity = HostEntity(args.name, RealFilesystem(args.root))
    report = validator.validate_entity(
        entity, tags=args.tags.split(",") if args.tags else None,
        timings=timings,
    )
    _print_stats(timings, validator, report)
    if args.json:
        print(render_json(report))
    elif args.junit:
        from repro.engine.report import render_junit

        print(render_junit(report), end="")
    else:
        print(render_text(report, verbose=args.verbose,
                          only_failures=args.only_failures))
    _emit_telemetry(args, telemetry, server)
    if args.fail_on:
        from repro.engine.batch import severity_rank

        threshold = severity_rank(args.fail_on)
        blocking = [
            result
            for result in report.failed()
            if severity_rank(result.rule.severity) >= threshold
        ]
        return 1 if blocking or report.errors() else 0
    return 0 if report.compliant else 1


def _validator_from_args(args: argparse.Namespace, telemetry, **extra):
    """The validator a command runs: the shipped packs, or the repository
    at ``--rules-dir``, limited to ``--targets`` and set up by whichever
    scaling, plan, provenance and deadline flags the command has, with
    ``extra`` constructor arguments.  Arms ``--chaos-plan`` first."""
    _arm_chaos_from_args(args)
    kwargs = dict(
        cache_size=getattr(args, "cache_size", None),
        workers=getattr(args, "workers", 1),
        telemetry=telemetry,
        use_plans=not args.no_plan,
        provenance=getattr(args, "provenance", False),
        deadline_s=getattr(args, "deadline", None),
        frame_deadline_s=getattr(args, "frame_deadline", None),
        **extra,
    )
    targets = getattr(args, "targets", "")
    targets = targets.split(",") if targets else None
    if not getattr(args, "rules_dir", ""):
        return load_builtin_validator(only=targets, **kwargs)
    from repro.rules.repository import load_validator_from_directory

    validator = load_validator_from_directory(args.rules_dir, **kwargs)
    if targets:
        for manifest in validator.manifests():
            manifest.enabled = manifest.entity in targets
    return validator


def _scenario_entities(args: argparse.Namespace) -> list:
    """The entities a command scans: the tree at ``--root``, or else the
    synthetic ``--scenario`` at ``--size`` and ``--hardening`` (0.5 for a
    command without that flag)."""
    if getattr(args, "root", ""):
        return [HostEntity(args.name, RealFilesystem(args.root))]
    hardening = getattr(args, "hardening", 0.5)
    if args.scenario == "host":
        return [ubuntu_host_entity("demo-host", hardening=hardening,
                                   with_nginx=True, with_mysql=True)]
    if args.scenario == "cloud":
        return [build_cloud_project("demo", violations=hardening < 1.0)]
    _daemon, images, containers = build_fleet(
        FleetSpec(images=args.size, containers_per_image=3,
                  misconfig_rate=1.0 - hardening)
    )
    entities = [ContainerEntity(c) for c in containers]
    entities += [DockerImageEntity(i) for i in images]
    return entities


def _arm_chaos_from_args(args: argparse.Namespace) -> None:
    """Arm the process-wide fault fabric when --chaos-plan was given."""
    plan_ref = getattr(args, "chaos_plan", "")
    if not plan_ref:
        return
    from repro.chaos.fabric import ChaosPlanError, arm_plan
    from repro.chaos.plans import resolve_plan

    try:
        arm_plan(resolve_plan(plan_ref))
    except ChaosPlanError as exc:
        raise SystemExit(str(exc))


def _telemetry_from_args(args: argparse.Namespace, *, force: bool = False):
    """Configure logging and build a Telemetry bundle when requested.

    Returns None (meaning "use the default disabled bundle") unless the
    command asked for an exporter, keeping the zero-flag path on the
    no-op collectors.
    """
    from repro.telemetry import Telemetry, configure_logging

    configure_logging(
        getattr(args, "log_level", "warning"),
        json_output=getattr(args, "log_json", False),
    )
    wanted = force or bool(
        getattr(args, "trace_out", "")
        or getattr(args, "metrics_out", "")
        or getattr(args, "metrics_port", None) is not None
    )
    return Telemetry() if wanted else None


def _start_metrics_server(args: argparse.Namespace, telemetry):
    """Start the threaded ``/metrics`` endpoint for the run.

    Called right after the telemetry bundle exists, so the endpoint is
    scrapeable *during* the scan, not just after it.  Returns None when
    no port was requested or ``--metrics-oneshot`` asked for the legacy
    single-scrape-at-exit behavior (handled by :func:`_emit_telemetry`).
    """
    if telemetry is None or not telemetry.enabled:
        return None
    port = getattr(args, "metrics_port", None)
    if port is None or getattr(args, "metrics_oneshot", False):
        return None
    from repro.telemetry.export import MetricsServer

    server = MetricsServer(telemetry.metrics, port)
    print(
        f"serving /metrics on 127.0.0.1:{server.port} for the duration "
        f"of the run",
        file=sys.stderr,
    )
    return server


def _emit_telemetry(args: argparse.Namespace, telemetry,
                    server=None) -> None:
    """Write/serve the requested exports (diagnostics go to stderr)."""
    if telemetry is None or not telemetry.enabled:
        if server is not None:
            server.close()
        return
    from repro.telemetry.export import (
        serve_metrics_once,
        write_chrome_trace,
        write_metrics,
    )

    if getattr(args, "trace_out", ""):
        count = write_chrome_trace(telemetry.spans, args.trace_out)
        print(f"wrote {count} spans to {args.trace_out}", file=sys.stderr)
    if getattr(args, "metrics_out", ""):
        count = write_metrics(telemetry.metrics, args.metrics_out)
        print(
            f"wrote {count} metric samples to {args.metrics_out}",
            file=sys.stderr,
        )
    if server is not None:
        server.close()
        print("metrics endpoint closed", file=sys.stderr)
    elif (getattr(args, "metrics_port", None) is not None
          and getattr(args, "metrics_oneshot", False)):
        print(
            f"serving /metrics on 127.0.0.1:{args.metrics_port} "
            f"for one scrape ...",
            file=sys.stderr,
        )
        serve_metrics_once(telemetry.metrics, args.metrics_port)


def _print_stats(timings, validator, report) -> None:
    """Stage timings and the run's stats blocks on stderr (with
    --stage-timings; stdout stays report-only)."""
    if timings is None:
        return
    print("\nstage timings (aggregate worker-seconds):", file=sys.stderr)
    print(timings.render(), file=sys.stderr)
    for block in render_stats(validator.cache_stats(), report):
        print(block, file=sys.stderr)


def _cmd_coverage(_args: argparse.Namespace) -> int:
    counts = inventory()
    print(f"{'Category':<16} {'Target':<20} Rules")
    total = 0
    for category, targets in TABLE1_TARGETS.items():
        for target in targets:
            count = counts.get(target, 0)
            if target == "docker":
                count += counts.get("docker_containers", 0)
            total += count
            print(f"{category:<16} {target:<20} {count}")
    print(f"{'':<16} {'TOTAL':<20} {total}")
    for target in EXTENSION_TARGETS:
        print(f"{'Extensions':<16} {target:<20} {counts.get(target, 0)}")
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    validator = load_builtin_validator()
    manifest = validator.manifest(args.target)
    for rule in validator.ruleset_for(manifest):
        state = "x" if rule.enabled else " "
        print(f"[{state}] {rule.rule_type:<9} {rule.name:<45} {' '.join(rule.tags)}")
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    registry = default_registry()
    if args.lens:
        lens = registry.get(args.lens)
    else:
        lens = lens_for_file(args.file, registry)
        if lens is None:
            print(f"no lens matches {args.file!r}; use --lens", file=sys.stderr)
            return 2
    with open(args.file, "r", encoding="utf-8") as handle:
        tree = lens.parse(handle.read(), source=args.file)
    print(tree.render())
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    telemetry = _telemetry_from_args(args)
    validator = _validator_from_args(args, telemetry)
    timings = StageTimings() if args.stage_timings else None
    server = _start_metrics_server(args, telemetry)
    report = validator.validate_entities(
        _scenario_entities(args), workers=args.workers, timings=timings)
    print(render_text(report, only_failures=args.only_failures))
    _print_stats(timings, validator, report)
    _emit_telemetry(args, telemetry, server)
    return 0 if report.compliant else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Scan with telemetry enabled and print the hot/error rankings."""
    from repro.engine.batch import BatchScanner

    telemetry = _telemetry_from_args(args, force=True)
    validator = _validator_from_args(args, telemetry)
    entities = _scenario_entities(args)
    server = _start_metrics_server(args, telemetry)
    scanner = BatchScanner(validator, workers=args.workers,
                           cache_size=args.cache_size, telemetry=telemetry)
    summary = scanner.scan_entities(entities, workers=args.workers)
    print(
        f"# profiled {summary.entities_scanned} entities, "
        f"{len(summary.report)} checks in {summary.elapsed_s:.2f}s"
    )
    print()
    print(telemetry.profiler.render(top=args.top))
    print()
    print("stage latency (aggregate worker-seconds):")
    print(summary.stage_timings.render())
    print(validator.cache_stats().render())
    _emit_telemetry(args, telemetry, server)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Analyze an exported trace: critical path and worker lanes."""
    import json

    from repro.telemetry.traceview import (
        TraceError,
        analyze_trace,
        load_trace,
        render_trace_analysis,
    )

    try:
        events = load_trace(args.trace)
        analysis = analyze_trace(events, top=args.top)
    except TraceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(analysis, indent=2))
    else:
        print(render_trace_analysis(analysis, top=args.top))
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.crawler.serialize import dump_frame

    crawler = Crawler()
    frame = crawler.crawl(HostEntity(args.name, RealFilesystem(args.root)))
    blob = dump_frame(frame, indent=2)
    if args.output == "-":
        print(blob)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(blob)
        print(f"wrote {len(blob):,} bytes to {args.output}", file=sys.stderr)
    return 0


def _cmd_validate_frame(args: argparse.Namespace) -> int:
    from repro.crawler.serialize import load_frame

    telemetry = _telemetry_from_args(args)
    server = _start_metrics_server(args, telemetry)
    with open(args.frame, "r", encoding="utf-8") as handle:
        frame = load_frame(handle.read())
    validator = _validator_from_args(args, telemetry)
    report = validator.validate_frame(frame)
    if args.json:
        print(render_json(report))
    elif args.junit:
        from repro.engine.report import render_junit

        print(render_junit(report), end="")
    else:
        print(render_text(report, only_failures=args.only_failures))
    _emit_telemetry(args, telemetry, server)
    return 0 if report.compliant else 1


def _cmd_drift(args: argparse.Namespace) -> int:
    import json

    from repro.crawler.serialize import load_frame
    from repro.engine.drift import diff_reports, drift_to_dict, render_drift

    validator = load_builtin_validator(
        only=args.targets.split(",") if args.targets else None
    )
    reports = []
    for frame_path in (args.baseline, args.current):
        with open(frame_path, "r", encoding="utf-8") as handle:
            reports.append(validator.validate_frame(load_frame(handle.read())))
    drift = diff_reports(reports[0], reports[1])
    if args.json:
        print(json.dumps(drift_to_dict(drift), indent=2))
    else:
        print(render_drift(drift))
    if args.fail_on:
        # Same exit-code semantics as `validate --fail-on`: nonzero only
        # for regressions at or above the threshold severity.
        return 1 if drift.regressions_at_least(args.fail_on) else 0
    return 0 if drift.clean else 1


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.engine.batch import BatchScanner
    from repro.engine.incremental import VerdictStore
    from repro.history import (
        EventLog,
        FleetMonitor,
        HistoryStore,
        MonitorConfig,
        WebhookSink,
    )

    telemetry = _telemetry_from_args(args, force=True)
    validator = _validator_from_args(
        args, telemetry,
        verdict_store=VerdictStore() if args.incremental else None)
    scanner = BatchScanner(validator, workers=args.workers,
                           cache_size=args.cache_size, telemetry=telemetry)
    # Built once: every cycle re-crawls the same entities.
    entities = _scenario_entities(args)
    history = HistoryStore(args.history_db,
                           retain_cycles=args.retain_cycles)
    sinks = []
    event_log = None
    if args.events_out:
        event_log = EventLog(args.events_out)
        sinks.append(event_log)
    if args.webhook:
        sinks.append(WebhookSink(args.webhook,
                                 timeout=args.webhook_timeout))
    config = MonitorConfig(
        interval_s=args.interval,
        max_cycles=args.max_cycles,
        tags=args.tags.split(",") if args.tags else None,
        workers=args.workers,
        flap_window=args.flap_window,
        flap_min_transitions=args.flap_min_transitions,
        status_cycles=args.status_cycles,
    )

    def on_cycle(cycle_no, cycle_id, summary, events) -> None:
        if summary is None:
            print(f"cycle {cycle_no} (id {cycle_id}): SCAN ERROR",
                  file=sys.stderr)
        else:
            counts = summary.counts()
            print(
                f"cycle {cycle_no} (id {cycle_id}): "
                f"{summary.entities_scanned} entities, "
                f"{counts['total']} checks "
                f"({counts['noncompliant']} fail / {counts['error']} err), "
                f"{len(events)} event(s) in {summary.elapsed_s:.2f}s",
                file=sys.stderr,
            )
        for event in events:
            print(f"  {event.render()}", file=sys.stderr)
        if args.stage_timings and summary is not None:
            _print_stats(summary.stage_timings, validator, summary.report)

    monitor = FleetMonitor(scanner, history, entities=entities,
                           config=config, sinks=tuple(sinks),
                           on_cycle=on_cycle)
    server = None
    if args.port is not None:
        server = monitor.serve(args.port)
        print(
            f"serving /metrics /healthz /readyz /status /history on "
            f"http://127.0.0.1:{server.port}",
            file=sys.stderr,
        )
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{server.port}\n")
    import signal

    def _on_sigterm(_signum, _frame) -> None:
        # Same graceful path as Ctrl-C: finish (or skip) the interval
        # wait, flush history, close the event log cleanly.  This is
        # what a container runtime or init system sends on shutdown.
        monitor.request_stop()
        print("SIGTERM received; shutting down after current cycle",
              file=sys.stderr)

    previous_sigterm = signal.getsignal(signal.SIGTERM)
    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        previous_sigterm = None  # non-main thread: leave handlers alone
    try:
        stats = monitor.run()
    except KeyboardInterrupt:
        monitor.request_stop()
        stats = monitor.stats
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
        if server is not None:
            server.close()
        if event_log is not None:
            event_log.close()
    if args.report_out and monitor.last_summary is not None:
        # The final cycle's machine-readable report: byte-identical to
        # `repro validate --json` of the same fleet state.
        with open(args.report_out, "w", encoding="utf-8") as handle:
            handle.write(render_json(monitor.last_summary.report) + "\n")
        print(f"final report written to {args.report_out}",
              file=sys.stderr)
    print(stats.render())
    print(history.stats().render(), file=sys.stderr)
    # Telemetry before close: the history gauges are pull-style and
    # scrape the live sqlite connection.  (On an uncaught error the
    # store is reclaimed by its finalizer at interpreter exit.)
    _emit_telemetry(args, telemetry)
    history.close()
    return 1 if stats.scan_errors else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.chaos.fabric import ChaosPlanError
    from repro.chaos.plans import named_plan, plan_names
    from repro.chaos.runner import run_chaos

    if args.list:
        for name in plan_names():
            plan = named_plan(name)
            sites = sorted({rule.site for rule in plan.rules})
            print(f"{name:<18} seed={plan.seed:<6} "
                  f"sites: {', '.join(sites)}")
        return 0
    if not args.plan:
        print("a plan name/path or --list is required", file=sys.stderr)
        return 2
    try:
        result = run_chaos(
            args.plan,
            workers=args.workers,
            deadline_s=args.deadline,
            frame_deadline_s=args.frame_deadline,
            size=args.size,
            use_plans=not args.no_plan,
        )
    except ChaosPlanError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
    return 0 if result.ok else 1


def _format_cycle_time(stamp: float) -> str:
    import datetime

    return datetime.datetime.fromtimestamp(stamp).strftime(
        "%Y-%m-%d %H:%M:%S"
    )


def _read_history(path: str):
    """The history store at ``path``, opened read-only; exits 1 with the
    reason when there is none this build can read."""
    import sqlite3

    from repro.history.store import HistoryStore, OtherLayoutError

    try:
        return HistoryStore(path, readonly=True)
    except (OSError, sqlite3.Error, OtherLayoutError) as error:
        raise SystemExit(f"cannot read history store {path}: {error}")


def _cmd_history(args: argparse.Namespace) -> int:
    import json

    store = _read_history(args.db)
    try:
        if args.entity:
            rows = [row.to_dict()
                    for row in store.entity_trend(args.entity,
                                                  last=args.last)]
            if args.json:
                print(json.dumps({"entity": args.entity, "trend": rows},
                                 indent=2))
            else:
                print(f"# entity trend: {args.entity}")
                print(f"{'cycle':>6}  {'when':<19} {'pass':>6} {'fail':>6}"
                      f"  worst")
                for row in rows:
                    print(
                        f"{row['cycle_id']:>6}  "
                        f"{_format_cycle_time(row['started_at']):<19} "
                        f"{row['passed']:>6} {row['failed']:>6}  "
                        f"{row['worst_severity'] or '-'}"
                    )
            if not rows:
                print(f"no history for entity {args.entity!r}",
                      file=sys.stderr)
                return 1
            return 0
        rows = [row.to_dict() for row in store.cycles(last=args.last)]
        if args.json:
            print(json.dumps({"cycles": rows}, indent=2))
        else:
            print(
                f"{'cycle':>6}  {'when':<19} {'ent':>4} {'checks':>7} "
                f"{'fail':>5} {'err':>4} {'compl':>7} {'secs':>7} "
                f"{'skip':>6} {'clean/dirty':>11} {'cache':>6}"
            )
            for row in rows:
                if row["scan_error"]:
                    where = row.get("scan_error_stage", "")
                    if row.get("scan_error_frame", ""):
                        where += f"/{row['scan_error_frame']}"
                    where = f" [{where}]" if where else ""
                    print(
                        f"{row['cycle_id']:>6}  "
                        f"{_format_cycle_time(row['started_at']):<19} "
                        f"SCAN ERROR{where}: {row['scan_error']}"
                    )
                    continue
                print(
                    f"{row['cycle_id']:>6}  "
                    f"{_format_cycle_time(row['started_at']):<19} "
                    f"{row['entities']:>4} {row['checks']:>7} "
                    f"{row['noncompliant']:>5} {row['errors']:>4} "
                    f"{row['compliance']:>6.1%} {row['elapsed_s']:>7.2f} "
                    f"{row['rules_skipped']:>6} "
                    f"{row['frames_clean']:>5}/{row['frames_dirty']:<5} "
                    f"{row['parse_hit_rate']:>5.0%}"
                )
        if not rows:
            print("history store is empty", file=sys.stderr)
            return 1
        return 0
    finally:
        store.close()


def _cmd_flaps(args: argparse.Namespace) -> int:
    import json

    from repro.history import HealthAnalyzer

    store = _read_history(args.db)
    try:
        analyzer = HealthAnalyzer(
            store, flap_window=args.window,
            flap_min_transitions=args.min_transitions,
        )
        flapping = analyzer.flapping_details()
        regressing = [
            {"target": key[0], "entity": key[1], "rule": key[2],
             "regressions": count}
            for key, count in analyzer.regression_counts(args.window)
        ]
        if args.json:
            print(json.dumps(
                {"window": args.window,
                 "min_transitions": args.min_transitions,
                 "flapping": flapping,
                 "top_regressing": regressing[:args.top]},
                indent=2,
            ))
            return 0
        print(
            f"# flapping rules (>= {args.min_transitions} transitions in "
            f"last {args.window} cycles): {len(flapping)}"
        )
        for item in flapping:
            series = " -> ".join(item["series"])
            print(
                f"  {item['transitions']} transitions  "
                f"{item['target']}/{item['entity']}/{item['rule']}: {series}"
            )
        if regressing:
            print(f"\ntop regressing rules (last {args.window} cycles):")
            for item in regressing[:args.top]:
                print(
                    f"  {item['regressions']:>3}x  "
                    f"{item['target']}/{item['entity']}/{item['rule']}"
                )
        return 0
    finally:
        store.close()


def _cmd_framediff(args: argparse.Namespace) -> int:
    from repro.crawler.serialize import load_frame
    from repro.crawler.framediff import diff_frames, render_frame_diff

    frames = []
    for frame_path in (args.baseline, args.current):
        with open(frame_path, "r", encoding="utf-8") as handle:
            frames.append(load_frame(handle.read()))
    diff = diff_frames(frames[0], frames[1])
    print(
        render_frame_diff(
            diff,
            unified_for=args.show.split(",") if args.show else None,
            baseline=frames[0],
            current=frames[1],
        )
    )
    return 0 if diff.empty else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.authoring import lint_validator, render_findings

    validator = load_builtin_validator()
    findings = lint_validator(validator)
    print(render_findings(findings))
    has_errors = any(finding.level == "error" for finding in findings)
    return 1 if has_errors else 0


def _explain_frames(args: argparse.Namespace) -> list:
    """The frames ``repro explain`` inspects (one-shot crawl)."""
    if args.frame:
        from repro.crawler.serialize import load_frame

        with open(args.frame, "r", encoding="utf-8") as handle:
            return [load_frame(handle.read())]
    return Crawler().crawl_many(_scenario_entities(args), workers=4)


def _explain_since(args: argparse.Namespace) -> int:
    """Cross-cycle mode: locate and explain the current failing streak."""
    from repro.engine.explain import failing_streak_start, render_transition

    if not args.rule:
        print("explain --since requires an explicit rule name",
              file=sys.stderr)
        return 2
    store = _read_history(args.history_db)
    try:
        rendered = []
        for target in store.targets():
            history = store.rule_history(target, args.entity, args.rule)
            streak = failing_streak_start(history)
            if streak is None:
                continue
            first_fail, last_pass = streak
            failing = store.provenance_for(target, args.entity, args.rule,
                                           first_fail)
            passing = None
            if last_pass is not None:
                passing = store.provenance_for(target, args.entity,
                                               args.rule, last_pass)
            rendered.append(render_transition(
                target, args.entity, args.rule,
                first_fail=first_fail, last_pass=last_pass,
                failing=failing, passing=passing,
            ))
        if not rendered:
            print(
                f"no current failing streak for "
                f"{args.entity}/{args.rule} in {args.history_db}",
                file=sys.stderr,
            )
            return 1
        print("\n\n".join(rendered))
        return 0
    finally:
        store.close()


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro.engine.explain import explanation_to_dict, render_explanation
    from repro.engine.results import Verdict

    if args.since:
        return _explain_since(args)
    frames = _explain_frames(args)
    validator = load_builtin_validator(provenance=True)
    report = validator.validate_frames(frames, workers=4)
    results = [r for r in report if r.entity == args.entity]
    if args.rule:
        results = [r for r in results if r.rule.name == args.rule]
    else:
        results = [r for r in results
                   if r.verdict in (Verdict.NONCOMPLIANT, Verdict.ERROR)]
    if args.provenance_out:
        with open(args.provenance_out, "w", encoding="utf-8") as handle:
            json.dump(
                {"explanations":
                    [explanation_to_dict(r) for r in results]},
                handle, indent=2,
            )
            handle.write("\n")
        print(f"provenance written to {args.provenance_out}",
              file=sys.stderr)
    if not results:
        what = (f"rule {args.rule!r}" if args.rule
                else "failing verdicts")
        print(f"no {what} for entity {args.entity!r} "
              f"(known entities: "
              f"{', '.join(sorted({r.entity for r in report})) or 'none'})",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(
            {"explanations": [explanation_to_dict(r) for r in results]},
            indent=2,
        ))
        return 0
    frames_by_key = {frame.describe(): frame for frame in frames}

    def read_text(target: str, path: str) -> str | None:
        frame = frames_by_key.get(target)
        if frame is None:
            return None
        try:
            return frame.read_config(path)
        except Exception:
            return None

    print("\n\n".join(
        render_explanation(result, read_text=read_text,
                           context=args.context)
        for result in results
    ))
    return 0


def _cmd_scaffold(args: argparse.Namespace) -> int:
    from repro.authoring import render_rules_yaml, scaffold_rules

    registry = default_registry()
    lens = registry.get(args.lens) if args.lens else None
    with open(args.file, "r", encoding="utf-8") as handle:
        text = handle.read()
    rules = scaffold_rules(
        text, args.file, lens=lens, max_rules=args.max_rules
    )
    print(render_rules_yaml(rules), end="")
    return 0


def _add_scaling_flags(subparser: argparse.ArgumentParser) -> None:
    """The fleet-pipeline knobs shared by scanning commands."""
    subparser.add_argument(
        "--workers", type=int, default=1,
        help="worker threads for crawling and per-frame validation",
    )
    subparser.add_argument(
        "--cache-size", type=int, default=None,
        help="max parsed artifacts kept in the content-addressed cache "
             "(0 disables it)",
    )
    subparser.add_argument(
        "--stage-timings", action="store_true",
        help="print per-stage wall time and parse-cache stats on stderr",
    )
    _add_plan_flag(subparser)
    _add_chaos_flags(subparser)


def _add_chaos_flags(subparser: argparse.ArgumentParser) -> None:
    """Fault-injection and deadline knobs shared by scanning commands."""
    group = subparser.add_argument_group("resilience")
    group.add_argument(
        "--chaos-plan", default="", metavar="PLAN",
        help="arm a deterministic fault plan for this run: a shipped "
             "plan name (see `repro chaos --list`) or a JSON plan file",
    )
    group.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="soft per-cycle deadline: past it, remaining work is "
             "cancelled at the next stage boundary and the cycle "
             "completes degraded-but-accounted",
    )
    group.add_argument(
        "--frame-deadline", type=float, default=None, metavar="SECONDS",
        help="soft per-frame deadline: an over-budget frame's remaining "
             "rules are quarantined as ERROR verdicts",
    )


def _add_plan_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--no-plan", action="store_true",
        help="compile rule plans without fused units (single-pass tree "
             "evaluation), so every rule runs through the per-rule "
             "evaluator; reports are byte-identical either way",
    )


def _add_provenance_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--provenance", action="store_true",
        help="attach source-anchored provenance records to every verdict "
             "(embedded in JSON reports, file:line in JUnit failures; "
             "text reports are unchanged)",
    )


def _add_telemetry_flags(subparser: argparse.ArgumentParser) -> None:
    """Observability exporters shared by scanning commands."""
    group = subparser.add_argument_group("telemetry")
    group.add_argument(
        "--trace-out", default="", metavar="FILE",
        help="write Chrome trace_event spans (chrome://tracing / Perfetto)",
    )
    group.add_argument(
        "--metrics-out", default="", metavar="FILE",
        help="write Prometheus text exposition after the run",
    )
    group.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve /metrics on 127.0.0.1:PORT on a daemon thread for "
             "the duration of the run (0 picks an ephemeral port)",
    )
    group.add_argument(
        "--metrics-oneshot", action="store_true",
        help="with --metrics-port: block for exactly one scrape after "
             "the run instead of serving throughout it",
    )
    group.add_argument(
        "--log-level", default="warning",
        choices=["debug", "info", "warning", "error"],
        help="structured-log threshold (stderr)",
    )
    group.add_argument(
        "--log-json", action="store_true",
        help="emit logs as one JSON object per line",
    )


def _add_output_format_flags(subparser: argparse.ArgumentParser) -> None:
    """--json / --junit as a mutually exclusive pair."""
    formats = subparser.add_mutually_exclusive_group()
    formats.add_argument("--json", action="store_true",
                         help="emit a machine-readable JSON report")
    formats.add_argument("--junit", action="store_true",
                         help="emit JUnit XML for CI systems")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="configvalidator",
        description="Declarative configuration validation (CVL).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    validate = subparsers.add_parser(
        "validate", help="validate a directory tree with the shipped packs"
    )
    validate.add_argument("--root", default="/", help="rootfs to scan")
    validate.add_argument("--name", default="host", help="entity name in reports")
    validate.add_argument("--targets", default="", help="comma-separated targets")
    validate.add_argument("--tags", default="", help="only rules with these tags")
    _add_output_format_flags(validate)
    validate.add_argument("--rules-dir", default="",
                          help="load packs from a rules repository checkout")
    validate.add_argument("--verbose", action="store_true")
    validate.add_argument("--only-failures", action="store_true")
    validate.add_argument(
        "--fail-on", default="",
        choices=["", "informational", "low", "medium", "high", "critical"],
        help="exit nonzero only for failures at or above this severity",
    )
    _add_scaling_flags(validate)
    _add_provenance_flag(validate)
    _add_telemetry_flags(validate)
    validate.set_defaults(func=_cmd_validate)

    coverage = subparsers.add_parser("coverage", help="Table 1 inventory")
    coverage.set_defaults(func=_cmd_coverage)

    rules = subparsers.add_parser("rules", help="list a target's rules")
    rules.add_argument("target")
    rules.set_defaults(func=_cmd_rules)

    dump = subparsers.add_parser("dump", help="parse a file and print its tree")
    dump.add_argument("file")
    dump.add_argument("--lens", default="", help="force a lens by name")
    dump.set_defaults(func=_cmd_dump)

    demo = subparsers.add_parser("demo", help="validate synthetic entities")
    demo.add_argument("scenario", choices=["host", "fleet", "cloud"])
    demo.add_argument("--hardening", type=float, default=0.5)
    demo.add_argument("--size", type=int, default=5)
    demo.add_argument("--only-failures", action="store_true")
    _add_scaling_flags(demo)
    _add_provenance_flag(demo)
    _add_telemetry_flags(demo)
    demo.set_defaults(func=_cmd_demo)

    profile = subparsers.add_parser(
        "profile",
        help="scan with telemetry on and rank hot/erroring rules and lenses",
    )
    profile.add_argument("--root", default="",
                         help="rootfs to scan (default: synthetic fleet)")
    profile.add_argument("--name", default="host",
                         help="entity name in reports (with --root)")
    profile.add_argument("--targets", default="",
                         help="comma-separated targets")
    profile.add_argument("--scenario", choices=["host", "fleet", "cloud"],
                         default="fleet",
                         help="synthetic workload when --root is not given")
    profile.add_argument("--size", type=int, default=5,
                         help="fleet size for the synthetic scenario")
    profile.add_argument("--top", type=int, default=10,
                         help="rows per profile ranking")
    _add_scaling_flags(profile)
    _add_telemetry_flags(profile)
    profile.set_defaults(func=_cmd_profile)

    trace = subparsers.add_parser(
        "trace",
        help="analyze an exported trace: critical path, worker lanes",
    )
    trace.add_argument("trace", help="trace file written by --trace-out")
    trace.add_argument("--top", type=int, default=10,
                       help="rows per section (critical path, lanes)")
    trace.add_argument("--json", action="store_true",
                       help="emit the analysis as JSON")
    trace.set_defaults(func=_cmd_trace)

    snapshot = subparsers.add_parser(
        "snapshot", help="capture a directory tree as a portable frame"
    )
    snapshot.add_argument("--root", default="/")
    snapshot.add_argument("--name", default="host")
    snapshot.add_argument("-o", "--output", default="-",
                          help="frame file ('-' for stdout)")
    snapshot.set_defaults(func=_cmd_snapshot)

    validate_frame = subparsers.add_parser(
        "validate-frame", help="validate a previously captured frame"
    )
    validate_frame.add_argument("frame")
    validate_frame.add_argument("--targets", default="")
    _add_output_format_flags(validate_frame)
    validate_frame.add_argument("--only-failures", action="store_true")
    _add_plan_flag(validate_frame)
    _add_provenance_flag(validate_frame)
    _add_telemetry_flags(validate_frame)
    validate_frame.set_defaults(func=_cmd_validate_frame)

    drift = subparsers.add_parser(
        "drift", help="compare verdicts between two captured frames"
    )
    drift.add_argument("baseline", help="earlier frame file")
    drift.add_argument("current", help="later frame file")
    drift.add_argument("--targets", default="")
    drift.add_argument("--json", action="store_true",
                       help="emit the drift report as JSON")
    drift.add_argument(
        "--fail-on", "--fail-level", dest="fail_on", default="",
        choices=["", "informational", "low", "medium", "high", "critical"],
        help="exit nonzero only for regressions at or above this "
             "severity (same semantics as `validate --fail-on`)",
    )
    drift.set_defaults(func=_cmd_drift)

    monitor = subparsers.add_parser(
        "monitor",
        help="run scan cycles on an interval with durable history, "
             "a live HTTP endpoint, and a health event stream",
    )
    monitor.add_argument("--root", default="",
                         help="rootfs to rescan each cycle "
                              "(default: synthetic fleet)")
    monitor.add_argument("--name", default="host",
                         help="entity name in reports (with --root)")
    monitor.add_argument("--targets", default="",
                         help="comma-separated targets")
    monitor.add_argument("--tags", default="",
                         help="only rules with these tags")
    monitor.add_argument("--scenario", choices=["host", "fleet", "cloud"],
                         default="fleet",
                         help="synthetic workload when --root is not given")
    monitor.add_argument("--size", type=int, default=5,
                         help="fleet size for the synthetic scenario")
    monitor.add_argument("--hardening", type=float, default=0.5,
                         help="hardening rate of the synthetic workload")
    monitor.add_argument("--interval", type=float, default=30.0,
                         metavar="SECONDS",
                         help="sleep between scan cycles")
    monitor.add_argument("--max-cycles", type=int, default=None,
                         metavar="N",
                         help="stop after N cycles (default: run forever)")
    monitor.add_argument("--history-db", default="repro-history.sqlite",
                         metavar="PATH",
                         help="SQLite fleet-health history store")
    monitor.add_argument("--retain-cycles", type=int, default=None,
                         metavar="N",
                         help="prune history beyond the newest N cycles")
    monitor.add_argument("--events-out", default="", metavar="FILE",
                         help="append health events as NDJSON")
    monitor.add_argument("--webhook", default="", metavar="URL",
                         help="POST each cycle's events as JSON "
                              "(best-effort, bounded retry)")
    monitor.add_argument("--webhook-timeout", type=float, default=3.0,
                         metavar="SECONDS")
    monitor.add_argument("--flap-window", type=int, default=6,
                         metavar="CYCLES",
                         help="sliding window for flap detection")
    monitor.add_argument("--flap-min-transitions", type=int, default=3,
                         metavar="N",
                         help="verdict changes within the window that "
                              "classify a rule as flapping")
    monitor.add_argument("--port", type=int, default=None, metavar="PORT",
                         help="serve /metrics /healthz /readyz /status "
                              "/history on 127.0.0.1:PORT (0 = ephemeral)")
    monitor.add_argument("--port-file", default="", metavar="FILE",
                         help="write the bound endpoint port to FILE")
    monitor.add_argument("--status-cycles", type=int, default=20,
                         metavar="N",
                         help="cycle rollups returned by /history")
    monitor.add_argument("--report-out", default="", metavar="FILE",
                         help="write the final cycle's JSON report "
                              "(byte-identical to `validate --json`)")
    _add_scaling_flags(monitor)
    monitor.add_argument(
        "--incremental", action="store_true",
        help="keep a verdict store across cycles and replay the verdicts "
             "whose recorded inputs are unchanged",
    )
    _add_provenance_flag(monitor)
    _add_telemetry_flags(monitor)
    monitor.set_defaults(func=_cmd_monitor)

    history = subparsers.add_parser(
        "history",
        help="inspect a monitor's history store (cycle table, trends)",
    )
    history.add_argument("--db", default="repro-history.sqlite",
                         metavar="PATH", help="history store to read")
    history.add_argument("--last", type=int, default=None, metavar="N",
                         help="only the newest N cycles")
    history.add_argument("--entity", default="", metavar="TARGET",
                         help="per-entity trend instead of the cycle table")
    history.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")
    history.set_defaults(func=_cmd_history)

    flaps = subparsers.add_parser(
        "flaps",
        help="flapping and top-regressing rules from a history store",
    )
    flaps.add_argument("--db", default="repro-history.sqlite",
                       metavar="PATH", help="history store to read")
    flaps.add_argument("--window", type=int, default=6, metavar="CYCLES",
                       help="sliding window for flap detection")
    flaps.add_argument("--min-transitions", type=int, default=3,
                       metavar="N",
                       help="verdict changes within the window that "
                            "classify a rule as flapping")
    flaps.add_argument("--top", type=int, default=10,
                       help="rows in the top-regressing ranking")
    flaps.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
    flaps.set_defaults(func=_cmd_flaps)

    chaos = subparsers.add_parser(
        "chaos",
        help="run a scan cycle under a fault plan and assert the "
             "degraded-but-accounted resilience invariants",
    )
    chaos.add_argument("plan", nargs="?", default="",
                       help="shipped plan name or JSON plan file")
    chaos.add_argument("--list", action="store_true",
                       help="list the shipped fault plans and exit")
    chaos.add_argument("--workers", type=int, default=2,
                       help="worker threads for both runs")
    chaos.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="cycle deadline for the armed run")
    chaos.add_argument("--frame-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-frame deadline for the armed run")
    chaos.add_argument("--size", type=int, default=4, metavar="IMAGES",
                       help="synthetic fleet size (images; 2 containers "
                            "each)")
    chaos.add_argument("--json", action="store_true",
                       help="emit the harness verdict as JSON")
    _add_plan_flag(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    framediff = subparsers.add_parser(
        "framediff", help="diff two captured frames (files/packages/runtime)"
    )
    framediff.add_argument("baseline")
    framediff.add_argument("current")
    framediff.add_argument("--show", default="",
                           help="comma-separated paths to show unified diffs for")
    framediff.set_defaults(func=_cmd_framediff)

    explain = subparsers.add_parser(
        "explain",
        help="explain verdicts with source-anchored diagnostics "
             "(file:line:col, excerpt, predicate, suggested action)",
    )
    explain.add_argument("entity", help="entity (pack) to explain, "
                                        "e.g. nginx or sshd")
    explain.add_argument("rule", nargs="?", default="",
                         help="explain just this rule (any verdict); "
                              "default: every failing verdict")
    explain.add_argument("--root", default="",
                         help="rootfs to scan (default: synthetic host)")
    explain.add_argument("--name", default="host",
                         help="entity name in reports (with --root)")
    explain.add_argument("--frame", default="", metavar="FILE",
                         help="explain a previously captured frame instead "
                              "of crawling")
    explain.add_argument("--scenario", choices=["host", "fleet", "cloud"],
                         default="host",
                         help="synthetic workload when neither --root nor "
                              "--frame is given")
    explain.add_argument("--size", type=int, default=5,
                         help="fleet size for the synthetic scenario")
    explain.add_argument("--hardening", type=float, default=0.5,
                         help="hardening rate of the synthetic workload")
    explain.add_argument("--context", type=int, default=2,
                         help="source lines shown above each anchor")
    explain.add_argument("--json", action="store_true",
                         help="emit machine-readable explanations")
    explain.add_argument("--provenance-out", default="", metavar="FILE",
                         help="also write the provenance records as JSON")
    explain.add_argument("--since", action="store_true",
                         help="cross-cycle mode: find the cycle the rule "
                              "started failing in a monitor's history "
                              "store and diff the anchored source lines")
    explain.add_argument("--history-db", default="repro-history.sqlite",
                         metavar="PATH",
                         help="history store for --since")
    explain.set_defaults(func=_cmd_explain)

    lint = subparsers.add_parser(
        "lint", help="lint the shipped rule packs"
    )
    lint.set_defaults(func=_cmd_lint)

    scaffold = subparsers.add_parser(
        "scaffold", help="generate a golden-config CVL profile from a file"
    )
    scaffold.add_argument("file")
    scaffold.add_argument("--lens", default="")
    scaffold.add_argument("--max-rules", type=int, default=100)
    scaffold.set_defaults(func=_cmd_scaffold)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`); not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
