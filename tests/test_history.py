"""HistoryStore contract tests: round-trip fidelity, retention with
cascade, durability across reopen, and thread-safe concurrent writers.

The store is the monitor's source of truth -- every analyzer feature
(flaps, streaks, restart rehydration) reads back what these tests pin
down.
"""

import sqlite3
import threading

import pytest

from repro.crawler import ContainerEntity, Crawler, DockerImageEntity
from repro.engine.batch import BatchScanner
from repro.history import HistoryStore, report_verdict_map
from repro.rules import load_builtin_validator
from repro.workloads import FleetSpec, build_fleet, ubuntu_host_entity


@pytest.fixture(scope="module")
def summary():
    """One scanned fleet cycle shared by the read-back tests."""
    _daemon, images, containers = build_fleet(
        FleetSpec(images=1, containers_per_image=2, misconfig_rate=0.5,
                  seed=5)
    )
    entities = [DockerImageEntity(i) for i in images]
    entities += [ContainerEntity(c) for c in containers]
    entities.append(ubuntu_host_entity("hist-host", hardening=0.4, seed=2))
    frames = Crawler().crawl_many(entities)
    scanner = BatchScanner(load_builtin_validator())
    return scanner.scan_frames(frames)


class TestRoundTrip:
    def test_cycle_row_matches_summary(self, summary):
        with HistoryStore() as store:
            cycle_id = store.record_cycle(summary)
            row = store.cycle(cycle_id)
        counts = summary.report.counts()
        assert row is not None and not row.failed_cycle
        assert row.entities == summary.entities_scanned
        assert row.checks == counts["total"]
        assert row.compliant == counts["compliant"]
        assert row.noncompliant == counts["noncompliant"]
        assert row.errors == counts["error"]
        assert row.not_applicable == counts["not_applicable"]
        assert row.compliance == pytest.approx(summary.compliance_rate())
        assert row.started_at == pytest.approx(summary.started_at)
        assert row.elapsed_s == pytest.approx(summary.elapsed_s)

    def test_verdict_map_round_trips(self, summary):
        with HistoryStore() as store:
            cycle_id = store.record_cycle(summary)
            stored = store.verdict_map(cycle_id)
        assert stored == report_verdict_map(summary.report)

    def test_verdict_rows_carry_severity(self, summary):
        severities = {
            (r.target, r.entity, r.rule.name): r.rule.severity
            for r in summary.report
        }
        with HistoryStore() as store:
            cycle_id = store.record_cycle(summary)
            rows = store.verdicts(cycle_id)
        assert rows, "cycle stored no verdicts"
        for row in rows:
            assert row.severity == severities[row.key]

    def test_entity_rollups_and_targets(self, summary):
        with HistoryStore() as store:
            cycle_id = store.record_cycle(summary)
            targets = store.targets()
            trends = {
                target: store.entity_trend(target) for target in targets
            }
        assert targets == sorted(summary.entities)
        for target, rollup in summary.entities.items():
            trend = trends[target]
            assert len(trend) == 1
            assert trend[0].cycle_id == cycle_id
            assert trend[0].passed == rollup.passed
            assert trend[0].failed == rollup.failed
            assert trend[0].worst_severity == rollup.worst_severity

    def test_rule_history_tracks_cycles(self, summary):
        with HistoryStore() as store:
            ids = [store.record_cycle(summary) for _ in range(3)]
            key = next(iter(report_verdict_map(summary.report)))
            series = store.rule_history(*key)
            tail = store.rule_history(*key, last=2)
        assert [cycle for cycle, _verdict in series] == ids
        assert tail == series[-2:]

    def test_scan_error_cycle(self, summary):
        with HistoryStore() as store:
            good = store.record_cycle(summary)
            bad = store.record_scan_error("crawler exploded", elapsed_s=1.5)
            row = store.cycle(bad)
            assert row is not None and row.failed_cycle
            assert row.scan_error == "crawler exploded"
            assert row.checks == 0
            stats = store.stats()
        assert bad == good + 1
        assert stats.cycles_recorded == 2
        assert stats.error_cycles_recorded == 1


class TestDurability:
    def test_reopen_reads_back(self, summary, tmp_path):
        path = str(tmp_path / "history.sqlite")
        with HistoryStore(path) as store:
            cycle_id = store.record_cycle(summary)
            expected = store.verdict_map(cycle_id)
        with HistoryStore(path) as reopened:
            assert reopened.cycle_count() == 1
            assert reopened.latest_cycle_id() == cycle_id
            assert reopened.verdict_map(cycle_id) == expected
            reopened.record_cycle(summary)
        with HistoryStore(path) as again:
            assert again.cycle_count() == 2
        assert not list(tmp_path.glob("history.sqlite.quarantined.*"))

    def test_close_checkpoints_wal(self, summary, tmp_path):
        path = str(tmp_path / "history.sqlite")
        with HistoryStore(path) as store:
            store.record_cycle(summary)
        wal = tmp_path / "history.sqlite-wal"
        assert not wal.exists() or wal.stat().st_size == 0

    def test_db_bytes_counts_the_wal(self, summary, tmp_path):
        """Until a checkpoint the rows sit in the -wal file, so the size
        on disk is the main file's plus the WAL's."""
        path = tmp_path / "history.sqlite"
        wal = tmp_path / "history.sqlite-wal"
        with HistoryStore(str(path)) as store:
            for _ in range(3):
                store.record_cycle(summary)
            assert wal.stat().st_size > 0
            assert store.stats().db_bytes == (path.stat().st_size
                                              + wal.stat().st_size)

    @pytest.mark.parametrize("layout", ["unstamped", "autoincrement",
                                        "other-version"])
    def test_other_layout_is_quarantined(self, summary, tmp_path, layout):
        """A database this build did not write -- unstamped, as every
        build before the layout stamp left it, or stamped with another
        version -- moves aside with its rows, and a fresh one starts."""
        from repro.chaos.fabric import fabric
        from repro.history.store import _SCHEMA, LAYOUT_VERSION

        path = tmp_path / "history.sqlite"
        schema = _SCHEMA
        if layout == "autoincrement":
            schema = _SCHEMA.replace(
                "cycle_id       INTEGER PRIMARY KEY,",
                "cycle_id       INTEGER PRIMARY KEY AUTOINCREMENT,")
        version = LAYOUT_VERSION + 1 if layout == "other-version" else 0
        conn = sqlite3.connect(path)
        try:
            conn.executescript(schema)
            conn.execute("INSERT INTO cycles (started_at) VALUES (1.0)")
            conn.execute(f"PRAGMA user_version = {version}")
            conn.commit()
        finally:
            conn.close()
        before = fabric().account.snapshot()
        with HistoryStore(str(path)) as store:
            assert store.cycle_count() == 0
            cycle_id = store.record_cycle(summary)
            assert store.verdict_map(cycle_id) == report_verdict_map(
                summary.report)
        assert fabric().account.delta_since(before).stores_quarantined == 1
        (moved,) = tmp_path.glob("history.sqlite.quarantined.*")
        conn = sqlite3.connect(moved)
        try:
            assert conn.execute(
                "SELECT COUNT(*) FROM cycles").fetchone()[0] == 1
            assert conn.execute(
                "PRAGMA user_version").fetchone()[0] == version
        finally:
            conn.close()
        # The fresh database carries this build's stamp: it reopens.
        with HistoryStore(str(path)) as reopened:
            assert reopened.cycle_count() == 1
        assert len(list(tmp_path.glob("history.sqlite.quarantined.*"))) == 1


class TestRetention:
    def test_prune_keeps_newest_and_cascades(self, summary, tmp_path):
        path = str(tmp_path / "history.sqlite")
        with HistoryStore(path, retain_cycles=3) as store:
            ids = [store.record_cycle(summary) for _ in range(7)]
            rows = store.cycles()
            assert [row.cycle_id for row in rows] == ids[-3:]
            assert store.stats().cycles_pruned == 4
            # Cascade: no verdict run or rollup row lies wholly in pruned
            # cycles, and readers see only the retained ones.
            conn = sqlite3.connect(path)
            try:
                orphans = conn.execute(
                    "SELECT COUNT(*) FROM verdict_runs WHERE last_cycle < ?",
                    (ids[-3],),
                ).fetchone()[0]
                rollup_orphans = conn.execute(
                    "SELECT COUNT(*) FROM entity_runs WHERE last_cycle < ?",
                    (ids[-3],),
                ).fetchone()[0]
            finally:
                conn.close()
            assert orphans == 0
            assert rollup_orphans == 0
            key = next(iter(report_verdict_map(summary.report)))
            assert [cycle for cycle, _v in store.rule_history(*key)] \
                == ids[-3:]
            target = next(iter(summary.entities))
            assert [row.cycle_id for row in store.entity_trend(target)] \
                == ids[-3:]

    def test_explicit_prune(self, summary):
        with HistoryStore() as store:
            for _ in range(5):
                store.record_cycle(summary)
            assert store.prune(2) == 3
            assert store.cycle_count() == 2
            # One-off prune must not install a standing retention.
            assert store.retain_cycles is None

    def test_cycle_ids_increase_across_prune_and_reopen(self, summary,
                                                        tmp_path):
        """Cycles are keyed by plain rowid, and a pruned, reopened store
        never reuses an id, since retention keeps the newest cycle."""
        path = str(tmp_path / "history.sqlite")
        with HistoryStore(path) as store:
            ids = [store.record_cycle(summary) for _ in range(3)]
            ids.append(store.record_scan_error("crawler exploded"))
            assert store.prune(1) == 3
        with HistoryStore(path) as reopened:
            ids.append(reopened.record_cycle(summary))
            assert reopened.prune(1) == 1
            ids.append(reopened.record_cycle(summary))
            assert [row.cycle_id for row in reopened.cycles()] == ids[-2:]
        assert ids == sorted(set(ids))
        conn = sqlite3.connect(path)
        try:
            sequence = conn.execute(
                "SELECT name FROM sqlite_master WHERE name = ?",
                ("sqlite_sequence",)).fetchone()
        finally:
            conn.close()
        assert sequence is None

    def test_retain_cycles_validation(self):
        with pytest.raises(ValueError):
            HistoryStore(retain_cycles=0)

    @pytest.mark.parametrize("retain", [0, -1])
    def test_explicit_prune_rejects_dropping_every_cycle(self, summary,
                                                          retain):
        with HistoryStore() as store:
            for _ in range(3):
                store.record_cycle(summary)
            with pytest.raises(ValueError, match="retain_cycles must be >= 1"):
                store.prune(retain)
            assert store.cycle_count() == 3
            assert store.retain_cycles is None


class TestConcurrency:
    def test_concurrent_writers_all_land(self, summary, tmp_path):
        path = str(tmp_path / "history.sqlite")
        writers, cycles_each = 4, 3
        with HistoryStore(path) as store:
            errors: list[Exception] = []

            def write() -> None:
                try:
                    for _ in range(cycles_each):
                        store.record_cycle(summary)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=write)
                       for _ in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert store.cycle_count() == writers * cycles_each
            expected = report_verdict_map(summary.report)
            for row in store.cycles():
                assert store.verdict_map(row.cycle_id) == expected

    def test_two_writers_share_one_database(self, summary, tmp_path):
        """Each writer picks up the other's open runs before appending,
        so interleaved cycles read back exactly once each."""
        path = str(tmp_path / "history.sqlite")
        expected = report_verdict_map(summary.report)
        with HistoryStore(path) as first, HistoryStore(path) as second:
            ids = [first.record_cycle(summary), second.record_cycle(summary),
                   first.record_cycle(summary)]
            for cycle_id in ids:
                rows = first.verdicts(cycle_id)
                assert len(rows) == len(expected)
                assert {row.key: row.verdict for row in rows} == expected
            key = next(iter(expected))
            assert [cycle for cycle, _v in second.rule_history(*key)] == ids

    def test_reader_coexists_with_writer(self, summary, tmp_path):
        path = str(tmp_path / "history.sqlite")
        with HistoryStore(path) as store:
            stop = threading.Event()
            errors: list[Exception] = []

            def read() -> None:
                try:
                    while not stop.is_set():
                        store.cycles(last=2)
                        store.stats()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            reader = threading.Thread(target=read)
            reader.start()
            try:
                for _ in range(5):
                    store.record_cycle(summary)
            finally:
                stop.set()
                reader.join()
            assert not errors
            assert store.cycle_count() == 5


class TestWindows:
    def test_verdict_windows_honor_window(self, summary):
        with HistoryStore() as store:
            ids = [store.record_cycle(summary) for _ in range(5)]
            windows = store.verdict_windows(2)
        expected_cycles = ids[-2:]
        assert windows
        for series in windows.values():
            assert [cycle for cycle, _verdict in series] == expected_cycles

    def test_attach_to_exports_counters(self, summary):
        from repro.telemetry import Telemetry
        from repro.telemetry.stats import publish_on_scrape

        telemetry = Telemetry()
        with HistoryStore() as store:
            publish_on_scrape(telemetry.metrics, store.stats)
            store.record_cycle(summary)
            from repro.telemetry.export import render_prometheus

            text = render_prometheus(telemetry.metrics)
        assert "repro_history_cycles_recorded_total 1" in text
        assert "repro_history_db_cycles 1" in text
        assert "repro_history_rows_written_total" in text
