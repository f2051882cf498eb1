"""Differential test of the run-based history store.

:class:`RowStore` below is the one-row-per-(cycle, key) writer and its
readers as they were before verdicts were stored as runs, kept here as
the reference.  The same random cycles -- scan errors, message-only
changes, series and frames appearing and disappearing, provenance
records, mid-run pruning and a reopen -- are recorded into both, with
and without the reports' verdict deltas, and every reader must agree:
``cycles``, ``verdicts``, ``verdict_map``, ``verdict_windows``,
``rule_history`` with and without ``last``, ``provenance_for``,
``entity_trend``, ``targets``, the analyzer's ``regression_counts``,
``streaks`` and flap state, and ``repro explain --since``.  A database
the reference wrote is another layout: the store quarantines it at open.
"""

import argparse
import json
import random
import sqlite3

import pytest

from repro.cli import _explain_since
from repro.cvl.model import Rule
from repro.engine.batch import BatchScanner
from repro.engine.delta import VerdictDelta, delta_between
from repro.engine.engine import ConfigValidator
from repro.engine.explain import failing_streak_start, render_transition
from repro.engine.provenance import ProvenanceRecord
from repro.engine.results import Outcome, RuleResult, ValidationReport, Verdict
from repro.history import HealthAnalyzer, HistoryStore
from repro.history.store import (
    _CODES_BY_MEMBER,
    _MESSAGE_CODES,
    _VERDICT_NAMES,
    CycleRow,
    EntityTrendRow,
    VerdictRow,
    _CYCLE_COLUMNS,
)

_ROW_SCHEMA = """
CREATE TABLE cycles (
    cycle_id       INTEGER PRIMARY KEY AUTOINCREMENT,
    started_at     REAL    NOT NULL,
    elapsed_s      REAL    NOT NULL DEFAULT 0,
    entities       INTEGER NOT NULL DEFAULT 0,
    checks         INTEGER NOT NULL DEFAULT 0,
    compliant      INTEGER NOT NULL DEFAULT 0,
    noncompliant   INTEGER NOT NULL DEFAULT 0,
    errors         INTEGER NOT NULL DEFAULT 0,
    not_applicable INTEGER NOT NULL DEFAULT 0,
    compliance     REAL    NOT NULL DEFAULT 1.0,
    crawl_s        REAL    NOT NULL DEFAULT 0,
    discover_s     REAL    NOT NULL DEFAULT 0,
    parse_s        REAL    NOT NULL DEFAULT 0,
    evaluate_s     REAL    NOT NULL DEFAULT 0,
    composite_s    REAL    NOT NULL DEFAULT 0,
    parse_hits     INTEGER NOT NULL DEFAULT 0,
    parse_misses   INTEGER NOT NULL DEFAULT 0,
    parse_hit_rate REAL    NOT NULL DEFAULT 0,
    rules_skipped  INTEGER NOT NULL DEFAULT 0,
    rules_evaluated INTEGER NOT NULL DEFAULT 0,
    frames_clean   INTEGER NOT NULL DEFAULT 0,
    frames_dirty   INTEGER NOT NULL DEFAULT 0,
    scan_error     TEXT    NOT NULL DEFAULT '',
    exec_json      TEXT    NOT NULL DEFAULT '',
    scan_error_stage TEXT  NOT NULL DEFAULT '',
    scan_error_frame TEXT  NOT NULL DEFAULT ''
);
CREATE TABLE series (
    series_id INTEGER PRIMARY KEY,
    target    TEXT NOT NULL,
    entity    TEXT NOT NULL,
    rule      TEXT NOT NULL,
    severity  TEXT NOT NULL DEFAULT '',
    UNIQUE (target, entity, rule)
);
CREATE TABLE verdicts (
    cycle_id  INTEGER NOT NULL,
    series_id INTEGER NOT NULL,
    verdict   INTEGER NOT NULL,
    message   TEXT    NOT NULL DEFAULT '',
    PRIMARY KEY (cycle_id, series_id)
) WITHOUT ROWID;
CREATE TABLE entity_rollups (
    cycle_id INTEGER NOT NULL,
    target   TEXT    NOT NULL,
    passed   INTEGER NOT NULL DEFAULT 0,
    failed   INTEGER NOT NULL DEFAULT 0,
    worst_severity TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (cycle_id, target)
) WITHOUT ROWID;
CREATE TABLE provenance (
    cycle_id  INTEGER NOT NULL,
    series_id INTEGER NOT NULL,
    record    TEXT    NOT NULL,
    PRIMARY KEY (cycle_id, series_id)
) WITHOUT ROWID;
"""


class RowStore:
    """The reference: one ``verdicts`` row per (cycle, key) and one
    ``entity_rollups`` row per (cycle, frame), read back directly."""

    def __init__(self, path: str):
        self.path = path
        self._conn = sqlite3.connect(path)
        self._conn.row_factory = sqlite3.Row
        if not self._conn.execute(
                "SELECT 1 FROM sqlite_master WHERE name = 'cycles'").fetchone():
            self._conn.executescript(_ROW_SCHEMA)
        self._series_ids = {
            (row["target"], row["entity"], row["rule"]): row["series_id"]
            for row in self._conn.execute("SELECT * FROM series")
        }

    def close(self):
        self._conn.close()

    def record_cycle(self, summary) -> int:
        counts = summary.report.counts()
        observed, records = {}, {}
        for result in summary.report:
            code = _CODES_BY_MEMBER[result.verdict]
            key = (result.target, result.entity, result.rule.name)
            observed[key] = (code, result.message
                             if code in _MESSAGE_CODES else "",
                             result.rule.severity)
            if result._provenance is not None:
                records[key] = json.dumps(result.provenance.to_dict(),
                                          separators=(",", ":"))
        conn = self._conn
        for key in observed:
            if key not in self._series_ids:
                cursor = conn.execute(
                    "INSERT INTO series (target, entity, rule, severity)"
                    " VALUES (?,?,?,?)", (*key, observed[key][2]))
                self._series_ids[key] = cursor.lastrowid
        checked = counts["compliant"] + counts["noncompliant"]
        cursor = conn.execute(
            "INSERT INTO cycles (started_at, elapsed_s, entities, checks,"
            " compliant, noncompliant, errors, not_applicable, compliance)"
            " VALUES (?,?,?,?,?,?,?,?,?)",
            (summary.started_at, summary.elapsed_s,
             summary.entities_scanned, counts["total"], counts["compliant"],
             counts["noncompliant"], counts["error"],
             counts["not_applicable"],
             counts["compliant"] / checked if checked else 1.0))
        cycle_id = cursor.lastrowid
        conn.executemany(
            "INSERT INTO verdicts VALUES (?,?,?,?)",
            [(cycle_id, self._series_ids[key], code, message)
             for key, (code, message, _s) in observed.items()])
        conn.executemany(
            "INSERT INTO entity_rollups VALUES (?,?,?,?,?)",
            [(cycle_id, r.target, r.passed, r.failed, r.worst_severity)
             for r in summary.entities.values()])
        conn.executemany(
            "INSERT INTO provenance VALUES (?,?,?)",
            [(cycle_id, self._series_ids[key], record)
             for key, record in records.items()])
        conn.commit()
        return cycle_id

    def record_scan_error(self, message: str, *, started_at: float) -> int:
        cursor = self._conn.execute(
            "INSERT INTO cycles (started_at, scan_error) VALUES (?,?)",
            (started_at, message))
        self._conn.commit()
        return cursor.lastrowid

    def prune(self, retain: int) -> None:
        newest = self._conn.execute(
            "SELECT MAX(cycle_id) FROM cycles").fetchone()[0]
        for table in ("cycles", "verdicts", "entity_rollups", "provenance"):
            self._conn.execute(f"DELETE FROM {table} WHERE cycle_id <= ?",
                               (newest - retain,))
        self._conn.commit()

    # ---- readers, as they were ------------------------------------------

    def cycles(self):
        rows = self._conn.execute(
            f"SELECT {', '.join(_CYCLE_COLUMNS)} FROM cycles ORDER BY"
            " cycle_id").fetchall()
        return [CycleRow(**{name: row[name] for name in _CYCLE_COLUMNS})
                for row in rows]

    def successful_cycle_ids(self, last):
        rows = self._conn.execute(
            "SELECT cycle_id FROM cycles WHERE scan_error = '' ORDER BY"
            " cycle_id DESC LIMIT ?", (last,)).fetchall()
        return [row[0] for row in reversed(rows)]

    def verdicts(self, cycle_id):
        rows = self._conn.execute(
            "SELECT v.cycle_id, s.target, s.entity, s.rule, v.verdict,"
            " s.severity, v.message FROM verdicts v JOIN series s"
            " ON s.series_id = v.series_id WHERE v.cycle_id = ?"
            " ORDER BY s.target, s.entity, s.rule", (cycle_id,)).fetchall()
        return [VerdictRow(row["cycle_id"], row["target"], row["entity"],
                           row["rule"], _VERDICT_NAMES[row["verdict"]],
                           row["severity"], row["message"]) for row in rows]

    def verdict_map(self, cycle_id):
        return {row.key: row.verdict for row in self.verdicts(cycle_id)}

    def verdict_windows(self, window, *, successful_only=False):
        where = " WHERE scan_error = ''" if successful_only else ""
        low = self._conn.execute(
            "SELECT MIN(cycle_id) FROM (SELECT cycle_id FROM cycles"
            f"{where} ORDER BY cycle_id DESC LIMIT ?)",
            (max(1, window),)).fetchone()[0]
        if low is None:
            return {}
        series = {}
        for row in self._conn.execute(
                "SELECT v.cycle_id, s.target, s.entity, s.rule, v.verdict"
                " FROM verdicts v JOIN series s ON s.series_id = v.series_id"
                " WHERE v.cycle_id >= ? ORDER BY v.cycle_id, v.series_id",
                (low,)):
            key = (row["target"], row["entity"], row["rule"])
            series.setdefault(key, []).append(
                (row["cycle_id"], _VERDICT_NAMES[row["verdict"]]))
        return series

    def rule_history(self, target, entity, rule, last=None):
        series_id = self._series_ids.get((target, entity, rule))
        if series_id is None:
            return []
        rows = self._conn.execute(
            "SELECT cycle_id, verdict FROM verdicts WHERE series_id = ?"
            " ORDER BY cycle_id", (series_id,)).fetchall()
        out = [(row[0], _VERDICT_NAMES[row[1]]) for row in rows]
        return out if last is None else out[max(0, len(out) - last):]

    def provenance_for(self, target, entity, rule, cycle_id=None):
        series_id = self._series_ids.get((target, entity, rule))
        if series_id is None:
            return None
        if cycle_id is None:
            row = self._conn.execute(
                "SELECT record FROM provenance WHERE series_id = ? ORDER BY"
                " cycle_id DESC LIMIT 1", (series_id,)).fetchone()
        else:
            row = self._conn.execute(
                "SELECT record FROM provenance WHERE cycle_id = ? AND"
                " series_id = ?", (cycle_id, series_id)).fetchone()
        return None if row is None else json.loads(row[0])

    def entity_trend(self, target, last=None):
        rows = self._conn.execute(
            "SELECT r.cycle_id, c.started_at, r.target, r.passed, r.failed,"
            " r.worst_severity FROM entity_rollups r JOIN cycles c"
            " ON c.cycle_id = r.cycle_id WHERE r.target = ?"
            " ORDER BY r.cycle_id", (target,)).fetchall()
        out = [EntityTrendRow(**dict(row)) for row in rows]
        return out if last is None else out[max(0, len(out) - last):]

    def targets(self):
        return [row[0] for row in self._conn.execute(
            "SELECT DISTINCT target FROM entity_rollups ORDER BY target")]


# ---- random cycles ----------------------------------------------------------

TARGETS = [f"host:h{i}" for i in range(4)] + ["container:c0"]
ENTITIES = ["sshd", "nginx"]
RULES = {(entity, f"r{i}"): Rule(name=f"r{i}", severity=severity)
         for entity in ENTITIES
         for i, severity in enumerate(["low", "high", "critical", "medium",
                                       "bogus"])}
VERDICTS = list(Verdict)


def _provenance(key, verdict, cycle):
    return ProvenanceRecord.from_dict({
        "route": "direct", "predicate": f"{key[2]} is {verdict.value}",
        "anchors": [{"file": f"/etc/{key[1]}.conf", "path": key[2],
                     "value": verdict.value,
                     "span": [3, 1, 3, 9, 20, 28],
                     "excerpt": f"{key[2]} {verdict.value} #{cycle % 3}"}],
    })


class Fleet:
    """A random fleet state that drifts a little every cycle."""

    def __init__(self, rng):
        self.rng = rng
        self.state = {}
        for target in TARGETS:
            for (entity, name) in RULES:
                if rng.random() < 0.8:
                    self.state[(target, entity, name)] = (
                        rng.choice(VERDICTS), "m0")
        self.present = set(TARGETS)

    def step(self):
        rng = self.rng
        for key, (verdict, message) in list(self.state.items()):
            roll = rng.random()
            if roll < 0.08:
                verdict = rng.choice(VERDICTS)
            elif roll < 0.12:
                message = rng.choice(["m0", "m1", "m2"])   # message only
            elif roll < 0.14:
                del self.state[key]                     # series leaves
                continue
            self.state[key] = (verdict, message)
        if rng.random() < 0.3:
            key = (rng.choice(TARGETS), *rng.choice(list(RULES)))
            self.state.setdefault(key, (rng.choice(VERDICTS), "m0"))
        if rng.random() < 0.2:
            target = rng.choice(TARGETS)
            self.present ^= {target}                    # frame leaves/returns

    def report(self, cycle, provenance):
        report = ValidationReport(target="fleet")
        for key in sorted(self.state):
            if key[0] not in self.present:
                continue
            verdict, message = self.state[key]
            result = RuleResult(
                rule=RULES[key[1:]], entity=key[1], target=key[0],
                verdict=verdict, outcome=Outcome.MATCHED,
                message=f"{key[2]}: {message}")
            if provenance:
                result.provenance = _provenance(key, verdict, cycle)
            report.add(result)
        return report


def _with_delta(report, previous, rng, provenance):
    """Attach a verdict delta as an incremental run would: based on the
    previous report when the key set is unchanged, sometimes a rebuild,
    sometimes based on a report the stores never saw."""
    base = None
    if (previous is not None and previous.delta is not None
            and [(r.target, r.entity, r.rule.name) for r in previous]
            == [(r.target, r.entity, r.rule.name) for r in report]):
        roll = rng.random()
        if roll < 0.8:
            base = previous.delta.token
        elif roll < 0.9:
            base = object()
    report.delta = VerdictDelta(
        delta_between(previous, report).changes if previous else {},
        token=object(), base=base, provenance=provenance)


def _answers(store, keys, targets, explain):
    """Every reader's output, as plain data."""
    out = {"cycles": [row.to_dict() for row in store.cycles()]}
    ids = [row["cycle_id"] for row in out["cycles"]]
    for cycle_id in ids + [max(ids, default=0) + 1]:
        out[f"verdicts/{cycle_id}"] = [row.to_dict()
                                       for row in store.verdicts(cycle_id)]
        out[f"map/{cycle_id}"] = sorted(store.verdict_map(cycle_id).items())
    for window in (1, 3, 6, 50):
        for successful in (False, True):
            out[f"windows/{window}/{successful}"] = list(
                store.verdict_windows(window,
                                      successful_only=successful).items())
    for key in keys:
        out[f"history/{key}"] = store.rule_history(*key)
        out[f"history3/{key}"] = store.rule_history(*key, last=3)
        out[f"prov/{key}"] = store.provenance_for(*key)
        for cycle_id in ids[-4:]:
            out[f"prov/{key}/{cycle_id}"] = store.provenance_for(
                *key, cycle_id=cycle_id)
    out["targets"] = store.targets()
    for target in targets:
        out[f"trend/{target}"] = [row.to_dict()
                                  for row in store.entity_trend(target)]
        out[f"trend2/{target}"] = [
            row.to_dict() for row in store.entity_trend(target, last=2)]
    analyzer = HealthAnalyzer(store, flap_window=4, flap_min_transitions=2)
    out["flapping"] = analyzer.flapping_details()
    for window in (3, 20):
        out[f"regressions/{window}"] = analyzer.regression_counts(window)
        out[f"streaks/{window}"] = analyzer.streaks(window)
        out[f"streaks-nc/{window}"] = analyzer.streaks(window, "noncompliant")
    out["explain"] = [explain(store, key) for key in keys]
    return out


def _reference_explain(store, key):
    """``repro explain --since`` over the reference store."""
    _target, entity, rule = key
    rendered = []
    for target in store.targets():
        streak = failing_streak_start(store.rule_history(target, entity, rule))
        if streak is None:
            continue
        first_fail, last_pass = streak
        rendered.append(render_transition(
            target, entity, rule, first_fail=first_fail, last_pass=last_pass,
            failing=store.provenance_for(target, entity, rule, first_fail),
            passing=(store.provenance_for(target, entity, rule, last_pass)
                     if last_pass is not None else None)))
    return "\n\n".join(rendered)


def _cli_explain(capsys):
    def explain(store, key):
        capsys.readouterr()
        args = argparse.Namespace(entity=key[1], rule=key[2],
                                  history_db=store.path)
        code = _explain_since(args)
        out = capsys.readouterr().out
        return out.rstrip("\n") if code == 0 else ""
    return explain


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_runs_store_matches_row_reference(tmp_path, capsys, seed):
    rng = random.Random(seed)
    fleet = Fleet(rng)
    scanner = BatchScanner(ConfigValidator())
    runs_path = str(tmp_path / "runs.sqlite")
    rows_path = str(tmp_path / "rows.sqlite")
    runs, rows = HistoryStore(runs_path), RowStore(rows_path)
    previous = None
    cycles = 24
    try:
        for cycle in range(cycles):
            started_at = 1_700_000_000.0 + cycle
            if rng.random() < 0.15:
                message = f"crawler exploded #{cycle}"
                assert runs.record_scan_error(
                    message, started_at=started_at) == rows.record_scan_error(
                    message, started_at=started_at)
                continue
            fleet.step()
            provenance = rng.random() < 0.3
            report = fleet.report(cycle, provenance)
            if rng.random() < 0.7:
                _with_delta(report, previous, rng, provenance)
            previous = report
            summary = scanner._summarize(report, len(fleet.present), 0.01,
                                         started_at=started_at)
            assert runs.record_cycle(summary) == rows.record_cycle(summary)
            if cycle == cycles // 3:
                runs.prune(9)
                rows.prune(9)
            if cycle == cycles // 2:
                runs.close()
                runs = HistoryStore(runs_path)
        keys = sorted(rows._series_ids)
        explain = _cli_explain(capsys)
        got = _answers(runs, keys, TARGETS, explain)
        expected = _answers(rows, keys, TARGETS, _reference_explain)
        assert got.keys() == expected.keys()
        for name in expected:
            assert got[name] == expected[name], name
        assert any(got[f"verdicts/{row['cycle_id']}"]
                   for row in got["cycles"])
        assert any(row["scan_error"] for row in got["cycles"])
        assert any(text for text in got["explain"])
        # The reference's database is another layout: it moves aside
        # with its rows, and the store starts empty.
        rows.close()
        with HistoryStore(rows_path) as fresh:
            assert fresh.cycle_count() == 0
        (moved,) = tmp_path.glob("rows.sqlite.quarantined.*")
        rows = RowStore(str(moved))
        assert _answers(rows, keys, TARGETS, _reference_explain) == expected
    finally:
        runs.close()
        rows.close()
