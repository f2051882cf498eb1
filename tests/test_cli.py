"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCoverage:
    def test_table1_inventory(self, capsys):
        assert main(["coverage"]) == 0
        out = capsys.readouterr().out
        assert "Applications" in out
        assert "System services" in out
        assert "Cloud services" in out
        assert "TOTAL" in out

    def test_docker_targets_aggregated(self, capsys):
        main(["coverage"])
        out = capsys.readouterr().out
        assert "docker_containers" not in out  # folded into the docker row


class TestRulesListing:
    def test_list_sshd_rules(self, capsys):
        assert main(["rules", "sshd"]) == 0
        out = capsys.readouterr().out
        assert "PermitRootLogin" in out
        assert "#cisubuntu14.04_5.2.8" in out

    def test_unknown_target_is_error(self, capsys):
        assert main(["rules", "ghost"]) == 2
        assert "error:" in capsys.readouterr().err


class TestValidate:
    def test_validate_real_directory(self, tmp_path, capsys):
        ssh = tmp_path / "etc" / "ssh"
        ssh.mkdir(parents=True)
        (ssh / "sshd_config").write_text("PermitRootLogin yes\n")
        (ssh / "sshd_config").chmod(0o600)
        code = main(
            ["validate", "--root", str(tmp_path), "--targets", "sshd"]
        )
        out = capsys.readouterr().out
        assert code == 1  # findings present
        assert "[FAIL] sshd: PermitRootLogin" in out

    def test_validate_json_output(self, tmp_path, capsys):
        ssh = tmp_path / "etc" / "ssh"
        ssh.mkdir(parents=True)
        (ssh / "sshd_config").write_text("PermitRootLogin no\n")
        main(["validate", "--root", str(tmp_path), "--targets", "sshd", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["total"] > 0

    def test_tag_filter(self, tmp_path, capsys):
        (tmp_path / "etc").mkdir()
        (tmp_path / "etc" / "sysctl.conf").write_text("net.ipv4.ip_forward = 0\n")
        main(
            ["validate", "--root", str(tmp_path), "--targets", "sysctl",
             "--tags", "#cisubuntu14.04_7.1.1"]
        )
        out = capsys.readouterr().out
        assert "ip_forward" in out
        assert "tcp_syncookies" not in out


class TestDemo:
    def test_demo_host_hardened_passes(self, capsys):
        assert main(["demo", "host", "--hardening", "1.0"]) == 0

    def test_demo_host_stock_fails(self, capsys):
        assert main(["demo", "host", "--hardening", "0.0"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_demo_fleet(self, capsys):
        code = main(["demo", "fleet", "--size", "2", "--hardening", "0.5",
                     "--only-failures"])
        assert code in (0, 1)
        assert "# ConfigValidator report" in capsys.readouterr().out

    def test_demo_fleet_no_plan_is_byte_identical(self, capsys):
        outputs = []
        for extra in ([], ["--no-plan"]):
            code = main(["demo", "fleet", "--size", "2", *extra])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert "# ConfigValidator report" in outputs[0][1]

    def test_demo_cloud(self, capsys):
        assert main(["demo", "cloud", "--hardening", "0.0"]) == 1


class TestDump:
    def test_dump_with_auto_lens(self, tmp_path, capsys):
        config = tmp_path / "nginx.conf"
        config.write_text("http { server { listen 443; } }\n")
        assert main(["dump", str(config)]) == 0
        out = capsys.readouterr().out
        assert "listen = '443'" in out

    def test_dump_with_forced_lens(self, tmp_path, capsys):
        config = tmp_path / "weird.file"
        config.write_text("k = v\n")
        assert main(["dump", str(config), "--lens", "keyvalue"]) == 0
        assert "k = 'v'" in capsys.readouterr().out

    def test_dump_unknown_file_without_lens(self, tmp_path, capsys):
        config = tmp_path / "mystery"
        config.write_text("???")
        assert main(["dump", str(config)]) == 2


class TestFrameWorkflow:
    def test_snapshot_then_validate_frame(self, tmp_path, capsys):
        root = tmp_path / "rootfs"
        (root / "etc" / "ssh").mkdir(parents=True)
        (root / "etc" / "ssh" / "sshd_config").write_text("PermitRootLogin no\n")
        frame_file = tmp_path / "frame.json"
        assert main(["snapshot", "--root", str(root), "--name", "captured",
                     "-o", str(frame_file)]) == 0
        assert frame_file.exists()
        code = main(["validate-frame", str(frame_file), "--targets", "sshd"])
        out = capsys.readouterr().out
        assert "captured" in out
        assert code in (0, 1)

    def test_snapshot_to_stdout(self, tmp_path, capsys):
        (tmp_path / "etc").mkdir()
        (tmp_path / "etc" / "motd").write_text("hi\n")
        assert main(["snapshot", "--root", str(tmp_path)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format"] == 1


class TestLintCommand:
    def test_shipped_packs_lint_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "0 error(s)" in capsys.readouterr().out


class TestScaffoldCommand:
    def test_scaffold_prints_cvl(self, tmp_path, capsys):
        config = tmp_path / "nginx.conf"
        config.write_text("http { server_tokens off; }\n")
        assert main(["scaffold", str(config)]) == 0
        out = capsys.readouterr().out
        assert 'config_name: "server_tokens"' in out

    def test_scaffold_with_forced_lens(self, tmp_path, capsys):
        config = tmp_path / "plain"
        config.write_text("alpha = 1\n")
        assert main(["scaffold", str(config), "--lens", "keyvalue"]) == 0
        assert 'config_name: "alpha"' in capsys.readouterr().out


class TestDriftCommand:
    def test_drift_between_two_snapshots(self, tmp_path, capsys):
        for name, value in [("day1.json", "no"), ("day2.json", "yes")]:
            root = tmp_path / name.replace(".json", "-root")
            (root / "etc" / "ssh").mkdir(parents=True)
            (root / "etc" / "ssh" / "sshd_config").write_text(
                f"PermitRootLogin {value}\n"
            )
            assert main(["snapshot", "--root", str(root), "--name", "web-7",
                         "-o", str(tmp_path / name)]) == 0
        capsys.readouterr()
        code = main(["drift", str(tmp_path / "day1.json"),
                     str(tmp_path / "day2.json"), "--targets", "sshd"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[REGRESSED] sshd: PermitRootLogin" in out

    def test_drift_clean_exit_zero(self, tmp_path, capsys):
        root = tmp_path / "root"
        (root / "etc" / "ssh").mkdir(parents=True)
        (root / "etc" / "ssh" / "sshd_config").write_text("PermitRootLogin no\n")
        frame = tmp_path / "f.json"
        assert main(["snapshot", "--root", str(root), "-o", str(frame)]) == 0
        assert main(["drift", str(frame), str(frame), "--targets", "sshd"]) == 0


class TestRulesDirAndJunit:
    def _rules_repo(self, tmp_path):
        repo = tmp_path / "rules-repo"
        (repo / "component_configs").mkdir(parents=True)
        (repo / "manifest.yaml").write_text(
            "custom: {config_search_paths: [/etc/app],"
            " cvl_file: component_configs/custom.yaml}\n"
        )
        (repo / "component_configs" / "custom.yaml").write_text(
            "config_name: debug\nfile_context: ['app.conf']\n"
            "preferred_value: ['false']\npreferred_value_match: exact,all\n"
            "matched_description: ok\nnot_present_description: missing\n"
            "not_matched_preferred_value_description: bad\ntags: ['#custom']\n"
        )
        return repo

    def test_validate_with_rules_dir(self, tmp_path, capsys):
        repo = self._rules_repo(tmp_path)
        root = tmp_path / "root"
        (root / "etc" / "app").mkdir(parents=True)
        (root / "etc" / "app" / "app.conf").write_text("debug = true\n")
        code = main(["validate", "--root", str(root),
                     "--rules-dir", str(repo)])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] custom: debug -- bad" in out

    def test_junit_output(self, tmp_path, capsys):
        repo = self._rules_repo(tmp_path)
        root = tmp_path / "root"
        (root / "etc" / "app").mkdir(parents=True)
        (root / "etc" / "app" / "app.conf").write_text("debug = true\n")
        main(["validate", "--root", str(root), "--rules-dir", str(repo),
              "--junit"])
        out = capsys.readouterr().out
        assert out.startswith('<?xml version="1.0"')
        assert "<failure" in out
        assert 'tests="1"' in out


class TestDirectoryResolver:
    def test_escape_rejected(self, tmp_path):
        from repro.errors import EngineError
        from repro.rules.repository import directory_resolver

        (tmp_path / "ok.yaml").write_text("config_name: x\n")
        resolver = directory_resolver(str(tmp_path))
        assert "config_name" in resolver("ok.yaml")
        import pytest as _pytest
        with _pytest.raises(EngineError):
            resolver("../outside.yaml")
        with _pytest.raises(EngineError):
            resolver("missing.yaml")

    def test_missing_directory_rejected(self):
        from repro.errors import EngineError
        from repro.rules.repository import directory_resolver
        import pytest as _pytest

        with _pytest.raises(EngineError):
            directory_resolver("/no/such/dir")

    def test_inheritance_across_directory_files(self, tmp_path):
        from repro.rules.repository import load_validator_from_directory

        (tmp_path / "manifest.yaml").write_text(
            "app: {config_search_paths: [/etc/app], cvl_file: child.yaml}\n"
        )
        (tmp_path / "base.yaml").write_text(
            "config_name: key\npreferred_value: ['1']\n"
        )
        (tmp_path / "child.yaml").write_text(
            "parent_cvl_file: base.yaml\nrules:\n"
            "  - config_name: key\n    preferred_value: ['2']\n"
        )
        validator = load_validator_from_directory(str(tmp_path))
        ruleset = validator.ruleset_for(validator.manifest("app"))
        assert ruleset.by_name("key").preferred_value == ["2"]


class TestFailOnSeverity:
    def _root(self, tmp_path):
        root = tmp_path / "sev-root"
        (root / "etc" / "ssh").mkdir(parents=True)
        # LogLevel wrong (medium), PermitRootLogin fine.
        (root / "etc" / "ssh" / "sshd_config").write_text(
            "PermitRootLogin no\nLogLevel QUIET\n"
        )
        (root / "etc" / "ssh" / "sshd_config").chmod(0o600)
        return root

    def test_medium_failure_blocks_at_medium(self, tmp_path, capsys):
        code = main(["validate", "--root", str(self._root(tmp_path)),
                     "--targets", "sshd", "--fail-on", "medium"])
        assert code == 1

    def test_medium_failure_passes_at_critical(self, tmp_path, capsys):
        code = main(["validate", "--root", str(self._root(tmp_path)),
                     "--targets", "sshd", "--fail-on", "critical"])
        assert code == 0


class TestFrameDiffCommand:
    def test_framediff_between_snapshots(self, tmp_path, capsys):
        for name, content in [("a.json", "Port 22\n"), ("b.json", "Port 2222\n")]:
            root = tmp_path / name.replace(".json", "-root")
            (root / "etc" / "ssh").mkdir(parents=True)
            (root / "etc" / "ssh" / "sshd_config").write_text(content)
            assert main(["snapshot", "--root", str(root),
                         "-o", str(tmp_path / name)]) == 0
        capsys.readouterr()
        code = main(["framediff", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json"), "--show", "/etc/ssh/sshd_config"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[content " in out
        assert "-Port 22" in out and "+Port 2222" in out

    def test_framediff_identical_is_clean(self, tmp_path, capsys):
        root = tmp_path / "same-root"
        (root / "etc").mkdir(parents=True)
        (root / "etc" / "x").write_text("1\n")
        frame = tmp_path / "same.json"
        assert main(["snapshot", "--root", str(root), "-o", str(frame)]) == 0
        assert main(["framediff", str(frame), str(frame)]) == 0


class TestIncrementalOptions:
    """The verdict store lives in one process: only ``monitor`` keeps one
    (``--incremental``), and no command persists it."""

    COMMANDS = {
        "validate": ["validate", "--root", "."],
        "demo": ["demo", "host"],
        "validate-frame": ["validate-frame", "host.frame.json"],
        "monitor": ["monitor", "--max-cycles", "1"],
    }

    @pytest.mark.parametrize("option", [["--state-dir", "state"],
                                        ["--no-incremental"]],
                             ids=["state-dir", "no-incremental"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_store_options_rejected(self, command, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.COMMANDS[command] + option)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "demo", "validate-frame"])
    def test_one_shot_commands_reject_incremental(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.COMMANDS[command] + ["--incremental"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_monitor_incremental_runs(self, tmp_path):
        from repro.history import HistoryStore

        reports, skipped = {}, {}
        for mode in ("full", "incremental"):
            out = tmp_path / f"{mode}.json"
            db = str(tmp_path / f"{mode}.sqlite")
            argv = ["monitor", "--scenario", "host", "--interval", "0",
                    "--max-cycles", "2", "--history-db", db,
                    "--report-out", str(out)]
            if mode == "incremental":
                argv.append("--incremental")
            assert main(argv) == 0
            reports[mode] = out.read_text()
            with HistoryStore(db) as store:
                skipped[mode] = [row.rules_skipped for row in store.cycles()]
        assert reports["incremental"] == reports["full"]
        assert skipped["full"] == [0, 0]
        assert skipped["incremental"][0] == 0 < skipped["incremental"][1]


def test_monitor_stage_timings_prints_a_table_per_cycle(tmp_path, capsys):
    from repro.engine.stages import STAGES

    for extra in ([], ["--incremental"]):
        db = tmp_path / f"history{len(extra)}.sqlite"
        assert main(["monitor", "--scenario", "host", "--max-cycles", "2",
                     "--interval", "0", "--stage-timings",
                     "--history-db", str(db), *extra]) == 0
        err = capsys.readouterr().err
        tables = err.split("stage timings (aggregate worker-seconds):")[1:]
        assert len(tables) == 2
        for table in tables:
            rows = [line.split() for line in table.splitlines()]
            assert [row[0] for row in rows
                    if len(row) == 4 and row[0] in STAGES] == list(STAGES)
            assert "parse cache: " in table
            # An incremental monitor's tables also say what replayed.
            assert ("\nincremental: " in table) == bool(extra)
            assert ("\nverdict store: " in table) == bool(extra)
        assert err.index("cycle 1 ") < err.index("stage timings") \
            < err.index("cycle 2 ")


class TestHistoryInspectionIsReadOnly:
    """``history``, ``flaps`` and ``explain --since`` only read a store:
    they create no database and never move one aside."""

    COMMANDS = {
        "history": lambda db: ["history", "--db", db, "--json"],
        "flaps": lambda db: ["flaps", "--db", db],
        "explain": lambda db: ["explain", "sshd", "sshd_permit_root_login",
                               "--since", "--history-db", db],
    }

    @staticmethod
    def _tree(directory) -> dict:
        return {path.name: path.read_bytes()
                for path in sorted(directory.iterdir())}

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_missing_database_is_not_created(self, command, tmp_path):
        db = str(tmp_path / "nothere.sqlite")
        with pytest.raises(SystemExit) as exc:
            main(self.COMMANDS[command](db))
        assert "cannot read history store" in str(exc.value.code)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("journal", ["delete", "wal"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_other_layout_is_left_untouched(self, command, journal,
                                            tmp_path):
        import sqlite3

        from repro.history.store import LAYOUT_VERSION

        db = tmp_path / "older.sqlite"
        conn = sqlite3.connect(db)
        conn.execute(f"PRAGMA journal_mode={journal}")
        conn.execute("CREATE TABLE cycles (cycle_id INTEGER PRIMARY KEY)")
        conn.execute("INSERT INTO cycles VALUES (1)")
        conn.execute(f"PRAGMA user_version = {LAYOUT_VERSION + 1}")
        conn.commit()
        conn.close()
        before = self._tree(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(self.COMMANDS[command](str(db)))
        message = str(exc.value.code)
        assert (f"layout version {LAYOUT_VERSION + 1}, this build writes"
                f" {LAYOUT_VERSION}") in message
        assert self._tree(tmp_path) == before

    def test_monitor_database_is_read_in_place(self, tmp_path, capsys):
        db = tmp_path / "history.sqlite"
        assert main(["monitor", "--scenario", "host", "--interval", "0",
                     "--max-cycles", "2", "--history-db", str(db)]) == 0
        before = db.read_bytes()
        capsys.readouterr()
        assert main(self.COMMANDS["history"](str(db))) == 0
        cycles = json.loads(capsys.readouterr().out)["cycles"]
        assert [row["cycle_id"] for row in cycles] == [1, 2]
        assert main(self.COMMANDS["flaps"](str(db))) == 0
        assert db.read_bytes() == before
        assert not list(tmp_path.glob("*.quarantined.*"))
