"""Values Python cannot hold.

An int of more than 4,300 digits (Python's int-string limit), a hex int
whose decimal form is that long, and a date past the calendar parse as
far as the text goes, and then Python refuses them.  A lens reports
such a file as malformed (``LensError``), so a scan cycle gives that
host its malformed-file verdicts and every other host its usual ones.
A CVL file holding one fails to load with a ``CVLSyntaxError`` that
names the file.
"""

from __future__ import annotations

import json

import pytest

from repro.augtree.lenses.json_lens import JsonLens
from repro.augtree.lenses.yaml_lens import YamlLens
from repro.cli import main
from repro.crawler import HostEntity
from repro.cvl.loader import load_rules
from repro.engine.batch import BatchScanner
from repro.engine.report import result_to_dict
from repro.errors import CVLSyntaxError, LensError
from repro.rules import load_builtin_validator
from repro.workloads.hosts import build_ubuntu_host, ubuntu_packages

NINES = "9" * 5_000
BAD_DAEMON_JSON = '{"max-concurrent-downloads": ' + NINES + "}"


def test_json_int_past_the_digit_limit_is_a_lens_error():
    with pytest.raises(LensError, match="invalid JSON"):
        JsonLens().parse(BAD_DAEMON_JSON)


@pytest.mark.parametrize("text", [
    "a: " + NINES,
    "a: 0x" + "f" * 4_000,
    "a: 2020-13-45",
    "a: 2020-02-30",
], ids=["nines", "hex", "month-13", "february-30"])
def test_yaml_value_python_cannot_hold_is_a_lens_error(text):
    with pytest.raises(LensError, match="invalid YAML") as caught:
        YamlLens().parse("ok: 1\n" + text + "\n")
    assert caught.value.line == 2


_RULE = ("config_name: PermitRootLogin\nfile_context: [sshd_config]\n"
         "preferred_value: [{}]\n")


@pytest.mark.parametrize("value", [
    "2020-13-45", NINES, "0x" + "f" * 4_000,
], ids=["month-13", "nines", "hex"])
def test_cvl_value_python_cannot_hold_is_a_syntax_error(value):
    with pytest.raises(CVLSyntaxError, match="sshd.yaml"):
        load_rules(_RULE.format(value), source="sshd.yaml", entity="sshd")


def _rules_dir(tmp_path, value: str):
    repo = tmp_path / "rules"
    (repo / "component_configs").mkdir(parents=True)
    (repo / "manifest.yaml").write_text(
        "sshd: {config_search_paths: [/etc/ssh], cvl_file: sshd.yaml}\n")
    (repo / "sshd.yaml").write_text(_RULE.format(value))
    return repo


@pytest.mark.parametrize("value", ["2020-13-45", NINES],
                         ids=["month-13", "nines"])
def test_cli_pack_with_such_a_value_exits_2(tmp_path, capsys, value):
    root = tmp_path / "root"
    (root / "etc" / "ssh").mkdir(parents=True)
    (root / "etc" / "ssh" / "sshd_config").write_text("PermitRootLogin no\n")
    code = main(["validate", "--root", str(root),
                 "--rules-dir", str(_rules_dir(tmp_path, value))])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: CVL syntax error in sshd.yaml: ")


def test_cli_validate_reports_a_root_with_such_files(tmp_path, capsys):
    root = tmp_path / "root"
    (root / "etc" / "docker").mkdir(parents=True)
    (root / "etc" / "docker" / "daemon.json").write_text(BAD_DAEMON_JSON)
    (root / "etc" / "kubernetes" / "manifests").mkdir(parents=True)
    (root / "etc" / "kubernetes" / "manifests" / "pod.yaml").write_text(
        "a: 2020-13-45\n")
    code = main(["validate", "--root", str(root), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    entities = {result["entity"] for result in report["results"]}
    assert {"docker", "kubernetes"} <= entities


def _results_by_target(daemon_json: str | None) -> dict[str, list[dict]]:
    """A scan of three hosts; the second one's daemon.json is
    ``daemon_json``."""
    hosts = []
    for index in range(3):
        fs = build_ubuntu_host(hardening=0.5, seed=index)
        if index == 1 and daemon_json is not None:
            fs.write_file("/etc/docker/daemon.json", daemon_json)
        hosts.append(HostEntity(f"host-{index}", fs,
                                packages=ubuntu_packages()))
    summary = BatchScanner(load_builtin_validator(), workers=2) \
        .scan_entities(hosts)
    results: dict[str, list[dict]] = {}
    for result in summary.report.results:
        results.setdefault(result.target, []).append(result_to_dict(result))
    return results


def _docker_verdicts(results: list[dict]) -> list[tuple]:
    return [(result["rule"], result["verdict"], result["outcome"])
            for result in results if result["entity"] == "docker"]


def test_a_huge_int_in_daemon_json_fails_no_other_host():
    huge = _results_by_target(BAD_DAEMON_JSON)
    malformed = _results_by_target("{")
    untouched = _results_by_target(None)
    assert _docker_verdicts(huge["host:host-1"])
    assert (_docker_verdicts(huge["host:host-1"])
            == _docker_verdicts(malformed["host:host-1"]))
    for target in ("host:host-0", "host:host-2"):
        assert huge[target] == untouched[target]
