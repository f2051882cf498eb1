"""The lenses' nesting bound.

A lens that nests blocks, collections or elements raises ``LensError``
beyond :data:`MAX_NESTING`, at any depth, instead of letting a
``RecursionError`` out.  A file at the bound builds a tree that walking,
comparing, rendering and path matching handle on a worker thread, and a
scan over a host with a too-deep file completes: the file counts as
malformed, and no other host's results change.
"""

from __future__ import annotations

import threading

import pytest

from repro.augtree.lenses import default_registry
from repro.augtree.lenses.base import MAX_NESTING, TOO_DEEP
from repro.augtree.path import parse_path
from repro.crawler import HostEntity
from repro.engine.batch import BatchScanner
from repro.engine.report import result_to_dict
from repro.errors import LensError
from repro.rules import load_builtin_validator
from repro.workloads.hosts import build_ubuntu_host, ubuntu_packages

#: Text nesting ``depth`` levels deep, per lens.
_NESTED = {
    "nginx": lambda depth: "a {\n" * depth + "}\n" * depth,
    "yaml": lambda depth: "a: " + "[" * depth + "]" * depth + "\n",
    "json": lambda depth: "[" * depth + "]" * depth,
    "xml": lambda depth: "<a>" * depth + "</a>" * depth,
}

#: Text whose tree is ``depth`` nodes deep below the root, per lens.
_DEEP_TREE = {
    "nginx": _NESTED["nginx"],
    "yaml": lambda depth: "a:\n" + "".join(
        "  " * level + "a:\n" for level in range(1, depth - 1))
        + "  " * (depth - 1) + "a: 1\n",
    "json": lambda depth: '{"a": ' * depth + "1" + "}" * depth,
    "xml": _NESTED["xml"],
}


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 2_000, 30_000])
@pytest.mark.parametrize("lens_name", sorted(_NESTED))
def test_nesting_past_the_bound_is_a_lens_error(lens_name, depth):
    with pytest.raises(LensError, match=TOO_DEEP):
        default_registry().get(lens_name).parse(_NESTED[lens_name](depth))


@pytest.mark.parametrize("lens_name", sorted(_NESTED))
def test_nesting_at_the_bound_parses(lens_name):
    default_registry().get(lens_name).parse(_NESTED[lens_name](MAX_NESTING))


@pytest.mark.parametrize("lens_name", sorted(_DEEP_TREE))
def test_trees_at_the_bound_are_safe_on_a_worker_thread(lens_name):
    lens = default_registry().get(lens_name)
    text = _DEEP_TREE[lens_name](MAX_NESTING)
    outcome = {}

    def work():
        try:
            tree = lens.parse(text)
            nodes = list(tree.root.walk())
            assert len(nodes) == MAX_NESTING + 1
            assert tree.root == lens.parse(text).root
            tree.root.render()
            assert len(parse_path("**/a").match(tree.root)) == MAX_NESTING
            outcome["ok"] = True
        except Exception as error:  # reported on the test's thread
            outcome["error"] = error

    worker = threading.Thread(target=work)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert outcome == {"ok": True}, outcome


def _hosts(nginx_conf: str | None) -> list[HostEntity]:
    """Three hosts; the second one's nginx.conf is ``nginx_conf``."""
    hosts = []
    for index in range(3):
        fs = build_ubuntu_host(hardening=0.5, seed=index, with_nginx=True)
        if index == 1 and nginx_conf is not None:
            fs.write_file("/etc/nginx/nginx.conf", nginx_conf)
        hosts.append(HostEntity(f"host-{index}", fs,
                                packages=ubuntu_packages()))
    return hosts


def _results_by_target(nginx_conf: str | None) -> dict[str, list[dict]]:
    summary = BatchScanner(load_builtin_validator(), workers=2) \
        .scan_entities(_hosts(nginx_conf))
    results: dict[str, list[dict]] = {}
    for result in summary.report.results:
        results.setdefault(result.target, []).append(result_to_dict(result))
    return results


def _nginx_verdicts(results: list[dict]) -> list[tuple]:
    return [(result["rule"], result["verdict"], result["outcome"])
            for result in results if result["entity"] == "nginx"]


def test_a_too_deep_nginx_conf_is_malformed_and_fails_no_other_host():
    deep = _results_by_target("a {\n" * 2_000 + "}\n" * 2_000)
    malformed = _results_by_target("http {\n")
    untouched = _results_by_target(None)
    assert _nginx_verdicts(deep["host:host-1"])
    assert (_nginx_verdicts(deep["host:host-1"])
            == _nginx_verdicts(malformed["host:host-1"]))
    for target in ("host:host-0", "host:host-2"):
        assert deep[target] == untouched[target]
