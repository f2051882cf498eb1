"""Thread fan-out and artifact-store warm-start benchmark.

Thread fan-out at 1/4/8 workers on a parse-heavy synthetic fleet, and a
fresh validator against a warm artifact store vs the same cycle with no
store.  The fleet is deliberately parse-heavy: Kubernetes nodes whose
static pod manifests carry hundreds of unique annotation lines, so YAML
lens parsing dominates a cold cycle.

Gates asserted inside ``test_artifact_store_warm_start_gate``:

* reports are byte-identical with and without the store (always);
* a fresh validator's cycle against a warm artifact store is >= 3x
  faster than the same cycle with no store -- duplicate content parses
  once per fleet ever, not once per validator (always).

Timings and store stats are written to
``benchmarks/results/executor_stats.json`` for the CI artifact.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.crawler import Crawler
from repro.crawler.entities import HostEntity
from repro.crawler.serialize import dump_frame, load_frame
from repro.engine import render_text
from repro.engine.artifact_store import ArtifactStore
from repro.fs.vfs import VirtualFilesystem
from repro.rules import load_builtin_validator
from repro.workloads import kubernetes_manifest

from conftest import emit

#: Fleet shape: nodes x manifests, every manifest unique so nothing
#: dedupes inside a cycle -- each file must be parsed (or loaded from
#: the artifact store) exactly once.
_NODES = 8
_PODS_PER_NODE = 2

#: Annotation lines appended to each manifest.  ~300 lines make each
#: manifest a ~320-line, 14 KB document; parsing the 16 of them is
#: about 80% of a cold one-thread cycle (median 58 of 70 ms on a
#: 2-core VM).
_ANNOTATION_LINES = 300

_WORKER_COUNTS = (1, 4, 8)

#: Worker threads of the warm-store / storeless pair; both sides share
#: it, so the only variable is whether parses hit the on-disk tier.
_PAIR_WORKERS = 2

_STATS_PATH = (
    pathlib.Path(__file__).parent / "results" / "executor_stats.json"
)

#: Interleaved rounds per batch and escalation cap, as in the other
#: gated benchmarks: pooled minima converge under machine noise, while
#: a genuine regression stays off-gate no matter how many samples
#: accumulate.
_BATCH_ROUNDS = 3
_MAX_BATCHES = 3


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _manifest(node: int, pod: int) -> str:
    """A hardened pod manifest bulked with unique annotations."""
    annotations = "".join(
        f"    bench.repro.io/key-{node:02d}-{pod:02d}-{line:04d}: "
        f"value-{line}\n"
        for line in range(_ANNOTATION_LINES)
    )
    base = kubernetes_manifest(hardened=True)
    head, spec = base.split("spec:\n", 1)
    return f"{head}  annotations:\n{annotations}spec:\n{spec}"


def _blobs() -> list[str]:
    entities = []
    for node in range(_NODES):
        fs = VirtualFilesystem()
        fs.mkdir("/etc/kubernetes/manifests", mode=0o755)
        for pod in range(_PODS_PER_NODE):
            fs.write_file(
                f"/etc/kubernetes/manifests/pod-{pod:02d}.yaml",
                _manifest(node, pod),
                mode=0o644,
            )
        entities.append(HostEntity(f"bench-k8s-{node:02d}", fs))
    return [dump_frame(f) for f in Crawler().crawl_many(entities)]


def _timed_cycle(blobs, *, workers=1, store_path=None):
    """One scan cycle: rebuild frames (untimed), validate (timed).

    Every cycle gets a fresh validator and so a cold parse cache; only
    the on-disk artifact store persists between cycles.
    """
    frames = [load_frame(blob) for blob in blobs]
    validator = load_builtin_validator(artifact_store=store_path)
    validator.rule_count()  # preload packs outside the timed region
    started = time.perf_counter()
    report = validator.validate_frames(frames, workers=workers)
    elapsed = time.perf_counter() - started
    validator.close()
    return elapsed, report


@pytest.mark.benchmark(group="executor")
@pytest.mark.parametrize("workers", _WORKER_COUNTS)
def test_thread_backend(benchmark, workers):
    blobs = _blobs()
    benchmark.pedantic(
        lambda: _timed_cycle(blobs, workers=workers),
        rounds=3,
    )


def test_artifact_store_warm_start_gate(benchmark, tmp_path):
    benchmark.pedantic(lambda: None, rounds=1)  # reporter shim
    blobs = _blobs()
    cores = _usable_cores()
    store_path = tmp_path / "artifacts.sqlite"

    # Warm the artifact store once (untimed): after this, every unique
    # file in the fleet has a serialized parse artifact on disk.
    _timed_cycle(blobs, workers=_PAIR_WORKERS, store_path=store_path)

    storeless = warm = float("inf")
    storeless_report = warm_report = None
    warm_ratio = 0.0
    for _batch in range(_MAX_BATCHES):
        for _ in range(_BATCH_ROUNDS):
            elapsed, report = _timed_cycle(blobs, workers=_PAIR_WORKERS)
            if elapsed < storeless:
                storeless, storeless_report = elapsed, report
            elapsed, report = _timed_cycle(
                blobs, workers=_PAIR_WORKERS, store_path=store_path)
            if elapsed < warm:
                warm, warm_report = elapsed, report
        warm_ratio = storeless / warm
        if warm_ratio >= 3.0:
            break

    fleet_files = _NODES * _PODS_PER_NODE
    lines = [
        f"Artifact-store warm start, {_NODES}-node fleet "
        f"({fleet_files} unique YAML manifests, "
        f"{_ANNOTATION_LINES + 30}-line each; fresh validator per cycle, "
        f"{_PAIR_WORKERS} worker threads; pooled interleaved minima; "
        f"{cores} usable cores)",
        f"{'cycle':<40}{'seconds':>10}",
        f"{'no artifact store':<40}{storeless:>10.4f}",
        f"{'warm artifact store':<40}{warm:>10.4f}",
        f"warm-store speedup over storeless: {warm_ratio:.2f}x "
        "(gate: >= 3x)",
    ]
    emit("executor_backends", "\n".join(lines))

    with ArtifactStore(store_path) as store:
        store_stats = store.stats().to_dict()
    _STATS_PATH.parent.mkdir(exist_ok=True)
    _STATS_PATH.write_text(
        json.dumps(
            {
                "usable_cores": cores,
                "fleet_files": fleet_files,
                "workers": _PAIR_WORKERS,
                "seconds": {
                    "storeless": round(storeless, 4),
                    "warm_store": round(warm, 4),
                },
                "warm_store_speedup": round(warm_ratio, 2),
                "artifact_store": store_stats,
            },
            indent=2,
        )
        + "\n"
    )

    # Byte identity across store states -- the optimization must be
    # invisible in the report.
    baseline = render_text(storeless_report, verbose=True)
    assert render_text(warm_report, verbose=True) == baseline

    assert warm_ratio >= 3.0, (
        f"warm-store cycle only {warm_ratio:.2f}x faster than a "
        f"storeless one (gate: >= 3x)"
    )
