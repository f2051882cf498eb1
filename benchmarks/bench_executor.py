"""Thread fan-out benchmark.

One scan cycle of a parse-heavy synthetic fleet at 1/4/8 worker threads.
The fleet is deliberately parse-heavy: Kubernetes nodes whose static pod
manifests carry hundreds of unique annotation lines, so YAML lens
parsing dominates a cold cycle.  Every cycle gets a fresh validator and
so a cold parse cache.  This file asserts no gate of its own;
``make bench-check`` compares its timings against
``benchmarks/results/bench_baseline.json``.
"""

from __future__ import annotations

import time

import pytest

from repro.crawler import Crawler
from repro.crawler.entities import HostEntity
from repro.crawler.serialize import dump_frame, load_frame
from repro.fs.vfs import VirtualFilesystem
from repro.rules import load_builtin_validator
from repro.workloads import kubernetes_manifest

#: Fleet shape: nodes x manifests, every manifest unique so nothing
#: dedupes inside a cycle -- each file is parsed exactly once.
_NODES = 8
_PODS_PER_NODE = 2

#: Annotation lines appended to each manifest.  ~300 lines make each
#: manifest a ~320-line, 14 KB document; parsing the 16 of them is
#: about 80% of a cold one-thread cycle (median 58 of 70 ms on a
#: 2-core VM).
_ANNOTATION_LINES = 300

_WORKER_COUNTS = (1, 4, 8)


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


def _timed_cycle(blobs, *, workers=1):
    """One scan cycle: rebuild frames (untimed), validate (timed) with a
    fresh validator, so a cold parse cache."""
    frames = [load_frame(blob) for blob in blobs]
    validator = load_builtin_validator()
    validator.rule_count()  # preload packs outside the timed region
    started = time.perf_counter()
    report = validator.validate_frames(frames, workers=workers)
    elapsed = time.perf_counter() - started
    return elapsed, report


@pytest.mark.benchmark(group="executor")
@pytest.mark.parametrize("workers", _WORKER_COUNTS)
def test_thread_backend(benchmark, workers):
    blobs = _blobs()
    benchmark.pedantic(
        lambda: _timed_cycle(blobs, workers=workers),
        rounds=3,
    )
