"""Worker-process entry points for the process executor.

A worker process is initialized once per pool spawn with an
:class:`~repro.exec.envelope.InitConfig` (rule packs, registries, cache
and artifact-store configuration) and then evaluates shard envelopes.
Evaluation reuses the engine's own per-frame path --
``ConfigValidator._prepare_run`` + ``_evaluate_frame_rules`` -- so a
worker produces literally the same results the thread backend would.

The module-level validator persists across shards and cycles: its
in-memory parse cache stays warm for the life of the pool, and its
artifact-store connection serves every shard.
"""

from __future__ import annotations

import os
import time

from repro.chaos.fabric import _CHAOS, arm_from_env, delta_is_empty
from repro.crawler.serialize import frame_from_dict
from repro.engine.artifact_store import ArtifactStore
from repro.engine.engine import ConfigValidator
from repro.engine.incremental import VerdictStore
from repro.engine.parse_cache import DEFAULT_CACHE_SIZE, ParseCache
from repro.engine.stages import StageTimings
from repro.exec.envelope import (
    FrameReport,
    InitConfig,
    ShardEnvelope,
    ShardResult,
    decode,
    encode,
)
from repro.telemetry import Telemetry
from repro.telemetry.capture import capture_telemetry, reset_capture

#: Per-process state built by :func:`init_worker`.
_STATE: dict = {}


def init_worker(init_blob: bytes) -> None:
    """Pool initializer: build this process's resident validator."""
    # The parent exports its armed fault plan through REPRO_CHAOS_PLAN,
    # so chaos reaches forked and spawned workers alike.
    arm_from_env()
    config: InitConfig = decode(init_blob)
    store = None
    if config.artifact_path:
        kwargs = {}
        if config.artifact_max_bytes is not None:
            kwargs["max_bytes"] = config.artifact_max_bytes
        store = ArtifactStore(config.artifact_path, **kwargs)
    cache_size = (DEFAULT_CACHE_SIZE if config.cache_size is None
                  else config.cache_size)
    # A live per-process bundle when the parent scans with telemetry:
    # the resident validator's normalizer and rule instrumentation then
    # record into it, and each shard drains it into a capture.
    telemetry = (Telemetry() if getattr(config, "telemetry", False)
                 else None)
    validator = ConfigValidator(
        lenses=config.lenses,
        schemas=config.schemas,
        parse_cache=ParseCache(cache_size, store=store),
        telemetry=telemetry,
        frame_deadline_s=getattr(config, "frame_deadline_s", None),
    )
    for manifest, ruleset in config.packs:
        validator.add_ruleset(manifest, ruleset)
    _STATE["validator"] = validator
    _STATE["artifact"] = store


def _cache_delta(before, after) -> dict[str, int]:
    return {
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
        "evictions": after.evictions - before.evictions,
        "bytes_parsed": after.bytes_parsed - before.bytes_parsed,
        "bytes_deduped": after.bytes_deduped - before.bytes_deduped,
    }


def evaluate_shard(payload: bytes) -> bytes:
    """Evaluate one shard envelope; returns a pickled ShardResult."""
    started = time.perf_counter()
    started_wall = time.time()
    envelope: ShardEnvelope = decode(payload)
    # Snapshot unconditionally: deadline cancellations count into the
    # account even with no plan armed, and must reach the parent.
    chaos_before = _CHAOS.account.snapshot()
    if _CHAOS.armed:
        # Injected clock skew: the shard's wall stamp drifts the way a
        # host with a broken NTP daemon would.  Duration math is all
        # perf_counter-based, so this must be (and is) fully absorbed.
        started_wall += _CHAOS.skew(f"shard-{envelope.shard_index}")
    if envelope.fault == "exit":
        # Fault-injection hook for the graceful-degradation tests: die
        # the way an OOM-killed worker would, with no Python unwinding.
        os._exit(17)
    if envelope.fault == "error":
        raise RuntimeError("injected worker fault")
    validator: ConfigValidator = _STATE["validator"]
    artifact: ArtifactStore | None = _STATE.get("artifact")
    telemetry = validator.telemetry
    capture_on = bool(envelope.capture) and telemetry.enabled
    if capture_on:
        # Drop leftovers from a shard whose result never shipped; every
        # capture must be an exact per-shard delta.
        reset_capture(telemetry)
        spans = telemetry.spans
    frames = [frame_from_dict(doc) for doc in envelope.frame_docs]
    store = (VerdictStore.import_slice(envelope.store_doc)
             if envelope.store_doc is not None else None)
    timings = StageTimings() if envelope.timings else None
    cache_before = validator.parse_cache.stats()
    artifact_before = artifact.stats() if artifact is not None else None

    prep = validator._prepare_run(
        frames,
        tags=envelope.tags,
        use_plans=envelope.use_plans,
        provenance=envelope.provenance,
        timings=timings,
        store=store,
    )
    reports: list[FrameReport] = []
    for frame in frames:
        frame_started = time.perf_counter()
        if capture_on:
            # Only what is position-dependent records here: the frame /
            # evaluate spans and the deferred rule-span batch, which land
            # on this worker's pid lane of the merged trace.  Rule metric
            # tallies, profiler rows, and the frame/busy counters are
            # position-independent, so the parent folds them through the
            # same path the thread backend uses
            # (``integrate_worker_frame``) -- the capture stays cheap and
            # the parent-side telemetry stays byte-for-byte the thread
            # path's.
            with spans.span(frame.describe(), category="frame"):
                with spans.span("evaluate", category="stage"):
                    placements, fresh, replayed, recomputed, frame_plan = (
                        validator._evaluate_frame_rules(frame, prep)
                    )
                    if fresh:
                        spans.record_rules(fresh)
        else:
            placements, fresh, replayed, recomputed, frame_plan = (
                validator._evaluate_frame_rules(frame, prep)
            )
        busy = time.perf_counter() - frame_started
        if envelope.provenance:
            # Materialize deferred provenance markers before pickling:
            # the marker tuples hold this process's frame and excerpt
            # reader, which must not cross back to the parent.
            for _manifest, results in placements:
                for result in results:
                    result.provenance
        reports.append(FrameReport(
            frame_key=frame.describe(),
            placements=[
                (manifest.entity, results)
                for manifest, results in placements
            ],
            fresh=fresh,
            replayed=replayed,
            recomputed=sorted(recomputed),
            plan=frame_plan,
            busy_s=busy,
        ))

    store_doc = None
    if prep.store is not None:
        store_doc = prep.store.export_slice(
            [frame.describe() for frame in frames], include_counters=True,
        )
    timings_delta = None
    if timings is not None:
        timings_delta = {
            stage: (values["seconds"], int(values["count"]))
            for stage, values in timings.as_dict().items()
            if values["count"]
        }
    artifact_delta = None
    if artifact_before is not None:
        artifact_delta = artifact.stats().delta_since(artifact_before)
    capture = capture_telemetry(telemetry) if capture_on else None
    chaos_delta = None
    delta = _CHAOS.account.delta_since(chaos_before)
    if not delta_is_empty(delta):
        chaos_delta = delta
    result = ShardResult(
        shard_index=envelope.shard_index,
        reports=reports,
        store_doc=store_doc,
        timings=timings_delta,
        cache=_cache_delta(cache_before, validator.parse_cache.stats()),
        artifact=artifact_delta,
        duration_s=time.perf_counter() - started,
        started_wall=started_wall,
        telemetry=capture,
        chaos=chaos_delta,
    )
    return encode(result)


def crawl_shard(payload: bytes) -> bytes:
    """Crawl a shard of entities; returns pickled frame documents.

    Used by :meth:`Crawler.crawl_many` under ``--executor process``:
    entities cross as pickled objects, frames come back as
    ``frame_to_dict`` documents (content-equal to an in-parent crawl --
    digests and validation results are content-addressed, so a frame
    rebuilt onto a VirtualFilesystem validates identically).
    """
    from repro.crawler.crawler import Crawler
    from repro.crawler.serialize import frame_to_dict

    job = decode(payload)
    crawler = Crawler(plugins=job.get("plugins"),
                      parse_cache=_STATE["validator"].parse_cache)
    docs = []
    for entity in job["entities"]:
        docs.append(frame_to_dict(crawler.crawl(
            entity,
            features=job.get("features"),
            strict_plugins=job.get("strict_plugins", False),
        )))
    return encode(docs)
