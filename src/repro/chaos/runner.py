"""The ``repro chaos`` resilience harness.

Runs one synthetic-fleet scan cycle twice over the *same* captured
frames -- once clean, once under a named fault plan -- and asserts the
degraded-but-accounted contract:

1. **terminates**: the armed cycle completes (and within the cycle
   deadline budget when one is set);
2. **schema-valid report**: the degraded cycle's JSON report parses and
   carries the ``degraded`` marker exactly when the cycle degraded;
3. **blast radius**: frames the plan could not have touched produce
   byte-identical results to the fault-free run;
4. **accounting**: every injected fault is accounted as absorbed --
   nothing vanishes silently.

The harness is deliberately built from the same public pieces an
operator uses (``load_builtin_validator``, ``validate_frames``,
``render_json``), so a passing ``repro chaos`` run certifies the real
pipeline, not a test double.
"""

from __future__ import annotations

import fnmatch
import json
import os
import tempfile
import time
from dataclasses import dataclass, field

from repro.chaos.fabric import FaultPlan, arm_plan, disarm, fabric
from repro.chaos.plans import resolve_plan


@dataclass
class ChaosRunResult:
    """Outcome of one ``repro chaos`` harness run."""

    plan: str
    elapsed_s: float = 0.0
    baseline_elapsed_s: float = 0.0
    checks: int = 0
    degradation: object | None = None
    #: Frames whose results may legitimately differ under the plan.
    affected_frames: list[str] = field(default_factory=list)
    #: Frames outside the blast radius that nevertheless changed.
    unexpected_diffs: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        degradation = self.degradation
        return {
            "plan": self.plan,
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 4),
            "baseline_elapsed_s": round(self.baseline_elapsed_s, 4),
            "checks": self.checks,
            "affected_frames": sorted(self.affected_frames),
            "unexpected_diffs": sorted(self.unexpected_diffs),
            "failures": list(self.failures),
            "degradation": (degradation.to_dict()
                            if degradation is not None else None),
        }

    def render(self) -> str:
        lines = [
            f"chaos run: plan={self.plan} "
            f"{'PASS' if self.ok else 'FAIL'} "
            f"({self.checks} checks, {self.elapsed_s:.2f}s armed / "
            f"{self.baseline_elapsed_s:.2f}s clean)",
        ]
        if self.degradation is not None:
            for row in self.degradation.render().splitlines():
                lines.append(f"  {row}")
        if self.affected_frames:
            lines.append(
                f"  blast radius: {len(self.affected_frames)} frame(s)")
        for failure in self.failures:
            lines.append(f"  FAIL: {failure}")
        return "\n".join(lines)


def _build_frames(size: int, seed: int = 7):
    """A deterministic synthetic fleet, crawled once and shared by the
    clean and armed runs (identical inputs, so diffs are the plan's)."""
    from repro.crawler import ContainerEntity, Crawler, DockerImageEntity
    from repro.workloads import FleetSpec, build_fleet

    _daemon, images, containers = build_fleet(
        FleetSpec(images=max(1, size), containers_per_image=2,
                  misconfig_rate=0.5, seed=seed)
    )
    entities = [ContainerEntity(c) for c in containers]
    entities += [DockerImageEntity(i) for i in images]
    return Crawler().crawl_many(entities)


def _per_frame_docs(report) -> dict[str, str]:
    """{frame target: canonical JSON of its results} for byte-compare."""
    from repro.engine.report import result_to_dict

    frames: dict[str, list] = {}
    for result in report:
        frames.setdefault(result.target, []).append(result_to_dict(result))
    return {
        target: json.dumps(docs, sort_keys=True)
        for target, docs in frames.items()
    }


def _frame_paths(frames) -> dict[str, list[str]]:
    """{frame target: file paths it holds} for blast-radius matching."""
    out: dict[str, list[str]] = {}
    for frame in frames:
        try:
            paths = frame.files.files_under("/")
        except Exception:
            paths = []
        out[frame.describe()] = paths
    return out


def _affected_frames(plan: FaultPlan, degradation,
                     frame_paths: dict[str, list[str]]) -> set[str]:
    """The superset of frames the armed run may legitimately change.

    File-keyed sites (``fs.read`` / ``lens.parse``) affect any frame
    holding a matching path; ``rule.eval`` keys carry the frame key
    outright; store faults hit the run's history store, which no
    verdict reads, so they may not change results.  A cycle with
    deadline cancellations has an unbounded blast radius.
    """
    affected: set[str] = set()
    if degradation is None:
        return affected
    if degradation.deadline_cancellations or degradation.frames_quarantined:
        return set(frame_paths)
    file_patterns = [
        rule.match for rule in plan.rules
        if rule.site in ("fs.read", "lens.parse") and rule.probability > 0
    ]
    for target, paths in frame_paths.items():
        for pattern in file_patterns:
            if any(fnmatch.fnmatchcase(path, pattern) for path in paths):
                affected.add(target)
                break
    for site, key in degradation.fired:
        if site == "rule.eval" and "|" in key:
            affected.add(key.split("|", 1)[0])
        elif site in ("fs.read", "lens.parse"):
            for target, paths in frame_paths.items():
                if key in paths:
                    affected.add(target)
    return affected


def _scan_once(frames, *, kwargs: dict, history_path: str, workers: int):
    """One full scan cycle recorded to a fresh history store, as a
    monitor cycle is (batch-scanner and history paths, so every
    injection site a monitor cycle crosses is on this code path too)."""
    from repro.engine.batch import BatchScanner
    from repro.history import HistoryStore
    from repro.rules import load_builtin_validator

    validator = load_builtin_validator(**kwargs)
    history = HistoryStore(history_path)
    started = time.perf_counter()
    try:
        summary = BatchScanner(validator, workers=workers).scan_frames(frames)
        history.record_cycle(summary)
    finally:
        elapsed = time.perf_counter() - started
        history.close()
    return summary, elapsed


def run_chaos(plan_ref: str, *, workers: int = 1,
              deadline_s: float | None = None,
              frame_deadline_s: float | None = None,
              size: int = 4, use_plans: bool = True) -> ChaosRunResult:
    """Run the resilience harness under one fault plan.

    Each run records its cycle to a throwaway history store in a
    temporary directory (one fresh store per run, so the clean baseline
    stays symmetric); that is where ``store.sqlite`` rules bite.
    """
    from repro.engine.report import render_json

    plan = resolve_plan(plan_ref)
    result = ChaosRunResult(plan=plan.name)

    frames = _build_frames(size)
    frame_paths = _frame_paths(frames)

    kwargs: dict = {"workers": workers, "use_plans": use_plans}

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        # ---- clean run: the byte-identity baseline --------------------
        disarm()
        baseline_summary, result.baseline_elapsed_s = _scan_once(
            frames, kwargs=kwargs,
            history_path=os.path.join(tmp, "clean.sqlite"), workers=workers)
        baseline_docs = _per_frame_docs(baseline_summary.report)

        # ---- armed run ------------------------------------------------
        armed_kwargs = dict(kwargs)
        if deadline_s is not None:
            armed_kwargs["deadline_s"] = deadline_s
        if frame_deadline_s is not None:
            armed_kwargs["frame_deadline_s"] = frame_deadline_s
        arm_plan(plan)
        account_before = fabric().account.snapshot()
        try:
            summary, result.elapsed_s = _scan_once(
                frames, kwargs=armed_kwargs,
                history_path=os.path.join(tmp, "armed.sqlite"),
                workers=workers)
        finally:
            # The harness-wide delta, not the report's: it also catches
            # faults fired outside validate_frames (cycle clock skew,
            # store opens) so nothing escapes the accounting check.
            degradation = fabric().account.delta_since(account_before)
            disarm()

    report = summary.report
    result.checks = len(report)
    degradation.plan = plan.name
    result.degradation = degradation

    # 1. terminates within the deadline budget (plus scheduling grace:
    #    deadlines are soft -- enforced at stage boundaries, not killed).
    if deadline_s is not None:
        budget = deadline_s * 1.5 + 5.0
        if result.elapsed_s > budget:
            result.failures.append(
                f"cycle ran {result.elapsed_s:.2f}s against a "
                f"{deadline_s:.2f}s deadline (budget {budget:.2f}s)")

    # 2. schema-valid report with the degraded marker iff degraded.
    #    The marker follows the *report's* degradation (what happened
    #    inside the validation run), not the harness-wide delta -- cycle
    #    clock skew degrades the cycle timestamp, not the verdicts.
    try:
        doc = json.loads(render_json(report))
    except ValueError as error:
        result.failures.append(f"report JSON does not parse: {error}")
        doc = {}
    for key in ("target", "summary", "results"):
        if key not in doc:
            result.failures.append(f"report JSON missing {key!r}")
    report_degradation = report.degradation
    report_degraded = (report_degradation is not None
                       and report_degradation.degraded)
    if report_degraded != bool(doc.get("degraded", False)):
        result.failures.append(
            f"degraded marker mismatch: run degraded={report_degraded}, "
            f"report says {doc.get('degraded', False)}")
    if report_degradation is None:
        result.failures.append(
            "no DegradationStats attached under an armed plan")
        return result

    # 3. blast radius: frames the plan could not touch are byte-identical.
    affected = _affected_frames(plan, degradation, frame_paths)
    if affected:
        # Composite rules carry the run-level target and may span any
        # affected frame, so they ride along with the blast radius.
        affected.add(report.target)
    result.affected_frames = sorted(affected)
    armed_docs = _per_frame_docs(report)
    if set(armed_docs) != set(baseline_docs):
        result.failures.append(
            "armed run scanned a different frame set than the baseline")
    for target, doc_json in baseline_docs.items():
        if target in affected:
            continue
        if armed_docs.get(target) != doc_json:
            result.unexpected_diffs.append(target)
    if result.unexpected_diffs:
        result.failures.append(
            f"{len(result.unexpected_diffs)} unaffected frame(s) changed: "
            + ", ".join(sorted(result.unexpected_diffs)[:5]))

    # 4. accounting: every injected fault is absorbed somewhere.
    if degradation.total_injected != degradation.total_absorbed:
        result.failures.append(
            f"unaccounted faults: {degradation.total_injected} injected "
            f"vs {degradation.total_absorbed} absorbed "
            f"({degradation.faults_injected} / "
            f"{degradation.faults_absorbed})")
    for site, count in degradation.faults_injected.items():
        if degradation.faults_absorbed.get(site, 0) != count:
            result.failures.append(
                f"site {site}: {count} injected, "
                f"{degradation.faults_absorbed.get(site, 0)} absorbed")
    # The fabric account must be back to rest after disarm: nothing from
    # this run may leak into later cycles.
    if fabric().armed:
        result.failures.append("fabric still armed after the run")
    return result
