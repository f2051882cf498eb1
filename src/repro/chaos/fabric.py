"""Deterministic, seeded fault-injection fabric.

Fault handling in a fleet validator is only trustworthy if it can be
*exercised*: this module arms a process-wide :class:`FaultPlan` whose
named injection sites are threaded through the scanner's hot paths
(filesystem reads, lens parses, rule evaluation, sqlite stores, webhook
delivery, wall clocks).  Every site costs one attribute read and a
branch when no plan is armed::

    if _CHAOS.armed:
        _CHAOS.fire("fs.read", path)

Determinism is the point.  Fire decisions are not drawn from a shared
sequential RNG (which would make them depend on thread scheduling);
each draw hashes ``(seed, site, key, n)`` where ``n`` is a per-(site,
key) counter.  Two runs of the same plan over the same frames make the
same draws regardless of worker count, which is what lets
``repro chaos`` assert that unaffected frames are byte-identical to a
fault-free run.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import sqlite3
import threading
import time
import urllib.error
from dataclasses import dataclass, field

from repro.chaos.stats import DegradationStats
from repro.errors import EngineError, FileNotFoundInFrame, LensError, SchemaError

#: Every injection site the fabric knows about.  Site code passes these
#: names verbatim; plans referencing unknown sites are rejected up front
#: so a typo'd plan fails loudly instead of silently injecting nothing.
SITES = (
    "fs.read",        # FilesystemView.read_text (real + virtual)
    "lens.parse",     # Normalizer tree/table parse, keyed by frame|path
    "rule.eval",      # per-rule evaluation, keyed by frame|entity/rule
    "store.sqlite",   # history-store opens, keyed by path
    "webhook.send",   # webhook delivery attempts, keyed by url
    "clock.skew",     # wall-clock reads (cycle start)
    "retry",          # retry_with_backoff attempts, keyed by caller label
)

_MODES = ("error", "delay", "skew")


class ChaosPlanError(ValueError):
    """A fault-plan document is malformed."""


# ---------------------------------------------------------------------------
# Chaos exceptions.  Each is typed as the class the target site already
# absorbs, so an injected fault travels the *production* error path; the
# ``chaos_site`` attribute lets the absorbing handler credit the fabric.


class ChaosFileError(FileNotFoundInFrame):
    """Injected filesystem-read failure (``fs.read``)."""

    chaos_site = "fs.read"


class ChaosLensError(LensError):
    """Injected parser crash (``lens.parse``)."""

    chaos_site = "lens.parse"

    def __init__(self, path: str):
        super().__init__("chaos", f"injected parser crash on {path}")


class ChaosSchemaError(SchemaError):
    """Injected schema-parser crash (``lens.parse`` on the table path)."""

    chaos_site = "lens.parse"

    def __init__(self, path: str):
        super().__init__(f"injected schema-parser crash on {path}")


class ChaosRuleError(EngineError):
    """Injected rule-evaluation failure (``rule.eval``)."""

    chaos_site = "rule.eval"


class ChaosStoreError(sqlite3.DatabaseError):
    """Injected store corruption (``store.sqlite``)."""

    chaos_site = "store.sqlite"


class ChaosWebhookError(urllib.error.URLError):
    """Injected webhook delivery failure (``webhook.send``)."""

    chaos_site = "webhook.send"

    def __init__(self, url: str):
        super().__init__(f"injected delivery failure to {url}")


class ChaosRetryError(RuntimeError):
    """Injected retryable failure (``retry``)."""

    chaos_site = "retry"


_SITE_ERRORS = {
    "fs.read": lambda key: ChaosFileError(f"injected read failure: {key}"),
    "lens.parse": ChaosLensError,
    "rule.eval": lambda key: ChaosRuleError(f"injected evaluation failure: {key}"),
    "store.sqlite": lambda key: ChaosStoreError(
        f"injected corruption: database disk image is malformed ({key})"
    ),
    "webhook.send": ChaosWebhookError,
    "retry": lambda key: ChaosRetryError(f"injected retryable failure: {key}"),
}


# ---------------------------------------------------------------------------
# Plan model


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where, how often, how many times, what."""

    site: str
    match: str = "*"          # fnmatch pattern over the site key
    probability: float = 1.0  # per-draw fire probability
    count: int = 0            # max fires (0 = unlimited)
    mode: str = "error"       # error | delay | skew
    delay_s: float = 0.0      # mode=delay: injected latency
    skew_s: float = 0.0       # mode=skew: injected clock offset

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultRule":
        if not isinstance(doc, dict):
            raise ChaosPlanError(f"fault rule must be an object, got {doc!r}")
        site = doc.get("site")
        if site not in SITES:
            raise ChaosPlanError(
                f"unknown injection site {site!r}; known sites: "
                + ", ".join(SITES)
            )
        mode = doc.get("mode", "skew" if site == "clock.skew" else "error")
        if mode not in _MODES:
            raise ChaosPlanError(f"unknown fault mode {mode!r} for site {site!r}")
        probability = float(doc.get("probability", 1.0))
        if not 0.0 <= probability <= 1.0:
            raise ChaosPlanError(f"probability must be in [0, 1], got {probability}")
        count = int(doc.get("count", 0))
        if count < 0:
            raise ChaosPlanError(f"count must be >= 0, got {count}")
        return cls(
            site=site,
            match=str(doc.get("match", "*")),
            probability=probability,
            count=count,
            mode=mode,
            delay_s=max(0.0, float(doc.get("delay_s", 0.0))),
            skew_s=float(doc.get("skew_s", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault rules."""

    name: str = "unnamed"
    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise ChaosPlanError(f"fault plan must be an object, got {doc!r}")
        rules = doc.get("rules", [])
        if not isinstance(rules, list):
            raise ChaosPlanError("'rules' must be a list")
        return cls(
            name=str(doc.get("name", "unnamed")),
            seed=int(doc.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(rule) for rule in rules),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ChaosPlanError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ChaosPlanError(f"cannot read fault plan {path!r}: {exc}") from exc
        return cls.from_json(text)


# ---------------------------------------------------------------------------
# Accounting


class ChaosAccount:
    """Thread-safe degradation counters for one process.

    Always present (deadline cancellations count even with no plan
    armed); a validation run reports the :meth:`delta_since` a snapshot
    taken at its start.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Everything absorbed since the account was made.
        self.totals = DegradationStats()

    # -- recording -------------------------------------------------------

    def note_injected(self, site: str, key: str) -> None:
        with self._lock:
            injected = self.totals.faults_injected
            injected[site] = injected.get(site, 0) + 1
            self.totals.fired.append((site, key))

    def note_absorbed(self, site: str) -> None:
        with self._lock:
            absorbed = self.totals.faults_absorbed
            absorbed[site] = absorbed.get(site, 0) + 1

    def note_store_quarantined(self) -> None:
        with self._lock:
            self.totals.stores_quarantined += 1

    def note_frame_quarantined(self) -> None:
        with self._lock:
            self.totals.frames_quarantined += 1

    def note_deadline_cancellation(self) -> None:
        with self._lock:
            self.totals.deadline_cancellations += 1

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> DegradationStats:
        """A copy of the totals."""
        with self._lock:
            snapshot = DegradationStats(fired=list(self.totals.fired))
            snapshot.merge(self.totals)
        return snapshot

    def delta_since(self, before: DegradationStats) -> DegradationStats:
        """What was absorbed since ``before``, a :meth:`snapshot`."""
        delta = self.snapshot()
        delta.merge(before, sign=-1)
        del delta.fired[:len(before.fired)]
        return delta


# ---------------------------------------------------------------------------
# The fabric singleton


class ChaosFabric:
    """Process-wide injection state.  ``armed`` gates every site."""

    def __init__(self) -> None:
        self.armed = False
        self.plan: FaultPlan | None = None
        self.account = ChaosAccount()
        self._lock = threading.Lock()
        self._rules_by_site: dict[str, list[FaultRule]] = {}
        self._draws: dict[tuple[str, str], int] = {}
        self._fires: dict[int, int] = {}  # rule index -> fires so far

    # -- arming ----------------------------------------------------------

    def arm(self, plan: FaultPlan) -> None:
        with self._lock:
            self.plan = plan
            by_site: dict[str, list[FaultRule]] = {}
            for rule in plan.rules:
                if rule.probability <= 0.0:
                    # Can never fire: keep the site's dispatch at a dict
                    # miss instead of paying the draw (lock + hash) per
                    # call.  This is what the null plan's <= 2% overhead
                    # gate prices.
                    continue
                by_site.setdefault(rule.site, []).append(rule)
            self._rules_by_site = by_site
            self._draws = {}
            self._fires = {}
            self.account = ChaosAccount()
            self.armed = True

    def disarm(self) -> None:
        with self._lock:
            self.armed = False
            self.plan = None
            self._rules_by_site = {}
            self._draws = {}
            self._fires = {}

    # -- draws -----------------------------------------------------------

    def _draw(self, site: str, key: str) -> FaultRule | None:
        """One deterministic draw; returns the fault rule to apply, if any.

        The draw hashes ``(seed, site, key, n)`` with ``n`` a per-(site,
        key) counter, so decisions depend only on how many times this
        exact site/key pair has been reached -- not on thread interleaving.
        """
        rules = self._rules_by_site.get(site)
        if not rules:
            return None
        plan = self.plan
        with self._lock:
            for index, rule in enumerate(rules):
                if rule.count and self._fires.get(id(rule), 0) >= rule.count:
                    continue
                if not fnmatch.fnmatchcase(key, rule.match):
                    continue
                counter_key = (site, key)
                n = self._draws.get(counter_key, 0)
                self._draws[counter_key] = n + 1
                if rule.probability < 1.0:
                    digest = hashlib.sha256(
                        f"{plan.seed}|{site}|{key}|{n}".encode()
                    ).digest()
                    u = int.from_bytes(digest[:8], "big") / 2.0 ** 64
                    if u >= rule.probability:
                        return None
                self._fires[id(rule)] = self._fires.get(id(rule), 0) + 1
                return rule
        return None

    def fire(self, site: str, key: str, *, error=None) -> None:
        """Raise-style site: inject a typed failure (or latency) if drawn.

        ``error`` overrides the site's default exception factory for
        call sites whose absorbing handler expects a different type
        (e.g. the schema-table parse path absorbs ``SchemaError``).
        """
        rule = self._draw(site, key)
        if rule is None:
            return
        self.account.note_injected(site, key)
        if rule.mode == "delay":
            # Latency is inherently absorbed: the site just runs late.
            self.account.note_absorbed(site)
            if rule.delay_s:
                time.sleep(rule.delay_s)
            return
        factory = error if error is not None else _SITE_ERRORS[site]
        raise factory(key)

    def skew(self, key: str) -> float:
        """Injected clock offset in seconds (0.0 when none drawn)."""
        rule = self._draw("clock.skew", key)
        if rule is None:
            return 0.0
        self.account.note_injected("clock.skew", key)
        # A skewed clock never breaks the cycle; absorbed by definition.
        self.account.note_absorbed("clock.skew")
        return rule.skew_s


#: The process-wide fabric.  Site code imports this and checks ``armed``.
_CHAOS = ChaosFabric()


def fabric() -> ChaosFabric:
    return _CHAOS


def arm_plan(plan: FaultPlan) -> None:
    """Arm ``plan`` process-wide."""
    _CHAOS.arm(plan)


def disarm() -> None:
    _CHAOS.disarm()


def chaos_site(error: BaseException) -> str | None:
    """The injection site of a chaos-injected exception, else ``None``."""
    return getattr(error, "chaos_site", None)


def absorbed(error: BaseException) -> bool:
    """Credit an absorbed chaos fault.  Call from ``except`` handlers
    that swallow the error; a no-op (and False) for organic exceptions."""
    site = getattr(error, "chaos_site", None)
    if site is None:
        return False
    _CHAOS.account.note_absorbed(site)
    return True
