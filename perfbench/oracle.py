"""Expected verdicts computed without the validation engine.

Three independent sources, one per kind of generated input:

* Ubuntu hosts: the 40 common CIS rules of
  :data:`repro.baselines.common_rules.TABLE2_RULES`, each evaluated by
  its ad-hoc-script interpreter (:meth:`LineCheck.evaluate`) on a frame
  of the host.  Each check names the CVL rule it stands for
  (``cvl_entity``/``cvl_name``); the report's verdict for that rule must
  be COMPLIANT exactly when the line check passes.
* Docker containers: the runtime options the fleet generator planted
  (:class:`repro.crawler.docker_sim.HostConfig`).  A planted fault must
  give a NONCOMPLIANT ``docker_containers`` verdict and a sound setting
  must not.
* Kubernetes pod manifests: a stock manifest must fail, and a hardened
  one must not fail, every configuration rule of the ``kubernetes`` pack.

An :class:`Expectations` maps ``(target, cvl entity, rule name)`` to the
verdict kind it tests and whether the report must show that kind.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.common_rules import TABLE2_RULES
from repro.crawler.crawler import Crawler
from repro.engine.results import Verdict

#: Configuration rules of the kubernetes pack that a stock pod fails and
#: a hardened pod passes (the directory-metadata rule is left out).
K8S_RULES = (
    "privileged", "runAsNonRoot", "hostNetwork", "hostPID",
    "allowPrivilegeEscalation", "readOnlyRootFilesystem", "memory",
    "image", "drop",
)

_FLIP = {
    Verdict.COMPLIANT: Verdict.NONCOMPLIANT,
    Verdict.NONCOMPLIANT: Verdict.COMPLIANT,
    Verdict.NOT_APPLICABLE: Verdict.COMPLIANT,
    Verdict.ERROR: Verdict.COMPLIANT,
}


def container_faults(host_config) -> dict[str, bool]:
    """``docker_containers`` rule -> whether the planted options break it."""
    hc = host_config
    return {
        "container_not_privileged": hc.privileged,
        "container_no_host_network": hc.network_mode == "host",
        "container_no_host_pid": hc.pid_mode == "host",
        "container_no_cap_sys_admin": bool({"SYS_ADMIN", "ALL"} & set(hc.cap_add)),
        "container_no_docker_sock_mount": any(
            mount.source == "/var/run/docker.sock" for mount in hc.mounts
        ),
        "container_no_privileged_ports": "22/tcp" in hc.port_bindings,
        "container_memory_limited": hc.memory == 0,
        "container_cpu_shares_set": hc.cpu_shares == 0,
        "container_pids_limited": hc.pids_limit == 0,
        "container_restart_policy": hc.restart_policy != "on-failure",
        "container_readonly_rootfs": not hc.readonly_rootfs,
        "container_no_new_privileges_opt": (
            "no-new-privileges" not in hc.security_opt
        ),
    }


@dataclass
class Check:
    """Outcome of comparing one cycle's verdicts with the expectations."""

    checked: int = 0   # expected verdicts found in the report
    wrong: int = 0     # found but different, or missing from the report
    errors: int = 0    # ERROR verdicts anywhere in the report


class Expectations:
    """Expected verdicts, keyed by ``(target, entity, rule)``."""

    def __init__(self) -> None:
        self._crawler = Crawler()
        #: target -> {(entity, rule): (verdict kind, must be that kind)}
        self._by_target: dict[str, dict[tuple[str, str], tuple[Verdict, bool]]] = {}

    def __len__(self) -> int:
        return sum(len(rules) for rules in self._by_target.values())

    def add_host(self, entity) -> None:
        """(Re)derive a host's 40 CIS verdicts from a fresh frame of it."""
        frame = self._crawler.crawl(entity)
        self._by_target[frame.describe()] = {
            (check.cvl_entity, check.cvl_name): (
                Verdict.COMPLIANT, check.evaluate(frame)
            )
            for check in TABLE2_RULES
        }

    def add_container(self, container) -> None:
        self._by_target[f"container:{container.name}"] = {
            ("docker_containers", rule): (Verdict.NONCOMPLIANT, bad)
            for rule, bad in container_faults(container.host_config).items()
        }

    def add_pod_host(self, name: str, *, hardened: bool) -> None:
        self._by_target[f"host:{name}"] = {
            ("kubernetes", rule): (Verdict.NONCOMPLIANT, not hardened)
            for rule in K8S_RULES
        }

    def check(self, verdicts) -> Check:
        """Compare ``(target, entity, rule, verdict)`` rows with the
        expectations.  An expected verdict that no row carries is wrong."""
        outcome = Check()
        seen = set()
        for target, entity, rule, verdict in verdicts:
            if verdict is Verdict.ERROR:
                outcome.errors += 1
            expected = self._by_target.get(target, {}).get((entity, rule))
            if expected is None:
                continue
            key = (target, entity, rule)
            if key in seen:
                continue
            seen.add(key)
            kind, holds = expected
            outcome.checked += 1
            if (verdict is kind) != holds:
                outcome.wrong += 1
        outcome.wrong += len(self) - len(seen)
        return outcome

    def check_report(self, report) -> Check:
        return self.check(verdict_rows(report))

    def self_test(self, report) -> bool:
        """A verdict flipped on the way to the oracle must be counted."""
        rows = verdict_rows(report)
        base = self.check(rows)
        for index, (target, entity, rule, verdict) in enumerate(rows):
            if (entity, rule) in self._by_target.get(target, {}):
                flipped = list(rows)
                flipped[index] = (target, entity, rule, _FLIP[verdict])
                return self.check(flipped).wrong == base.wrong + 1
        return False


def verdict_rows(report) -> list[tuple[str, str, str, Verdict]]:
    return [
        (result.target, result.entity, result.rule.name, result.verdict)
        for result in report
    ]
