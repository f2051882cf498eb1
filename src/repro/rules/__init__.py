"""Shipped CVL rule packs: the 11 targets of paper Table 1.

============== =========================================
Applications    apache, nginx, hadoop, mysql
System services audit, fstab, sshd, sysctl, modprobe
Cloud services  openstack, docker
============== =========================================

Checklist alignment follows the paper: system services and Docker carry
CIS tags; apache/nginx/hadoop carry OWASP/HIPAA/PCI tags; openstack
carries OSSG tags.

Helpers here build ready-to-use validators from the packaged data::

    from repro.rules import load_builtin_validator
    validator = load_builtin_validator()
    report = validator.validate_entity(host)
"""

from __future__ import annotations

from importlib import resources

from repro.engine.engine import ConfigValidator

#: Paper Table 1, verbatim.
TABLE1_TARGETS = {
    "Applications": ["apache", "nginx", "hadoop", "mysql"],
    "System services": ["audit", "fstab", "sshd", "sysctl", "modprobe"],
    "Cloud services": ["openstack", "docker"],
}

#: The Ubuntu "system services" targets used for the Table 2 comparison.
SYSTEM_SERVICE_TARGETS = ["audit", "fstab", "sshd", "sysctl", "modprobe"]

#: Packs shipped beyond the paper's Table 1 snapshot.
EXTENSION_TARGETS = ["accounts", "kubernetes"]


#: The package's own directory, where its rule files are.
_PACKAGE = resources.files(__name__)


def builtin_resolver(path: str) -> str:
    """Read a packaged rule file (``component_configs/nginx.yaml``...)."""
    return (_PACKAGE / path).read_text(encoding="utf-8")


def builtin_manifest_text() -> str:
    """The packaged manifest covering all 11 targets."""
    return builtin_resolver("manifest.yaml")


def load_builtin_validator(
    *, only: list[str] | None = None, **validator_kwargs
) -> ConfigValidator:
    """A :class:`ConfigValidator` loaded with the shipped packs.

    ``only`` restricts the validator to a subset of target names (e.g.
    ``SYSTEM_SERVICE_TARGETS`` for the Table 2 benchmark).
    """
    validator = ConfigValidator(resolver=builtin_resolver, **validator_kwargs)
    manifests = validator.add_manifest_text(
        builtin_manifest_text(), source="manifest.yaml"
    )
    if only is not None:
        wanted = set(only)
        for manifest in manifests:
            if manifest.entity not in wanted:
                manifest.enabled = False
    return validator


def inventory() -> dict[str, int]:
    """Rule counts per target (drives the Table 1 reproduction)."""
    validator = load_builtin_validator()
    counts: dict[str, int] = {}
    for manifest in validator.manifests():
        counts[manifest.entity] = len(validator.ruleset_for(manifest).rules)
    return counts


def total_rules() -> int:
    return sum(inventory().values())
