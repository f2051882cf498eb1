"""Entity manifests (paper Listing 5).

A manifest gives the rule engine "the complete context to validate
configurations": per entity, where to search for its config files, which
CVL file holds its rules, and whether the entity is enabled::

    nginx:
      enabled: True
      config_search_paths:
        - /etc/nginx
      cvl_file: "component_configs/nginx.yaml"

One manifest document may describe several entities (one top-level key
each).  Optional keys: ``parent_cvl_file`` (deployment-specific override
file layered *on top of* ``cvl_file`` -- see loader inheritance), ``lens``
and ``schema_parser`` defaults for rules that do not name their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import yamlio
from repro.errors import ManifestError

_ALLOWED_KEYS = {
    "enabled",
    "config_search_paths",
    "cvl_file",
    "parent_cvl_file",
    "entity_name",
    "entity_kinds",
    "lens",
    "schema_parser",
}

#: Entity kinds manifests may scope to.
VALID_KINDS = ("host", "image", "container", "cloud")


@dataclass
class Manifest:
    """Validation context for one entity/component."""

    entity: str
    cvl_file: str
    config_search_paths: list[str] = field(default_factory=list)
    enabled: bool = True
    parent_cvl_file: str | None = None
    lens: str | None = None
    schema_parser: str | None = None
    entity_kinds: list[str] = field(default_factory=list)

    def applies_to_kind(self, kind: str) -> bool:
        """True when the manifest has no kind restriction or includes ``kind``."""
        return not self.entity_kinds or kind in self.entity_kinds

    def __post_init__(self):
        if not self.entity:
            raise ManifestError("manifest entity name cannot be empty")
        if not self.cvl_file:
            raise ManifestError(
                f"manifest for {self.entity!r} is missing cvl_file"
            )


def load_manifests(text: str, source: str = "<memory>") -> list[Manifest]:
    """Parse manifest YAML into :class:`Manifest` objects (document order)."""
    try:
        documents = [doc for doc in yamlio.load_all(text, yamlio.CvlLoader)
                     if doc is not None]
    except yamlio.YAMLError as exc:
        raise ManifestError(f"{source}: invalid YAML: {exc}") from exc
    manifests: list[Manifest] = []
    for document in documents:
        if not isinstance(document, dict):
            raise ManifestError(
                f"{source}: manifest documents must be mappings, got "
                f"{type(document).__name__}"
            )
        for entity, block in document.items():
            manifests.append(_build(str(entity), block, source))
    return manifests


def _build(entity: str, block: object, source: str) -> Manifest:
    if not isinstance(block, dict):
        raise ManifestError(
            f"{source}: manifest entry {entity!r} must be a mapping"
        )
    unknown = set(block) - _ALLOWED_KEYS
    if unknown:
        raise ManifestError(
            f"{source}: manifest {entity!r} has unknown key(s) {sorted(unknown)}"
        )
    enabled = block.get("enabled", True)
    if not isinstance(enabled, bool):
        raise ManifestError(
            f"{source}: manifest {entity!r}: enabled must be a boolean"
        )
    search_paths = block.get("config_search_paths", [])
    if isinstance(search_paths, str):
        search_paths = [search_paths]
    if not isinstance(search_paths, list) or not all(
        isinstance(path, str) for path in search_paths
    ):
        raise ManifestError(
            f"{source}: manifest {entity!r}: config_search_paths must be a "
            f"list of strings"
        )
    kinds = block.get("entity_kinds", [])
    if isinstance(kinds, str):
        kinds = [kinds]
    if not isinstance(kinds, list) or not all(
        isinstance(kind, str) and kind in VALID_KINDS for kind in kinds
    ):
        raise ManifestError(
            f"{source}: manifest {entity!r}: entity_kinds must be a list "
            f"drawn from {list(VALID_KINDS)}"
        )
    return Manifest(
        entity=str(block.get("entity_name", entity)),
        cvl_file=str(block.get("cvl_file", "")),
        config_search_paths=list(search_paths),
        enabled=enabled,
        parent_cvl_file=(
            str(block["parent_cvl_file"]) if block.get("parent_cvl_file") else None
        ),
        lens=str(block["lens"]) if block.get("lens") else None,
        schema_parser=(
            str(block["schema_parser"]) if block.get("schema_parser") else None
        ),
        entity_kinds=list(kinds),
    )
