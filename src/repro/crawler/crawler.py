"""The Crawler: entity -> ConfigFrame.

Feature selection mirrors the Agentless System Crawler's feature flags:
``files`` (the filesystem view), ``packages``, ``runtime`` (plugin
extraction), ``metadata`` (provenance).  Crawling is cheap -- filesystem
views are shared, not copied -- so frames can be produced at fleet scale
(the production system validates tens of thousands of frames daily).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.errors import CrawlerError, PluginError
from repro.crawler.entities import Entity
from repro.crawler.frame import ConfigFrame
from repro.crawler.plugins import (
    PluginRegistry,
    default_plugin_registry,
    parse_text,
)
from repro.telemetry import DISABLED, Telemetry, get_logger

ALL_FEATURES = ("files", "packages", "runtime", "metadata")

log = get_logger("crawler")


class Crawler:
    """Produces :class:`ConfigFrame` snapshots from entities."""

    def __init__(self, plugins: PluginRegistry | None = None,
                 telemetry: Telemetry | None = None, parse_cache=None):
        self._plugins = plugins or default_plugin_registry()
        self.telemetry = telemetry or DISABLED
        #: The validator's :class:`~repro.engine.parse_cache.ParseCache`
        #: (None: plugins parse without caching).  Plugins parse config
        #: files through it under the normalizer's own keys, so a file a
        #: plugin parsed is a cache hit for the engine and vice versa.
        self.parse_cache = parse_cache

    @property
    def plugins(self) -> PluginRegistry:
        return self._plugins

    def crawl(
        self,
        entity: Entity,
        features: tuple[str, ...] = ALL_FEATURES,
        *,
        strict_plugins: bool = False,
        parent_span=None,
    ) -> ConfigFrame:
        """Snapshot ``entity``.

        With ``strict_plugins`` a plugin failure aborts the crawl;
        otherwise the failure is recorded in frame metadata and other
        namespaces are still extracted (a broken MySQL extractor must not
        block sshd validation).  ``parent_span`` nests the crawl span
        under a span opened on another thread (pool fan-out).
        """
        unknown = set(features) - set(ALL_FEATURES)
        if unknown:
            raise CrawlerError(f"unknown crawl features: {sorted(unknown)}")
        telemetry = self.telemetry
        # A real span, so the parses plugins run nest under their crawl.
        with telemetry.spans.span(
            f"{entity.kind}:{entity.name}", category="crawl",
            parent=parent_span, kind=entity.kind,
        ):
            frame = ConfigFrame(
                entity_name=entity.name,
                entity_kind=entity.kind,
                files=entity.filesystem(),
            )
            if "packages" in features:
                frame.packages = entity.package_db()
            if "metadata" in features:
                frame.metadata["kind"] = entity.kind
                frame.metadata["name"] = entity.name
            if "runtime" in features:
                for plugin in self._plugins.applicable(entity):
                    try:
                        frame.runtime[plugin.name] = plugin.extract_with(
                            entity, self._parse)
                    except PluginError:
                        raise
                    except Exception as exc:  # plugin bug: isolate, don't abort
                        if strict_plugins:
                            raise PluginError(
                                f"plugin {plugin.name!r} failed on "
                                f"{entity.kind}:{entity.name}: {exc}"
                            ) from exc
                        log.warning(
                            "plugin %s failed on %s:%s: %s",
                            plugin.name, entity.kind, entity.name, exc,
                        )
                        frame.metadata[f"plugin_error:{plugin.name}"] = str(exc)
        if telemetry.enabled:
            telemetry.metrics.counter(
                "repro_entities_crawled_total",
                "Entities snapshotted into frames, by kind.",
                labels=("kind",),
            ).inc(kind=entity.kind)
        return frame

    def _parse(self, lens, text: str, source: str):
        """A plugin's config-file parse, through the parse cache if any."""
        if self.parse_cache is None:
            return parse_text(lens, text, source)
        return self.parse_cache.parse("tree", lens, text, source,
                                      telemetry=self.telemetry)

    def crawl_many(
        self,
        entities: list[Entity],
        features: tuple[str, ...] = ALL_FEATURES,
        *,
        workers: int = 1,
        strict_plugins: bool = False,
    ) -> list[ConfigFrame]:
        """Snapshot a fleet (document order preserved).

        ``workers > 1`` fans entities out on a thread pool; the returned
        frame list still matches ``entities`` position-for-position.
        """
        # Captured before the fan-out: pool threads have no span stack,
        # so each crawl span is parented to the caller's span explicitly.
        parent = self.telemetry.spans.current()
        if workers > 1 and len(entities) > 1:
            with ThreadPoolExecutor(
                max_workers=min(workers, len(entities)),
                thread_name_prefix="crawl",
            ) as pool:
                return list(
                    pool.map(
                        lambda entity: self.crawl(
                            entity, features,
                            strict_plugins=strict_plugins,
                            parent_span=parent,
                        ),
                        entities,
                    )
                )
        return [self.crawl(entity, features, strict_plugins=strict_plugins,
                           parent_span=parent)
                for entity in entities]
