"""The Crawler: entity -> ConfigFrame.

Feature selection mirrors the Agentless System Crawler's feature flags:
``files`` (the filesystem view), ``packages``, ``runtime`` (plugin
extraction), ``metadata`` (provenance).  Crawling is cheap -- filesystem
views are shared, not copied -- so frames can be produced at fleet scale
(the production system validates tens of thousands of frames daily).
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor

from repro.chaos.fabric import _CHAOS
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
        #: id(entity) -> (entity, signature, frame), latest crawl_many.
        self._last: dict[int, tuple] = {}

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
                        # Log the message, not the exception: a handler
                        # that keeps records would pin its traceback, and
                        # with it this frame and entity.
                        error = str(exc)
                        log.warning(
                            "plugin %s failed on %s:%s: %s",
                            plugin.name, entity.kind, entity.name, error,
                        )
                        frame.metadata[f"plugin_error:{plugin.name}"] = error
        if telemetry.enabled:
            self._crawled_total().inc(kind=entity.kind)
        return frame

    def _crawled_total(self):
        """The counter of entities snapshotted, reused frames included."""
        return self.telemetry.metrics.counter(
            "repro_entities_crawled_total",
            "Entities snapshotted into frames, by kind.", labels=("kind",))

    def _parse(self, lens, text: str, source: str):
        """A plugin's config-file parse, through the parse cache if any."""
        if self.parse_cache is None:
            return parse_text(lens, text, source)
        return self.parse_cache.parse("tree", lens, text, source,
                                      telemetry=self.telemetry)

    def _signature(self, entity: Entity, features: tuple[str, ...],
                   plugins: list[tuple]) -> tuple | None:
        """Everything a crawl of ``entity`` with the registered ``(name,
        plugin)`` pairs reads, compared with ``==``; None: cannot tell."""
        token = entity.filesystem().change_token()
        signatures = {}
        for name, plugin in plugins:
            if not plugin.kinds or entity.kind in plugin.kinds:
                try:
                    signatures[name] = plugin.signature(entity)
                except Exception:
                    return None  # the full crawl reports the failure
        if token is None or None in signatures.values():
            return None
        return (entity.kind, entity.name, features, token,
                entity.package_db().change_token(), plugins, signatures)

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

        An entity whose :meth:`_signature` is unchanged since the previous
        call gets its frame back (memoized digests included), unless that
        frame has a plugin error; an armed chaos plan crawls in full.
        """
        # Captured before the fan-out: pool threads have no span stack,
        # so each crawl span is parented to the caller's span explicitly.
        parent = self.telemetry.spans.current()
        armed = _CHAOS.armed
        last = self._last
        registry = self._plugins
        plugins = ([(name, registry.get(name)) for name in registry.names()]
                   if "runtime" in features else [])

        def crawl_one(entity: Entity) -> tuple:
            signature = (None if armed
                         else self._signature(entity, features, plugins))
            previous = last.get(id(entity))
            if signature is not None and previous and previous[1] == signature:
                # Keep the stored signature: the new one dies young.
                return previous[2], previous[1], True
            frame = self.crawl(entity, features, strict_plugins=strict_plugins,
                               parent_span=parent)
            if any(key.startswith("plugin_error:") for key in frame.metadata):
                signature = None  # never reused
            return frame, signature, False

        if workers > 1 and len(entities) > 1:
            with ThreadPoolExecutor(
                max_workers=min(workers, len(entities)),
                thread_name_prefix="crawl",
            ) as pool:
                crawled = list(pool.map(crawl_one, entities))
        else:
            crawled = [crawl_one(entity) for entity in entities]
        self._last = {id(entity): (entity, sig, frame)
                      for entity, (frame, sig, _) in zip(entities, crawled)
                      if sig is not None}
        reused = Counter(frame.entity_kind for frame, _s, was_reused in crawled
                         if was_reused)
        if reused and self.telemetry.enabled:
            crawled_total = self._crawled_total()
            for kind, count in reused.items():
                crawled_total.inc(count, kind=kind)
            self.telemetry.metrics.counter(
                "repro_frames_reused_total",
                "Frames reused from the previous crawl of an unchanged"
                " entity.").inc(reused.total())
        return [frame for frame, _signature, _reused in crawled]
