"""The Data Normalizer: raw frame files -> config trees / schema tables.

Two cache levels keep fleet-scale parsing cheap:

* an **L1 per-run memo** keyed by ``(frame.cache_token, path, parser)``
  short-circuits repeated reads within one validation run (every sshd
  rule parses sshd_config once, not forty times);
* a shared **content-addressed** :class:`~repro.engine.parse_cache.ParseCache`
  keyed by ``(sha256(content), kind, parser)`` dedupes across frames and
  across scan cycles, so the N containers spawned from one image parse
  each identical config file exactly once per process.

Frame-scoped caches key on :attr:`ConfigFrame.cache_token` -- a monotonic
id that, unlike ``id(frame)``, is never reused after a frame is
garbage-collected mid-process.  All caches tolerate concurrent access
from validator worker threads: dict operations are GIL-atomic and a
racing duplicate parse is harmless (last store wins, artifacts are
immutable to the evaluators).
"""

from __future__ import annotations

import fnmatch
import posixpath
import time

from repro.chaos.fabric import _CHAOS, ChaosSchemaError, absorbed as _chaos_absorbed
from repro.errors import FileNotFoundInFrame, LensError, SchemaError
from repro.augtree.lenses import LensRegistry, default_registry
from repro.augtree.tree import ConfigTree
from repro.crawler.frame import ConfigFrame
from repro.engine.parse_cache import ParseCache, content_digest_and_size
from repro.engine.stages import StageTimings
from repro.schema import (
    Query,
    SchemaParserRegistry,
    SchemaTable,
    default_schema_registry,
)
from repro.telemetry import DISABLED, Telemetry


def _select_files(files: list[str], file_context: list[str]) -> list[str]:
    """Files matching a rule's ``file_context`` patterns.

    Each item is a glob when it contains wildcard characters, otherwise a
    substring of the path (the paper's Listing 2 uses ``"sites-enabled"``
    to mean "any file under sites-enabled/").
    """
    selected: list[str] = []
    for path in files:
        basename = posixpath.basename(path)
        for pattern in file_context:
            pattern = pattern.strip()
            if any(char in pattern for char in "*?["):
                target = path if "/" in pattern else basename
                if fnmatch.fnmatch(target, pattern):
                    selected.append(path)
                    break
            elif pattern in path:
                selected.append(path)
                break
    return selected


class FileTargetIndex:
    """One frame's file listing plus memoized per-``file_context`` selections.

    Built once per ``(frame, search paths)`` pair; every rule sharing a
    ``file_context`` (in the planner's fused units, every rule of a unit)
    resolves its candidate files with one dict probe instead of
    re-filtering the listing.  Both ``files`` and the selection lists are
    cached objects -- callers must treat them as read-only.
    """

    __slots__ = ("files", "_selections")

    def __init__(self, files: list[str]):
        self.files = files
        self._selections: dict[tuple[str, ...], list[str]] = {}

    def select(self, file_context: list[str]) -> list[str]:
        if not file_context:
            return self.files
        key = tuple(file_context)
        cached = self._selections.get(key)
        if cached is None:
            cached = _select_files(self.files, file_context)
            self._selections[key] = cached
        return cached


class Normalizer:
    """File discovery + parsing with per-run and cross-run caching."""

    def __init__(
        self,
        lenses: LensRegistry | None = None,
        schemas: SchemaParserRegistry | None = None,
        *,
        cache: ParseCache | None = None,
        timings: StageTimings | None = None,
        telemetry: Telemetry | None = None,
        recorder=None,
    ):
        self.lenses = lenses or default_registry()
        self.schemas = schemas or default_schema_registry()
        #: Shared content-addressed cache (private to this run when the
        #: caller did not supply one).
        self.cache = cache if cache is not None else ParseCache()
        self.timings = timings
        self.telemetry = telemetry or DISABLED
        #: Incremental-mode dependency recorder (None outside incremental
        #: runs).  Hooks sit at method *entry*, before the memo checks:
        #: a memo hit still reads the frame conceptually, and a rule
        #: whose read was only recorded on the cold call would replay
        #: with an incomplete dependency slice.
        self.recorder = recorder
        self._tree_memo: dict[tuple[int, str, str], ConfigTree] = {}
        self._table_memo: dict[tuple[int, str, str], SchemaTable] = {}
        self._file_index: dict[tuple[int, tuple[str, ...]], FileTargetIndex] = {}
        self._digests: dict[tuple[int, str], tuple[str, int]] = {}
        self._queries: dict[tuple[str, str], Query] = {}

    # ---- discovery --------------------------------------------------------

    def file_index(
        self, frame: ConfigFrame, search_paths: list[str]
    ) -> FileTargetIndex:
        """The frame's file-target index for ``search_paths`` (cached).

        Built once per frame per search-path set; its listing and every
        per-``file_context`` selection are shared cached lists.
        """
        if self.recorder is not None:
            self.recorder.record_listing(frame, search_paths)
        key = (frame.cache_token, tuple(search_paths))
        index = self._file_index.get(key)
        if index is None:
            started = time.perf_counter()
            files: list[str] = []
            for top in search_paths:
                files.extend(frame.files.files_under(top))
            index = FileTargetIndex(files)
            self._file_index[key] = index
            if self.timings is not None:
                self.timings.add("discover", time.perf_counter() - started)
        return index

    def files_in_search_paths(
        self, frame: ConfigFrame, search_paths: list[str]
    ) -> list[str]:
        """Every file under the manifest's search paths (cached).

        Returns the cached list itself -- callers must treat it as
        read-only (copying it per call was measurable at fleet scale).
        """
        return self.file_index(frame, search_paths).files

    def candidate_files(
        self,
        frame: ConfigFrame,
        search_paths: list[str],
        file_context: list[str],
    ) -> list[str]:
        """Files a rule applies to (see :func:`_select_files`).

        Without a file_context every file under the search paths is a
        candidate.  Selections are memoized on the frame's
        :class:`FileTargetIndex`, so forty sshd rules share one filter
        pass; the returned list is the cached object itself -- callers
        must treat it as read-only.
        """
        return self.file_index(frame, search_paths).select(file_context)

    # ---- parsing -----------------------------------------------------------

    def _digest_for(
        self, frame: ConfigFrame, path: str, content: str
    ) -> tuple[str, int]:
        """``(content digest, encoded byte length)`` for a frame file.

        The byte count comes from the same UTF-8/surrogateescape encode
        as the digest, so cache byte accounting counts true bytes (not
        characters) for non-ASCII configs.
        """
        key = (frame.cache_token, path)
        entry = self._digests.get(key)
        if entry is None:
            entry = content_digest_and_size(content)
            self._digests[key] = entry
        return entry

    def tree_for(
        self, frame: ConfigFrame, path: str, lens_name: str | None = None
    ) -> ConfigTree:
        """Parse ``path`` with the named lens (or by filename pattern,
        falling back to the generic key-value lens)."""
        if self.recorder is not None:
            self.recorder.record_file(frame, path)
        if lens_name:
            lens = self.lenses.get(lens_name)
        else:
            lens = self.lenses.for_file(path) or self.lenses.get("keyvalue")
        if _CHAOS.armed:
            # Fire before the memo/cache lookups so the decision depends
            # only on the plan and the key, never on cache warmth.
            _CHAOS.fire("lens.parse", path)
        memo_key = (frame.cache_token, path, lens.name)
        cached = self._tree_memo.get(memo_key)
        if cached is not None:
            return cached
        content = frame.read_config(path)
        tree = self.cache.parse(
            "tree", lens, content, path,
            digest=self._digest_for(frame, path, content),
            telemetry=self.telemetry, timings=self.timings,
        )
        self._tree_memo[memo_key] = tree
        return tree

    def table_for(
        self, frame: ConfigFrame, path: str, parser_name: str | None = None
    ) -> SchemaTable:
        """Parse ``path`` with the named schema parser (or by pattern)."""
        if self.recorder is not None:
            self.recorder.record_file(frame, path)
        if parser_name:
            parser = self.schemas.get(parser_name)
        else:
            parser = self.schemas.for_file(path)
            if parser is None:
                raise SchemaError(
                    f"no schema parser matches {path!r}; set schema_parser "
                    f"in the rule or manifest"
                )
        if _CHAOS.armed:
            _CHAOS.fire("lens.parse", path, error=ChaosSchemaError)
        memo_key = (frame.cache_token, path, parser.name)
        cached = self._table_memo.get(memo_key)
        if cached is not None:
            return cached
        content = frame.read_config(path)
        table = self.cache.parse(
            "table", parser, content, path,
            digest=self._digest_for(frame, path, content),
            telemetry=self.telemetry, timings=self.timings,
        )
        self._table_memo[memo_key] = table
        return table

    def query_for(self, rule) -> Query:
        """The schema rule's compiled query, compiled once per run.

        Keyed by the query's text, so it stays with this run: rule
        objects can outlive it in the process-wide plan cache.  A
        malformed query raises :class:`~repro.errors.QueryError` on
        every call; only compiled queries are kept.
        """
        key = (rule.query_constraints, rule.query_columns)
        query = self._queries.get(key)
        if query is None:
            query = Query(*key)
            self._queries[key] = query
        return query

    def try_tree(
        self, frame: ConfigFrame, path: str, lens_name: str | None = None
    ) -> ConfigTree | None:
        """``tree_for`` that returns None on parse failure (used by
        composite lookups that probe many files).

        An unreadable file is treated like an unparseable one: the probe
        moves on to the next candidate instead of killing the cycle."""
        try:
            return self.tree_for(frame, path, lens_name)
        except (LensError, FileNotFoundInFrame) as error:
            _chaos_absorbed(error)
            return None
