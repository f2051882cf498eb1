"""Tests for the content-addressed parse cache and stage instrumentation."""

import threading

import pytest

from repro.crawler import Crawler, HostEntity
from repro.engine import ConfigValidator
from repro.engine.normalizer import Normalizer
from repro.engine.parse_cache import CacheStats, ParseCache, content_digest
from repro.engine.stages import STAGES, StageTimings
from repro.fs import VirtualFilesystem


def _frame(files: dict[str, str]):
    fs = VirtualFilesystem()
    for path, content in files.items():
        fs.write_file(path, content)
    return Crawler().crawl(HostEntity("cache-host", fs))


class TestParseCache:
    def test_hit_and_miss_counters(self):
        cache = ParseCache(maxsize=8)
        calls = []
        key = (content_digest("a=1\n"), "tree", "keyvalue")
        for _ in range(3):
            cache.get_or_parse(key, 4, lambda: calls.append(1) or "artifact")
        stats = cache.stats()
        assert len(calls) == 1
        assert (stats.hits, stats.misses) == (2, 1)
        assert stats.bytes_parsed == 4
        assert stats.bytes_deduped == 8
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_lru_eviction_is_bounded(self):
        cache = ParseCache(maxsize=2)
        for i in range(5):
            cache.get_or_parse((f"digest{i}", "tree", "kv"), 1, lambda i=i: i)
        stats = cache.stats()
        assert len(cache) == 2
        assert stats.evictions == 3
        # Least-recently-used entries left; the newest two remain.
        assert cache.get_or_parse(("digest4", "tree", "kv"), 1,
                                  lambda: "reparsed") == 4

    def test_lru_recency_updated_on_hit(self):
        cache = ParseCache(maxsize=2)
        cache.get_or_parse(("a", "tree", "kv"), 1, lambda: "A")
        cache.get_or_parse(("b", "tree", "kv"), 1, lambda: "B")
        cache.get_or_parse(("a", "tree", "kv"), 1, lambda: "A2")  # refresh a
        cache.get_or_parse(("c", "tree", "kv"), 1, lambda: "C")   # evicts b
        assert cache.get_or_parse(("a", "tree", "kv"), 1, lambda: "miss") == "A"
        assert cache.get_or_parse(("b", "tree", "kv"), 1,
                                  lambda: "miss") == "miss"

    def test_maxsize_zero_disables_storage(self):
        cache = ParseCache(maxsize=0)
        calls = []
        key = ("digest", "tree", "kv")
        for _ in range(3):
            cache.get_or_parse(key, 1, lambda: calls.append(1) or "x")
        assert len(calls) == 3
        assert len(cache) == 0
        assert cache.stats().misses == 3

    def test_parse_failure_caches_nothing(self):
        cache = ParseCache()

        def boom():
            raise ValueError("bad parse")

        with pytest.raises(ValueError):
            cache.get_or_parse(("d", "tree", "kv"), 1, boom)
        assert len(cache) == 0
        assert cache.get_or_parse(("d", "tree", "kv"), 1, lambda: "ok") == "ok"

    def test_clear_resets_counters(self):
        cache = ParseCache()
        cache.get_or_parse(("d", "tree", "kv"), 5, lambda: "x")
        cache.clear()
        assert cache.stats() == CacheStats()

    def test_resize_in_place(self):
        cache = ParseCache(8)
        for i in range(8):
            cache.get_or_parse((f"d{i}", "tree", "p"), 1, lambda: i)
        cache.resize(2)
        assert len(cache) == 2
        assert cache.maxsize == 2
        stats = cache.stats()
        assert stats.evictions == 6

    def test_thread_hammering_is_consistent(self):
        cache = ParseCache(maxsize=64)
        barrier = threading.Barrier(8)
        results = []

        def worker():
            barrier.wait()
            for i in range(200):
                value = cache.get_or_parse(
                    (f"digest{i % 16}", "tree", "kv"), 1, lambda i=i: i % 16
                )
                results.append((i % 16, value))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(key == value for key, value in results)
        stats = cache.stats()
        assert stats.lookups == 8 * 200
        assert len(cache) == 16


class _SignallingLock:
    """A cache's lock that sets ``released`` each time ``thread``
    releases it: the moment that thread has looked a key up."""

    def __init__(self, lock, thread, released):
        self._lock, self._thread, self._released = lock, thread, released

    def __enter__(self):
        self._lock.acquire()

    def __exit__(self, *exc_info):
        self._lock.release()
        if threading.current_thread() is self._thread:
            self._released.set()


class TestSingleFlight:
    """Two workers that miss one cold key parse it once."""

    KEY = (content_digest("a=1\n"), "tree", "keyvalue")

    def _race(self, first_parse, second_parse):
        """Look KEY up on two threads; the first parse blocks until the
        second thread has looked the key up.  Returns ``(cache, results,
        errors)``."""
        cache = ParseCache()
        started, asked = threading.Event(), threading.Event()
        results, errors = [], []

        def lookup(parse):
            def parse_after_the_race():
                started.set()
                asked.wait(5)
                return parse()
            try:
                results.append(cache.get_or_parse(self.KEY, 4,
                                                  parse_after_the_race))
            except ValueError as error:
                errors.append(error)

        first = threading.Thread(target=lookup, args=(first_parse,))
        second = threading.Thread(target=lookup, args=(second_parse,))
        cache._lock = _SignallingLock(cache._lock, second, asked)
        first.start()
        started.wait(5)
        second.start()
        first.join(10)
        second.join(10)
        return cache, results, errors

    def test_racing_lookup_waits_and_counts_as_a_hit(self):
        parses = []
        cache, results, errors = self._race(
            lambda: parses.append("first") or "first tree",
            lambda: parses.append("second") or "second tree")
        assert parses == ["first"]
        assert results == ["first tree", "first tree"] and not errors
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 1)
        assert (stats.bytes_parsed, stats.bytes_deduped) == (4, 4)
        assert not cache._inflight

    def test_waiters_parse_for_themselves_after_a_failed_parse(self):
        def fail():
            raise ValueError("bad parse")

        cache, results, errors = self._race(fail, lambda: "second tree")
        assert results == ["second tree"] and len(errors) == 1
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 0)
        assert cache.get_or_parse(self.KEY, 4, fail) == "second tree"
        assert not cache._inflight


class TestContentAddressing:
    def test_identical_content_parses_once_across_frames(self):
        content = "PermitRootLogin no\nPort 22\n"
        frames = [
            _frame({"/etc/ssh/sshd_config": content}) for _ in range(4)
        ]
        cache = ParseCache()
        normalizer = Normalizer(cache=cache)
        trees = [
            normalizer.tree_for(frame, "/etc/ssh/sshd_config")
            for frame in frames
        ]
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == 3
        assert all(tree is trees[0] for tree in trees)

    def test_different_content_parses_separately(self):
        frame_a = _frame({"/etc/ssh/sshd_config": "Port 22\n"})
        frame_b = _frame({"/etc/ssh/sshd_config": "Port 2222\n"})
        cache = ParseCache()
        normalizer = Normalizer(cache=cache)
        tree_a = normalizer.tree_for(frame_a, "/etc/ssh/sshd_config")
        tree_b = normalizer.tree_for(frame_b, "/etc/ssh/sshd_config")
        assert cache.stats().misses == 2
        assert tree_a.first("Port").value != tree_b.first("Port").value

    def test_cache_survives_across_runs(self):
        """The validator-owned cache dedupes across scan cycles."""
        content = "Port 22\n"
        validator = ConfigValidator(
            resolver=lambda _path: "config_name: Port\npreferred_value: ['22']\n"
        )
        validator.add_manifest_text(
            "sshd: {config_search_paths: [/etc/ssh], cvl_file: sshd.yaml}"
        )
        for _ in range(3):
            frame = _frame({"/etc/ssh/sshd_config": content})
            report = validator.validate_frame(frame)
            assert report.compliant
        stats = validator.cache_stats()
        assert stats.misses == 1
        assert stats.hits == 2

    def test_frame_tokens_never_alias(self):
        """Unlike id(), tokens of dead frames are never reused."""
        seen = set()
        for _ in range(50):
            frame = _frame({"/etc/a": "x"})
            assert frame.cache_token not in seen
            seen.add(frame.cache_token)

    def test_files_in_search_paths_returns_cached_list(self):
        frame = _frame({"/etc/ssh/sshd_config": "Port 22\n"})
        normalizer = Normalizer()
        first = normalizer.files_in_search_paths(frame, ["/etc/ssh"])
        second = normalizer.files_in_search_paths(frame, ["/etc/ssh"])
        assert first is second  # no per-call copying


class TestStageTimings:
    def test_accumulates_and_renders(self):
        timings = StageTimings()
        timings.add("parse", 0.25, count=3)
        timings.add("evaluate", 0.75)
        assert timings.seconds("parse") == pytest.approx(0.25)
        assert timings.count("parse") == 3
        assert timings.total_seconds == pytest.approx(1.0)
        rendered = timings.render()
        for stage in STAGES:
            assert stage in rendered
        assert "25.0%" in rendered and "75.0%" in rendered

    def test_timer_context(self):
        timings = StageTimings()
        with timings.timer("crawl"):
            pass
        assert timings.count("crawl") == 1
        assert timings.seconds("crawl") >= 0.0

    def test_merge(self):
        first, second = StageTimings(), StageTimings()
        first.add("parse", 1.0)
        second.add("parse", 2.0, count=2)
        first.merge(second)
        assert first.seconds("parse") == pytest.approx(3.0)
        assert first.count("parse") == 3

    def test_charging_view_shares_the_caches(self):
        """A frame's view of the run's normalizer charges its own block
        and reuses what any other view already discovered or parsed."""
        frame = _frame({"/etc/ssh/sshd_config": "Port 22\n"})
        normalizer = Normalizer()
        first, second = StageTimings(), StageTimings()
        view = normalizer.charging(first)
        tree = view.tree_for(frame, "/etc/ssh/sshd_config", "sshd")
        files = view.files_in_search_paths(frame, ["/etc/ssh"])
        other = normalizer.charging(second)
        assert other.tree_for(frame, "/etc/ssh/sshd_config", "sshd") is tree
        assert other.files_in_search_paths(frame, ["/etc/ssh"]) is files
        assert first.ops == {"parse": 1, "discover": 1}
        assert second.ops == {}
        assert normalizer.timings is None
