"""The persistent content-addressed artifact store (second parse tier).

The store is an accelerator, not a source of truth: every test that
corrupts, shrinks, or disables it asserts that lookups degrade to
"parse again" instead of raising.
"""

import sqlite3

import pytest

from repro.augtree.tree import SourceSpan
from repro.engine.artifact_store import (
    LENS_VERSION,
    STORE_FILE,
    ArtifactStore,
    ArtifactStoreStats,
    store_path_for,
)
from repro.engine.parse_cache import ParseCache, content_digest_and_size


def make_key(text: str, kind: str = "tree", parser: str = "keyvalue"):
    digest, nbytes = content_digest_and_size(text)
    return (digest, kind, parser), nbytes


class TestStoreBasics:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "a.sqlite")
        key, nbytes = make_key("Port 22\n")
        assert store.load(key, nbytes) is None
        store.save(key, {"Port": "22"}, nbytes)
        assert store.load(key, nbytes) == {"Port": "22"}
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.stored) == (1, 1, 1)
        assert stats.entries == 1
        assert stats.bytes_loaded == nbytes
        store.close()

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "a.sqlite"
        key, nbytes = make_key("x = 1\n")
        with ArtifactStore(path) as store:
            store.save(key, ["artifact"], nbytes)
        with ArtifactStore(path) as fresh:
            assert fresh.load(key, nbytes) == ["artifact"]

    def test_kind_and_parser_segregate_keys(self, tmp_path):
        store = ArtifactStore(tmp_path / "a.sqlite")
        key_tree, nbytes = make_key("v", kind="tree")
        key_table, _ = make_key("v", kind="table")
        store.save(key_tree, "as-tree", nbytes)
        assert store.load(key_table, nbytes) is None
        assert store.load(key_tree, nbytes) == "as-tree"
        store.close()

    def test_version_partitions_artifacts(self, tmp_path):
        """A LENS_VERSION bump must turn old rows into misses."""
        path = tmp_path / "a.sqlite"
        key, nbytes = make_key("Port 22\n")
        with ArtifactStore(path) as store:
            store.save(key, "old", nbytes)
        conn = sqlite3.connect(path)
        conn.execute("UPDATE artifacts SET version=?",
                     (LENS_VERSION + ".stale",))
        conn.commit()
        conn.close()
        with ArtifactStore(path) as fresh:
            assert fresh.load(key, nbytes) is None

    def test_store_path_for(self, tmp_path):
        assert store_path_for(tmp_path) == tmp_path / STORE_FILE

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path / "a.sqlite")
        key, nbytes = make_key("data")
        store.save(key, 1, nbytes)
        store.clear()
        assert store.load(key, nbytes) is None
        assert store.stats().entries == 0
        store.close()


class TestEvictionAndBudget:
    def test_lru_eviction_by_bytes(self, tmp_path):
        blob = "y" * 100
        one_size = len(
            __import__("pickle").dumps(blob, protocol=5)
        )
        store = ArtifactStore(tmp_path / "a.sqlite",
                              max_bytes=one_size * 2)
        keys = []
        for i in range(3):
            key, nbytes = make_key(f"file-{i}")
            keys.append((key, nbytes))
            store.save(key, blob, nbytes)
        stats = store.stats()
        assert stats.evictions >= 1
        assert stats.disk_bytes <= one_size * 2
        # Newest row survives; the oldest-used was evicted.
        assert store.load(keys[-1][0], keys[-1][1]) == blob
        assert store.load(keys[0][0], keys[0][1]) is None
        store.close()

    def test_load_touches_lru_order(self, tmp_path):
        blob = "z" * 100
        one_size = len(__import__("pickle").dumps(blob, protocol=5))
        store = ArtifactStore(tmp_path / "a.sqlite",
                              max_bytes=one_size * 2)
        (key_a, n_a), (key_b, n_b) = make_key("a"), make_key("b")
        store.save(key_a, blob, n_a)
        store.save(key_b, blob, n_b)
        assert store.load(key_a, n_a) == blob  # a is now most recent
        key_c, n_c = make_key("c")
        store.save(key_c, blob, n_c)           # evicts b, not a
        assert store.load(key_a, n_a) == blob
        assert store.load(key_b, n_b) is None
        store.close()

    def test_oversized_artifact_skipped(self, tmp_path):
        store = ArtifactStore(tmp_path / "a.sqlite", max_bytes=64)
        key, nbytes = make_key("big")
        store.save(key, "x" * 10_000, nbytes)
        assert store.stats().entries == 0
        store.close()


class TestCorruptionTolerance:
    def test_corrupt_blob_is_dropped_not_raised(self, tmp_path):
        path = tmp_path / "a.sqlite"
        key, nbytes = make_key("Port 22\n")
        with ArtifactStore(path) as store:
            store.save(key, {"Port": "22"}, nbytes)
        conn = sqlite3.connect(path)
        conn.execute("UPDATE artifacts SET blob=?", (b"\x80garbage",))
        conn.commit()
        conn.close()
        store = ArtifactStore(path)
        assert store.load(key, nbytes) is None
        stats = store.stats()
        assert stats.load_errors == 1
        assert stats.entries == 0  # the bad row was deleted
        assert not store.broken
        store.close()

    def test_unpicklable_value_counts_store_error(self, tmp_path):
        store = ArtifactStore(tmp_path / "a.sqlite")
        key, nbytes = make_key("f")
        store.save(key, lambda: None, nbytes)
        assert store.stats().store_errors == 1
        assert store.load(key, nbytes) is None
        store.close()

    def test_unopenable_path_disables_store(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("plain file, not a directory")
        store = ArtifactStore(target / "a.sqlite")
        assert store.broken
        key, nbytes = make_key("x")
        store.save(key, 1, nbytes)            # no-ops, never raises
        assert store.load(key, nbytes) is None
        store.close()


class TestStats:
    def test_render_and_dict(self):
        stats = ArtifactStoreStats(hits=3, misses=1)
        assert "3 hits / 1 misses" in stats.render()
        assert stats.to_dict()["hits"] == 3
        assert stats.hit_rate == pytest.approx(0.75)


class TestParseCacheTier:
    def test_memory_miss_consults_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "a.sqlite")
        warm = ParseCache(16, store=store)
        key, nbytes = make_key("Port 22\n")
        calls = []
        warm.get_or_parse(key, nbytes, lambda: calls.append(1) or "parsed")
        assert calls == [1]
        # A cold in-memory cache on the same store: no second parse.
        cold = ParseCache(16, store=store)
        value = cold.get_or_parse(
            key, nbytes, lambda: calls.append(2) or "reparsed")
        assert value == "parsed"
        assert calls == [1]
        stats = cold.stats()
        # Store-served lookups stay in-memory misses, but the bytes are
        # credited to the store, not bytes_parsed.
        assert stats.misses == 1
        assert stats.bytes_parsed == 0
        assert store.stats().bytes_loaded == nbytes
        store.close()

    def test_write_through_on_parse(self, tmp_path):
        store = ArtifactStore(tmp_path / "a.sqlite")
        cache = ParseCache(16, store=store)
        key, nbytes = make_key("x")
        cache.get_or_parse(key, nbytes, lambda: "fresh")
        assert store.stats().stored == 1
        assert store.load(key, nbytes) == "fresh"
        store.close()

    def test_resize_in_place(self):
        cache = ParseCache(8)
        for i in range(8):
            cache.get_or_parse((f"d{i}", "tree", "p"), 1, lambda: i)
        cache.resize(2)
        assert len(cache) == 2
        assert cache.maxsize == 2
        stats = cache.stats()
        assert stats.evictions == 6

    def test_spanned_artifacts_survive_the_store(self, tmp_path):
        """Artifacts carrying SourceSpans round-trip through sqlite."""
        store = ArtifactStore(tmp_path / "a.sqlite")
        span = SourceSpan(3, 4, 3, 9, 20, 25)
        key, nbytes = make_key("spanful")
        store.save(key, {"value": ("22", span)}, nbytes)
        loaded = store.load(key, nbytes)
        assert loaded["value"][1] == span
        store.close()
