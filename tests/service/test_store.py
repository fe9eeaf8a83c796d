"""Two-tier cache tests: LRU, disk store, eviction, corruption."""

import pickle
import threading

import pytest

from repro.obs.metrics import default_registry
from repro.service.store import (
    SCHEMA_VERSION,
    ArtifactCache,
    DiskStore,
    LRUCache,
)


class TestLRUCache:
    def test_evicts_least_recently_used(self):
        lru = LRUCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh a
        lru.put("c", 3)           # evicts b
        assert lru.get("b") is None
        assert lru.get("a") == 1 and lru.get("c") == 3

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)


class TestDiskStore:
    def test_round_trip(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        store.put("sta", "k1", {"wns": -3.0})
        assert store.get("sta", "k1") == {"wns": -3.0}
        assert store.get("sta", "other") is None

    def test_versioned_layout_wipes_old_schemas(self, tmp_path):
        root = tmp_path / "cache"
        stale = root / "v999" / "sta"
        stale.mkdir(parents=True)
        (stale / "old.pkl").write_bytes(pickle.dumps("stale"))
        store = DiskStore(root)
        store.put("sta", "k", "fresh")
        assert not (root / "v999").exists()
        assert (root / f"v{SCHEMA_VERSION}" / "meta.json").exists()

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        store.put("fit", "k", [1, 2, 3])
        path = store._path("fit", "k")
        path.write_bytes(b"\x80truncated garbage")
        assert store.get("fit", "k") is None
        assert not path.exists()

    def test_unknown_class_rejected(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        with pytest.raises(ValueError):
            store.put("weird", "k", 1)

    def test_eviction_under_byte_budget(self, tmp_path):
        store = DiskStore(tmp_path / "cache", max_bytes=1)
        store.put("sta", "a", "x" * 100)
        store.put("sta", "b", "y" * 100)
        # Budget of 1 byte: everything but at most one entry is evicted.
        assert store.total_bytes() <= 200
        assert len(store.entries()) <= 1

    def test_invalidate_single_and_class(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        store.put("sta", "a", 1)
        store.put("sta", "b", 2)
        store.put("pba", "c", 3)
        assert store.invalidate("sta", "a") == 1
        assert store.get("sta", "a") is None
        assert store.invalidate("sta") == 1  # b
        assert store.get("pba", "c") == 3
        assert store.invalidate() == 1      # c


class TestArtifactCache:
    def test_disk_hit_promotes_to_memory(self, tmp_path):
        disk = DiskStore(tmp_path / "cache")
        warm = ArtifactCache(memory_entries=4, disk=disk)
        warm.put("sta", "k", "value")
        # Fresh cache over the same disk: first get is a disk hit...
        fresh = ArtifactCache(memory_entries=4, disk=DiskStore(
            tmp_path / "cache"
        ))
        assert fresh.get("sta", "k") == "value"
        # ...after which the memory tier answers even if disk vanishes.
        fresh.disk = None
        assert fresh.get("sta", "k") == "value"

    def test_hit_miss_counters(self, tmp_path):
        registry = default_registry()
        cache = ArtifactCache(
            memory_entries=4, disk=DiskStore(tmp_path / "cache")
        )
        h0 = registry.counter("cache.hit.sta").value
        m0 = registry.counter("cache.miss.sta").value
        assert cache.get("sta", "k") is None
        cache.put("sta", "k", 1)
        assert cache.get("sta", "k") == 1
        assert registry.counter("cache.hit.sta").value == h0 + 1
        assert registry.counter("cache.miss.sta").value == m0 + 1

    def test_from_context_disabled(self):
        from repro.context import RunContext

        assert ArtifactCache.from_context(
            RunContext(cache=False)
        ) is None


def _scans() -> float:
    return default_registry().counter("service.store.scans").value


class TestRunningTotal:
    """``DiskStore`` keeps its byte total without rescanning the disk."""

    def test_puts_under_budget_scan_once(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        before = _scans()
        for index in range(300):
            store.put("sta", f"k{index}", index)
        assert _scans() - before == 1  # the seed scan, nothing per put
        assert store._bytes == store.total_bytes()

    def test_eviction_reseeds_the_exact_total(self, tmp_path):
        store = DiskStore(tmp_path / "cache", max_bytes=1000)
        before = _scans()
        for index in range(40):
            store.put("sta", f"k{index}", "x" * 100)
        gauge = default_registry().gauge("service.cache.bytes").value
        assert _scans() - before > 1  # eviction ran the exact scan
        assert store._bytes == gauge == store.total_bytes() <= 1000
        assert store.get("sta", "k39") == "x" * 100

    def test_overwrite_invalidate_and_corrupt_drop_keep_it_exact(
            self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        store.put("sta", "a", "x" * 50)
        store.put("sta", "a", "x" * 500)  # overwrite: old size leaves
        store.put("pba", "b", [1, 2, 3])
        store.put("fit", "c", "y" * 80)
        assert store._bytes == store.total_bytes()
        store.invalidate("sta", "a")
        assert store._bytes == store.total_bytes()
        store._path("fit", "c").write_bytes(b"\x80garbage")
        store._bytes = store.total_bytes()  # out-of-band write
        assert store.get("fit", "c") is None
        assert store._bytes == store.total_bytes()
        store.invalidate()
        assert store._bytes == store.total_bytes() == 0

    def test_other_writers_are_seen_after_evict(self, tmp_path):
        parent = DiskStore(tmp_path / "cache")
        parent.put("sta", "mine", 1)
        worker = DiskStore(tmp_path / "cache")
        worker.put("sta", "theirs", "z" * 300)
        assert parent._bytes < parent.total_bytes()
        parent.evict()
        assert parent._bytes == parent.total_bytes()

    @pytest.mark.parametrize("shared", [True, False])
    def test_concurrent_puts_of_one_key(self, tmp_path, shared):
        """Two threads in one process (one pid) writing the same key
        never trip over each other's temp file."""
        root = tmp_path / "cache"
        stores = [DiskStore(root)] * 2 if shared else [
            DiskStore(root), DiskStore(root)
        ]
        errors = []

        def writer(store, tag):
            try:
                for index in range(50):
                    store.put("sta", "same", (tag, index, "p" * 2000))
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(store, tag))
            for tag, store in enumerate(stores)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        tag, index, payload = stores[0].get("sta", "same")
        assert index == 49 and payload == "p" * 2000
        leftovers = sorted(
            p.name for p in (root / f"v{SCHEMA_VERSION}" / "sta").iterdir()
        )
        assert leftovers == ["same.pkl"]  # no temp file left behind
