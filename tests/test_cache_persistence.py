"""The representation cache's disk tier.

``get_or_build`` must prefer decoding a snapshot over running the
factory, write snapshots after fresh builds, demote evicted entries
instead of discarding them, and treat corrupt or wrong-database files as
plain misses. Invalidation (unlike eviction) drops the disk copy too.
"""

from __future__ import annotations

import pytest

from repro import CompressedRepresentation
from repro.core.snapshot import SnapshotStore, database_fingerprint
from repro.engine.cache import CacheStats, RepresentationCache
from repro.workloads import triangle_database, triangle_view


@pytest.fixture(scope="module")
def workload():
    view = triangle_view("bbf")
    db = triangle_database(nodes=20, edges=90, seed=5)
    return view, db


def _build(view, db, tau):
    return CompressedRepresentation(view, db, tau=tau)


def _store(tmp_path, db):
    return SnapshotStore(tmp_path, fingerprint=database_fingerprint(db))


class TestDiskTier:
    def test_get_or_build_writes_then_warm_loads(self, workload, tmp_path):
        view, db = workload
        store = _store(tmp_path, db)
        cache = RepresentationCache(snapshot_store=store)
        built = cache.get_or_build("k", lambda: _build(view, db, 8.0))
        assert cache.stats.disk_writes == 1
        assert cache.stats.disk_hits == 0

        # A "restarted" cache over the same directory decodes instead of
        # building: the factory must never run.
        def explode():
            raise AssertionError("warm start ran the factory")

        rebooted = RepresentationCache(snapshot_store=_store(tmp_path, db))
        restored = rebooted.get_or_build("k", explode)
        assert rebooted.stats.disk_hits == 1
        assert rebooted.stats.misses == 1  # memory tier still missed
        assert restored.answer((3, 7)) == built.answer((3, 7))

    def test_custom_labels_decouple_keys_from_files(self, workload, tmp_path):
        view, db = workload
        cache = RepresentationCache(snapshot_store=_store(tmp_path, db))
        cache.get_or_build(
            ("name", 8.0, 1), lambda: _build(view, db, 8.0),
            snapshot_label="stable-label",
        )
        # A different key (a restarted server's new generation) with the
        # same label warm-loads.
        rebooted = RepresentationCache(snapshot_store=_store(tmp_path, db))
        rebooted.get_or_build(
            ("name", 8.0, 7),
            lambda: pytest.fail("label should have warm-loaded"),
            snapshot_label="stable-label",
        )
        assert rebooted.stats.disk_hits == 1

    def test_eviction_demotes_to_disk(self, workload, tmp_path):
        view, db = workload
        store = _store(tmp_path, db)
        cache = RepresentationCache(max_entries=1, snapshot_store=store)
        # put() does not write eagerly (only get_or_build does), so the
        # eviction below is a real demotion, not a no-op on a file that
        # already exists.
        cache.put("a", _build(view, db, 8.0))
        assert cache.stats.disk_writes == 0
        evicted = cache.put("b", _build(view, db, 4.0))
        assert evicted == ["a"]
        assert cache.stats.disk_writes == 1
        rebooted = RepresentationCache(
            max_entries=1, snapshot_store=_store(tmp_path, db)
        )
        restored = rebooted.get_or_build(
            "a", lambda: pytest.fail("demoted entry should warm-load")
        )
        assert restored.answer((3, 7)) == _build(view, db, 8.0).answer((3, 7))

    def test_corrupt_snapshot_is_a_miss_not_an_error(self, workload, tmp_path):
        view, db = workload
        store = _store(tmp_path, db)
        cache = RepresentationCache(snapshot_store=store)
        cache.get_or_build("k", lambda: _build(view, db, 8.0))
        path = store.path_for(repr("k"))
        assert path.exists()
        path.write_bytes(b"not a snapshot at all")
        calls = []
        rebooted = RepresentationCache(snapshot_store=_store(tmp_path, db))
        rebooted.get_or_build(
            "k", lambda: calls.append(1) or _build(view, db, 8.0)
        )
        assert calls == [1]
        assert rebooted.stats.disk_hits == 0

    def test_wrong_database_snapshot_is_refused(self, workload, tmp_path):
        view, db = workload
        cache = RepresentationCache(snapshot_store=_store(tmp_path, db))
        cache.get_or_build("k", lambda: _build(view, db, 8.0))
        other = triangle_database(nodes=20, edges=90, seed=6)
        calls = []
        stale = RepresentationCache(snapshot_store=_store(tmp_path, other))
        stale.get_or_build(
            "k", lambda: calls.append(1) or _build(view, other, 8.0)
        )
        assert calls == [1]
        assert stale.stats.disk_hits == 0

    def test_invalidate_drops_the_disk_copy_too(self, workload, tmp_path):
        view, db = workload
        store = _store(tmp_path, db)
        cache = RepresentationCache(snapshot_store=store)
        cache.get_or_build("k", lambda: _build(view, db, 8.0))
        assert store.path_for(repr("k")).exists()
        assert cache.invalidate_matching(lambda key: key == "k") == 1
        assert not store.path_for(repr("k")).exists()

    def test_disk_counters_flow_through_delta_and_add(self):
        before = CacheStats(disk_hits=1, disk_writes=2)
        after = CacheStats(disk_hits=4, disk_writes=7)
        delta = after.delta(before)
        assert (delta.disk_hits, delta.disk_writes) == (3, 5)
        total = CacheStats().add(delta).add(delta)
        assert (total.disk_hits, total.disk_writes) == (6, 10)
