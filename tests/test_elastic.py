"""Semijoin-reduced shards and snapshot-hydrated replicas.

Each shard evaluates a view against its slice plus semijoin-reduced
copies of the replicated relations: answers stay oracle-identical while
per-shard structures shrink. Read-only
:class:`~repro.engine.replica.ReplicaServer` instances hydrate *purely*
from snapshots shipped by a primary — a missing snapshot is a fatal
:class:`~repro.exceptions.SnapshotError`, never a quiet local build —
and the async front end rotates request batches across them
round-robin."""

from __future__ import annotations

import asyncio

import pytest

from oracle import oracle_answer
from repro.database.catalog import Database
from repro.engine import (
    AsyncViewServer,
    ReplicaServer,
    ShardedViewServer,
    Telemetry,
    ViewServer,
    semijoin_reduce_database,
)
from repro.exceptions import ParameterError, SchemaError, SnapshotError
from repro.workloads import (
    productive_accesses,
    triangle_database,
    triangle_view,
)

TAU = 8.0
SHARD_KEY = {"R": 0, "T": 1}


@pytest.fixture
def setup():
    view = triangle_view("bbf")
    db = triangle_database(nodes=25, edges=120, seed=5)
    return view, db


class TestSemijoinReduction:
    def test_reduction_shrinks_replicated_relations_safely(self, setup):
        view, db = setup
        table_server = ShardedViewServer(db, 3, SHARD_KEY)
        try:
            shard_db = table_server.databases[0]
            reduced = semijoin_reduce_database(shard_db, view, SHARD_KEY)
            # S is replicated; its reduced copy only keeps rows that can
            # join this shard's slice, and never grows.
            assert set(reduced["S"].rows) <= set(shard_db["S"].rows)
            # The shard's own database is untouched (shared across views).
            assert table_server.databases[0]["S"].rows == shard_db["S"].rows
        finally:
            table_server.close()

    def test_sharded_answers_match_oracle_with_reduction_on(self, setup):
        view, db = setup
        server = ShardedViewServer(db, 3, SHARD_KEY)
        name = server.register(view, tau=TAU)
        try:
            for access in productive_accesses(view, db):
                assert server.answer(name, access) == oracle_answer(
                    view, db, access
                )
        finally:
            server.close()


class TestReplicaServer:
    def test_replica_requires_a_snapshot_dir(self, setup):
        _, db = setup
        with pytest.raises(ParameterError, match="snapshot"):
            ReplicaServer(db, snapshot_dir=None)

    def test_replica_serves_from_shipped_snapshots_without_building(
        self, setup, tmp_path
    ):
        view, db = setup
        primary = ViewServer(db, snapshot_dir=tmp_path)
        name = primary.register(view, tau=TAU)
        primary.representation(name)
        primary.cache.demote_all()
        primary.close()

        replica = ReplicaServer(db, snapshot_dir=tmp_path)
        try:
            assert replica.register(view, tau=TAU) == name
            assert replica.hydrate() == 1
            assert replica.total_builds() == 0
            for access in productive_accesses(view, db)[:10]:
                assert replica.answer(name, access) == oracle_answer(
                    view, db, access
                )
            # A replica never writes snapshots back.
            assert replica.cache_stats.disk_writes == 0
            assert replica.total_builds() == 0
        finally:
            replica.close()

    def test_replica_refuseses_to_build_unshipped_views(self, setup, tmp_path):
        view, db = setup
        replica = ReplicaServer(db, snapshot_dir=tmp_path)
        try:
            name = replica.register(view, tau=TAU)
            with pytest.raises(SnapshotError, match="refuses to build"):
                replica.representation(name)
            # And the error is fatal for serving too — never a fallback.
            with pytest.raises(SnapshotError):
                replica.answer(name, productive_accesses(view, db)[0])
            assert replica.total_builds() == 0
        finally:
            replica.close()

    def test_replica_rejects_stale_snapshots(self, setup, tmp_path):
        view, db = setup
        primary = ViewServer(db, snapshot_dir=tmp_path)
        name = primary.register(view, tau=TAU)
        primary.representation(name)
        primary.cache.demote_all()
        primary.close()
        # A replica over *different* data must not hydrate those files.
        other = triangle_database(nodes=25, edges=120, seed=99)
        replica = ReplicaServer(other, snapshot_dir=tmp_path)
        try:
            replica.register(view, name=name, tau=TAU)
            with pytest.raises(SnapshotError):
                replica.hydrate()
        finally:
            replica.close()

    def test_forgetting_a_view_leaves_the_shipped_snapshots(self, setup, tmp_path):
        # The directory is the primary's and the siblings': a replica's
        # invalidate and unregister drop resident entries only.
        view, db = setup
        primary = ViewServer(db, snapshot_dir=tmp_path)
        name = primary.register(view, tau=TAU)
        for tau in (2.0, TAU):
            primary.representation(name, tau)
        primary.cache.demote_all()
        primary.close()

        def shipped():
            return {
                path.relative_to(tmp_path): path.read_bytes()
                for path in sorted(tmp_path.rglob("*"))
                if path.is_file()
            }

        before = shipped()
        assert len(before) >= 2
        replica = ReplicaServer(db, snapshot_dir=tmp_path)
        try:
            replica.register(view, tau=TAU)
            replica.hydrate()
            replica.representation(name, 2.0)
            assert replica.invalidate(name) == 2
            assert shipped() == before
            assert replica.unregister(name)
            assert shipped() == before
        finally:
            replica.close()
        sibling = ReplicaServer(db, snapshot_dir=tmp_path)
        try:
            sibling.register(view, tau=TAU)
            assert sibling.hydrate() == 1
            access = productive_accesses(view, db)[0]
            assert sibling.answer(name, access) == oracle_answer(view, db, access)
            assert sibling.total_builds() == 0
        finally:
            sibling.close()


class TestAsyncReplicas:
    def _hydrated_replicas(self, view, db, snapshot_dir, n=2):
        primary = ViewServer(db, snapshot_dir=snapshot_dir)
        name = primary.register(view, tau=TAU)
        primary.representation(name)
        primary.cache.demote_all()
        replicas = []
        for _ in range(n):
            replica = ReplicaServer(db, snapshot_dir=snapshot_dir)
            replica.register(view, name=name, tau=TAU)
            replica.hydrate()
            replicas.append(replica)
        return primary, name, replicas

    def test_replicas_reject_a_sharded_backend(self, setup):
        view, db = setup
        sharded = ShardedViewServer(db, 2, SHARD_KEY)
        extra = ViewServer(db)
        try:
            with pytest.raises(ParameterError, match="sharded"):
                AsyncViewServer(sharded, replicas=[extra])
        finally:
            extra.close()
            sharded.close()

    def test_register_is_all_or_none(self, setup, tmp_path):
        # A replica that refuses (its database lacks a relation) used to
        # leave the primary registered: the retry failed "already
        # registered" and the name was wedged.
        view, db = setup
        primary = ViewServer(db)
        partial = Database([r for r in db if r.name != "T"])
        broken = ReplicaServer(partial, snapshot_dir=tmp_path)
        healthy = ReplicaServer(db, snapshot_dir=tmp_path)
        try:
            front = AsyncViewServer(primary, replicas=[healthy, broken])
            with pytest.raises(SchemaError):
                front.register(view, tau=TAU)
            front.close()
            assert primary.views() == ()
            assert healthy.views() == ()
            front = AsyncViewServer(primary, replicas=[healthy])
            name = front.register(view, tau=TAU)
            front.close()
            assert primary.views() == healthy.views() == (name,)
        finally:
            for server in (primary, broken, healthy):
                server.close()

    def test_round_robin_spreads_batches_and_primary_stays_cold(
        self, setup, tmp_path
    ):
        view, db = setup
        primary, name, replicas = self._hydrated_replicas(
            view, db, tmp_path, n=2
        )
        keys = productive_accesses(view, db)
        hits_before = [r.cache_stats.hits for r in replicas]
        telemetry = Telemetry()

        async def drive():
            server = AsyncViewServer(
                primary, replicas=replicas, max_workers=2, telemetry=telemetry
            )
            try:
                results = []
                for start in range(0, 8, 2):
                    results.append(
                        await server.serve(name, keys[start:start + 2])
                    )
                return results
            finally:
                await asyncio.get_running_loop().run_in_executor(
                    None, server._executor.shutdown
                )

        results = asyncio.run(drive())
        try:
            assert [r.replica for r in results] == [0, 1, 0, 1]
            for result in results:
                for access, rows in zip(
                    result.result.accesses, result.result.answers
                ):
                    assert rows == oracle_answer(view, db, access)
            # Each replica took two batches and served them from its
            # hydrated structure; no replica built anything.
            picks = [
                telemetry.registry.counter_value(
                    "balancer_picks_total", replica=str(index)
                )
                for index in range(len(replicas))
            ]
            assert picks == [2, 2]
            for replica, before in zip(replicas, hits_before):
                assert replica.cache_stats.hits > before
                assert replica.total_builds() == 0
        finally:
            for replica in replicas:
                replica.close()
            primary.close()
