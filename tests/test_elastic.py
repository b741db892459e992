"""Elastic topology: live hot-shard splits and snapshot-hydrated replicas.

The drain protocol in one paragraph: every cursor pins the routing-table
version it opened under; a split installs version+1 for new traffic
while pinned cursors keep answering against their own topology; when the
last pin on an old version drops, its no-longer-referenced shard servers
demote their cached structures and retire. Replicas are the other half
of elasticity: read-only :class:`~repro.engine.replica.ReplicaServer`
instances hydrate *purely* from snapshots shipped by a primary — a
missing snapshot is a fatal :class:`~repro.exceptions.SnapshotError`,
never a quiet local build — and the async front end rotates request
batches across them round-robin.
"""

from __future__ import annotations

import asyncio

import pytest

from oracle import oracle_answer
from repro.database.catalog import Database
from repro.engine import (
    AsyncViewServer,
    ReplicaServer,
    ShardedViewServer,
    ViewServer,
    semijoin_reduce_database,
)
from repro.exceptions import ParameterError, SchemaError, SnapshotError
from repro.query.parser import parse_view
from repro.workloads import (
    productive_accesses,
    triangle_database,
    triangle_view,
)

TAU = 8.0
SHARD_KEY = {"R": 0, "T": 1}
SCATTER = "Rev^bbf(y, z, x) = R(x, y), S(y, z), T(z, x)"


@pytest.fixture
def setup():
    view = triangle_view("bbf")
    db = triangle_database(nodes=25, edges=120, seed=5)
    return view, db


def _hot_shard(server, keys):
    table = server.topology
    counts = {shard: 0 for shard in table.shard_ids}
    for key in keys:
        counts[table.shard_for(key[0])] += 1
    return max(counts, key=lambda shard: (counts[shard], shard))


class TestSplitShard:
    def test_split_report_and_key_movement(self, setup):
        view, db = setup
        server = ShardedViewServer(db, 3, SHARD_KEY)
        name = server.register(view, tau=TAU)
        keys = productive_accesses(view, db)
        hot = _hot_shard(server, keys)
        values = sorted(
            {row[col] for rel, col in SHARD_KEY.items() for row in db[rel].rows},
            key=repr,
        )
        before = {v: server.topology.shard_for(v) for v in values}
        try:
            report = server.split_shard(hot)
            after = {v: server.topology.shard_for(v) for v in values}
            assert report.shard_id == hot
            assert report.children == (f"{hot}.0", f"{hot}.1")
            assert report.version_after == report.version_before + 1
            assert report.retired_immediately  # nothing was pinned
            assert report.moved_rows > 0
            assert name in report.warmed_views
            # Only the hot shard's keys moved, and only into its children.
            for value in values:
                if before[value] == hot:
                    assert after[value] in report.children
                else:
                    assert after[value] == before[value]
            # Post-split answers stay oracle-identical.
            for access in keys:
                assert server.answer(name, access) == oracle_answer(
                    view, db, access
                )
        finally:
            server.close()

    def test_split_of_unknown_shard_fails(self, setup):
        view, db = setup
        server = ShardedViewServer(db, 2, SHARD_KEY)
        server.register(view, tau=TAU)
        try:
            with pytest.raises(ParameterError, match="not a live shard"):
                server.split_shard("9")
        finally:
            server.close()

    def test_registrations_survive_recursive_splits(self, setup):
        view, db = setup
        scatter_view = parse_view(SCATTER)
        server = ShardedViewServer(db, 2, SHARD_KEY)
        name = server.register(view, tau=TAU)
        scatter_name = server.register(scatter_view, tau=TAU)
        keys = productive_accesses(view, db)
        scatter_keys = productive_accesses(scatter_view, db)
        try:
            first = server.split_shard(_hot_shard(server, keys))
            second = server.split_shard(first.children[0])
            assert server.topology.version == second.version_after == 3
            for access in keys[:10]:
                assert server.answer(name, access) == oracle_answer(
                    view, db, access
                )
            for access in scatter_keys[:10]:
                assert server.answer(scatter_name, access) == oracle_answer(
                    scatter_view, db, access
                )
        finally:
            server.close()


class TestDrainProtocol:
    def test_inflight_cursors_pin_their_version_until_drained(self, setup):
        view, db = setup
        server = ShardedViewServer(db, 3, SHARD_KEY)
        name = server.register(view, tau=TAU)
        keys = [
            key
            for key in productive_accesses(view, db)
            if len(oracle_answer(view, db, key)) >= 2
        ]
        assert keys, "workload has no multi-answer accesses"
        try:
            v1 = server.topology.version
            cursors = [server.open(name, access) for access in keys[:4]]
            # Partially drain one cursor so the scan is genuinely live.
            first_row = cursors[0].fetchmany(1)
            assert first_row
            server.split_shard(_hot_shard(server, keys))
            v2 = server.topology.version
            assert server.live_versions() == (v1, v2)
            assert server.version_pins(v1) == len(cursors)
            # Pre-split cursors drain to oracle-identical answers.
            for access, cursor in zip(keys[:4], cursors):
                rows = (first_row if cursor is cursors[0] else []) + (
                    cursor.fetchall()
                )
                assert rows == oracle_answer(view, db, access)
                cursor.close()
            # Last pin dropped: the old topology retired outright.
            assert server.live_versions() == (v2,)
            with pytest.raises(ParameterError, match="not live"):
                server.version_pins(v1)
        finally:
            server.close()

    def test_new_requests_take_the_new_table_immediately(self, setup):
        view, db = setup
        server = ShardedViewServer(db, 3, SHARD_KEY)
        name = server.register(view, tau=TAU)
        keys = productive_accesses(view, db)
        try:
            held = server.open(name, keys[0])
            report = server.split_shard(_hot_shard(server, keys))
            assert not report.retired_immediately
            # A request routed after the split resolves against the new
            # table: hot keys land on a child shard id, not the parent.
            hot_key = next(
                key
                for key in keys
                if server.topology.shard_for(key[0]) in report.children
            )
            assert server.answer(name, hot_key) == oracle_answer(
                view, db, hot_key
            )
            held.close()
            assert server.live_versions() == (report.version_after,)
        finally:
            server.close()


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
            assert replica.builder is None  # never a process build pool
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
        served_before = [r.requests_served for r in replicas]

        async def drive():
            server = AsyncViewServer(
                primary, replicas=replicas, max_workers=2
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
            # Replicas did the serving; no replica built anything.
            for replica, before in zip(replicas, served_before):
                assert replica.requests_served > before
                assert replica.total_builds() == 0
        finally:
            for replica in replicas:
                replica.close()
            primary.close()
