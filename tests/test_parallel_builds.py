"""Process-parallel builds: workers build + snapshot, the parent decodes.

The contract under test: a structure built in a worker process is
bit-identical (answers, delay steps, space) to one built in-process; the
builder falls back gracefully — and permanently — when the pool is
unusable; and the engine layers (``ViewServer``, ``ShardedViewServer``,
``AsyncViewServer``) wire the builder through without changing any
serving semantics.
"""

from __future__ import annotations

import asyncio

import pytest

from oracle import oracle_answer
from repro import (
    AsyncViewServer,
    CompressedRepresentation,
    ShardedViewServer,
    ViewServer,
)
from repro.core.snapshot import database_state, decode_snapshot, view_state
from repro.engine.parallel import ParallelBuilder, build_snapshot_blob
from repro.workloads import triangle_database, triangle_view
from repro.workloads.streams import productive_accesses


@pytest.fixture(scope="module")
def workload():
    view = triangle_view("bbf")
    db = triangle_database(nodes=25, edges=130, seed=9)
    return view, db


def _same_structure(a, b, view, db):
    accesses = productive_accesses(view, db)[:6] + [(-1, -1)]
    for access in accesses:
        assert a.answer(access) == b.answer(access)
    assert a.space_report().total_cells == b.space_report().total_cells
    assert sorted(a.dictionary.items()) == sorted(b.dictionary.items())


class TestWorkerFunction:
    def test_build_snapshot_blob_round_trips(self, workload):
        view, db = workload
        blob = build_snapshot_blob(
            view_state(view), database_state(db), 8.0, None
        )
        built = decode_snapshot(blob)
        reference = CompressedRepresentation(view, db, tau=8.0)
        _same_structure(built, reference, view, db)

    def test_weights_ride_along(self, workload):
        view, db = workload
        reference = CompressedRepresentation(view, db, tau=8.0)
        items = tuple(sorted(reference.weights.items()))
        built = decode_snapshot(
            build_snapshot_blob(view_state(view), database_state(db), 8.0, items)
        )
        assert built.weights == reference.weights


class TestParallelBuilder:
    def test_process_build_matches_inprocess(self, workload):
        view, db = workload
        with ParallelBuilder(max_workers=2) as builder:
            built = builder.build(view, db, tau=8.0)
            assert builder.process_builds == 1
            assert builder.fallback_builds == 0
        reference = CompressedRepresentation(view, db, tau=8.0)
        _same_structure(built, reference, view, db)

    def test_broken_pool_falls_back_in_process(self, workload):
        view, db = workload
        builder = ParallelBuilder(max_workers=1)
        builder._mark_broken()
        built = builder.build(view, db, tau=8.0)
        assert builder.is_broken
        assert builder.fallback_builds == 1
        assert builder.process_builds == 0
        _same_structure(
            built, CompressedRepresentation(view, db, tau=8.0), view, db
        )

    def test_closed_builder_keeps_building(self, workload):
        view, db = workload
        builder = ParallelBuilder(max_workers=1)
        builder.close()
        built = builder.build(view, db, tau=8.0)
        assert builder.fallback_builds == 1
        assert built.answer((3, 7)) == CompressedRepresentation(
            view, db, tau=8.0
        ).answer((3, 7))

    def test_worker_errors_propagate_not_swallowed(self, workload):
        view, db = workload
        from repro.exceptions import ReproError

        with ParallelBuilder(max_workers=1) as builder:
            with pytest.raises(ReproError):
                builder.build(view, db, tau=-1.0)  # invalid tau everywhere
            # The pool is still healthy after an application error.
            assert not builder.is_broken
            built = builder.build(view, db, tau=8.0)
            assert builder.process_builds == 1
        assert built is not None


class TestEngineWiring:
    def test_view_server_build_workers(self, workload):
        view, db = workload
        server = ViewServer(db, build_workers=2)
        try:
            name = server.register(view, tau=8.0)
            representation = server.representation(name)
            assert server.total_builds() == 1
            assert server.builder.process_builds == 1
            for access in productive_accesses(view, db)[:5]:
                assert representation.answer(access) == oracle_answer(
                    view, db, access
                )
        finally:
            server.close()

    def test_sharded_prebuild_uses_one_shared_pool(self, workload):
        view, db = workload
        shard_key = {"R": 0, "T": 1}
        parallel = ShardedViewServer(db, 3, shard_key, build_workers=2)
        try:
            name = parallel.register(view, tau=8.0)
            representations = parallel.prebuild(name)
            assert len(representations) == 3
            assert parallel.total_builds() == 3
            assert parallel.builder.process_builds == 3
            for server in parallel.shards:
                assert server.builder is parallel.builder
            # Prebuilt structures serve without further builds.
            baseline = ShardedViewServer(db, 3, shard_key)
            ref = baseline.register(view, tau=8.0)
            accesses = productive_accesses(view, db)[:8]
            got = parallel.answer_batch(name, accesses, measure=False)
            expected = baseline.answer_batch(ref, accesses, measure=False)
            assert got.answers == expected.answers
            for access, rows in zip(got.accesses, got.answers):
                assert list(rows) == oracle_answer(view, db, access)
            assert parallel.total_builds() == 3
        finally:
            parallel.close()

    def test_prebuild_unknown_view_fails_fast(self, workload):
        _, db = workload
        from repro.exceptions import SchemaError

        server = ShardedViewServer(db, 2, {"R": 0})
        with pytest.raises(SchemaError, match="unknown view"):
            server.prebuild("nope")

    def test_async_server_builds_on_its_backends_pool(self, workload):
        view, db = workload
        backend = ViewServer(db, build_workers=1)
        server = AsyncViewServer(backend)
        name = server.register(view, tau=8.0)

        async def drive():
            return await server.serve(
                name, productive_accesses(view, db)[:4], measure=False
            )

        result = asyncio.run(drive())
        assert backend.builder.process_builds == 1
        server.close()
        assert not backend.builder.is_broken  # the back end owns its pool
        backend.close()
        assert backend.builder.is_broken  # released with the back end
        assert result.result.outputs > 0
