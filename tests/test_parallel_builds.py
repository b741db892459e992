"""Builds on worker processes: workers build + snapshot, the caller decodes.

The contract under test: a structure built in a worker process is
bit-identical (answers, delay steps, space) to one built in-process;
``submit`` returns ``None`` — for good — when the pool cannot start,
breaks or is closed; and a worker's ``ReproError`` surfaces from the
future. Servers build in their own process and never through this
pool; the sharded ``prebuild``'s fail-fast check stays here.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import CompressedRepresentation, ShardedViewServer
from repro.core.snapshot import database_state, decode_snapshot, view_state
from repro.engine import parallel
from repro.engine.parallel import ParallelBuilder, build_snapshot_blob
from repro.exceptions import ParameterError, ReproError
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
        blob = build_snapshot_blob(view_state(view), database_state(db), 8.0)
        built = decode_snapshot(blob)
        reference = CompressedRepresentation(view, db, tau=8.0)
        _same_structure(built, reference, view, db)


class TestParallelBuilder:
    def test_process_build_matches_inprocess(self, workload):
        view, db = workload
        with ParallelBuilder(max_workers=2) as builder:
            future = builder.submit(view, db, 8.0)
            assert future is not None
            built = decode_snapshot(future.result())
        reference = CompressedRepresentation(view, db, tau=8.0)
        _same_structure(built, reference, view, db)

    def test_broken_pool_falls_back_in_process(self, workload, monkeypatch):
        # ``None`` hands the build back to the caller, to run in-process.
        view, db = workload

        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def submit(self, *args):
                raise BrokenProcessPool("a worker died")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", BrokenPool)
        builder = ParallelBuilder(max_workers=1)
        assert builder.submit(view, db, 8.0) is None
        # Broken for good: the next submit does not try again.
        monkeypatch.undo()
        assert builder.submit(view, db, 8.0) is None

    def test_submit_on_a_pool_that_cannot_start_returns_none(
        self, workload, monkeypatch
    ):
        view, db = workload

        def refuse(max_workers):
            raise OSError("no fork here")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
        with ParallelBuilder(max_workers=1) as builder:
            assert builder.submit(view, db, 8.0) is None

    def test_submit_after_close_returns_none(self, workload):
        view, db = workload
        builder = ParallelBuilder(max_workers=1)
        builder.close()
        assert builder.submit(view, db, 8.0) is None
        builder.close()  # idempotent

    def test_worker_errors_propagate_not_swallowed(self, workload):
        view, db = workload
        with ParallelBuilder(max_workers=1) as builder:
            failing = builder.submit(view, db, -1.0)  # invalid tau everywhere
            assert failing is not None
            with pytest.raises(ReproError):
                failing.result()
            # The pool is still healthy after an application error.
            future = builder.submit(view, db, 8.0)
            assert future is not None
            built = decode_snapshot(future.result())
        assert built.answer((3, 7)) == CompressedRepresentation(
            view, db, tau=8.0
        ).answer((3, 7))

    def test_max_workers_below_one_is_refused(self):
        with pytest.raises(ParameterError, match="max_workers"):
            ParallelBuilder(max_workers=0)


class TestEngineWiring:
    def test_prebuild_unknown_view_fails_fast(self, workload):
        _, db = workload
        from repro.exceptions import SchemaError

        server = ShardedViewServer(db, 2, {"R": 0})
        with pytest.raises(SchemaError, match="unknown view"):
            server.prebuild("nope")
