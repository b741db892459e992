"""The asyncio front end: serving, backpressure, timing, stream driving."""

import asyncio
import gc
import threading
import time

import pytest

from oracle import oracle_accesses, oracle_answer
from test_serving_contract import assert_drained, make_backend
from repro.engine import (
    AsyncViewServer,
    ShardedViewServer,
    ViewServer,
    representation_cells,
)
from repro.engine.api import AccessRequest, AnswerCursor
from repro.engine.server import Serving
from repro.exceptions import ParameterError, QueryError
from repro.query.parser import parse_view
from repro.workloads import (
    arrivals,
    batched,
    request_stream,
    triangle_database,
    triangle_view,
)

SHARD_KEY = {"R": 0, "T": 1}


@pytest.fixture
def triangle_setup():
    view = triangle_view("bbf")
    db = triangle_database(nodes=25, edges=120, seed=5)
    return view, db


class SlowBackend(Serving):
    """A back-end stand-in that records concurrency while sleeping.

    ``drain`` is the one seam a fake needs: everything the front end
    does with a back end goes through :class:`Serving`.
    """

    def __init__(self, delay=0.02):
        self.delay = delay
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()

    def register(self, view, **kwargs):
        return "slow"

    def drain(self, requests):
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(self.delay)
        with self._lock:
            self.in_flight -= 1
        return [([], None) for _ in requests]

    def total_builds(self):
        return 0

    @property
    def cache_stats(self):
        from repro.engine import CacheStats

        return CacheStats()


class TestServe:
    def test_answers_match_oracle_plain_backend(self, triangle_setup):
        view, db = triangle_setup
        server = AsyncViewServer(ViewServer(db, max_entries=4))
        name = server.register(view, tau=8.0)
        accesses = oracle_accesses(view, db, limit=6)

        async def main():
            return await server.serve(name, accesses)

        result = asyncio.run(main())
        server.close()
        server.backend.close()
        for access, rows in zip(result.result.accesses, result.result.answers):
            assert list(rows) == oracle_answer(view, db, access)
        assert result.queue_seconds >= 0.0
        assert result.service_seconds >= 0.0
        assert result.turnaround_seconds == pytest.approx(
            result.queue_seconds + result.service_seconds
        )
        assert result.replica is None

    def test_answers_match_oracle_sharded_backend(self, triangle_setup):
        view, db = triangle_setup
        backend = ShardedViewServer(db, 4, SHARD_KEY)
        server = AsyncViewServer(backend, max_workers=4)
        name = server.register(view, tau=8.0)
        stream = request_stream(view, db, 40, seed=3, skew=1.0, miss_rate=0.2)

        async def main():
            return await server.serve(name, stream)

        result = asyncio.run(main())
        server.close()
        for access, rows in zip(result.result.accesses, result.result.answers):
            assert list(rows) == oracle_answer(view, db, access)
        # The batch drained on the shards the plan named: they built.
        assert backend.total_builds() >= 1

    def test_scatter_gather_through_the_front_end(self, triangle_setup):
        _, db = triangle_setup
        view = parse_view("Rev^bbf(y, z, x) = R(x, y), S(y, z), T(z, x)")
        backend = ShardedViewServer(db, 3, SHARD_KEY)
        server = AsyncViewServer(backend, max_workers=3)
        name = server.register(view, tau=8.0)
        accesses = oracle_accesses(view, db, limit=5)

        async def main():
            return await server.serve(name, accesses)

        result = asyncio.run(main())
        server.close()
        # Every shard answers a scattered request.
        assert [shard.total_builds() for shard in backend.shards] == [1, 1, 1]
        for access, rows in zip(result.result.accesses, result.result.answers):
            assert list(rows) == oracle_answer(view, db, access)

    def test_a_cell_budget_that_thrashes_one_server_fits_every_shard(
        self, triangle_setup
    ):
        # Batches alternate between a routed and a scatter view under one
        # per-server cell budget: one server rebuilds on every switch,
        # while four shards keep both views resident, each built once.
        routed, db = triangle_setup
        views = {
            "Delta": routed,
            "Rev": parse_view("Rev^bbf(y, z, x) = R(x, y), S(y, z), T(z, x)"),
        }
        probe = ShardedViewServer(db, 4, SHARD_KEY)
        per_shard = [0] * probe.n_shards
        for name, view in views.items():
            probe.register(view, tau=8.0, name=name)
            for index, rep in enumerate(probe.prebuild(name)):
                per_shard[index] += representation_cells(rep)
        probe.close()
        budget = max(per_shard)
        chunks = {
            name: list(
                batched(request_stream(view, db, 48, seed=3, miss_rate=0.1), 8)
            )
            for name, view in views.items()
        }
        mixed = [
            (name, chunk)
            for pair in zip(chunks["Delta"], chunks["Rev"])
            for name, chunk in zip(views, pair)
        ]

        def register_both(backend):
            for name, view in views.items():
                backend.register(view, tau=8.0, name=name)
            return backend

        single = register_both(ViewServer(db, max_entries=8, max_cells=budget))
        for name, chunk in mixed:
            single.answer_batch(name, chunk, measure=False)
        assert single.total_builds() > len(views) * probe.n_shards

        backend = register_both(
            ShardedViewServer(db, 4, SHARD_KEY, max_entries=8, max_cells=budget)
        )
        server = AsyncViewServer(backend, max_workers=4, max_pending=8)

        async def main():
            return await asyncio.gather(
                *(server.serve(name, chunk, measure=False) for name, chunk in mixed)
            )

        served = asyncio.run(main())
        server.close()
        for (name, _), result in zip(mixed, served):
            for access, rows in zip(result.result.accesses, result.result.answers):
                assert list(rows) == oracle_answer(views[name], db, access)
        assert backend.total_builds() == len(views) * probe.n_shards
        assert backend.cache_stats.evictions == 0

    def test_parameter_validation(self, triangle_setup):
        _, db = triangle_setup
        with pytest.raises(ParameterError):
            AsyncViewServer(ViewServer(db), max_workers=0)
        with pytest.raises(ParameterError):
            AsyncViewServer(ViewServer(db), max_pending=0)

    def test_a_database_is_refused_with_the_wrapping_spelled_out(
        self, triangle_setup
    ):
        # The front end builds no back end of its own: the cache,
        # snapshot and build-pool knobs belong to the ViewServer.
        _, db = triangle_setup
        with pytest.raises(
            ParameterError, match=r"AsyncViewServer\(ViewServer\(db, \.\.\.\)\)"
        ):
            AsyncViewServer(db)

    def test_close_leaves_the_back_end_open(self, triangle_setup):
        view, db = triangle_setup
        backend = ViewServer(db, max_entries=4)
        server = AsyncViewServer(backend)
        name = server.register(view, tau=8.0)
        server.close()
        assert backend.answer(name, (1, 2)) == oracle_answer(view, db, (1, 2))
        backend.close()


class TestBackpressure:
    def test_workers_bound_concurrency(self):
        backend = SlowBackend()
        server = AsyncViewServer(backend, max_workers=2, max_pending=16)

        async def main():
            await asyncio.gather(
                *(server.serve("slow", [(i,)]) for i in range(10))
            )

        asyncio.run(main())
        server.close()
        assert backend.max_in_flight <= 2

    def test_pending_bound_applies_before_the_pool(self):
        backend = SlowBackend(delay=0.01)
        server = AsyncViewServer(backend, max_workers=8, max_pending=3)

        async def main():
            return await asyncio.gather(
                *(server.serve("slow", [(i,)]) for i in range(12))
            )

        results = asyncio.run(main())
        server.close()
        # With 12 batches squeezed through 3 tickets, later batches must
        # have waited in the semaphore: some queue delay is visible.
        assert backend.max_in_flight <= 3
        assert max(r.queue_seconds for r in results) > 0.0

    def test_stream_intake_is_backpressured(self):
        backend = SlowBackend(delay=0.005)
        server = AsyncViewServer(backend, max_workers=4, max_pending=2)
        stream = [(i,) for i in range(40)]

        async def main():
            return await server.serve_stream("slow", stream, batch_size=4)

        report = asyncio.run(main())
        server.close()
        assert report.batches == 10
        assert report.requests == 40
        assert backend.max_in_flight <= 2


class TestServeStream:
    def test_totals_match_the_sync_engine(self, triangle_setup):
        view, db = triangle_setup
        stream = request_stream(view, db, 30, seed=4, skew=1.5)
        server = AsyncViewServer(ViewServer(db, max_entries=4))
        name = server.register(view, tau=8.0)

        async def main():
            return await server.serve_stream(name, stream, batch_size=8)

        report = asyncio.run(main())
        server.close()
        server.backend.close()
        assert report.requests == 30
        assert report.batches == 4
        assert report.builds == 1
        assert report.unique_requests + report.shared_requests == 30
        assert report.outputs == sum(
            len(oracle_answer(view, db, access)) for access in stream
        )
        assert report.requests_per_second > 0
        assert report.queue_seconds_max >= report.queue_seconds_mean >= 0.0
        assert report.service_seconds_mean > 0.0

    def test_warm_stream_reports_deltas(self, triangle_setup):
        view, db = triangle_setup
        stream = request_stream(view, db, 12, seed=6)
        server = AsyncViewServer(ViewServer(db, max_entries=4))
        name = server.register(view, tau=8.0)

        async def main():
            cold = await server.serve_stream(name, stream, batch_size=4)
            warm = await server.serve_stream(name, stream, batch_size=4)
            return cold, warm

        cold, warm = asyncio.run(main())
        server.close()
        server.backend.close()
        assert cold.builds == 1
        assert warm.builds == 0
        assert warm.cache.misses == 0

    def test_async_iterator_of_arrivals_drives_the_stream(self, triangle_setup):
        view, db = triangle_setup
        stream = request_stream(view, db, 20, seed=8, miss_rate=0.2)
        backend = ShardedViewServer(db, 2, SHARD_KEY)
        server = AsyncViewServer(backend, max_workers=2)
        name = server.register(view, tau=8.0)

        async def main():
            return await server.serve_stream(
                name, arrivals(stream, 5, rate=2000.0, seed=1)
            )

        report = asyncio.run(main())
        server.close()
        assert report.requests == 20
        assert report.batches == 4
        assert report.outputs == sum(
            len(oracle_answer(view, db, access)) for access in stream
        )

    def test_failed_batch_does_not_strand_in_flight_siblings(
        self, triangle_setup
    ):
        view, db = triangle_setup
        backend = ShardedViewServer(db, 2, SHARD_KEY)
        server = AsyncViewServer(backend, max_workers=2, max_pending=4)
        name = server.register(view, tau=8.0)
        good = request_stream(view, db, 12, seed=1)
        poisoned = good + [()]  # wrong arity -> QueryError, as unsharded

        async def main():
            return await server.serve_stream(name, poisoned, batch_size=4)

        from repro.exceptions import QueryError

        with pytest.raises(QueryError):
            asyncio.run(main())  # raises cleanly, no stranded tasks
        # The engine is still healthy afterwards.
        server.reset()

        async def healthy():
            return await server.serve_stream(name, good, batch_size=4)

        report = asyncio.run(healthy())
        server.close()
        assert report.requests == 12

    def test_a_scatter_failing_on_every_shard_raises_once(self):
        # Every shard opens its part of a scattered request, pinning its
        # version, and every part fails when pulled. The batch raises
        # one QueryError, every pin is released, and no exception is
        # left unretrieved for the loop to report.
        _, backend = make_backend("sharded", dynamic=("F",))
        server = AsyncViewServer(backend, max_workers=3)
        opened = []

        def failing(shard, open_batch):
            def fail():
                raise QueryError(f"shard {shard} failed")
                yield  # a generator: it raises when first pulled

            def wrapped(requests):
                opened.append(shard)
                return [
                    AnswerCursor(cursor.request, fail(), parts=[cursor])
                    for cursor in open_batch(requests)
                ]

            return wrapped

        for shard, shard_server in enumerate(backend.shards):
            shard_server.open_batch = failing(shard, shard_server.open_batch)
        reported = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            with pytest.raises(QueryError, match="shard 0 failed"):
                await server.answer_requests([AccessRequest("F", ())])
            gc.collect()
            await asyncio.sleep(0)

        asyncio.run(main())
        gc.collect()
        server.close()
        assert opened == [0, 1, 2]
        assert_drained(backend)
        assert reported == []

    def test_a_scattered_batch_is_one_drain_of_the_back_end(
        self, triangle_setup, monkeypatch
    ):
        # The front end hands each batch to the back end's own drain,
        # once; the facade's open_batch plans it per shard and merges the
        # scattered request — no shard's drain runs on its own.
        _, db = triangle_setup
        view = parse_view("Rev^bbf(y, z, x) = R(x, y), S(y, z), T(z, x)")
        backend = ShardedViewServer(db, 3, SHARD_KEY)
        server = AsyncViewServer(backend, max_workers=3)
        name = server.register(view, tau=8.0)
        drains = []
        whole = backend.drain
        monkeypatch.setattr(
            backend, "drain", lambda requests: drains.append(1) or whole(requests)
        )
        for shard_server in backend.shards:
            monkeypatch.setattr(shard_server, "drain", None)
        accesses = oracle_accesses(view, db, limit=3)
        requests = [AccessRequest(name, access) for access in accesses]

        async def main():
            served = await server.serve(name, accesses)
            answered = await server.answer_requests(requests)
            return served, answered

        served, answered = asyncio.run(main())
        server.close()
        assert len(drains) == 2
        expected = [oracle_answer(view, db, access) for access in accesses]
        assert answered == expected
        assert [list(rows) for rows in served.result.answers] == expected

    def test_reset_rearms_for_a_second_loop(self, triangle_setup):
        view, db = triangle_setup
        server = AsyncViewServer(ViewServer(db, max_entries=4))
        name = server.register(view, tau=8.0)

        async def one_round():
            return await server.serve(name, [(1, 2)])

        asyncio.run(one_round())
        server.reset()
        result = asyncio.run(one_round())
        server.close()
        server.backend.close()
        assert list(result.result.answers[0]) == oracle_answer(
            view, db, (1, 2)
        )

    def test_context_manager_closes_the_pool(self, triangle_setup):
        view, db = triangle_setup

        async def main():
            async with AsyncViewServer(ViewServer(db, max_entries=4)) as server:
                name = server.register(view, tau=8.0)
                return await server.serve(name, [(1, 2)])

        result = asyncio.run(main())
        assert list(result.result.answers[0]) == oracle_answer(
            view, db, (1, 2)
        )


class TestArrivals:
    def test_batches_match_batched_and_are_deterministic(self, triangle_setup):
        view, db = triangle_setup
        stream = request_stream(view, db, 13, seed=2)

        async def collect(**kwargs):
            return [chunk async for chunk in arrivals(stream, 4, **kwargs)]

        plain = asyncio.run(collect())
        paced_a = asyncio.run(collect(rate=5000.0, seed=7))
        paced_b = asyncio.run(collect(rate=5000.0, seed=7))
        assert [len(c) for c in plain] == [4, 4, 4, 1]
        assert plain == paced_a == paced_b
        assert [a for chunk in plain for a in chunk] == stream

    def test_rate_must_be_positive(self, triangle_setup):
        view, db = triangle_setup
        stream = request_stream(view, db, 4, seed=2)

        async def drain():
            return [c async for c in arrivals(stream, 2, rate=0.0)]

        with pytest.raises(ParameterError):
            asyncio.run(drain())
