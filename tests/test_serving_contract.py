"""One plan, every executor: the ``Serving`` contract, checked differentially.

A back end implements ``open`` / ``open_batch``; everything a front end
does with it goes through :class:`~repro.engine.server.Serving` —
``drain`` (one batch, one unit of work) and the result assembly. So the
same batch must come out the same — rows, order, step accounting,
per-shard request counts, pins — whichever executor runs the plan: the
calling thread (``answer_batch``) or the async front end's worker pool
(``serve`` / ``answer_requests``), over a plain server or a sharded one.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from oracle import oracle_answer
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine import (
    AsyncViewServer,
    ShardedViewServer,
    Telemetry,
    ViewServer,
)
from repro import engine
from repro.engine import locking
from repro.engine.api import AccessRequest
from repro.engine.epoch import NO_HOLD
from repro.engine.server import ServingReport
from repro.exceptions import ParameterError, QueryError, SchemaError
from repro.query.parser import parse_view

ROUTED = parse_view("Q^bff(a, b, c) = R(a, b), S(b, c)")
SCATTER = parse_view("F^fff(a, b, c) = R(a, b), S(b, c)")
PINNED = parse_view("P^bf(b, c) = S(b, c)")
VIEWS = {"Q": ROUTED, "F": SCATTER, "P": PINNED}
SHARD_KEY = {"R": 0}
TAU = 4.0


def database() -> Database:
    return Database(
        [
            Relation("R", 2, [(i, i % 7) for i in range(40)]),
            Relation("S", 2, [(i % 7, i) for i in range(40)]),
        ]
    )


def make_backend(kind: str, telemetry=None, dynamic=()):
    """A plain or 3-shard back end with the three routing modes registered.

    The ``dynamic`` views are versioned by one delta (S gains (6, 998)),
    so their reads pin versions.
    """
    db = database()
    if kind == "plain":
        backend = ViewServer(db, telemetry=telemetry)
    else:
        backend = ShardedViewServer(db, 3, SHARD_KEY, telemetry=telemetry)
    for view in VIEWS.values():
        backend.register(view, tau=TAU)
    if dynamic:
        backend.apply_deltas("S", inserts=[(6, 998)], views=list(dynamic))
    if kind == "sharded":
        assert [backend.route(name)[0] for name in "QFP"] == [
            "routed",
            "scatter",
            "pinned",
        ]
    return db, backend


def run(front: AsyncViewServer, coroutine):
    """Drive one coroutine on a fresh loop (re-arming the semaphores)."""
    front.reset()
    return asyncio.run(coroutine)


def assert_drained(backend) -> None:
    """Nothing the batch pinned is still pinned, on any (shard) server."""
    servers = backend.shards if isinstance(backend, ShardedViewServer) else [backend]
    for server in servers:
        for name in server.dynamic_views():
            state = server._dynamic_state(name)
            assert state.pin_count() == 0
            assert len(state.live_versions()) == 1


#: Per view: a batch with duplicates, productive accesses and a miss.
BATCHES = {
    "Q": [(1,), (2,), (1,), (9,), (30,), (2,), (1,), (99,)],
    "F": [(), ()],
    "P": [(3,), (0,), (3,), (5,)],
}


@pytest.mark.parametrize("kind", ["plain", "sharded"])
class TestEveryExecutorAgrees:
    @pytest.mark.parametrize("name", ["Q", "F", "P"])
    def test_batch_paths_agree_on_rows_stats_and_counts(self, kind, name):
        db, backend = make_backend(kind)
        front = AsyncViewServer(backend, max_workers=3)
        accesses = BATCHES[name]
        try:
            sync = backend.answer_batch(name, accesses)
            served = run(front, front.serve(name, accesses)).result
            rows = run(
                front,
                front.answer_requests(
                    AccessRequest(name, access, measure=True)
                    for access in accesses
                ),
            )
        finally:
            front.close()
            backend.close()
        expected = [oracle_answer(VIEWS[name], db, a) for a in accesses]
        assert list(sync.answers) == expected
        assert list(served.answers) == expected
        assert rows == expected
        assert sync.accesses == served.accesses
        assert sync.unique_count == served.unique_count
        assert set(sync.request_stats) == set(served.request_stats)
        for access, stats in sync.request_stats.items():
            other = served.request_stats[access]
            assert (stats.outputs, stats.step_total, stats.step_max_gap) == (
                other.outputs,
                other.step_total,
                other.step_max_gap,
            ), access
        assert_drained(backend)

    def test_mixed_views_and_limits_agree(self, kind):
        db, backend = make_backend(kind)
        front = AsyncViewServer(backend, max_workers=3)
        requests = [
            AccessRequest("Q", (1,), limit=2),
            AccessRequest("F", (), limit=5),
            AccessRequest("P", (3,)),
            AccessRequest("Q", (1,), limit=2),
            AccessRequest("F", (), limit=0),
            AccessRequest("Q", (30,), start_after=(2, 9)),
            AccessRequest("F", (), start_after=(5, 5, 12), limit=3),
        ]
        try:
            drained = backend.drain(requests)
            rows = run(front, front.answer_requests(requests))
        finally:
            front.close()
            backend.close()
        assert [r for r, stats in drained] == rows
        assert all(stats is None for _, stats in drained)
        for request, answer in zip(requests, rows):
            full = oracle_answer(VIEWS[request.view], db, request.access)
            if request.start_after is not None:
                full = [row for row in full if row > request.start_after]
            assert answer == full[: request.limit], request
        assert_drained(backend)

    def test_async_stream_report_is_a_serving_report(self, kind):
        _, backend = make_backend(kind)
        front = AsyncViewServer(backend, max_workers=2)
        stream = BATCHES["Q"] * 3
        try:
            sync = backend.serve_stream("Q", stream, batch_size=8)
            report = run(front, front.serve_stream("Q", stream, batch_size=8))
        finally:
            front.close()
            backend.close()
        assert isinstance(report, ServingReport)
        for field in (
            "requests",
            "unique_requests",
            "shared_requests",
            "outputs",
            "batches",
            "max_step_gap",
        ):
            assert getattr(report, field) == getattr(sync, field), field
        assert report.requests_per_second > 0
        assert report.queue_seconds_max >= report.queue_seconds_mean >= 0.0


@pytest.mark.parametrize("kind", ["plain", "sharded"])
class TestEveryBackEndRefusesAlike:
    """A bad request gets the same typed error from every back end."""

    @pytest.mark.parametrize("limit", [2.5, "3", True])
    def test_limit_must_be_a_non_negative_int(self, kind, limit):
        _, backend = make_backend(kind)
        with pytest.raises(ParameterError, match="limit"):
            backend.open("F", (), limit=limit)
        # No request carries it, so no executor's drain ever sees it.
        with pytest.raises(ParameterError, match="limit"):
            AccessRequest("F", (), limit=limit)
        backend.close()

    @pytest.mark.parametrize("access", [(), (1, 2)])
    def test_wrong_arity_access_is_a_query_error(self, kind, access):
        _, backend = make_backend(kind)
        expected = f"access tuple has {len(access)} values, expected 1"
        with pytest.raises(QueryError, match=expected):
            backend.answer("Q", access)
        with pytest.raises(QueryError, match=expected):
            backend.drain([AccessRequest("Q", access)])
        backend.close()

    @pytest.mark.parametrize("verb", ["invalidate", "demote"])
    def test_unknown_view_is_a_schema_error(self, kind, verb):
        _, backend = make_backend(kind)
        backend.answer("Q", (1,))
        with pytest.raises(SchemaError, match="unknown view 'ghost'"):
            getattr(backend, verb)("ghost")
        assert getattr(backend, verb)("Q") >= 1
        backend.close()

    def test_tau_is_the_registrations_and_nothing_retunes_it(self, kind):
        # τ is chosen once, at registration: no back end has a run-time
        # override, a request counter to pace one, or a tuner to drive it.
        _, backend = make_backend(kind)
        for attribute in ("retune", "serving_tau", "requests_served"):
            assert not hasattr(backend, attribute), attribute
        for name in ("AdaptiveTuner", "TuningDecision"):
            assert not hasattr(engine, name), name
            assert name not in engine.__all__
        servers = backend.shards if kind == "sharded" else [backend]
        for server in servers:
            assert server.representation("Q").tau == TAU
            # An explicit tau= on a request still wins.
            assert server.representation("Q", 2 * TAU).tau == 2 * TAU
            assert server.representation("Q").tau == TAU
        backend.close()


class Boom(Exception):
    """One shard's ``open_batch`` failing mid-fan-out."""


class TestFailedFanOutLeavesNoPin:
    """The failed-batch pin-leak case of test_pin_leaks, on every path."""

    def _backend(self):
        _, backend = make_backend("sharded", dynamic=("Q", "F"))
        accesses = [(a,) for a in range(12)] + [(3,), (3,)]
        assert {backend.shard_of("Q", a) for a in accesses} == {0, 1, 2}

        def boom(requests):
            raise Boom()

        backend.shards[2].open_batch = boom
        return backend, accesses

    def _assert_nothing_pinned(self, backend) -> None:
        assert_drained(backend)
        # Nothing holds version 1: the next delta retires it.
        backend.apply_deltas("S", inserts=[(6, 999)])
        for shard in backend.shards:
            for name in ("Q", "F"):
                assert shard._dynamic_state(name).live_versions() == (2,)

    def test_every_path_fails_alike_and_releases(self):
        backend, accesses = self._backend()
        front = AsyncViewServer(backend, max_workers=3)
        requests = [AccessRequest("Q", a) for a in accesses]
        requests.append(AccessRequest("F", ()))
        try:
            for attempt in (
                lambda: backend.answer_batch("Q", accesses),
                lambda: run(front, front.serve("Q", accesses)),
                lambda: backend.drain(requests),
                lambda: run(front, front.answer_requests(requests)),
            ):
                with pytest.raises(Boom):
                    attempt()
        finally:
            # Joins the workers still draining the shards that did open.
            front.close()
        self._assert_nothing_pinned(backend)
        backend.close()


class TestFacadeCountsEveryExecutor:
    """Every executor of a sharded plan counts the same per-shard load."""

    #: Routed batches with duplicates (answer_batch and serve deduplicate
    #: them before opening; the facade still counts them per shard).
    BATCHES = [
        [(a,) for a in range(start, start + 10)] + [(start,), (start + 3,)]
        for start in (0, 10, 20)
    ]

    def _routing(self, telemetry):
        return {
            (entry["labels"]["shard"], entry["labels"]["mode"]): entry["value"]
            for entry in telemetry.registry.snapshot()["counters"]
            if entry["name"] == "shard_requests_total"
        }

    def _serve(self, path):
        telemetry = Telemetry()
        _, backend = make_backend("sharded", telemetry=telemetry)
        front = AsyncViewServer(backend, max_workers=3)
        # Planning alone serves nothing, so it counts nothing.
        backend.plan_batch("Q", self.BATCHES[0])
        assert self._routing(telemetry) == {}
        try:
            for batch in self.BATCHES:
                if path == "answer_batch":
                    backend.answer_batch("Q", batch)
                elif path == "serve":
                    run(front, front.serve("Q", batch))
                else:
                    run(
                        front,
                        front.answer_requests(
                            AccessRequest("Q", a, measure=True) for a in batch
                        ),
                    )
        finally:
            front.close()
            backend.close()
        return self._routing(telemetry)

    def test_every_executor_counts_alike(self):
        routing = [
            self._serve(path)
            for path in ("answer_batch", "serve", "answer_requests")
        ]
        assert routing[0] == routing[1] == routing[2]
        # Duplicates included: a deduplicated request was still served.
        assert sum(routing[0].values()) == 36
        assert {mode for _, mode in routing[0]} == {"routed"}


class CountingLocks:
    """A lock factory counting acquisitions per lock name."""

    def __init__(self, inner=None):
        self.inner = inner
        self.acquired = {}

    def __call__(self, name, reentrant):
        if self.inner is not None:
            lock = self.inner(name, reentrant)
        else:
            lock = threading.RLock() if reentrant else threading.Lock()
        return _CountedLock(name, lock, self.acquired)


class _CountedLock:
    def __init__(self, name, lock, acquired):
        self.name, self.lock, self.acquired = name, lock, acquired

    def acquire(self, *args, **kwargs):
        self.acquired[self.name] = self.acquired.get(self.name, 0) + 1
        return self.lock.acquire(*args, **kwargs)

    def release(self):
        self.lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()


@pytest.fixture
def counting_locks():
    """Count every engine lock created inside the test, by name."""
    counting = CountingLocks()
    # Keep whatever the session installed (the lock-order leg's tracker)
    # underneath, so these locks still report into its graph.
    counting.inner = locking.set_lock_factory(counting)
    try:
        yield counting.acquired
    finally:
        locking.set_lock_factory(counting.inner)


class TestOneResolve:
    """A warm ``open`` meets the registry lock at most twice."""

    def _opens(self, acquired, server, name, access):
        with server.open(name, access) as cursor:  # warm it up
            expected = cursor.fetchall()
        before = acquired.get("server", 0)
        with server.open(name, access) as cursor:
            assert cursor.fetchall() == expected
        return acquired.get("server", 0) - before

    def test_static_open_takes_the_server_lock_at_most_twice(
        self, counting_locks, tmp_path
    ):
        # 6 before the resolve was written once; a snapshot directory
        # (its label is part of the resolve) must not add to it. The two
        # are the lookup and the orphan check after the cache hit.
        for snapshot_dir in (None, tmp_path):
            server = ViewServer(database(), snapshot_dir=snapshot_dir)
            name = server.register(ROUTED, tau=TAU)
            assert self._opens(counting_locks, server, name, (1,)) == 2
            server.close()

    def test_dynamic_open_takes_the_server_lock_at_most_twice(
        self, counting_locks
    ):
        server = ViewServer(database())
        name = server.register(ROUTED, tau=TAU)
        server.apply_deltas("R", inserts=[(99, 1)])
        assert self._opens(counting_locks, server, name, (1,)) <= 2
        assert server._dynamic_state(name).pin_count() == 0
        server.close()

    def test_a_never_updated_open_takes_no_hold(self, tmp_path):
        # Versioning costs nothing until the first delta: no pin, no
        # close hook, no state, nothing written under dynamic/.
        server = ViewServer(database(), snapshot_dir=tmp_path)
        name = server.register(ROUTED, tau=TAU)
        _, hold = server._resolve(name, None, 1)
        assert hold is NO_HOLD
        with server.open(name, (1,)) as cursor:
            assert cursor.fetchall() == oracle_answer(
                VIEWS["Q"], database(), (1,)
            )
        assert server.dynamic_views() == ()
        assert not (tmp_path / "dynamic").exists()
        server.apply_deltas("R", inserts=[(99, 1)])
        _, hold = server._resolve(name, None, 1)
        assert hold is not NO_HOLD
        with hold:
            pass
        assert server._dynamic_state(name).pin_count() == 0
        server.close()
