"""The dynamic lock-order detector: graph, tracked locks, seeded deadlocks.

The static lock-discipline rule (tests/test_analysis.py) proves guarded
attributes stay guarded; this suite covers the runtime half — that the
acquisition graph records real nesting, that a seeded inversion (the
classic latent deadlock) is detected *regardless of timing*, and that
the factory hook swaps tracked locks into real engine objects.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis.lockorder import LockGraph, TrackedLock, tracking_factory
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine import locking
from repro.engine.server import ViewServer


def _pair(graph):
    a = TrackedLock("a", graph)
    b = TrackedLock("b", graph)
    return a, b


class TestLockGraph:
    def test_nested_acquisition_records_edge(self):
        graph = LockGraph()
        a, b = _pair(graph)
        with a:
            with b:
                pass
        assert ("a", "b") in graph.edges()
        assert ("b", "a") not in graph.edges()
        assert graph.cycles() == []

    def test_seeded_inversion_is_detected(self):
        # The acceptance case: opposite nesting orders, observed in two
        # *sequential* runs — no actual contention needed. A timing-based
        # detector would miss this; the graph does not.
        graph = LockGraph()
        a, b = _pair(graph)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        assert graph.cycles() == [("a", "b")]
        report = graph.describe(graph.cycles())
        assert "a -> b -> a" in report

    def test_inversion_across_threads(self):
        graph = LockGraph()
        a, b = _pair(graph)

        def forward():
            with a:
                with b:
                    pass

        def backward():
            with b:
                with a:
                    pass

        # Run serially in two threads: held stacks are thread-local, so
        # the edges land in the shared graph without any deadlock risk.
        for target in (forward, backward):
            thread = threading.Thread(target=target)
            thread.start()
            thread.join()
        assert graph.cycles() == [("a", "b")]

    def test_three_cycle(self):
        graph = LockGraph()
        for held, acquired in (("a", "b"), ("b", "c"), ("c", "a")):
            graph.record(held, acquired)
        assert graph.cycles() == [("a", "b", "c")]

    def test_same_name_edges_ignored(self):
        # Two instances sharing a role (every Counter is "counter"):
        # name granularity cannot order them, so no self-loop FP.
        graph = LockGraph()
        first = TrackedLock("counter", graph)
        second = TrackedLock("counter", graph)
        with first:
            with second:
                pass
        assert graph.edges() == set()
        assert graph.cycles() == []

    def test_consistent_order_stays_clean(self):
        graph = LockGraph()
        a, b = _pair(graph)
        for _ in range(3):
            with a:
                with b:
                    pass
        assert graph.cycles() == []


class TestTrackedLock:
    def test_reentrant_reacquisition_records_nothing(self):
        graph = LockGraph()
        lock = TrackedLock("cache", graph, reentrant=True)
        with lock:
            with lock:
                pass
        assert graph.edges() == set()

    def test_non_blocking_acquire_failure_records_nothing(self):
        graph = LockGraph()
        a, b = _pair(graph)
        b._inner.acquire()  # simulate another holder
        try:
            with a:
                assert b.acquire(blocking=False) is False
            assert graph.edges() == set()
        finally:
            b._inner.release()

    def test_out_of_order_release_unwinds_correctly(self):
        graph = LockGraph()
        a, b = _pair(graph)
        a.acquire()
        b.acquire()
        a.release()  # legal, just unusual
        # b is still held: acquiring c now must record b -> c, not a -> c.
        c = TrackedLock("c", graph)
        c.acquire()
        c.release()
        b.release()
        assert ("b", "c") in graph.edges()
        assert ("a", "c") not in graph.edges()


class TestFactoryIntegration:
    @pytest.fixture
    def tracked(self):
        graph = LockGraph()
        previous = locking.set_lock_factory(tracking_factory(graph))
        try:
            yield graph
        finally:
            locking.set_lock_factory(previous)

    def test_named_lock_goes_through_factory(self, tracked):
        lock = locking.named_lock("x")
        assert isinstance(lock, TrackedLock)
        assert lock.name == "x"

    def test_reentrant_named_lock(self, tracked):
        lock = locking.named_lock("x", reentrant=True)
        with lock:
            with lock:  # must not deadlock
                pass

    def test_set_lock_factory_returns_previous(self):
        # Self-contained under any ambient factory (the REPRO_LOCK_ORDER
        # session installs one): swapping in and back must round-trip.
        graph = LockGraph()
        factory = tracking_factory(graph)
        previous = locking.set_lock_factory(factory)
        assert locking.set_lock_factory(previous) is factory

    def test_engine_serving_records_clean_graph(self, tracked):
        # A real server built under the tracking factory: its locks are
        # wrapped, serving works, and the observed orderings are acyclic.
        db = Database(
            [Relation("R", 2, [(1, 2), (2, 3)]), Relation("S", 2, [(2, 4), (3, 5)])]
        )
        server = ViewServer(db)
        name = server.register("Q^bff(x, y, z) = R(x, y), S(y, z)", tau=1.0)
        rows = list(server.answer(name, (2,)))
        assert rows
        assert tracked.cycles() == []
