"""The access-serving engine: cache, ViewServer, batching, concurrency."""

import random
import sys
import threading

import pytest

from oracle import oracle_accesses, oracle_answer
from repro.core.structure import CompressedRepresentation
from repro.engine import RepresentationCache, ViewServer, representation_cells
from repro.exceptions import ParameterError, SchemaError
from repro.optimizer.min_delay import min_delay_cover
from repro.query.parser import parse_view
from repro.workloads import request_stream, triangle_database, triangle_view


@pytest.fixture
def triangle_setup():
    view = triangle_view("bbf")
    db = triangle_database(nodes=25, edges=120, seed=5)
    return view, db


def _build(view, db, tau):
    return CompressedRepresentation(view, db, tau=tau)


class TestRepresentationCache:
    def test_hit_miss_accounting(self, triangle_setup):
        view, db = triangle_setup
        cache = RepresentationCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", _build(view, db, 8.0))
        assert cache.get("a") is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self, triangle_setup):
        view, db = triangle_setup
        cache = RepresentationCache(max_entries=2)
        cache.put("a", _build(view, db, 4.0))
        cache.put("b", _build(view, db, 8.0))
        assert cache.get("a") is not None  # refresh 'a'; 'b' is now LRU
        evicted = cache.put("c", _build(view, db, 16.0))
        assert evicted == ["b"]
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_cell_budget_eviction(self, triangle_setup):
        view, db = triangle_setup
        first = _build(view, db, 8.0)
        cells = representation_cells(first)
        assert cells > 0
        # Room for one structure but not two of this size.
        cache = RepresentationCache(max_cells=int(cells * 1.5))
        cache.put("a", first)
        assert cache.total_cells == cells
        cache.put("b", _build(view, db, 8.0))
        assert cache.keys() == ("b",)
        assert cache.stats.evictions == 1

    def test_oversized_singleton_is_admitted(self, triangle_setup):
        view, db = triangle_setup
        cache = RepresentationCache(max_cells=1)
        cache.put("a", _build(view, db, 8.0))
        assert "a" in cache  # better one oversized entry than rebuild loops
        assert len(cache) == 1

    def test_replacement_updates_cells(self, triangle_setup):
        view, db = triangle_setup
        cache = RepresentationCache()
        cache.put("a", _build(view, db, 2.0))
        before = cache.total_cells
        cache.put("a", _build(view, db, 64.0))  # larger tau, smaller tree
        assert len(cache) == 1
        assert cache.total_cells == cache.cells_of("a") <= before

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ParameterError):
            RepresentationCache(max_entries=0)
        with pytest.raises(ParameterError):
            RepresentationCache(max_cells=0)


class TestViewServer:
    def test_answers_match_oracle(self, triangle_setup):
        view, db = triangle_setup
        server = ViewServer(db)
        name = server.register(view, tau=8.0)
        for access in oracle_accesses(view, db):
            assert server.answer(name, access) == oracle_answer(
                view, db, access
            )

    def test_cache_hit_and_miss(self, triangle_setup):
        view, db = triangle_setup
        server = ViewServer(db)
        name = server.register(view, tau=8.0)
        server.answer(name, (1, 2))
        assert server.build_count(name) == 1
        assert server.cache_stats.misses == 1
        server.answer(name, (2, 3))
        assert server.build_count(name) == 1  # same structure reused
        assert server.cache_stats.hits == 1
        server.answer_batch(name, [(1, 2)], tau=32.0)
        assert server.build_count(name, tau=32.0) == 1  # distinct key

    def test_lru_eviction_forces_rebuild(self, triangle_setup):
        view, db = triangle_setup
        server = ViewServer(db, max_entries=2)
        name = server.register(view, tau=2.0)
        for tau in (2.0, 4.0, 8.0):  # third build evicts tau=2
            server.representation(name, tau)
        assert server.cache_stats.evictions == 1
        generation = server.registration(name).generation
        assert (name, 2.0, generation) not in server.cache
        server.representation(name, 2.0)
        assert server.build_count(name, tau=2.0) == 2

    def test_reregistration_is_a_new_generation(self, triangle_setup):
        view, db = triangle_setup
        server = ViewServer(db)
        name = server.register(view, tau=8.0)
        server.representation(name)
        first = server.registration(name).generation
        assert server.unregister(name) is True
        assert len(server.cache) == 0
        assert server.total_builds() == 1  # lifetime total stays monotonic
        name = server.register(view, tau=8.0)
        assert server.registration(name).generation > first
        server.representation(name)
        # The new generation has its own cache key and build counter, so
        # a structure from the old generation can never be served as it.
        assert server.build_count(name) == 1
        assert len(server.cache) == 1

    def test_duplicate_registration_rejected(self, triangle_setup):
        view, db = triangle_setup
        server = ViewServer(db)
        server.register(view)
        with pytest.raises(SchemaError):
            server.register(view)
        # A different name for the same view is fine.
        server.register(view, name="other")
        assert set(server.views()) == {view.name, "other"}

    def test_at_most_one_knob(self, triangle_setup):
        view, db = triangle_setup
        server = ViewServer(db)
        with pytest.raises(ParameterError):
            server.register(view, tau=8.0, space_budget=1000.0)

    def test_invalidate_drops_all_taus(self, triangle_setup):
        view, db = triangle_setup
        server = ViewServer(db)
        name = server.register(view)
        server.representation(name, 4.0)
        server.representation(name, 8.0)
        assert server.invalidate(name) == 2
        assert len(server.cache) == 0

    def test_normalized_view_served(self, tiny_db):
        # A constant in the body exercises the normalization path.
        view = parse_view("C^bf(x, y) = R(x, y), S(y, 1)")
        server = ViewServer(tiny_db)
        name = server.register(view, tau=4.0)
        for access in oracle_accesses(view, tiny_db, limit=4):
            assert server.answer(name, access) == oracle_answer(
                view, tiny_db, access
            )


class TestBatchedServing:
    def test_batch_matches_oracle_per_request(self, triangle_setup):
        view, db = triangle_setup
        server = ViewServer(db)
        name = server.register(view, tau=8.0)
        stream = request_stream(view, db, 40, seed=9, skew=1.0, miss_rate=0.2)
        result = server.answer_batch(name, stream)
        assert len(result.answers) == len(stream)
        for access, rows in zip(result.accesses, result.answers):
            assert list(rows) == oracle_answer(view, db, access)

    def test_duplicates_share_one_traversal(self, triangle_setup):
        view, db = triangle_setup
        server = ViewServer(db)
        name = server.register(view, tau=8.0)
        batch = [(1, 2), (2, 3), (1, 2), (1, 2)]
        result = server.answer_batch(name, batch)
        assert result.unique_count == 2
        assert result.shared_count == 2
        # Duplicate requests literally share the representative's answer.
        assert result.answers[0] is result.answers[2]
        assert result.answers[0] is result.answers[3]
        assert set(result.request_stats) == {(1, 2), (2, 3)}

    def test_per_request_delay_stats(self, triangle_setup):
        view, db = triangle_setup
        server = ViewServer(db)
        name = server.register(view, tau=8.0)
        accesses = oracle_accesses(view, db, limit=6)
        result = server.answer_batch(name, accesses)
        for access in set(tuple(a) for a in accesses):
            stats = result.request_stats[access]
            assert stats.outputs == len(oracle_answer(view, db, access))
            assert stats.step_max_gap >= 0
        assert result.max_step_gap == max(
            s.step_max_gap for s in result.request_stats.values()
        )

    def test_serve_stream_report(self, triangle_setup):
        view, db = triangle_setup
        server = ViewServer(db)
        name = server.register(view, tau=8.0)
        stream = request_stream(view, db, 30, seed=4, skew=1.5)
        report = server.serve_stream(name, stream, batch_size=8)
        assert report.requests == 30
        assert report.batches == 4
        assert report.builds == 1
        assert report.unique_requests + report.shared_requests == 30
        assert report.outputs == sum(
            len(oracle_answer(view, db, access)) for access in stream
        )
        assert report.requests_per_second > 0

    def test_serve_stream_reports_per_stream_deltas(self, triangle_setup):
        view, db = triangle_setup
        server = ViewServer(db)
        name = server.register(view, tau=8.0)
        stream = request_stream(view, db, 10, seed=6)
        cold = server.serve_stream(name, stream, batch_size=4)
        warm = server.serve_stream(name, stream, batch_size=4)
        assert cold.builds == 1 and cold.cache.misses == 1
        assert warm.builds == 0 and warm.cache.misses == 0
        assert warm.cache.hits == warm.batches


class TestTauAutoSelection:
    def test_space_budget_respected(self, triangle_setup):
        view, db = triangle_setup
        budget = 3.0 * db.total_tuples()
        server = ViewServer(db)
        name = server.register(view, space_budget=budget)
        registration = server.registration(name)
        assert registration.policy == "space-budget"
        optimum = min_delay_cover(
            registration.natural_view, registration.sizes, budget
        )
        assert registration.tau == pytest.approx(max(1.0, optimum.tau))
        assert optimum.predicted_space(registration.sizes) <= budget * 1.01
        # The budget-selected structure still answers correctly.
        for access in oracle_accesses(view, db, limit=4):
            assert server.answer(name, access) == oracle_answer(
                view, db, access
            )

    def test_budget_cover_is_reused_by_the_build(self, triangle_setup):
        # Regression: the built structure must realize the optimized
        # tradeoff point, not fall back to the default max-slack cover.
        view, db = triangle_setup
        server = ViewServer(db)
        name = server.register(
            view, space_budget=1.5 * db.total_tuples()
        )
        registration = server.registration(name)
        built = server.representation(name)
        assert built.tau == registration.tau
        assert built.weights == pytest.approx(registration.weights)

    def test_tighter_space_budget_means_larger_tau(self, triangle_setup):
        view, db = triangle_setup
        n = db.total_tuples()
        server = ViewServer(db)
        tight = server.register(view, space_budget=1.5 * n, name="tight")
        loose = server.register(view, space_budget=20.0 * n, name="loose")
        assert (
            server.registration(tight).tau >= server.registration(loose).tau
        )

    def test_delay_budget_respected(self, triangle_setup):
        view, db = triangle_setup
        server = ViewServer(db)
        name = server.register(view, delay_budget=16.0)
        registration = server.registration(name)
        assert registration.policy == "delay-budget"
        assert registration.tau <= 16.0 * 1.01
        for access in oracle_accesses(view, db, limit=4):
            assert server.answer(name, access) == oracle_answer(
                view, db, access
            )


class TestCacheConcurrency:
    """Regression: eviction racing an in-flight build must not skew cells."""

    def _assert_accounting_exact(self, cache):
        residents = sum(
            representation_cells(cache.peek(key)) for key in cache.keys()
        )
        assert cache.total_cells == residents

    def test_get_or_build_hammer_keeps_accounting_exact(self):
        view = triangle_view("bbf")
        db = triangle_database(nodes=10, edges=35, seed=3)
        taus = [2.0, 4.0, 8.0, 16.0, 32.0]
        # A budget small enough that almost every publish evicts someone,
        # so evictions constantly race builds in flight.
        probe = _build(view, db, 8.0)
        cache = RepresentationCache(
            max_entries=3, max_cells=2 * representation_cells(probe)
        )
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(15):
                    tau = rng.choice(taus)
                    built = cache.get_or_build(
                        ("V", tau), lambda tau=tau: _build(view, db, tau)
                    )
                    assert built.tau == tau
                    if rng.random() < 0.3:
                        victim = ("V", rng.choice(taus))
                        cache.invalidate_matching(lambda key: key == victim)
            except Exception as error:  # propagate to the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        self._assert_accounting_exact(cache)
        stats = cache.stats
        assert stats.insertions >= 1
        assert stats.evictions >= 1  # the race under test actually happened

    def test_single_build_per_key_under_contention(self, triangle_setup):
        view, db = triangle_setup
        cache = RepresentationCache(max_entries=4)
        calls = []
        barrier = threading.Barrier(6)
        results = []

        def factory():
            calls.append(threading.get_ident())
            return _build(view, db, 8.0)

        def reader():
            barrier.wait()
            results.append(cache.get_or_build("k", factory))

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert len(set(id(r) for r in results)) == 1
        # One call is one request — a wait-then-hit caller records its
        # miss only, a late-scheduled caller a plain hit.
        assert cache.stats.requests == 6
        assert cache.stats.misses >= 1
        self._assert_accounting_exact(cache)

    def test_failed_build_releases_the_key(self, triangle_setup):
        view, db = triangle_setup
        cache = RepresentationCache(max_entries=4)

        def broken():
            raise RuntimeError("flaky build")

        with pytest.raises(RuntimeError):
            cache.get_or_build("k", broken)
        # The key is not wedged: the next caller builds successfully.
        built = cache.get_or_build("k", lambda: _build(view, db, 8.0))
        assert built is cache.peek("k")
        self._assert_accounting_exact(cache)

    def test_invalidate_racing_publish_keeps_accounting_exact(
        self, triangle_setup
    ):
        view, db = triangle_setup
        cache = RepresentationCache(max_entries=4)
        release = threading.Event()
        mid_build = threading.Event()

        def slow_factory():
            mid_build.set()
            release.wait(timeout=5.0)
            return _build(view, db, 8.0)

        builder = threading.Thread(
            target=lambda: cache.get_or_build("k", slow_factory)
        )
        builder.start()
        mid_build.wait(timeout=5.0)
        # Invalidating a key whose build is in flight is a no-op drop …
        assert cache.invalidate_matching(lambda key: key == "k") == 0
        release.set()
        builder.join()
        # … and the publish lands with exact accounting.
        assert "k" in cache
        self._assert_accounting_exact(cache)


class TestConcurrency:
    def test_many_readers_one_build(self, triangle_setup):
        view, db = triangle_setup
        server = ViewServer(db)
        name = server.register(view, tau=8.0)
        accesses = oracle_accesses(view, db, limit=6)
        expected = {
            tuple(a): oracle_answer(view, db, a) for a in accesses
        }
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        failures = []

        def reader(thread_index):
            barrier.wait()  # maximize build contention on the cold cache
            for access in accesses:
                rows = server.answer(name, access)
                if rows != expected[tuple(access)]:
                    failures.append((thread_index, access))

        threads = [
            threading.Thread(target=reader, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert server.build_count(name) == 1
        assert len(server.cache) == 1
        # Every request was resolved through the cache exactly once
        # (a waiter on the in-flight build counts as a miss).
        assert server.cache_stats.requests == n_threads * len(accesses)

    def test_churning_taus_hammer_shares_one_context_per_generation(
        self, triangle_setup, tmp_path
    ):
        view, db = triangle_setup
        taus = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        other = triangle_database(nodes=25, edges=120, seed=6)
        probe = {tau: _build(view, db, tau) for tau in (2.0, 8.0)}
        # About a third of the ladder fits: every thread's next τ evicts
        # someone, demotes to the snapshot tier and decodes from it.
        server = ViewServer(
            db,
            max_entries=None,
            max_cells=sum(map(representation_cells, probe.values())),
            snapshot_dir=tmp_path,
        )
        accesses = oracle_accesses(view, db, limit=4)
        n_threads = 8
        failures = []

        def hammer(name, database):
            expected = {a: oracle_answer(view, database, a) for a in accesses}
            barrier = threading.Barrier(n_threads)
            handed = []

            def worker(seed):
                rng = random.Random(seed)
                barrier.wait()  # concurrent FIRST misses of different τ
                try:
                    for _ in range(12):
                        tau = rng.choice(taus)
                        access = rng.choice(accesses)
                        handed.append(server.representation(name, tau).ctx)
                        rows = server.open(name, access, tau=tau).fetchall()
                        if rows != expected[access]:
                            failures.append((seed, tau, access))
                except Exception as error:  # propagate to the main thread
                    failures.append(error)

            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures
            # Exactly one context survived the racing first misses, and
            # every structure handed out — built, or decoded after an
            # eviction — shares it.
            assert len(handed) == n_threads * 12
            assert len({id(context) for context in handed}) == 1
            assert list(server._contexts.values()) == [handed[0]]
            return handed[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            name = server.register(view, tau=8.0)
            first = hammer(name, db)
            assert first.db is db
            assert server.cache_stats.evictions > 0
            assert server.cache_stats.disk_hits > 0
            # A new generation under the same name, over other data.
            server.unregister(name)
            assert server._contexts == {}
            server.register(view, tau=8.0, database=other)
            second = hammer(name, other)
            assert second is not first and second.db is other
        finally:
            sys.setswitchinterval(interval)
