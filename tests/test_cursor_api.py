"""The typed cursor protocol: AccessRequest, AnswerCursor, server.open.

Covers the serving-stack redesign: cursors as the primitive on all three
back ends (plain, sharded with lazy k-way merge, async streaming), the
materializing wrappers' exact parity with the pre-cursor public API, the
O(k)-per-shard laziness bound, and the atomic cache sweep behind
``invalidate``.
"""

import asyncio
import inspect
import threading

import pytest

from oracle import oracle_accesses, oracle_answer
from repro.baselines.lazy import LazyView
from repro.engine import (
    AccessRequest,
    AsyncViewServer,
    ReplicaServer,
    RepresentationCache,
    RoutingTable,
    ShardedViewServer,
    Telemetry,
    ViewServer,
    open_cursor,
    partition_database,
)
from repro.engine.api import as_request, resume_enumeration
from repro.exceptions import ParameterError
from repro.workloads.generators import triangle_database
from repro.workloads.queries import triangle_view
from repro.workloads.scenarios import coauthor_database, coauthor_view
from repro.workloads.streams import productive_accesses, topk_requests

VIEW = triangle_view("bff")
SHARD_KEY = {"R": 0, "T": 1}
SCATTER_KEY = {"S": 0}


@pytest.fixture(scope="module")
def db():
    return triangle_database(nodes=20, edges=110, seed=31)


@pytest.fixture(scope="module")
def server(db):
    server = ViewServer(db)
    server.register(VIEW, tau=6.0, name="V")
    return server


@pytest.fixture(scope="module")
def heavy_access(db, server):
    return max(
        productive_accesses(VIEW, db),
        key=lambda a: len(oracle_answer(VIEW, db, a)),
    )


class TestAccessRequest:
    def test_normalizes_tuples(self):
        request = AccessRequest(view="V", access=[1, 2], start_after=[3, 4])
        assert request.access == (1, 2)
        assert request.start_after == (3, 4)

    def test_rejects_negative_limit(self):
        with pytest.raises(ParameterError):
            AccessRequest(view="V", access=(1,), limit=-1)

    def test_page_after_carries_the_page_size(self):
        first = AccessRequest(view="V", access=(1,), limit=5)
        second = first.page_after((7, 8))
        assert second.start_after == (7, 8)
        assert second.limit == 5
        assert second.view == "V" and second.access == (1,)

    def test_as_request_shorthand(self):
        request = as_request("V", (1,), limit=3, measure=True)
        assert request == AccessRequest(
            view="V", access=(1,), limit=3, measure=True
        )
        passthrough = as_request(request)
        assert passthrough is request


class TestAnswerCursor:
    def test_streams_the_full_answer_in_order(self, db, server, heavy_access):
        with server.open("V", heavy_access) as cursor:
            rows = list(cursor)
        assert rows == oracle_answer(VIEW, db, heavy_access)

    def test_limit_truncates_and_is_not_exhausted(
        self, db, server, heavy_access
    ):
        cursor = server.open("V", heavy_access, limit=2)
        rows = cursor.fetchall()
        assert rows == oracle_answer(VIEW, db, heavy_access)[:2]
        assert cursor.delivered == 2
        assert not cursor.exhausted

    @pytest.mark.parametrize("size", [-1, True, False, 2.0, None, "3"])
    def test_fetchmany_size_is_checked_as_a_limit_is(
        self, server, heavy_access, size
    ):
        # What AccessRequest.limit refuses, fetchmany refuses alike —
        # and None, which is no page size — before it touches the stream.
        if size is not None:
            with pytest.raises(ParameterError):
                AccessRequest(view="V", access=heavy_access, limit=size)
        cursor = server.open("V", heavy_access)
        with pytest.raises(ParameterError):
            cursor.fetchmany(size)
        assert cursor.delivered == 0 and cursor.fetchmany(1)

    def test_limit_zero_is_a_legal_empty_page(self, server, heavy_access):
        cursor = server.open("V", heavy_access, limit=0, start_after=(0, 0))
        assert cursor.fetchall() == []
        assert cursor.resume_token() == (0, 0)

    def test_fetchmany_pages_through(self, db, server, heavy_access):
        expected = oracle_answer(VIEW, db, heavy_access)
        cursor = server.open("V", heavy_access)
        pages = []
        while True:
            page = cursor.fetchmany(2)
            if not page:
                break
            assert len(page) <= 2
            pages.extend(page)
        assert pages == expected
        assert cursor.exhausted

    def test_close_stops_iteration(self, server, heavy_access):
        cursor = server.open("V", heavy_access)
        next(cursor)
        cursor.close()
        assert list(cursor) == []
        cursor.close()  # idempotent

    def test_lazy_enumeration_under_limit(self, server, heavy_access):
        # The counter sees only the limited traversal's steps: a limit=1
        # cursor must do far less logical work than a full drain.
        with server.open("V", heavy_access, limit=1, measure=True) as cursor:
            cursor.fetchall()
            limited = cursor.stats().step_total
        with server.open("V", heavy_access, measure=True) as cursor:
            cursor.fetchall()
            full = cursor.stats().step_total
        assert 0 < limited < full
        # Top-k is O(k), not O(answer): on the skewed co-author view's
        # eight heaviest accesses (hundreds of tuples each), limit=5
        # cursors spend at most a fifth of the full drains' steps.
        coauthors = coauthor_database(n_authors=120, n_papers=260, seed=11)
        skewed = ViewServer(coauthors)
        skewed.register(coauthor_view(), tau=8.0, name="C")
        heavy = sorted(
            productive_accesses(coauthor_view(), coauthors),
            key=lambda a: len(skewed.answer("C", a)),
            reverse=True,
        )[:8]
        topk_outputs = topk_steps = full_steps = 0
        for access in heavy:
            with skewed.open("C", access, measure=True) as cursor:
                cursor.fetchall()
                full_steps += cursor.stats().step_total
            with skewed.open("C", access, limit=5, measure=True) as cursor:
                topk_outputs += len(cursor.fetchall())
                topk_steps += cursor.stats().step_total
        assert topk_outputs == 5 * len(heavy)
        assert 5 * topk_steps <= full_steps

    def test_measured_stats_match_batch_semantics(
        self, db, server, heavy_access
    ):
        expected = oracle_answer(VIEW, db, heavy_access)
        with server.open("V", heavy_access, measure=True) as cursor:
            cursor.fetchall()
            stats = cursor.stats()
        batch = server.answer_batch("V", [heavy_access], measure=True)
        batch_stats = batch.request_stats[heavy_access]
        assert stats.outputs == batch_stats.outputs == len(expected)
        assert stats.step_total == batch_stats.step_total
        assert stats.step_max_gap == batch_stats.step_max_gap
        assert stats.wall_total > 0

    def test_batch_stats_include_the_closing_gap_limit_stops_omit_it(
        self, db, server
    ):
        # The BatchResult contract: batch cursors drain to exhaustion,
        # so each entry's step_max_gap folds in the closing gap (the
        # trailing steps after the last output) exactly like
        # measure_enumeration — while a limit-stopped cursor, which
        # never observes exhaustion, omits it.
        from repro.joins.generic_join import JoinCounter
        from repro.measure.delay import measure_enumeration

        accesses = productive_accesses(VIEW, db)[:20]
        batch = server.answer_batch("V", accesses, measure=True)
        representation = server.representation("V")
        strictly_larger = 0
        for access in accesses:
            counter = JoinCounter()
            reference = measure_enumeration(
                representation.enumerate(access, counter=counter),
                counter=counter,
            )
            drained = batch.request_stats[tuple(access)]
            assert drained.outputs == reference.outputs
            assert drained.step_total == reference.step_total
            assert drained.step_max_gap == reference.step_max_gap
            # Stop exactly at the last output: same tuples delivered,
            # but the cursor never sees exhaustion.
            with server.open(
                "V", access, limit=reference.outputs, measure=True
            ) as cursor:
                cursor.fetchall()
                limited = cursor.stats()
            assert limited.outputs == reference.outputs
            assert limited.step_max_gap <= drained.step_max_gap
            strictly_larger += limited.step_max_gap < drained.step_max_gap
        # The distinction is real on this workload, not vacuous: for
        # some access the trailing steps dominate every emission gap.
        assert strictly_larger > 0

    def test_resume_token_round_trip(self, db, server, heavy_access):
        expected = oracle_answer(VIEW, db, heavy_access)
        first = server.open("V", heavy_access, limit=2)
        head = first.fetchall()
        second = server.open(
            "V", heavy_access, start_after=first.resume_token()
        )
        assert head + second.fetchall() == expected

    def test_open_accepts_a_request_object(self, db, server, heavy_access):
        request = AccessRequest(view="V", access=heavy_access, limit=3)
        with server.open(request) as cursor:
            assert cursor.fetchall() == oracle_answer(
                VIEW, db, heavy_access
            )[:3]


class TestSkipScanDegradation:
    def test_resume_without_enumerate_from_skip_scans(self, db):
        lazy = LazyView(VIEW, db)
        access = oracle_accesses(VIEW, db, limit=1)[0]
        full = oracle_answer(VIEW, db, access)
        assert len(full) >= 2
        assert not getattr(lazy, "supports_resume", False)
        resumed = list(
            resume_enumeration(lazy, access, start_after=full[0])
        )
        assert resumed == full[1:]

    def test_foreign_token_is_an_empty_page(self, db):
        lazy = LazyView(VIEW, db)
        access = oracle_accesses(VIEW, db, limit=1)[0]
        cursor = open_cursor(
            lazy,
            AccessRequest(
                view="V", access=access, start_after=(-5, -5)
            ),
        )
        assert cursor.fetchall() == []


class TestShardedCursors:
    @pytest.fixture(scope="class")
    def scatter(self, db):
        server = ShardedViewServer(db, 4, SCATTER_KEY)
        server.register(VIEW, tau=6.0, name="V")
        assert server.route("V")[0] == "scatter"
        return server

    @pytest.fixture(scope="class")
    def routed(self, db):
        server = ShardedViewServer(db, 4, SHARD_KEY)
        server.register(VIEW, tau=6.0, name="V")
        assert server.route("V")[0] == "routed"
        return server

    def test_scatter_merge_is_sorted_and_oracle_identical(
        self, db, scatter, heavy_access
    ):
        with scatter.open("V", heavy_access) as cursor:
            rows = cursor.fetchall()
        assert rows == oracle_answer(VIEW, db, heavy_access)
        assert len(cursor.parts) == 4

    def test_limit_k_pulls_at_most_k_per_shard(
        self, db, scatter, heavy_access
    ):
        k = 2
        full = oracle_answer(VIEW, db, heavy_access)
        assert len(full) > k
        with scatter.open(
            "V", heavy_access, limit=k, measure=True
        ) as cursor:
            assert cursor.fetchall() == full[:k]
            per_shard = [part.stats().outputs for part in cursor.parts]
        assert all(outputs <= k for outputs in per_shard)
        assert sum(per_shard) < len(full)

    def test_merged_stats_fold_the_shard_counters(
        self, scatter, heavy_access
    ):
        with scatter.open("V", heavy_access, measure=True) as cursor:
            cursor.fetchall()
            merged = cursor.stats()
            parts = [part.stats() for part in cursor.parts]
        assert merged.step_total == sum(p.step_total for p in parts)
        assert merged.outputs == sum(p.outputs for p in parts)

    def test_routed_open_touches_one_shard(self, db, routed, heavy_access):
        with routed.open("V", heavy_access, limit=3) as cursor:
            rows = cursor.fetchall()
        assert rows == oracle_answer(VIEW, db, heavy_access)[:3]
        assert cursor.parts == ()  # the owning shard's cursor, unmerged

    def test_facade_counts_one_request_per_open(self, db, heavy_access):
        # A scattered open is one request on every shard it fans out to.
        telemetry = Telemetry()
        scatter = ShardedViewServer(db, 4, SCATTER_KEY, telemetry=telemetry)
        scatter.register(VIEW, tau=6.0, name="V")
        scatter.open("V", heavy_access).close()
        counts = {
            (entry["labels"]["shard"], entry["labels"]["mode"]): entry["value"]
            for entry in telemetry.registry.snapshot()["counters"]
            if entry["name"] == "shard_requests_total"
        }
        assert counts == {(shard, "scatter"): 1 for shard in scatter.shard_ids}
        scatter.close()

    def test_close_releases_every_part(self, scatter, heavy_access):
        cursor = scatter.open("V", heavy_access)
        next(cursor)
        cursor.close()
        assert all(part.fetchall() == [] for part in cursor.parts)


class TestAsyncStream:
    def test_chunks_reassemble_the_answer(self, db, server, heavy_access):
        expected = oracle_answer(VIEW, db, heavy_access)

        async def run():
            async with AsyncViewServer(server, max_workers=2) as front:
                chunks = []
                async for chunk in front.stream(
                    "V", heavy_access, chunk_size=2
                ):
                    assert len(chunk) <= 2
                    chunks.append(chunk)
                return chunks

        chunks = asyncio.run(run())
        assert [row for chunk in chunks for row in chunk] == expected

    def test_limit_and_resume_through_the_async_face(
        self, db, server, heavy_access
    ):
        expected = oracle_answer(VIEW, db, heavy_access)

        async def run():
            async with AsyncViewServer(server, max_workers=2) as front:
                head = []
                async for chunk in front.stream(
                    "V", heavy_access, chunk_size=3, limit=3
                ):
                    head.extend(chunk)
                tail = []
                async for chunk in front.stream(
                    AccessRequest(
                        view="V",
                        access=heavy_access,
                        start_after=head[-1],
                    )
                ):
                    tail.extend(chunk)
                return head, tail

        head, tail = asyncio.run(run())
        assert head == expected[:3]
        assert head + tail == expected

    def test_streams_over_a_sharded_backend(self, db, heavy_access):
        backend = ShardedViewServer(db, 3, SCATTER_KEY)
        backend.register(VIEW, tau=6.0, name="V")
        expected = oracle_answer(VIEW, db, heavy_access)

        async def run():
            async with AsyncViewServer(backend, max_workers=2) as front:
                rows = []
                async for chunk in front.stream(
                    "V", heavy_access, chunk_size=4
                ):
                    rows.extend(chunk)
                return rows

        assert asyncio.run(run()) == expected

    def test_rejects_bad_chunk_size(self, server, heavy_access):
        async def run():
            async with AsyncViewServer(server, max_workers=1) as front:
                async for _ in front.stream(
                    "V", heavy_access, chunk_size=0
                ):
                    pass

        with pytest.raises(ParameterError):
            asyncio.run(run())


class TestBackwardCompat:
    """The pre-cursor public API keeps exact result and shape parity."""

    #: The optional parameters of the serving surface, by name and in
    #: order. An option with one value in use is a constant, not a
    #: parameter: the eviction policy, the replica balancer, per-tenant
    #: admission, the async front end's own back-end knobs, ``hash_fn``,
    #: ``semijoin_reduce`` and the telemetry ring sizes went that way
    #: (50 → 28). Then 28 → 26: a routing table is its list of shards,
    #: with no split tree and no version (and no serialized form to
    #: rebuild one from). Then 25 → 22: a server builds in its own
    #: process, so ``build_workers`` and ``builder`` went. A new entry
    #: here comes with the caller that needs it.
    OPTIONAL_PARAMETERS = {
        ViewServer: (
            "max_entries", "max_cells", "snapshot_dir", "telemetry",
        ),
        ShardedViewServer: (
            "max_entries", "max_cells", "snapshot_dir", "telemetry",
        ),
        AsyncViewServer: (
            "max_workers", "max_pending", "replicas", "telemetry",
        ),
        AsyncViewServer.serve: ("tau", "measure"),
        AsyncViewServer.answer_requests: (),
        ReplicaServer: ("max_entries", "max_cells", "telemetry"),
        RepresentationCache: (
            "max_entries", "max_cells", "snapshot_store", "metrics",
        ),
        Telemetry: ("directory",),
        RoutingTable: (),
        RoutingTable.fresh: (),
        partition_database: (),
    }

    def test_answer_matches_oracle_on_all_backends(self, db):
        plain = ViewServer(db)
        sharded = ShardedViewServer(db, 3, SHARD_KEY)
        for backend in (plain, sharded):
            backend.register(VIEW, tau=6.0, name="V")
        for access in oracle_accesses(VIEW, db, limit=6):
            expected = oracle_answer(VIEW, db, access)
            assert plain.answer("V", access) == expected
            assert sharded.answer("V", access) == expected

    def test_answer_batch_shape_is_unchanged(self, db, server):
        accesses = oracle_accesses(VIEW, db, limit=4)
        batch = accesses + [accesses[0]]  # one duplicate
        result = server.answer_batch("V", batch, measure=True)
        assert result.accesses == tuple(tuple(a) for a in batch)
        assert len(result.answers) == len(batch)
        assert result.unique_count == len(set(map(tuple, batch)))
        assert result.shared_count == 1
        # Duplicates share the representative's answer list object.
        assert result.answers[0] is result.answers[-1]
        assert set(result.request_stats) == set(map(tuple, accesses))
        for access in accesses:
            access = tuple(access)
            stats = result.request_stats[access]
            assert stats.outputs == len(oracle_answer(VIEW, db, access))
            assert stats.step_total >= stats.outputs
        unmeasured = server.answer_batch("V", batch, measure=False)
        assert unmeasured.request_stats == {}
        assert [list(r) for r in unmeasured.answers] == [
            list(r) for r in result.answers
        ]

    def test_serve_stream_report_shape_is_unchanged(self, db):
        fresh = ViewServer(db)
        fresh.register(VIEW, tau=6.0, name="V")
        accesses = oracle_accesses(VIEW, db, limit=6) * 2
        report = fresh.serve_stream("V", accesses, batch_size=4)
        assert report.requests == len(accesses)
        assert report.batches == len(accesses) // 4
        assert report.builds == 1
        assert report.outputs == sum(
            len(oracle_answer(VIEW, db, a)) for a in accesses
        )
        assert report.shared_requests == (
            report.requests - report.unique_requests
        )
        assert report.cache.misses == 1
        assert report.cache.hits == report.batches - 1
        assert report.max_step_gap > 0
        assert report.requests_per_second > 0

    def test_constructor_signatures_are_stable(self, db, tmp_path):
        for target, expected in self.OPTIONAL_PARAMETERS.items():
            optional = tuple(
                name
                for name, parameter in inspect.signature(
                    target
                ).parameters.items()
                if parameter.default is not inspect.Parameter.empty
            )
            assert optional == expected, target.__qualname__
        assert sum(map(len, self.OPTIONAL_PARAMETERS.values())) == 22
        plain = ViewServer(
            db,
            max_entries=4,
            max_cells=None,
            snapshot_dir=tmp_path / "snaps",
        )
        sharded = ShardedViewServer(db, 2, SHARD_KEY, max_entries=4)
        front = AsyncViewServer(plain, max_workers=2, max_pending=4)
        front.close()
        sharded.close()
        plain.close()


class TestTopkRequestMix:
    def test_mix_is_seeded_and_limited(self, db):
        first = topk_requests(VIEW, db, 20, seed=7, limits=(1, 5), name="V")
        second = topk_requests(VIEW, db, 20, seed=7, limits=(1, 5), name="V")
        assert first == second
        assert {r.limit for r in first} <= {1, 5}
        assert all(r.view == "V" for r in first)

    def test_mix_round_trips_the_server(self, db, server):
        for request in topk_requests(
            VIEW, db, 12, seed=9, limits=(2, None), name="V"
        ):
            with server.open(request) as cursor:
                rows = cursor.fetchall()
            expected = oracle_answer(VIEW, db, request.access)
            if request.limit is not None:
                expected = expected[: request.limit]
            assert rows == expected

    def test_rejects_empty_or_negative_limits(self, db):
        with pytest.raises(ParameterError):
            topk_requests(VIEW, db, 4, limits=())
        with pytest.raises(ParameterError):
            topk_requests(VIEW, db, 4, limits=(3, -1))


class TestAtomicInvalidation:
    def test_invalidate_matching_sweeps_only_matches(self):
        cache = RepresentationCache(max_entries=8)
        for key in [("a", 1.0, 1), ("a", 2.0, 1), ("b", 1.0, 1)]:
            cache.get_or_build(key, lambda: _StubRepresentation())
        dropped = cache.invalidate_matching(lambda key: key[0] == "a")
        assert dropped == 2
        assert cache.keys() == (("b", 1.0, 1),)
        assert cache.invalidate_matching(lambda key: key[0] == "a") == 0

    def test_concurrent_builds_never_corrupt_the_sweep(self):
        cache = RepresentationCache(max_entries=64)
        stop = threading.Event()
        errors = []

        def builder(worker: int):
            i = 0
            while not stop.is_set():
                try:
                    cache.get_or_build(
                        ("hot", worker, i % 4),
                        lambda: _StubRepresentation(),
                    )
                except Exception as error:  # pragma: no cover
                    errors.append(error)
                i += 1

        threads = [
            threading.Thread(target=builder, args=(w,)) for w in range(3)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                cache.invalidate_matching(lambda key: key[0] == "hot")
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        # Accounting stayed exact: residual cells match residual entries.
        residual = sum(
            cache.cells_of(key) or 0 for key in cache.keys()
        )
        assert cache.total_cells == residual

    def test_view_server_invalidate_still_reports_drops(self, db):
        fresh = ViewServer(db)
        fresh.register(VIEW, tau=6.0, name="V")
        fresh.representation("V")
        fresh.representation("V", tau=12.0)
        assert fresh.invalidate("V") == 2
        assert fresh.invalidate("V") == 0


class _StubRepresentation:
    """Just enough surface for the cache: a space report and no stats."""

    class _Report:
        total_cells = 3
        base_tuples = 1

    def space_report(self):
        return self._Report()
