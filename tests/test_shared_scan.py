"""Batch execution: one walk per distinct request, many cursors.

Covers the batch/cursor interaction across every backend: batch
answers must equal per-request cursor answers on the plain, sharded
(routed and scatter) and async servers — with limit and resume-token
requests mixed into one group, duplicate requests sharing an
enumeration, and empty-prefix groups — plus what the per-state shape
promises (pulling one cursor advances no other state, an error stays
with its state, the last lane to go closes the generator), a property
holding every batch cursor to its solo ``open``, and the
prefix-sharing workload generator.
"""

import asyncio
import gc
import weakref
from collections import Counter, defaultdict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracle import oracle_answer
from repro.core.decomposed import DecomposedRepresentation
from repro.core.dynamic import DynamicRepresentation
from repro.core.structure import CompressedRepresentation
from repro.engine import (
    AccessRequest,
    AsyncViewServer,
    ShardedViewServer,
    SharedScan,
    ViewServer,
    open_group,
)
from repro.exceptions import ParameterError, QueryError
from repro.joins.generic_join import JoinCounter
from repro.query.parser import parse_view
from repro.workloads.generators import triangle_database
from repro.workloads.queries import triangle_view
from repro.workloads.streams import prefix_batch_requests, productive_accesses

VIEW = triangle_view("bbf")
SCATTER_VIEW = parse_view("Rev^bbf(y, z, x) = R(x, y), S(y, z), T(z, x)")
SHARD_KEY = {"R": 0, "T": 1}
TAU = 6.0


@pytest.fixture(scope="module")
def db():
    return triangle_database(nodes=24, edges=140, seed=17)


@pytest.fixture(scope="module")
def server(db):
    server = ViewServer(db)
    server.register(VIEW, tau=TAU, name="V")
    return server


@pytest.fixture(scope="module")
def accesses(db):
    return productive_accesses(VIEW, db)


@pytest.fixture(scope="module")
def mixed_batch(db, accesses):
    """Duplicates, misses, limits and resume tokens in one shared group."""
    heavy = sorted(
        accesses, key=lambda a: len(oracle_answer(VIEW, db, a)), reverse=True
    )[:4]
    full = oracle_answer(VIEW, db, heavy[0])
    return [
        AccessRequest(view="V", access=heavy[0]),
        AccessRequest(view="V", access=heavy[1], limit=2),
        AccessRequest(view="V", access=heavy[0]),  # duplicate
        AccessRequest(view="V", access=heavy[0], start_after=full[0]),
        AccessRequest(view="V", access=(-1, -2)),  # guaranteed miss
        AccessRequest(view="V", access=heavy[2], limit=0),
        AccessRequest(view="V", access=heavy[3], start_after=full[-1]),
        AccessRequest(view="V", access=heavy[1], limit=2),  # duplicate w/ limit
    ]


def expected_answer(db, request):
    rows = oracle_answer(VIEW, db, request.access)
    if request.start_after is not None:
        token = tuple(request.start_after)
        rows = rows[rows.index(token) + 1:] if token in rows else [
            row for row in rows if row > token
        ]
    if request.limit is not None:
        rows = rows[: request.limit]
    return rows


class TestPlainBackendParity:
    def test_mixed_group_equals_per_request_cursors(
        self, db, server, mixed_batch
    ):
        shared = [c.fetchall() for c in server.open_batch(mixed_batch)]
        solo = [server.open(r).fetchall() for r in mixed_batch]
        assert shared == solo
        assert shared == [expected_answer(db, r) for r in mixed_batch]

    def test_full_productive_batch_matches_oracle(self, db, server, accesses):
        requests = [AccessRequest(view="V", access=a) for a in accesses]
        for request, cursor in zip(requests, server.open_batch(requests)):
            assert cursor.fetchall() == oracle_answer(VIEW, db, request.access)

    def test_duplicates_share_one_traversal_lane(self, server, accesses):
        batch = [AccessRequest(view="V", access=accesses[0])] * 5
        scan = SharedScan(server.representation("V"), batch)
        cursors = scan.cursors()
        answers = [c.fetchall() for c in cursors]
        assert all(rows == answers[0] for rows in answers)
        assert scan.stats().states == 1
        assert scan.stats().shared_requests == 4

    def test_empty_prefix_group_all_accesses_distinct(self, db, server, accesses):
        # No shared prefixes at all: the scan still answers correctly,
        # one state per distinct access.
        batch = [AccessRequest(view="V", access=a) for a in accesses[:6]]
        scan = SharedScan(server.representation("V"), batch)
        for request, cursor in zip(batch, scan.cursors()):
            assert cursor.fetchall() == oracle_answer(VIEW, db, request.access)
        assert scan.stats().states == len(batch)

    def test_group_of_empty_access_tuples(self, db):
        # A fully-free view's only access is (): the whole group is one
        # state however many requests ride it.
        free_view = triangle_view("fff")
        server = ViewServer(db)
        server.register(free_view, tau=TAU, name="F")
        batch = [
            AccessRequest(view="F", access=()),
            AccessRequest(view="F", access=(), limit=3),
            AccessRequest(view="F", access=()),
        ]
        cursors = server.open_batch(batch)
        full = oracle_answer(free_view, db, ())
        assert cursors[0].fetchall() == full
        assert cursors[1].fetchall() == full[:3]
        assert cursors[2].fetchall() == full
        scan = SharedScan(server.representation("F"), batch)
        [c.fetchall() for c in scan.cursors()]
        assert scan.stats().states == 1

    def test_mixed_views_group_by_view_and_tau(self, db, server, accesses):
        server2 = ViewServer(db)
        server2.register(VIEW, tau=TAU, name="V")
        batch = [
            AccessRequest(view="V", access=accesses[0]),
            AccessRequest(view="V", access=accesses[0], tau=12.0),
            AccessRequest(view="V", access=accesses[1]),
        ]
        cursors = server2.open_batch(batch)
        for request, cursor in zip(batch, cursors):
            assert cursor.fetchall() == oracle_answer(VIEW, db, request.access)
        # One build per distinct tau actually requested.
        assert server2.build_count("V") == 1
        assert server2.build_count("V", 12.0) == 1

    def test_answer_batch_rides_the_shared_scan(self, db, server, accesses):
        batch = [accesses[0], accesses[1], accesses[0], (-5, -6)]
        result = server.answer_batch("V", batch)
        assert result.unique_count == 3
        assert result.shared_count == 1
        assert result.answers[0] is result.answers[2]
        for access, rows in zip(result.accesses, result.answers):
            assert list(rows) == oracle_answer(VIEW, db, access)

    def test_measured_group_stats_match_solo_semantics(
        self, db, server, accesses
    ):
        heavy = max(accesses, key=lambda a: len(oracle_answer(VIEW, db, a)))
        with server.open("V", heavy, measure=True) as cursor:
            cursor.fetchall()
            solo = cursor.stats()
        batch = server.answer_batch("V", [heavy, accesses[0]], measure=True)
        stats = batch.request_stats[heavy]
        assert stats.outputs == solo.outputs
        assert stats.step_total == solo.step_total
        assert stats.step_max_gap == solo.step_max_gap

    def test_wrong_arity_access_raises_on_drain(self, server):
        cursors = server.open_batch(
            [AccessRequest(view="V", access=(1, 2, 3))]
        )
        with pytest.raises(QueryError):
            cursors[0].fetchall()


class TestShardedBackendParity:
    @pytest.fixture(scope="class")
    def routed(self, db):
        sharded = ShardedViewServer(db, 3, SHARD_KEY)
        sharded.register(VIEW, tau=TAU, name="V")
        assert sharded.route("V")[0] == "routed"
        return sharded

    @pytest.fixture(scope="class")
    def scatter(self, db):
        sharded = ShardedViewServer(db, 3, SHARD_KEY)
        sharded.register(SCATTER_VIEW, tau=TAU, name="V")
        assert sharded.route("V")[0] == "scatter"
        return sharded

    def test_routed_mixed_group_equals_per_request(
        self, db, routed, mixed_batch
    ):
        shared = [c.fetchall() for c in routed.open_batch(mixed_batch)]
        solo = [routed.open(r).fetchall() for r in mixed_batch]
        assert shared == solo
        assert shared == [expected_answer(db, r) for r in mixed_batch]

    def test_scatter_mixed_group_equals_per_request(self, db, scatter):
        accesses = productive_accesses(SCATTER_VIEW, db)
        heavy = sorted(
            accesses,
            key=lambda a: len(oracle_answer(SCATTER_VIEW, db, a)),
            reverse=True,
        )[:3]
        full = oracle_answer(SCATTER_VIEW, db, heavy[0])
        batch = [
            AccessRequest(view="V", access=heavy[0]),
            AccessRequest(view="V", access=heavy[0], limit=2),
            AccessRequest(view="V", access=heavy[1]),
            AccessRequest(view="V", access=heavy[0], start_after=full[0]),
            AccessRequest(view="V", access=heavy[2]),
            AccessRequest(view="V", access=heavy[1]),  # duplicate
        ]
        shared = [c.fetchall() for c in scatter.open_batch(batch)]
        solo = [scatter.open(r).fetchall() for r in batch]
        assert shared == solo
        for request, rows in zip(batch, shared):
            expected = oracle_answer(SCATTER_VIEW, db, request.access)
            if request.start_after is not None:
                token = tuple(request.start_after)
                expected = [row for row in expected if row > token]
            if request.limit is not None:
                expected = expected[: request.limit]
            assert rows == expected

    def test_scatter_cursors_expose_per_shard_parts(self, scatter, db):
        access = productive_accesses(SCATTER_VIEW, db)[0]
        (cursor,) = scatter.open_batch(
            [AccessRequest(view="V", access=access)]
        )
        assert len(cursor.parts) == scatter.n_shards
        cursor.close()

    def test_sharded_answer_batch_unchanged_by_the_rewire(
        self, db, routed, accesses
    ):
        batch = [accesses[0], accesses[1], accesses[0]]
        result = routed.answer_batch("V", batch)
        assert result.unique_count == 2
        for access, rows in zip(result.accesses, result.answers):
            assert list(rows) == oracle_answer(VIEW, db, access)


class TestAsyncBackendParity:
    def test_async_answer_requests_plain_backend(
        self, db, server, mixed_batch
    ):
        async def go():
            front = AsyncViewServer(server, max_workers=2)
            try:
                return await front.answer_requests(mixed_batch)
            finally:
                front._executor.shutdown(wait=True)

        answers = asyncio.run(go())
        assert answers == [expected_answer(db, r) for r in mixed_batch]

    def test_async_answer_requests_routed_backend(self, db, mixed_batch):
        routed = ShardedViewServer(db, 3, SHARD_KEY)
        routed.register(VIEW, tau=TAU, name="V")

        async def go():
            front = AsyncViewServer(routed, max_workers=3)
            try:
                return await front.answer_requests(mixed_batch)
            finally:
                front._executor.shutdown(wait=True)

        answers = asyncio.run(go())
        assert answers == [expected_answer(db, r) for r in mixed_batch]

    def test_async_answer_requests_scatter_backend(self, db):
        scatter = ShardedViewServer(db, 3, SHARD_KEY)
        scatter.register(SCATTER_VIEW, tau=TAU, name="V")
        accesses = productive_accesses(SCATTER_VIEW, db)[:3]
        batch = [AccessRequest(view="V", access=a) for a in accesses] + [
            AccessRequest(view="V", access=accesses[0], limit=1)
        ]

        async def go():
            front = AsyncViewServer(scatter, max_workers=3)
            try:
                return await front.answer_requests(batch)
            finally:
                front._executor.shutdown(wait=True)

        got = asyncio.run(go())
        for request, rows in zip(batch, got):
            expected = oracle_answer(SCATTER_VIEW, db, request.access)
            if request.limit is not None:
                expected = expected[: request.limit]
            assert rows == expected


class TestCoreSharedEnumerate:
    """``open_group`` over bare core representations (no server).

    What the representations' own grouped entry point used to promise —
    every request's stream is exactly its solo stream — is the batch
    layer's promise now. (The class keeps its name so the test ids it
    has had since the merged descent stay comparable.)
    """

    @pytest.fixture(scope="class")
    def representation(self, db):
        return CompressedRepresentation(VIEW, db, tau=TAU)

    def test_events_partition_into_solo_streams(
        self, db, representation, accesses
    ):
        group = accesses[:8] + [accesses[0]]
        cursors = open_group(
            representation, [AccessRequest("V", access) for access in group]
        )
        # Round-robin pulls: the interleaving is the caller's, each
        # cursor's own subsequence is its solo stream.
        streams = [[] for _ in group]
        live = list(range(len(group)))
        while live:
            for slot in list(live):
                row = next(cursors[slot], None)
                if row is None:
                    live.remove(slot)
                else:
                    streams[slot].append(row)
        for slot, access in enumerate(group):
            assert streams[slot] == list(representation.enumerate(access))

    def test_starts_match_enumerate_from(self, db, representation, accesses):
        heavy = max(accesses, key=lambda a: len(oracle_answer(VIEW, db, a)))
        full = list(representation.enumerate(heavy))
        for split in range(len(full)):
            resumed, whole = open_group(
                representation,
                [
                    AccessRequest("V", heavy, start_after=full[split]),
                    AccessRequest("V", heavy),
                ],
            )
            # A resumed lane is enumerate_from minus the token itself.
            assert [full[split]] + resumed.fetchall() == list(
                representation.enumerate_from(heavy, full[split])
            )
            assert whole.fetchall() == full

    def test_counters_match_solo_counters(self, db, representation, accesses):
        group = accesses[:5]
        cursors = open_group(
            representation,
            [AccessRequest("V", access, measure=True) for access in group],
        )
        for access, cursor in zip(group, cursors):
            cursor.fetchall()
            solo = JoinCounter()
            for _ in representation.enumerate(access, counter=solo):
                pass
            assert cursor.stats().step_total == solo.steps

    def test_decomposed_group_matches_solo(self, db, accesses):
        decomposed = DecomposedRepresentation(VIEW, db)
        group = accesses[:6] + [accesses[0]]  # duplicate included
        cursors = open_group(
            decomposed, [AccessRequest("V", access) for access in group]
        )
        for access, cursor in zip(group, cursors):
            assert cursor.fetchall() == list(decomposed.enumerate(access))

    def test_dynamic_representation_falls_back_to_direct_pump(
        self, db, accesses
    ):
        dynamic = DynamicRepresentation(VIEW, db, tau=TAU)
        requests = [
            AccessRequest(view="V", access=accesses[0]),
            AccessRequest(view="V", access=accesses[0], limit=1),
            AccessRequest(view="V", access=accesses[1]),
        ]
        cursors = open_group(dynamic, requests)
        assert cursors[0].fetchall() == list(dynamic.enumerate(accesses[0]))
        assert cursors[1].fetchall() == list(dynamic.enumerate(accesses[0]))[:1]
        assert cursors[2].fetchall() == list(dynamic.enumerate(accesses[1]))


class TestLimitPruning:
    def test_all_limited_cursors_stop_the_scan_early(self, db, server, accesses):
        heavy = max(accesses, key=lambda a: len(oracle_answer(VIEW, db, a)))
        full = len(oracle_answer(VIEW, db, heavy))
        assert full >= 3
        batch = [
            AccessRequest(view="V", access=heavy, limit=1, measure=True),
            AccessRequest(view="V", access=heavy, limit=1, measure=True),
        ]
        scan = SharedScan(server.representation("V"), batch)
        cursors = scan.cursors()
        # No explicit close(): reaching the limit alone must release the
        # lane (a limit-stopped cursor never pulls its source again, so
        # close() is the only other chance to free it).
        for cursor in cursors:
            assert cursor.fetchall() == oracle_answer(VIEW, db, heavy)[:1]
        assert scan.stats().pruned_states == 1
        assert all(not lane.buffer for lane in scan._lanes)
        # Both lanes done after one row: the state was closed and never
        # enumerated further — far fewer steps than the full answer.
        unlimited = SharedScan(
            server.representation("V"),
            [AccessRequest(view="V", access=heavy, measure=True)],
        )
        (u,) = unlimited.cursors()
        u.fetchall()
        assert cursors[0].stats().step_total < u.stats().step_total

    def test_closing_one_duplicate_keeps_the_peer_streaming(
        self, db, server, accesses
    ):
        heavy = max(accesses, key=lambda a: len(oracle_answer(VIEW, db, a)))
        batch = [
            AccessRequest(view="V", access=heavy),
            AccessRequest(view="V", access=heavy),
        ]
        first, second = server.open_batch(batch)
        assert next(first) == oracle_answer(VIEW, db, heavy)[0]
        first.close()
        assert second.fetchall() == oracle_answer(VIEW, db, heavy)


class CountingRepresentation:
    """A built structure behind a counter: rows pulled, how each walk ended."""

    def __init__(self, inner, fail=None):
        self.inner = inner
        self.fail = fail  # (access, rows yielded before the error)
        self.pulled = Counter()  # access -> rows yielded
        self.ended = []  # (access, ran dry?) per finished walk

    def enumerate(self, access, counter=None):
        dry = False
        try:
            for row in self.inner.enumerate(access, counter=counter):
                if self.fail == (access, self.pulled[access]):
                    raise RuntimeError("boom")
                self.pulled[access] += 1
                yield row
            dry = True
        finally:
            self.ended.append((access, dry))


class TestOneWalkPerState:
    @pytest.fixture
    def heavy(self, db, accesses):
        """Three accesses with at least three answers each."""
        heavy = [
            a for a in accesses if len(oracle_answer(VIEW, db, a)) >= 3
        ][:3]
        assert len(heavy) == 3
        return heavy

    @pytest.fixture
    def counting(self, server):
        return CountingRepresentation(server.representation("V"))

    def test_pulling_a_cursor_advances_no_other_state(self, counting, heavy):
        a, b, c = heavy
        batch = [AccessRequest("V", access) for access in (a, b, a, c)]
        cursors = open_group(counting, batch)
        assert not counting.pulled  # nothing starts before a pull
        expected = Counter()
        for index in (3, 0, 1, 0, 3, 1):
            next(cursors[index])
            expected[batch[index].access] += 1
            assert counting.pulled == expected
        # The duplicate reads what its peer's pulls parked for it.
        assert [next(cursors[2]), next(cursors[2])] == list(
            counting.inner.enumerate(a)
        )[:2]
        assert counting.pulled == expected

    def test_an_error_stays_with_its_state(self, db, server, heavy):
        a, b, c = heavy
        counting = CountingRepresentation(
            server.representation("V"), fail=(b, 1)
        )
        batch = [AccessRequest("V", access) for access in (a, b, b, c)]
        scan = SharedScan(counting, batch)
        first, failing, duplicate, last = scan.cursors()
        row = oracle_answer(VIEW, db, b)[0]
        assert next(failing) == row
        with pytest.raises(RuntimeError, match="boom"):
            next(failing)
        # The duplicate gets the parked row, then the same error — not a
        # silently short answer.
        assert next(duplicate) == row
        with pytest.raises(RuntimeError, match="boom"):
            next(duplicate)
        with pytest.raises(RuntimeError, match="boom"):
            next(failing)
        assert first.fetchall() == oracle_answer(VIEW, db, a)
        assert last.fetchall() == oracle_answer(VIEW, db, c)
        for cursor in (failing, duplicate):
            cursor.close()
        assert scan.stats().pruned_states == 0

    def test_a_limit_stop_of_the_last_lane_closes_the_generator(
        self, db, counting, heavy
    ):
        access = heavy[0]
        rows = oracle_answer(VIEW, db, access)
        scan = SharedScan(
            counting,
            [
                AccessRequest("V", access, limit=1),
                AccessRequest("V", access, limit=2),
            ],
        )
        one, two = scan.cursors()
        assert one.fetchall() == rows[:1]
        assert counting.ended == []  # the peer still wants rows
        assert scan.stats().pruned_states == 0
        assert two.fetchall() == rows[:2]  # no close(): the limit is enough
        assert counting.ended == [(access, False)]
        assert counting.pulled[access] == 2
        assert scan.stats().pruned_states == 1

    def test_closing_the_last_lane_closes_the_generator(
        self, db, counting, heavy
    ):
        access, other = heavy[:2]
        scan = SharedScan(
            counting,
            [
                AccessRequest("V", access),
                AccessRequest("V", access),
                AccessRequest("V", other),
            ],
        )
        first, second, third = scan.cursors()
        next(first)
        first.close()
        assert counting.ended == []
        second.close()  # never pulled, still the state's last lane
        assert counting.ended == [(access, False)]
        assert scan.stats().pruned_states == 1
        assert third.fetchall() == oracle_answer(VIEW, db, other)
        for cursor in (first, second, third):
            cursor.close()
        assert counting.ended == [(access, False), (other, True)]
        assert scan.stats().pruned_states == 1  # a dry state is not pruned

    def test_closed_batch_cursors_let_their_structure_go_at_once(
        self, db, accesses
    ):
        # A state and its lanes point at each other; the last lane out
        # drops the lanes, so no collection is needed to free what the
        # closed cursors held (and a server's weak base with it).
        structure = CompressedRepresentation(VIEW, db, tau=TAU)
        held = weakref.ref(structure)
        requests = [AccessRequest("V", access, limit=2) for access in accesses[:3]]
        cursors = open_group(structure, requests + requests[:1])
        for cursor in cursors:
            with cursor:
                cursor.fetchall()
        del structure, cursor
        gc.disable()
        try:
            del cursors
            assert held() is None
        finally:
            gc.enable()


@pytest.fixture(scope="module")
def backends(db, server):
    """``kind -> (view, back end)``: plain, routed and scatter."""
    routed = ShardedViewServer(db, 3, SHARD_KEY)
    routed.register(VIEW, tau=TAU, name="V")
    scatter = ShardedViewServer(db, 3, SHARD_KEY)
    scatter.register(SCATTER_VIEW, tau=TAU, name="V")
    assert routed.route("V")[0] == "routed"
    assert scatter.route("V")[0] == "scatter"
    return {
        "plain": (VIEW, server),
        "routed": (VIEW, routed),
        "scatter": (SCATTER_VIEW, scatter),
    }


@st.composite
def request_batches(draw, pool):
    """Up to eight requests over ``pool``'s ``(access, answer)`` pairs.

    Duplicates arise by themselves (few accesses, few knobs); tokens are
    absent, answer rows, or forged (before, between and past the rows).
    """
    batch = []
    for _ in range(draw(st.integers(1, 8))):
        access, rows = draw(st.sampled_from(pool))
        tokens = [None, (-1,), (10**6,)] + rows + [(r[0] + 1,) for r in rows]
        batch.append(
            AccessRequest(
                "V",
                access,
                limit=draw(st.sampled_from([0, 1, 3, None])),
                start_after=draw(st.sampled_from(tokens)),
                measure=draw(st.booleans()),
            )
        )
    return batch


@pytest.mark.parametrize("kind", ["plain", "routed", "scatter"])
@given(data=st.data())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_every_batch_cursor_is_its_solo_cursor(db, backends, kind, data):
    """Rows, resume token and step gap of ``open(request)``, per cursor."""
    view, backend = backends[kind]
    accesses = productive_accesses(view, db)[:4] + [(-1, -2)]
    pool = [(access, oracle_answer(view, db, access)) for access in accesses]
    batch = data.draw(request_batches(pool))
    # Duplicates share their state's gaps — the farthest reader's — so a
    # cursor's own solo gap is promised where its state's limits agree.
    limits = defaultdict(set)
    for request in batch:
        limits[request.access, request.start_after].add(request.limit)
    answers = dict(pool)
    for request, cursor in zip(batch, backend.open_batch(batch)):
        token = request.start_after
        expected = [
            row
            for row in answers[request.access]
            if token is None or row > token
        ][: request.limit]
        with cursor, backend.open(request) as solo:
            assert cursor.fetchall() == solo.fetchall() == expected
            assert cursor.resume_token() == solo.resume_token()
            if len(limits[request.access, request.start_after]) == 1:
                assert (
                    cursor.stats().step_max_gap == solo.stats().step_max_gap
                )


class TestPrefixBatchRequests:
    def test_deterministic_and_prefix_grouped(self, db):
        one = prefix_batch_requests(VIEW, db, 50, seed=9, skew=1.5)
        two = prefix_batch_requests(VIEW, db, 50, seed=9, skew=1.5)
        assert one == two
        assert all(isinstance(r, AccessRequest) for r in one)
        productive = set(productive_accesses(VIEW, db))
        assert all(r.access in productive for r in one)

    def test_skew_concentrates_on_heavy_prefixes(self, db):
        flat = prefix_batch_requests(VIEW, db, 200, seed=9, skew=0.0)
        skewed = prefix_batch_requests(VIEW, db, 200, seed=9, skew=2.5)

        def top_share(requests):
            counts = {}
            for request in requests:
                key = request.access[:1]
                counts[key] = counts.get(key, 0) + 1
            return max(counts.values()) / len(requests)

        assert top_share(skewed) > top_share(flat)

    def test_limits_mix_and_name_override(self, db):
        requests = prefix_batch_requests(
            VIEW, db, 40, seed=2, limits=(1, None), name="X"
        )
        assert {r.view for r in requests} == {"X"}
        assert {r.limit for r in requests} == {1, None}

    def test_empty_prefix_len_is_one_group(self, db):
        requests = prefix_batch_requests(VIEW, db, 30, seed=4, prefix_len=0)
        assert len(requests) == 30

    def test_parameter_validation(self, db):
        with pytest.raises(ParameterError):
            prefix_batch_requests(VIEW, db, -1)
        with pytest.raises(ParameterError):
            prefix_batch_requests(VIEW, db, 5, skew=-0.1)
        with pytest.raises(ParameterError):
            prefix_batch_requests(VIEW, db, 5, prefix_len=9)
        with pytest.raises(ParameterError):
            prefix_batch_requests(VIEW, db, 5, limits=())
        with pytest.raises(ParameterError):
            prefix_batch_requests(VIEW, db, 5, limits=(-2,))
