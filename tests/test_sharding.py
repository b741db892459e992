"""Sharded serving: partitioning, routing, scatter-gather, aggregation."""

import threading
import zlib

import pytest

from oracle import oracle_accesses, oracle_answer
from repro.core.snapshot import database_state
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine import (
    AccessRequest,
    RoutingTable,
    ShardedViewServer,
    infer_shard_key,
    partition_database,
    stable_hash,
)
from repro.exceptions import ParameterError, SchemaError
from repro.query.parser import parse_view
from repro.workloads import (
    mutual_friend_view,
    request_stream,
    triangle_database,
    triangle_view,
)

SHARD_KEY = {"R": 0, "T": 1}  # the triangle's x: R(x, y), T(z, x)


@pytest.fixture
def triangle_setup():
    view = triangle_view("bbf")
    db = triangle_database(nodes=25, edges=120, seed=5)
    return view, db


def scatter_view():
    """x is free: every request fans out to all shards."""
    return parse_view("Rev^bbf(y, z, x) = R(x, y), S(y, z), T(z, x)")


class TestStableHash:
    def test_salted_types_use_crc32(self):
        assert stable_hash("alice") == zlib.crc32(b"alice")
        assert stable_hash(b"x") == zlib.crc32(b"x")
        assert stable_hash(bytearray(b"x")) == stable_hash(b"x")

    def test_equal_tuples_of_mixed_numeric_types_agree(self):
        assert stable_hash((1, 2)) == stable_hash((1.0, 2.0))
        assert stable_hash((1, 2)) != stable_hash((2, 1))
        assert stable_hash(()) != stable_hash((0,))

    def test_numbers_use_the_unsalted_numeric_hash(self):
        for value in (0, 17, -3, 2.5):
            assert stable_hash(value) == hash(value) & 0xFFFFFFFF

    def test_value_hashed_user_types_route_by_equality(self):
        # Address-based repr must not split equal values across shards.
        class Key:
            def __init__(self, v):
                self.v = v

            def __eq__(self, other):
                return isinstance(other, Key) and self.v == other.v

            def __hash__(self):
                return hash(("Key", self.v))

        assert stable_hash(Key(7)) == stable_hash(Key(7))

    def test_equal_numbers_route_together(self):
        # 1 == 1.0 == True answer identically on an unsharded server, so
        # they must pin the same shard.
        assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)

    def test_number_and_its_string_hash_apart(self):
        assert stable_hash(1) != stable_hash("1")


class TestPartitionDatabase:
    def test_slices_partition_the_key_relations(self, triangle_setup):
        _, db = triangle_setup
        table = RoutingTable.fresh(4)
        shards = partition_database(db, SHARD_KEY, 4)
        assert len(shards) == 4
        for name, column in SHARD_KEY.items():
            rows = [row for shard in shards for row in shard[name]]
            assert sorted(rows) == sorted(db[name])
            for index, shard in enumerate(shards):
                for row in shard[name]:
                    assert table.index_for(row[column]) == index

    def test_unlisted_relations_are_copied_per_shard(self, triangle_setup):
        # Sharing by reference would alias every shard (and any replica)
        # to the same Relation object: a delta applied through one
        # shard's database would silently bleed into its siblings.
        _, db = triangle_setup
        shards = partition_database(db, SHARD_KEY, 3)
        for shard in shards:
            assert shard["S"] is not db["S"]
            assert shard["S"].rows == db["S"].rows
        seen = {id(shard["S"]) for shard in shards}
        assert len(seen) == len(shards)

    def test_mutating_one_shard_leaves_siblings_byte_identical(
        self, triangle_setup
    ):
        _, db = triangle_setup
        shards = partition_database(db, SHARD_KEY, 3)
        before = [database_state(shard) for shard in shards]
        # Simulate a delta applied through shard 0's database: swap its
        # replicated relation for a mutated copy via the sanctioned
        # Database.replace path AND mutate the relation object in place
        # (the hazard the reference-sharing bug exposed).
        victim = shards[0]["S"]
        object.__setattr__(
            victim, "_rows", frozenset(list(victim.rows)[:1])
        )
        after = [database_state(shard) for shard in shards[1:]]
        assert after == before[1:]

    def test_empty_slices_are_kept(self):
        db = Database([Relation("R", 2, [(1, 2)]), Relation("S", 2, [(2, 3)])])
        shards = partition_database(db, {"R": 0}, 8)
        assert len(shards) == 8
        assert sum(len(shard["R"]) for shard in shards) == 1

    def test_parameter_validation(self, triangle_setup):
        _, db = triangle_setup
        with pytest.raises(ParameterError):
            partition_database(db, SHARD_KEY, 0)
        with pytest.raises(ParameterError):
            partition_database(db, {}, 2)
        with pytest.raises(ParameterError):
            partition_database(db, {"R": 9}, 2)
        with pytest.raises(SchemaError):
            partition_database(db, {"Nope": 0}, 2)


class TestInferShardKey:
    def test_prefers_the_first_bound_variable(self):
        assert infer_shard_key(triangle_view("bbf")) == {"R": 0, "T": 1}
        # Rev binds (y, z); y sits at R.1 and S.0.
        assert infer_shard_key(scatter_view()) == {"R": 1, "S": 0}

    def test_falls_back_to_free_variables(self):
        # S^bbbf: z is free but consistently the second column everywhere.
        view = parse_view(
            "S^bbbf(x1, x2, x3, z) = R1(x1, z), R2(x2, z), R3(x3, z)"
        )
        # Bound x1 works already (R1 only); the point is it returns a key.
        key = infer_shard_key(view)
        assert key in ({"R1": 0}, {"R1": 0, "R2": 0, "R3": 0})

    def test_self_join_with_moving_variable_is_rejected(self):
        # V(x,y,z) = R(x,y), R(y,z), R(z,x): every variable changes column.
        with pytest.raises(SchemaError):
            infer_shard_key(mutual_friend_view())

    def test_self_join_key_column_held_by_another_variable_is_rejected(self):
        # x is column-consistent over the atoms that mention it, but the
        # second R atom puts y on the key column — the key would be
        # rejected at registration, so inference must not emit it.
        view = parse_view("V^bf(x, z) = R(x, y), R(y, z)")
        with pytest.raises(SchemaError):
            infer_shard_key(view)


class TestRoutingModes:
    def test_bound_key_variable_routes(self, triangle_setup):
        view, db = triangle_setup
        server = ShardedViewServer(db, 4, SHARD_KEY)
        name = server.register(view, tau=8.0)
        assert server.route(name) == ("routed", 0)
        for access in oracle_accesses(view, db, limit=6):
            shard = server.shard_of(name, access)
            assert shard == server.topology.index_for(access[0])

    def test_free_key_variable_scatters(self, triangle_setup):
        _, db = triangle_setup
        server = ShardedViewServer(db, 4, SHARD_KEY)
        name = server.register(scatter_view(), tau=8.0)
        assert server.route(name) == ("scatter", None)
        assert server.shard_of(name, (1, 2)) is None

    def test_unsharded_view_is_pinned_to_shard_zero(self, triangle_setup):
        _, db = triangle_setup
        server = ShardedViewServer(db, 4, SHARD_KEY)
        name = server.register(parse_view("W^bf(y, z) = S(y, z)"), tau=4.0)
        assert server.route(name) == ("pinned", 0)
        assert server.shard_of(name, (3,)) == 0

    def test_self_join_moving_the_key_column_is_rejected(self, triangle_setup):
        _, db = triangle_setup
        server = ShardedViewServer(db, 2, {"R": 0})
        with pytest.raises(SchemaError):
            server.register(mutual_friend_view(), tau=8.0)

    def test_projected_key_variable_is_rejected(self, triangle_setup):
        _, db = triangle_setup
        server = ShardedViewServer(db, 2, {"S": 1})  # S's z column
        with pytest.raises(SchemaError):
            server.register(parse_view("P^bf(x, y) = R(x, y), S(y, z)"))

    def test_constant_on_key_column_is_rejected(self, triangle_setup):
        _, db = triangle_setup
        server = ShardedViewServer(db, 2, {"S": 1})
        with pytest.raises(SchemaError):
            server.register(parse_view("C^bf(x, y) = R(x, y), S(y, 1)"))

    def test_unknown_view_raises(self, triangle_setup):
        _, db = triangle_setup
        server = ShardedViewServer(db, 2, SHARD_KEY)
        with pytest.raises(SchemaError):
            server.route("ghost")

    def test_failed_registration_rolls_back_all_shards(self, triangle_setup):
        view, db = triangle_setup
        server = ShardedViewServer(db, 3, SHARD_KEY)
        # Sabotage: the name is already taken on the last shard only.
        server.shards[2].register(view, tau=8.0)
        with pytest.raises(SchemaError):
            server.register(view, tau=8.0)
        # All-or-nothing: the earlier shards rolled their registration back
        # and the facade never learned the name.
        assert view.name not in server.shards[0].views()
        assert view.name not in server.shards[1].views()
        with pytest.raises(SchemaError):
            server.route(view.name)
        # Clearing the saboteur makes the same name registrable again.
        assert server.shards[2].unregister(view.name) is True
        name = server.register(view, tau=8.0)
        assert server.route(name) == ("routed", 0)


class TestShardedAnswers:
    def test_routed_batch_matches_oracle(self, triangle_setup):
        view, db = triangle_setup
        server = ShardedViewServer(db, 4, SHARD_KEY)
        name = server.register(view, tau=8.0)
        stream = request_stream(view, db, 50, seed=9, skew=1.0, miss_rate=0.2)
        result = server.answer_batch(name, stream)
        assert len(result.answers) == len(stream)
        for access, rows in zip(result.accesses, result.answers):
            assert list(rows) == oracle_answer(view, db, access)

    def test_scatter_batch_matches_oracle(self, triangle_setup):
        _, db = triangle_setup
        view = scatter_view()
        server = ShardedViewServer(db, 4, SHARD_KEY)
        name = server.register(view, tau=8.0)
        stream = request_stream(view, db, 40, seed=2, skew=1.0, miss_rate=0.2)
        result = server.answer_batch(name, stream)
        for access, rows in zip(result.accesses, result.answers):
            assert list(rows) == oracle_answer(view, db, access)

    def test_scatter_answers_stay_sorted_and_disjoint(self, triangle_setup):
        _, db = triangle_setup
        view = scatter_view()
        server = ShardedViewServer(db, 4, SHARD_KEY)
        name = server.register(view, tau=8.0)
        for access in oracle_accesses(view, db, limit=8):
            rows = server.answer(name, tuple(access))
            assert rows == sorted(rows)
            assert len(rows) == len(set(rows))

    def test_pinned_view_matches_oracle(self, triangle_setup):
        _, db = triangle_setup
        view = parse_view("W^bf(y, z) = S(y, z)")
        server = ShardedViewServer(db, 3, SHARD_KEY)
        name = server.register(view, tau=4.0)
        for access in oracle_accesses(view, db, limit=5):
            assert server.answer(name, access) == oracle_answer(
                view, db, access
            )
        # Only shard 0 ever built anything.
        assert server.shards[0].total_builds() == 1
        assert all(s.total_builds() == 0 for s in server.shards[1:])

    def test_more_shards_than_values_still_serves(self, triangle_setup):
        view, db = triangle_setup
        server = ShardedViewServer(db, 16, SHARD_KEY)
        name = server.register(view, tau=8.0)
        for access in oracle_accesses(view, db, limit=4):
            assert server.answer(name, access) == oracle_answer(
                view, db, access
            )

    def test_duplicates_share_within_shards(self, triangle_setup):
        view, db = triangle_setup
        server = ShardedViewServer(db, 4, SHARD_KEY)
        name = server.register(view, tau=8.0)
        batch = [(1, 2), (2, 3), (1, 2), (1, 2)]
        result = server.answer_batch(name, batch)
        assert result.unique_count == 2
        assert result.shared_count == 2
        assert result.answers[0] is result.answers[2]

    def test_measured_scatter_stats_merge(self, triangle_setup):
        _, db = triangle_setup
        view = scatter_view()
        server = ShardedViewServer(db, 3, SHARD_KEY)
        name = server.register(view, tau=8.0)
        accesses = oracle_accesses(view, db, limit=4)
        result = server.answer_batch(name, accesses, measure=True)
        for access in set(tuple(a) for a in accesses):
            stats = result.request_stats[access]
            assert stats.outputs == len(oracle_answer(view, db, access))

    def test_gathered_scatter_stats_count_the_rows_returned(
        self, triangle_setup
    ):
        # Every shard honours the limit on its own slice; the lazy merge
        # pulls only what the limit lets through, and its stats count
        # the rows it returned.
        _, db = triangle_setup
        view = triangle_view("fff")
        server = ShardedViewServer(db, 4, SHARD_KEY)
        server.register(view, tau=8.0, name="fff")
        request = AccessRequest("fff", (), limit=3, measure=True)
        ((rows, stats),) = server.drain([request])
        assert rows == oracle_answer(view, db, ())[:3]
        assert stats.outputs == len(rows) == 3
        server.close()


class TestAggregation:
    def test_serve_stream_report_aggregates_shards(self, triangle_setup):
        view, db = triangle_setup
        server = ShardedViewServer(db, 4, SHARD_KEY)
        name = server.register(view, tau=8.0)
        stream = request_stream(view, db, 30, seed=4, skew=1.5)
        report = server.serve_stream(name, stream, batch_size=8)
        assert report.requests == 30
        assert report.batches == 4
        assert report.outputs == sum(
            len(oracle_answer(view, db, access)) for access in stream
        )
        # One build per shard that saw traffic, and never more than shards.
        assert 1 <= report.builds <= 4
        assert report.builds == server.total_builds()

    def test_cache_stats_and_invalidate_sum_over_shards(self, triangle_setup):
        view, db = triangle_setup
        server = ShardedViewServer(db, 4, SHARD_KEY)
        name = server.register(view, tau=8.0)
        stream = request_stream(view, db, 20, seed=1)
        server.answer_batch(name, stream, measure=False)
        touched = sum(1 for s in server.shards if s.total_builds())
        assert server.cache_stats.insertions == touched
        assert server.total_cache_cells > 0
        assert server.invalidate(name) == touched
        assert server.total_cache_cells == 0

    def test_unregister_drops_every_shard_and_the_route(self, triangle_setup):
        view, db = triangle_setup
        server = ShardedViewServer(db, 3, SHARD_KEY)
        name = server.register(view, tau=8.0)
        server.answer_batch(name, [(1, 2)], measure=False)
        assert server.unregister(name) is True
        assert server.views() == ()
        assert server.total_cache_cells == 0
        assert all(name not in s.views() for s in server.shards)
        with pytest.raises(SchemaError):
            server.route(name)
        assert server.unregister(name) is False
        # The name is reusable after a clean unregister.
        again = server.register(view, tau=8.0)
        assert server.route(again) == ("routed", 0)

    def test_concurrent_unregister_is_single_winner(self, triangle_setup):
        view, db = triangle_setup
        server = ShardedViewServer(db, 2, SHARD_KEY)
        name = server.register(view, tau=8.0)
        barrier = threading.Barrier(4)
        outcomes = []

        def racer():
            barrier.wait()
            outcomes.append(server.unregister(name))

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(outcomes) == [False, False, False, True]
        assert server.views() == ()

    def test_per_shard_tau_budgets_resolve_independently(self, triangle_setup):
        view, db = triangle_setup
        server = ShardedViewServer(db, 2, SHARD_KEY)
        name = server.register(view, space_budget=3.0 * db.total_tuples())
        for shard in server.shards:
            registration = shard.registration(name)
            assert registration.policy == "space-budget"
            assert registration.tau >= 1.0
        for access in oracle_accesses(view, db, limit=4):
            assert server.answer(name, access) == oracle_answer(
                view, db, access
            )
