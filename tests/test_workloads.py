"""Workload generators: determinism, shapes, and paper instances."""

import pytest

from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.exceptions import ParameterError
from repro.query.parser import parse_view
from repro.joins.hash_join import evaluate_by_hash_join
from repro.workloads.generators import (
    loomis_whitney_database,
    path_database,
    random_graph,
    random_relation,
    set_family,
    star_database,
    triangle_database,
    zipf_relation,
)
from repro.workloads.queries import (
    figure2_view,
    figure7_database,
    figure7_view,
    loomis_whitney_view,
    mutual_friend_view,
    path_view,
    running_example_database,
    running_example_view,
    star_view,
    triangle_view,
)
from repro.workloads.streams import (
    batched,
    productive_accesses,
    request_stream,
)
from repro.workloads.scenarios import (
    coauthor_database,
    coauthor_view,
    mln_evidence_database,
    mln_rule_views,
    social_network_database,
)


class TestGenerators:
    def test_random_relation_deterministic(self):
        a = random_relation("R", 2, 30, 10, seed=5)
        b = random_relation("R", 2, 30, 10, seed=5)
        assert set(a) == set(b)
        assert len(a) == 30

    def test_random_relation_capacity_check(self):
        with pytest.raises(ParameterError):
            random_relation("R", 1, 100, 10)

    def test_random_graph_symmetric(self):
        g = random_graph("G", 20, 40, seed=1, symmetric=True)
        for (a, b) in g:
            assert (b, a) in g

    def test_random_graph_no_loops(self):
        g = random_graph("G", 20, 40, seed=2)
        assert all(a != b for a, b in g)

    def test_zipf_relation_is_skewed(self):
        r = zipf_relation("Z", 2, 200, 50, skew=1.5, seed=3)
        counts = {}
        for row in r:
            counts[row[0]] = counts.get(row[0], 0) + 1
        # Value 0 (heaviest rank) appears much more than the median value.
        assert counts.get(0, 0) >= 3

    def test_star_path_lw_shapes(self):
        star = star_database(3, 20, 10, seed=4)
        assert {r.name for r in star} == {"R1", "R2", "R3"}
        path = path_database(2, 20, 10, seed=5)
        assert {r.name for r in path} == {"R1", "R2"}
        lw = loomis_whitney_database(4, 20, 6, seed=6)
        assert all(r.arity == 3 for r in lw)

    def test_lw_needs_three(self):
        with pytest.raises(ParameterError):
            loomis_whitney_database(2, 10, 5)

    def test_set_family_shapes(self):
        family = set_family(6, universe=30, mean_size=8, seed=7)
        assert len(family) == 6
        for members in family.values():
            assert members == sorted(members)
            assert all(0 <= e < 30 for e in members)

    def test_triangle_shared_relation(self):
        db = triangle_database(15, 40, seed=8, shared=True)
        assert len(db) == 1
        assert "R" in db


class TestPaperInstances:
    def test_running_example_sizes(self):
        db = running_example_database()
        assert all(len(db[name]) == 5 for name in ("R1", "R2", "R3"))

    def test_running_example_view_shape(self):
        view = running_example_view()
        assert view.pattern == "fffbbb"
        assert [v.name for v in view.free_variables] == ["x", "y", "z"]

    def test_views_are_natural_joins(self):
        for view in [
            triangle_view("bbf"),
            mutual_friend_view(),
            running_example_view(),
            star_view(4),
            loomis_whitney_view(4),
            path_view(5),
            figure2_view(),
            figure7_view(),
        ]:
            assert view.is_natural_join(), view.name

    def test_figure7_database_matches_view(self):
        view = figure7_view()
        db = figure7_database(10, 40, seed=9)
        # Evaluable end to end.
        assert isinstance(evaluate_by_hash_join(view.query, db), set)

    def test_default_patterns(self):
        assert star_view(3).pattern == "bbbf"
        assert loomis_whitney_view(4).pattern == "bbbf"
        assert path_view(4).pattern == "bfffb"


class TestScenarios:
    def test_coauthor_database_shape(self):
        db = coauthor_database(n_authors=40, n_papers=60, seed=1)
        view = coauthor_view()
        assert view.is_natural_join()
        result = evaluate_by_hash_join(view.query, db)
        # Co-authorship is symmetric in (x, y).
        assert all((y, x, p) in result for (x, y, p) in result)

    def test_social_network_symmetric(self):
        db = social_network_database(n_users=30, n_friendships=60, seed=2)
        r = db["R"]
        for (a, b) in r:
            assert (b, a) in r

    def test_mln_rules_parse_and_evaluate(self):
        views = mln_rule_views()
        db = mln_evidence_database(n_entities=30, n_terms=20, density=80)
        for view in views:
            assert view.is_full
            evaluate_by_hash_join(view.query, db)


class TestRequestStreams:
    def _setup(self):
        view = triangle_view("bbf")
        db = triangle_database(nodes=20, edges=90, seed=3)
        return view, db

    def test_deterministic_and_sized(self):
        view, db = self._setup()
        a = request_stream(view, db, 25, seed=7, skew=1.0, miss_rate=0.2)
        b = request_stream(view, db, 25, seed=7, skew=1.0, miss_rate=0.2)
        assert a == b
        assert len(a) == 25
        assert request_stream(view, db, 0) == []

    def test_zero_miss_rate_is_all_productive(self):
        view, db = self._setup()
        productive = set(productive_accesses(view, db))
        stream = request_stream(view, db, 30, seed=1, miss_rate=0.0)
        assert productive  # the instance has answers to ask about
        assert all(access in productive for access in stream)

    def test_full_miss_rate_is_all_misses(self):
        view, db = self._setup()
        productive = set(productive_accesses(view, db))
        stream = request_stream(view, db, 30, seed=1, miss_rate=1.0)
        assert all(access not in productive for access in stream)

    def test_skew_concentrates_the_stream(self):
        view, db = self._setup()
        def top_share(skew):
            stream = request_stream(view, db, 300, seed=5, skew=skew)
            counts = {}
            for access in stream:
                counts[access] = counts.get(access, 0) + 1
            return max(counts.values()) / len(stream)
        assert top_share(2.5) > top_share(0.0)

    def test_productive_accesses_match_oracle_keys(self):
        view, db = self._setup()
        bound = [i for i, ch in enumerate(view.pattern) if ch == "b"]
        expected = sorted(
            {
                tuple(row[i] for i in bound)
                for row in evaluate_by_hash_join(view.query, db)
            }
        )
        assert productive_accesses(view, db) == expected

    def test_batched_chunks(self):
        view, db = self._setup()
        stream = request_stream(view, db, 10, seed=2)
        chunks = list(batched(stream, 4))
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert [a for chunk in chunks for a in chunk] == stream

    def test_invalid_parameters_rejected(self):
        view, db = self._setup()
        with pytest.raises(ParameterError):
            request_stream(view, db, -1)
        with pytest.raises(ParameterError):
            request_stream(view, db, 5, skew=-0.1)
        with pytest.raises(ParameterError):
            request_stream(view, db, 5, miss_rate=1.5)
        with pytest.raises(ParameterError):
            list(batched([], 0))

    def test_same_seed_means_identical_stream_across_parameters(self):
        view, db = self._setup()
        for skew in (0.0, 1.0, 2.5):
            for miss_rate in (0.0, 0.3):
                a = request_stream(
                    view, db, 40, seed=11, skew=skew, miss_rate=miss_rate
                )
                b = request_stream(
                    view, db, 40, seed=11, skew=skew, miss_rate=miss_rate
                )
                assert a == b
        # A different seed reshuffles the stream.
        assert request_stream(view, db, 40, seed=11) != request_stream(
            view, db, 40, seed=12
        )

    def test_zero_skew_spreads_bound_tuples_evenly(self):
        view, db = self._setup()
        stream = request_stream(view, db, 600, seed=3, skew=0.0)
        counts = {}
        for access in stream:
            counts[access] = counts.get(access, 0) + 1
        # Uniform draws: the heaviest tuple stays a small fraction.
        assert max(counts.values()) / len(stream) < 0.1

    def test_empty_view_yields_only_misses_of_right_arity(self):
        # No R tuple joins S: the view's result is empty, so the stream
        # degrades to all misses regardless of the requested miss rate.
        db = Database(
            [
                Relation("R", 2, [(1, 2), (3, 4)]),
                Relation("S", 2, [(9, 9)]),
            ]
        )
        view = parse_view("E^bbf(x, y, z) = R(x, y), S(y, z)")
        assert productive_accesses(view, db) == []
        stream = request_stream(view, db, 15, seed=5, miss_rate=0.0)
        assert len(stream) == 15
        assert all(len(access) == 2 for access in stream)
        assert all(access not in {(1, 2), (3, 4)} for access in stream)

    def test_non_parametric_view_stream_terminates(self):
        # Regression: with zero bound positions the only access tuple is
        # (), so a "guaranteed miss" cannot exist — the old code
        # rejection-sampled forever. Requesting misses anyway is an
        # error; without them the stream is all ().
        view, db = self._setup()
        full = parse_view("F^fff(x, y, z) = R(x, y), S(y, z), T(z, x)")
        assert request_stream(full, db, 8, seed=1) == [()] * 8
        with pytest.raises(ParameterError):
            request_stream(full, db, 8, seed=1, miss_rate=0.5)
        # With no productive keys, () itself is the guaranteed miss and
        # any miss mix streams fine.
        empty = Database(
            [Relation("R", 2, [(1, 2)]), Relation("S", 2, [(9, 9)])]
        )
        none_productive = parse_view("N^ff(x, y) = R(x, y), S(x, y)")
        stream = request_stream(none_productive, empty, 6, miss_rate=1.0)
        assert stream == [()] * 6

    def test_empty_database_relation_is_served(self):
        db = Database(
            [Relation("R", 2, []), Relation("S", 2, [(1, 2)])]
        )
        view = parse_view("E^bf(x, y) = R(x, y)")
        assert productive_accesses(view, db) == []
        stream = request_stream(view, db, 5, seed=1)
        assert len(stream) == 5
