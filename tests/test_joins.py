"""Tests for the worst-case-optimal join, hash join, and semijoin."""


import pytest
from hypothesis import given, settings, strategies as st

from reference_index import TrieIndex, generic_join, join_is_nonempty
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.exceptions import QueryError
from repro.joins.generic_join import JoinCounter
from repro.joins.hash_join import evaluate_by_hash_join, hash_join
from repro.joins.semijoin import semijoin
from repro.query.atoms import Variable
from repro.query.parser import parse_query

x, y, z = Variable("x"), Variable("y"), Variable("z")


def _trie(rows, arity=2):
    return TrieIndex(Relation("R", arity, rows), list(range(arity))).root


class TestGenericJoin:
    def test_triangle_join(self):
        r = _trie([(1, 2), (2, 3), (1, 3)])
        s = _trie([(2, 3), (3, 1)])
        # T(z, x) rows (3,1),(1,2) indexed in (x, z) order to follow the
        # global variable order, as the view context does.
        t = _trie([(1, 3), (2, 1)])
        result = list(
            generic_join([(r, (x, y)), (s, (y, z)), (t, (x, z))], (x, y, z))
        )
        assert result == [(1, 2, 3), (2, 3, 1)]

    def test_output_is_lexicographic(self):
        rows = [(a, b) for a in range(4) for b in range(4)]
        r = _trie(rows)
        s = _trie(rows)
        result = list(generic_join([(r, (x, y)), (s, (y, z))], (x, y, z)))
        assert result == sorted(result)

    def test_matches_hash_join_oracle(self):
        query = parse_query("Q(x, y, z) = R(x, y), S(y, z)")
        r_rows = [(1, 2), (2, 2), (3, 1)]
        s_rows = [(2, 5), (2, 6), (1, 7)]
        db = Database([Relation("R", 2, r_rows), Relation("S", 2, s_rows)])
        expected = evaluate_by_hash_join(query, db)
        got = set(
            generic_join(
                [(_trie(r_rows), (x, y)), (_trie(s_rows), (y, z))], (x, y, z)
            )
        )
        assert got == expected

    def test_ranges_restrict_output(self):
        rows = [(a, b) for a in range(5) for b in range(5)]
        r = _trie(rows)
        result = list(
            generic_join([(r, (x, y))], (x, y), ranges={x: (1, 2), y: (3, 4)})
        )
        assert result == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_unconstrained_variable_uses_domain(self):
        r = _trie([(1, 2)])
        result = list(
            generic_join([(r, (x, y))], (x, y, z), domains={z: (7, 8)})
        )
        assert result == [(1, 2, 7), (1, 2, 8)]

    def test_unconstrained_variable_without_domain_raises(self):
        r = _trie([(1, 2)])
        with pytest.raises(QueryError):
            list(generic_join([(r, (x, y))], (x, y, z)))

    def test_atom_vars_must_follow_order(self):
        r = _trie([(1, 2)])
        with pytest.raises(QueryError):
            list(generic_join([(r, (y, x))], (x, y)))

    def test_counter_counts_probes(self):
        r = _trie([(1, 2), (1, 3), (2, 4)])
        counter = JoinCounter()
        list(generic_join([(r, (x, y))], (x, y), counter=counter))
        assert counter.steps == 2 + 3  # two x-candidates, three y-candidates

    def test_join_is_nonempty_early_exit(self):
        rows = [(a, a) for a in range(1000)]
        r = _trie(rows)
        counter = JoinCounter()
        assert join_is_nonempty([(r, (x, y))], (x, y), counter=counter)
        assert counter.steps <= 4  # did not scan the full relation

    def test_empty_relation_join(self):
        r = _trie([])
        s = _trie([(1, 2)])
        assert list(generic_join([(r, (x, y)), (s, (x, y))], (x, y))) == []

    def test_self_join_same_trie(self):
        rows = [(1, 2), (2, 3)]
        r = _trie(rows)
        result = list(generic_join([(r, (x, y)), (r, (y, z))], (x, y, z)))
        assert result == [(1, 2, 3)]

    @given(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=25),
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=25),
    )
    @settings(max_examples=100, deadline=None)
    def test_two_atom_join_matches_bruteforce(self, r_rows, s_rows):
        r_rel = Relation("R", 2, r_rows)
        s_rel = Relation("S", 2, s_rows)
        expected = sorted(
            (a, b, c)
            for (a, b) in r_rel
            for (bb, c) in s_rel
            if b == bb
        )
        got = list(
            generic_join(
                [
                    (TrieIndex(r_rel, [0, 1]).root, (x, y)),
                    (TrieIndex(s_rel, [0, 1]).root, (y, z)),
                ],
                (x, y, z),
            )
        )
        assert got == expected


class TestHashJoin:
    def test_basic_join(self):
        rows, out_vars = hash_join(
            [(1, 2), (2, 3)], (x, y), [(2, 5), (3, 6)], (y, z)
        )
        assert out_vars == (x, y, z)
        assert rows == {(1, 2, 5), (2, 3, 6)}

    def test_no_shared_variables_is_cross_product(self):
        rows, out_vars = hash_join([(1,), (2,)], (x,), [(5,), (6,)], (z,))
        assert rows == {(1, 5), (1, 6), (2, 5), (2, 6)}

    def test_evaluate_with_constants_and_repeats(self):
        query = parse_query("Q(x) = R(x, x, 3)")
        db = Database(
            [Relation("R", 3, [(1, 1, 3), (2, 1, 3), (4, 4, 3), (5, 5, 9)])]
        )
        assert evaluate_by_hash_join(query, db) == {(1,), (4,)}

    def test_evaluate_projection(self):
        query = parse_query("Q(x) = R(x, y)")
        db = Database([Relation("R", 2, [(1, 2), (1, 3), (2, 4)])])
        assert evaluate_by_hash_join(query, db) == {(1,), (2,)}

    def test_evaluate_boolean(self):
        query = parse_query("Q() = R(x, y)")
        db = Database([Relation("R", 2, [(1, 2)])])
        assert evaluate_by_hash_join(query, db) == {()}


class TestSemijoin:
    def test_filters_on_shared_variables(self):
        result = semijoin(
            [(1, 2), (3, 4), (5, 6)], (x, y), [(2,), (6,)], (y,)
        )
        assert result == {(1, 2), (5, 6)}

    def test_no_shared_variables_nonempty_right(self):
        assert semijoin([(1,)], (x,), [(9,)], (z,)) == {(1,)}

    def test_no_shared_variables_empty_right(self):
        assert semijoin([(1,)], (x,), [], (z,)) == set()
