"""Unit tests for the relation storage layer."""

import pytest

from repro.database.relation import Relation
from repro.exceptions import SchemaError


def test_deduplicates_rows():
    r = Relation("R", 2, [(1, 2), (1, 2), (3, 4)])
    assert len(r) == 2
    assert (1, 2) in r
    assert (3, 4) in r


def test_arity_is_enforced():
    with pytest.raises(SchemaError):
        Relation("R", 2, [(1, 2, 3)])


def test_negative_arity_rejected():
    with pytest.raises(SchemaError):
        Relation("R", -1)


def test_rows_accept_any_sequence():
    r = Relation("R", 2, [[1, 2], (3, 4)])
    assert (1, 2) in r and (3, 4) in r


def test_membership_converts_sequences():
    r = Relation("R", 2, [(1, 2)])
    assert [1, 2] in r


def test_sorted_rows():
    r = Relation("R", 2, [(3, 1), (1, 2), (2, 0)])
    assert r.sorted_rows() == [(1, 2), (2, 0), (3, 1)]


def test_project_reorders_and_deduplicates():
    r = Relation("R", 3, [(1, 2, 9), (1, 2, 8), (3, 4, 7)])
    p = r.project([1, 0])
    assert p.arity == 2
    assert set(p) == {(2, 1), (4, 3)}


def test_project_out_of_range():
    r = Relation("R", 2, [(1, 2)])
    with pytest.raises(SchemaError):
        r.project([2])


def test_select_constants():
    r = Relation("R", 3, [(1, 2, 3), (1, 5, 3), (2, 2, 3)])
    s = r.select_constants({0: 1, 2: 3})
    assert set(s) == {(1, 2, 3), (1, 5, 3)}


def test_select_constants_bad_position():
    with pytest.raises(SchemaError):
        Relation("R", 1, [(1,)]).select_constants({5: 1})


def test_select_equal_columns():
    r = Relation("R", 3, [(1, 1, 2), (1, 2, 3), (4, 4, 4)])
    s = r.select_equal_columns([[0, 1]])
    assert set(s) == {(1, 1, 2), (4, 4, 4)}


def test_select_equal_columns_multiple_groups():
    r = Relation("R", 4, [(1, 1, 2, 2), (1, 1, 2, 3), (1, 2, 3, 3)])
    s = r.select_equal_columns([[0, 1], [2, 3]])
    assert set(s) == {(1, 1, 2, 2)}


def test_filter_predicate():
    r = Relation("R", 2, [(1, 2), (3, 4)])
    assert set(r.filter(lambda row: row[0] > 2)) == {(3, 4)}


def test_column_values():
    r = Relation("R", 2, [(1, 2), (1, 3), (2, 3)])
    assert r.column_values(0) == {1, 2}
    assert r.column_values(1) == {2, 3}
    assert type(r.column_values(0)) is frozenset


def test_column_values_are_computed_once_per_relation():
    r = Relation("R", 2, [(1, 2), (1, 3), (2, 3)])
    assert r.column_values(1) is r.column_values(1)
    # A relation made from r starts with an empty memo, rows shared or not.
    for made in (r.rename("Q"), r.union(r), r.with_changes([(4, 4)], [])):
        assert made._columns == {}
    assert r.with_changes([(4, 4)], []).column_values(1) == {2, 3, 4}
    assert r.column_values(1) == {2, 3}


def test_column_values_out_of_range():
    with pytest.raises(SchemaError):
        Relation("R", 1, [(1,)]).column_values(3)


def test_rename_shares_rows():
    r = Relation("R", 2, [(1, 2)])
    q = r.rename("Q")
    assert q.name == "Q"
    assert set(q) == set(r)


def test_union():
    a = Relation("A", 2, [(1, 2)])
    b = Relation("B", 2, [(3, 4), (1, 2)])
    assert set(a.union(b)) == {(1, 2), (3, 4)}


def test_union_arity_mismatch():
    with pytest.raises(SchemaError):
        Relation("A", 1, [(1,)]).union(Relation("B", 2, [(1, 2)]))


def test_semijoin_values():
    r = Relation("R", 2, [(1, 2), (3, 4), (5, 6)])
    assert set(r.semijoin_values(0, {1, 5})) == {(1, 2), (5, 6)}


def test_equality_and_hash():
    a = Relation("A", 2, [(1, 2), (3, 4)])
    b = Relation("B", 2, [(3, 4), (1, 2)])
    assert a == b  # equality ignores names
    assert hash(a) == hash(b)


def test_empty_relation():
    r = Relation("R", 2)
    assert len(r) == 0
    assert list(r) == []
    assert (1, 2) not in r
