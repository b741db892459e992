"""Unit and property tests for the counting tries."""

import pytest
from hypothesis import given, settings, strategies as st

from reference_index import TrieIndex
from repro.database.relation import Relation
from repro.exceptions import SchemaError


@pytest.fixture
def relation():
    return Relation(
        "R",
        3,
        [
            (1, 1, 1),
            (1, 1, 2),
            (1, 2, 1),
            (2, 1, 1),
            (3, 1, 1),
        ],
    )


def test_root_count_is_cardinality(relation):
    index = TrieIndex(relation, [0, 1, 2])
    assert index.root.count == 5


def test_descend_and_count_prefix(relation):
    index = TrieIndex(relation, [0, 1, 2])
    assert index.count_prefix((1,)) == 3
    assert index.count_prefix((1, 1)) == 2
    assert index.count_prefix((1, 1, 2)) == 1
    assert index.count_prefix((9,)) == 0


def test_column_reordering(relation):
    index = TrieIndex(relation, [1, 2, 0])
    # Keys are (col1, col2, col0): prefix (1, 1) -> rows with x=1, y=1.
    assert index.count_prefix((1, 1)) == 3


def test_contains_full_and_prefix(relation):
    index = TrieIndex(relation, [0, 1, 2])
    assert index.contains((1, 2, 1))
    assert index.contains((1, 2))
    assert not index.contains((2, 2))


def test_range_count(relation):
    index = TrieIndex(relation, [0, 1, 2])
    assert index.count_prefix_range((), 1, 2) == 4
    assert index.count_prefix_range((1,), 2, 2) == 1
    assert index.count_prefix_range((1, 1), 1, 1) == 1
    assert index.count_prefix_range((1, 1), 0, 99) == 2
    assert index.count_prefix_range((9,), 0, 99) == 0


def test_keys_are_sorted(relation):
    index = TrieIndex(relation, [0, 1, 2])
    assert index.root.keys == [1, 2, 3]
    assert list(index.iter_keys((1,))) == [1, 2]


def test_keys_in_range(relation):
    index = TrieIndex(relation, [0, 1, 2])
    assert list(index.root.keys_in_range(2, 3)) == [2, 3]
    assert list(index.root.keys_in_range(4, 9)) == []


def test_subset_columns_deduplicate(relation):
    index = TrieIndex(relation, [1])  # projection onto column 1
    assert index.root.count == 2  # values {1, 2}


def test_subset_columns_multiplicity(relation):
    index = TrieIndex(relation, [1], dedupe=False)
    assert index.root.count == 5
    assert index.count_prefix((1,)) == 4
    assert index.count_prefix((2,)) == 1


def test_duplicate_column_rejected(relation):
    with pytest.raises(SchemaError):
        TrieIndex(relation, [0, 0])


def test_out_of_range_column(relation):
    with pytest.raises(SchemaError):
        TrieIndex(relation, [0, 7])


def test_cells_counts_edges(relation):
    index = TrieIndex(relation, [0, 1, 2])
    # Level 1: keys {1,2,3}; level 2: {1:{1,2},2:{1},3:{1}}; level 3: 5 leaves.
    assert index.cells() == 3 + 4 + 5


def test_empty_relation_index():
    index = TrieIndex(Relation("E", 2), [0, 1])
    assert index.root.count == 0
    assert index.count_prefix(()) == 0
    assert not index.contains((1, 2))


@st.composite
def _rows_and_query(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)
            ),
            min_size=0,
            max_size=40,
        )
    )
    prefix_len = draw(st.integers(0, 2))
    prefix = tuple(draw(st.integers(0, 6)) for _ in range(prefix_len))
    low = draw(st.integers(-1, 7))
    high = draw(st.integers(-1, 7))
    return rows, prefix, low, high


@given(_rows_and_query())
@settings(max_examples=150, deadline=None)
def test_range_count_matches_bruteforce(data):
    """The trie's O(log) range counts agree with a linear scan."""
    rows, prefix, low, high = data
    relation = Relation("R", 3, rows)
    index = TrieIndex(relation, [0, 1, 2])
    expected = sum(
        1
        for row in relation
        if row[: len(prefix)] == prefix and low <= row[len(prefix)] <= high
    )
    assert index.count_prefix_range(prefix, low, high) == expected


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        min_size=0,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_multiplicity_trie_counts_tuples(rows):
    """dedupe=False: prefix counts equal full-tuple multiplicities."""
    relation = Relation("R", 2, rows)
    index = TrieIndex(relation, [0], dedupe=False)
    for value in {row[0] for row in relation}:
        expected = sum(1 for row in relation if row[0] == value)
        assert index.count_prefix((value,)) == expected
