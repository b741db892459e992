"""Tests for domains and the lexicographic tuple space."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.domain import Domain, TupleSpace
from repro.exceptions import ParameterError


class TestDomain:
    def test_sorted_and_deduplicated(self):
        d = Domain([3, 1, 2, 1])
        assert d.values == (1, 2, 3)
        assert len(d) == 3

    def test_index_roundtrip(self):
        d = Domain([10, 20, 30])
        assert d.index_of(20) == 1
        assert d.value_at(1) == 20
        assert d.index_of(25) is None

    def test_floor_and_ceil(self):
        d = Domain([10, 20, 30])
        assert d.floor_index(25) == 1
        assert d.ceil_index(25) == 2
        assert d.floor_index(5) is None
        assert d.ceil_index(35) is None
        assert d.floor_index(30) == 2
        assert d.ceil_index(10) == 0

    def test_bottom_top(self):
        d = Domain([5, 6, 7])
        assert d.bottom == 0
        assert d.top == 2


class TestTupleSpace:
    def _space(self):
        return TupleSpace([Domain([1, 2]), Domain([1, 2, 3])])

    def test_bottom_top(self):
        s = self._space()
        assert s.bottom() == (0, 0)
        assert s.top() == (1, 2)

    def test_successor_carries(self):
        s = self._space()
        assert s.successor((0, 2)) == (1, 0)
        assert s.successor((0, 1)) == (0, 2)
        assert s.successor((1, 2)) is None

    def test_predecessor_borrows(self):
        s = self._space()
        assert s.predecessor((1, 0)) == (0, 2)
        assert s.predecessor((0, 0)) is None

    def test_successor_predecessor_inverse(self):
        s = self._space()
        point = s.bottom()
        seen = [point]
        while (nxt := s.successor(point)) is not None:
            assert s.predecessor(nxt) == point
            point = nxt
            seen.append(point)
        assert len(seen) == s.size() == 6
        assert seen == sorted(seen)

    def test_values_and_indexes(self):
        # Values back to indexes: per domain, or as a seek's ceiling.
        s = self._space()
        assert s.values((1, 2)) == (2, 3)
        assert tuple(
            domain.index_of(value) for domain, value in zip(s.domains, (2, 3))
        ) == (1, 2)
        assert s.domains[1].index_of(9) is None
        assert s.ceil_point((2, 3)) == (1, 2)

    def test_empty_product_space(self):
        s = TupleSpace([])
        assert s.bottom() == ()
        assert s.top() == ()
        assert s.size() == 1
        assert s.successor(()) is None
        assert s.predecessor(()) is None

    def test_empty_domain_space(self):
        s = TupleSpace([Domain([])])
        assert s.is_empty()
        with pytest.raises(ParameterError):
            s.bottom()

    @given(
        st.lists(
            st.integers(1, 4), min_size=1, max_size=3
        ).flatmap(
            lambda sizes: st.tuples(
                st.just(sizes),
                st.tuples(*[st.integers(0, size - 1) for size in sizes]),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_successor_is_next_lexicographic(self, data):
        sizes, point = data
        space = TupleSpace([Domain(range(size)) for size in sizes])
        nxt = space.successor(point)
        if nxt is None:
            assert point == space.top()
        else:
            assert nxt > point
            # Nothing strictly between point and nxt.
            assert space.predecessor(nxt) == point
