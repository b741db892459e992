"""f-intervals, f-boxes and the box decomposition (Lemma 1, Examples 12-13)."""

import pytest
from hypothesis import given, settings, strategies as st

from reference_build import FBox, FInterval, ScalarInterval, box_rows
from repro.core.domain import Domain, TupleSpace
from repro.core.intervals import box_decomposition
from repro.exceptions import ParameterError


def space_of(*sizes):
    return TupleSpace([Domain(range(size)) for size in sizes])


def decompose(space, low, high):
    """``B([low, high])`` as the spec's boxes — after checking that the
    production decomposition is the very same boxes, as index rows."""
    boxes = FInterval(low, high).box_decomposition(space)
    tops = tuple(domain.top for domain in space.domains)
    assert tuple(box_decomposition(low, high, tops)) == box_rows(boxes)
    return boxes


class TestScalarInterval:
    def test_empty_and_unit(self):
        assert ScalarInterval(3, 2).is_empty()
        assert ScalarInterval(2, 2).is_unit()
        assert ScalarInterval(1, 3).width() == 3
        assert ScalarInterval(3, 2).width() == 0

    def test_contains(self):
        interval = ScalarInterval(1, 3)
        assert interval.contains(2)
        assert not interval.contains(0)


class TestFBox:
    def test_canonical_construction(self):
        s = space_of(3, 3, 3)
        box = FBox.canonical(s, (1,), ScalarInterval(0, 1))
        assert box.intervals == (
            ScalarInterval(1, 1),
            ScalarInterval(0, 1),
            ScalarInterval(0, 2),
        )
        assert box.is_canonical(s)
        assert box.unit_prefix_length(s) == 1

    def test_non_canonical_detected(self):
        s = space_of(3, 3)
        box = FBox((ScalarInterval(0, 1), ScalarInterval(0, 1)))
        assert not box.is_canonical(s)

    def test_size_and_iterate(self):
        s = space_of(3, 3)
        box = FBox.canonical(s, (), ScalarInterval(1, 2))
        assert box.size() == 6
        points = list(box.iterate())
        assert len(points) == 6
        assert points == sorted(points)

    def test_too_wide_rejected(self):
        s = space_of(2)
        with pytest.raises(ParameterError):
            FBox.canonical(s, (0, 1), ScalarInterval(0, 0))


class TestBoxDecomposition:
    def test_example12_shape(self):
        """Example 12 with domains 1..1000 (0-based indexes 0..999).

        I = (⟨10,50,100⟩, ⟨20,10,50⟩) open, i.e. closed
        [⟨10,50,101⟩, ⟨20,10,49⟩] in index space (values = indexes here).
        """
        s = space_of(1000, 1000, 1000)
        boxes = decompose(s, (10, 50, 101), (20, 10, 49))
        assert boxes == [
            FBox.canonical(s, (10, 50), ScalarInterval(101, 999)),
            FBox.canonical(s, (10,), ScalarInterval(51, 999)),
            FBox.canonical(s, (), ScalarInterval(11, 19)),
            FBox.canonical(s, (20,), ScalarInterval(0, 9)),
            FBox.canonical(s, (20, 10), ScalarInterval(0, 49)),
        ]

    def test_example12_single_box_case(self):
        """I' = [⟨10,50,100⟩, ⟨10,50,200⟩) has a one-box decomposition."""
        s = space_of(1000, 1000, 1000)
        boxes = decompose(s, (10, 50, 100), (10, 50, 199))
        assert boxes == [FBox.canonical(s, (10, 50), ScalarInterval(100, 199))]

    def test_example13_boxes(self):
        """Example 13's root decomposition over binary domains."""
        s = space_of(2, 2, 2)
        boxes = decompose(s, (0, 0, 0), (1, 1, 1))
        assert boxes == [
            FBox.canonical(s, (0, 0), ScalarInterval(0, 1)),  # Bl3
            FBox.canonical(s, (0,), ScalarInterval(1, 1)),    # Bl2
            FBox.canonical(s, (1,), ScalarInterval(0, 0)),    # Br2
            FBox.canonical(s, (1, 1), ScalarInterval(0, 1)),  # Br3
        ]

    def test_unit_interval(self):
        s = space_of(3, 3)
        boxes = decompose(s, (1, 2), (1, 2))
        assert len(boxes) == 1
        assert boxes[0].is_unit()

    def test_width_zero_space(self):
        s = space_of()
        boxes = decompose(s, (), ())
        assert len(boxes) == 1

    @st.composite
    def _interval(draw):
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        a = tuple(draw(st.integers(0, size - 1)) for size in sizes)
        b = tuple(draw(st.integers(0, size - 1)) for size in sizes)
        if a > b:
            a, b = b, a
        return sizes, a, b

    @given(_interval())
    @settings(max_examples=200, deadline=None)
    def test_lemma1_partition(self, data):
        """Lemma 1(2): the non-empty boxes partition the interval exactly."""
        sizes, a, b = data
        s = space_of(*sizes)
        boxes = decompose(s, a, b)
        covered = []
        for box in boxes:
            assert not box.is_empty()
            assert box.is_canonical(s)
            covered.extend(box.iterate())
        # Disjoint & complete: each interval point covered exactly once.
        assert len(covered) == len(set(covered))
        expected = set()
        point = a
        while point is not None and point <= b:
            expected.add(point)
            point = s.successor(point)
        assert set(covered) == expected

    @given(_interval())
    @settings(max_examples=200, deadline=None)
    def test_lemma1_ordering_and_count(self, data):
        """Lemma 1(1) and 1(3): boxes are lex-ordered; at most 2µ-1 of them."""
        sizes, a, b = data
        s = space_of(*sizes)
        boxes = decompose(s, a, b)
        assert len(boxes) <= 2 * len(sizes) - 1 or len(sizes) == 0
        flattened = []
        for box in boxes:
            flattened.extend(box.iterate())
        assert flattened == sorted(flattened)


class TestSplitAt:
    def test_split_middle(self):
        s = space_of(2, 2)
        interval = FInterval((0, 0), (1, 1))
        left, right = interval.split_at(s, (0, 1))
        assert left == FInterval((0, 0), (0, 0))
        assert right == FInterval((1, 0), (1, 1))

    def test_split_at_endpoints(self):
        s = space_of(2, 2)
        interval = FInterval((0, 0), (1, 1))
        left, right = interval.split_at(s, (0, 0))
        assert left is None
        assert right == FInterval((0, 1), (1, 1))
        left, right = interval.split_at(s, (1, 1))
        assert left == FInterval((0, 0), (1, 0))
        assert right is None

    def test_split_point_outside_rejected(self):
        s = space_of(2, 2)
        with pytest.raises(ParameterError):
            FInterval((0, 0), (0, 1)).split_at(s, (1, 1))

    def test_empty_interval_rejected(self):
        with pytest.raises(ParameterError):
            FInterval((1, 1), (0, 0))
