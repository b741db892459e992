"""The Cohen-Porat set intersection special case (Section 3.1)."""

import pytest

from repro.exceptions import ParameterError
from repro.joins.generic_join import JoinCounter
from repro.setintersection.cohen_porat import (
    SetIntersectionIndex,
    k_set_intersection_view,
)
from repro.workloads.generators import set_family


class TestView:
    def test_view_shape(self):
        view = k_set_intersection_view(3)
        assert view.pattern == "bbbf"
        assert len(view.atoms) == 3
        assert all(atom.relation == "R" for atom in view.atoms)

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            k_set_intersection_view(0)


class TestIntersection:
    @pytest.fixture
    def family(self):
        return {
            "a": [1, 2, 3, 4, 5],
            "b": [4, 5, 6, 7],
            "c": [5, 7, 9],
            "d": [],
        }

    def test_pairwise_intersections(self, family):
        index = SetIntersectionIndex(family, tau=2.0)
        for left in family:
            for right in family:
                expected = sorted(set(family[left]) & set(family[right]))
                assert index.intersection(left, right) == expected

    def test_sorted_output(self, family):
        index = SetIntersectionIndex(family, tau=2.0)
        result = index.intersection("a", "b")
        assert result == sorted(result)

    def test_disjointness(self, family):
        index = SetIntersectionIndex(family, tau=2.0)
        assert index.are_disjoint("a", "d")
        assert index.are_disjoint("c", "d")
        assert not index.are_disjoint("a", "b")

    def test_three_way(self, family):
        index = SetIntersectionIndex(family, tau=2.0, k=3)
        assert index.intersection("a", "b", "c") == [5]
        assert index.intersection("a", "b", "d") == []

    def test_wrong_arity_rejected(self, family):
        index = SetIntersectionIndex(family, tau=2.0, k=2)
        with pytest.raises(ParameterError):
            index.intersection("a", "b", "c")

    def test_self_intersection(self, family):
        index = SetIntersectionIndex(family, tau=2.0)
        assert index.intersection("a", "a") == sorted(family["a"])


class TestTradeoff:
    def test_random_families_all_pairs(self):
        family = set_family(8, universe=40, mean_size=12, seed=3, skew=0.8)
        for tau in (1.0, 4.0, 32.0):
            index = SetIntersectionIndex(family, tau=tau)
            for left in family:
                for right in family:
                    expected = sorted(
                        set(family[left]) & set(family[right])
                    )
                    assert index.intersection(left, right) == expected

    def test_space_decreases_with_tau(self):
        for family in (
            set_family(12, universe=60, mean_size=20, seed=4, skew=1.0),
            set_family(24, universe=300, mean_size=60, seed=13, skew=0.7),
        ):
            cells = [
                SetIntersectionIndex(family, tau=tau)
                .space_report()
                .structure_cells
                for tau in (1.0, 4.0, 16.0, 64.0)
            ]
            assert cells == sorted(cells, reverse=True)

    def test_delay_bounded_by_tau_scale(self):
        """Probes between outputs stay O(τ · polylog)."""
        family = set_family(10, universe=50, mean_size=18, seed=5, skew=1.0)
        index = SetIntersectionIndex(family, tau=4.0)
        depth = max(1, index.representation.tree.depth())
        ids = index.set_ids()
        for left in ids[:5]:
            for right in ids[:5]:
                counter = JoinCounter()
                last = 0
                worst_gap = 0
                for _ in index.intersect(left, right, counter=counter):
                    worst_gap = max(worst_gap, counter.steps - last)
                    last = counter.steps
                worst_gap = max(worst_gap, counter.steps - last)
                assert worst_gap <= 24 * 4.0 * depth
