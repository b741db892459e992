"""The cost function T (Section 4.2): Example 13's exact numbers,
Proposition 5, and structural properties (Lemma 2 sub-additivity).

``T(B)`` and ``T(I)`` are :class:`~repro.core.cost.CostModel`'s; a
restricted ``T(v_b, I)`` is the spec's (``SpecCostModel``) and, for a
stored pair, the cost the dictionary pass wrote beside it."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from reference_build import SpecCostModel
from repro.core.context import ViewContext
from repro.core.cost import CostModel
from repro.core.intervals import FInterval
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.joins.hash_join import evaluate_by_hash_join
from repro.query.parser import parse_view
from repro.workloads.queries import running_example_database, running_example_view

UNIT_WEIGHTS = {0: 1.0, 1: 1.0, 2: 1.0}


@pytest.fixture
def model():
    ctx = ViewContext(running_example_view(), running_example_database())
    return CostModel(ctx, UNIT_WEIGHTS, alpha=2.0)


@pytest.fixture
def spec(model):
    return SpecCostModel(model.ctx, UNIT_WEIGHTS, alpha=2.0)


def stored_cost(rep, node_id, access):
    """The cost the build's dictionary pass wrote beside a stored pair."""
    columns = rep._layout.dictionary
    lo, hi = columns.index[access]
    return columns.costs[lo + columns.nodes[lo:hi].index(node_id)]


class TestExample13:
    def test_root_interval_cost(self, model):
        """T(I_r) = √36 + √8 + √3 + 0 ≈ 10.56."""
        root = FInterval.full(model.ctx.space)
        expected = math.sqrt(36) + math.sqrt(8) + math.sqrt(3)
        assert model.interval_cost(root) == pytest.approx(expected, abs=1e-9)

    def test_heavy_valuation_cost(self, spec):
        """T(v_b, I_r) = √2 + 2 + 1 ≈ 4.414 for v_b = (1,1,1)."""
        root = FInterval.full(spec.ctx.space)
        expected = math.sqrt(2) + 2.0 + 1.0
        cost = spec.access_cost(root, (1, 1, 1))
        assert cost == pytest.approx(expected, abs=1e-9)
        # The build stores the pair (Example 15) with that very cost.
        rep = CompressedRepresentation(
            running_example_view(), running_example_database(), tau=4.0,
            weights=UNIT_WEIGHTS,
        )
        assert stored_cost(rep, rep.tree.root.id, (1, 1, 1)) == cost

    def test_tau4_heaviness(self, spec):
        """Example 13: with τ = 4 the pair (v_b, I_r) is heavy."""
        root = FInterval.full(spec.ctx.space)
        assert spec.is_heavy(root, (1, 1, 1), 4.0)
        assert not spec.is_heavy(root, (1, 1, 1), 5.0)

    def test_per_box_costs(self, model):
        """The four box costs of Example 13: √36, √8, √3, 0."""
        space = model.ctx.space
        root = FInterval.full(space)
        costs = [model.box_cost(box) for box in model.boxes(root)]
        assert costs == pytest.approx(
            [6.0, math.sqrt(8), math.sqrt(3), 0.0], abs=1e-9
        )

    def test_example14_left_unit_cost(self, model):
        """T([⟨1,1,1⟩,⟨1,1,1⟩]) = √(3·1·2) ≈ 2.449."""
        unit = FInterval((0, 0, 0), (0, 0, 0))
        assert model.interval_cost(unit) == pytest.approx(
            math.sqrt(6), abs=1e-9
        )

    def test_example14_extended_left_cost(self, model):
        """T([⟨1,1,1⟩,⟨1,1,2⟩]) = √36 = 6."""
        interval = FInterval((0, 0, 0), (0, 0, 1))
        assert model.interval_cost(interval) == pytest.approx(6.0, abs=1e-9)


class TestCostProperties:
    def test_empty_box_costs_zero(self, model):
        box = ((0, 0), (1, 0), (0, model.tops[2]))
        assert model.box_cost(box) == 0.0

    def test_zero_weight_contributes_factor_one(self):
        ctx = ViewContext(running_example_view(), running_example_database())
        m = CostModel(ctx, {0: 1.0, 1: 1.0, 2: 0.0}, alpha=1.0)
        root = FInterval.full(ctx.space)
        # Only R1, R2 contribute; counts match |R1 ⋉ B|·|R2 ⋉ B|.
        assert m.interval_cost(root) > 0

    def test_alpha_must_be_at_least_one(self):
        ctx = ViewContext(running_example_view(), running_example_database())
        from repro.exceptions import ParameterError

        with pytest.raises(ParameterError):
            CostModel(ctx, UNIT_WEIGHTS, alpha=0.5)

    def test_infinite_alpha_means_exponents_zero(self):
        ctx = ViewContext(running_example_view(), running_example_database())
        m = CostModel(ctx, UNIT_WEIGHTS, alpha=math.inf)
        root = FInterval.full(ctx.space)
        # All exponents are 0: every non-empty box costs exactly 1.
        boxes = [b for b in m.boxes(root)]
        assert m.interval_cost(root) == pytest.approx(len(boxes))

    def test_access_cost_at_most_unrestricted(self, model, spec):
        """T(v_b, I) ≤ T(I): restriction never increases counts."""
        root = FInterval.full(model.ctx.space)
        unrestricted = model.interval_cost(root)
        for vb in [(1, 1, 1), (1, 2, 1), (2, 2, 2), (3, 1, 2)]:
            assert spec.access_cost(root, vb) <= unrestricted + 1e-9

    def test_subinterval_cost_not_larger(self, model):
        """Lemma 2 consequence: T on a sub-interval never exceeds T(I)."""
        space = model.ctx.space
        root = FInterval.full(space)
        total = model.interval_cost(root)
        sub = FInterval((0, 0, 0), (1, 0, 1))
        assert model.interval_cost(sub) <= total + 1e-9


class TestProposition5:
    """(⋈ R_F) ⋉ B = ⋈ (R_F ⋉ B) — joins commute with f-box restriction."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            min_size=1,
            max_size=15,
        ),
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            min_size=1,
            max_size=15,
        ),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_box_restriction_commutes_with_join(self, r1, r2, lo, hi):
        view = parse_view("Q^ff(x, y) = R(x, y), S(x, y)")
        db = Database([Relation("R", 2, r1), Relation("S", 2, r2)])
        full = evaluate_by_hash_join(view.query, db)
        # Box: x in [lo, hi] (value space), y unrestricted.
        lo_v, hi_v = min(lo, hi), max(lo, hi)
        restricted_join = {
            t for t in full if lo_v <= t[0] <= hi_v
        }
        restrict = lambda rel: Relation(
            rel.name, 2, [t for t in rel if lo_v <= t[0] <= hi_v]
        )
        db2 = Database([restrict(db["R"]), restrict(db["S"])])
        join_restricted = evaluate_by_hash_join(view.query, db2)
        assert restricted_join == join_restricted
