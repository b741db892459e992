"""View-context internals and enumeration-order guarantees."""

import pytest

from oracle import oracle_accesses, oracle_answer
from reference_build import FBox, ScalarInterval, free_ranges_of_box
from repro.core.context import ViewContext
from repro.core.kernel import join_rows
from repro.core.decomposed import DecomposedRepresentation
from repro.core.projection import ProjectedRepresentation
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.exceptions import QueryError
from repro.query.atoms import Variable
from repro.query.parser import parse_view
from repro.workloads.generators import path_database, triangle_database
from repro.workloads.queries import (
    path_view,
    running_example_database,
    running_example_view,
    triangle_view,
)


class TestViewContext:
    @pytest.fixture
    def ctx(self):
        return ViewContext(running_example_view(), running_example_database())

    def test_orders_follow_head(self, ctx):
        assert [v.name for v in ctx.free_order] == ["x", "y", "z"]
        assert [v.name for v in ctx.bound_order] == ["w1", "w2", "w3"]

    def test_atom_variable_split(self, ctx):
        r1 = ctx.atoms[0]
        assert [v.name for v in r1.bound_vars] == ["w1"]
        assert [v.name for v in r1.free_vars] == ["x", "y"]
        assert r1.bound_access_positions == (0,)
        assert r1.free_coordinates == (0, 1)

    def test_subtrie_descends_bound_values(self, ctx):
        # The atom's one index: the slice under w1 = 1 counts its keys.
        r1 = ctx.columns().atoms[0]
        lo, hi = r1.root_range((1, 9, 9))  # only w1 = 1 matters for R1
        assert r1.counts[0][hi] - r1.counts[0][lo] == 3
        assert r1.root_range((7, 9, 9)) is None

    def test_contains_assembles_keys(self, ctx):
        # An atom's keys are its rows in column order, bound columns first.
        r1 = ctx.atoms[0]
        keys = {
            tuple(row[p] for p in r1.column_order) for row in r1.relation.rows
        }
        assert (1, 1, 1) in keys  # (w1, x, y)
        assert (1, 2, 2) not in keys

    def test_beta_matches_joins_all_atoms(self, ctx):
        # (w1,w2,w3) = (1,1,1) with (x,y,z) = (1,2,1): R1(1,1,2) ✓,
        # R2(1,2,1) ✓, R3(1,1,1) ✓ — a β check is the all-unit box.
        def joins(access, values):
            point = [
                domain.index_of(value)
                for domain, value in zip(ctx.space.domains, values)
            ]
            box = tuple((index, index) for index in point)
            return join_rows(ctx.columns(), access, [box]) == [values]

        assert joins((1, 1, 1), (1, 2, 1))
        assert not joins((1, 1, 1), (2, 2, 2))

    def test_free_ranges_skip_unrestricted(self, ctx):
        # The value ranges the spec's joins take for an index-space box.
        top = ctx.space.domains[2].top
        box = FBox(
            [ScalarInterval(0, 0), ScalarInterval(0, 0), ScalarInterval(0, top)]
        )
        ranges = free_ranges_of_box(ctx, box)
        names = {v.name for v in ranges}
        assert names == {"x", "y"}  # z spans its whole domain

    def test_rejects_non_full_views(self):
        view = parse_view("Q^bf(x, y) = R(x, y), S(y, z)")
        db = Database(
            [Relation("R", 2, [(1, 2)]), Relation("S", 2, [(2, 3)])]
        )
        with pytest.raises(QueryError):
            ViewContext(view, db)

    def test_rejects_arity_mismatch(self):
        view = parse_view("Q^bf(x, y) = R(x, y)")
        db = Database([Relation("R", 3, [(1, 2, 3)])])
        with pytest.raises(QueryError):
            ViewContext(view, db)


class TestEnumerationOrder:
    def test_decomposed_per_bag_lexicographic(self):
        """Theorem 2's order: lexicographic within each bag's free vars,
        nested by the pre-order — verified as 'grouped and sorted by the
        decomposition order' on the output."""
        view = path_view(3)
        db = path_database(3, 50, 9, seed=71)
        dr = DecomposedRepresentation(view, db)
        # Decomposition variable order: concatenate bag free vars in
        # pre-order; results must be sorted under that permutation.
        order = []
        for node in dr._preorder:
            order.extend(dr.bags[node].free_vars)
        positions = [dr.view.free_variables.index(v) for v in order]
        for access in oracle_accesses(view, db, limit=6):
            rows = list(dr.enumerate(access))
            permuted = [tuple(row[p] for p in positions) for row in rows]
            assert permuted == sorted(permuted)

    def test_projection_output_sorted(self):
        view = triangle_view("bff")
        db = triangle_database(14, 55, seed=72)
        pr = ProjectedRepresentation(
            view, db, tau=3.0, projected=[Variable("z")]
        )
        for access in oracle_accesses(view, db, limit=6):
            rows = pr.answer(access)
            assert rows == sorted(set(rows))

    def test_boolean_projection_example2(self):
        """Example 2's third adornment: ∆^b(x) = R(x,y), S(y,z), T(z,x) —
        'does some triangle contain x?' — via projecting y and z."""
        view = triangle_view("bff")
        db = triangle_database(14, 60, seed=73)
        pr = ProjectedRepresentation(
            view, db, tau=4.0, projected=[Variable("y"), Variable("z")]
        )
        for x in range(14):
            expected = bool(oracle_answer(view, db, (x,)))
            assert pr.exists((x,)) == expected
            assert pr.answer((x,)) == ([()] if expected else [])


class TestStructureRobustness:
    def test_heterogeneous_relation_sizes(self):
        view = parse_view("Q^bff(x, y, z) = R(x, y), S(y, z)")
        db = Database(
            [
                Relation("R", 2, [(1, k) for k in range(50)]),
                Relation("S", 2, [(0, 0), (1, 1)]),
            ]
        )
        for tau in (1.0, 8.0):
            cr = CompressedRepresentation(view, db, tau=tau)
            for access in [(1,), (0,), (9,)]:
                assert cr.answer(access) == oracle_answer(view, db, access)

    def test_single_atom_view(self):
        view = parse_view("Q^bf(x, y) = R(x, y)")
        db = Database([Relation("R", 2, [(1, 5), (1, 3), (2, 4)])])
        cr = CompressedRepresentation(view, db, tau=1.0)
        assert cr.answer((1,)) == [(3,), (5,)]
        assert cr.answer((2,)) == [(4,)]
        assert cr.answer((3,)) == []

    def test_wide_atom(self):
        view = parse_view(
            "Q^bbff(a, b, c, d) = R(a, b, c, d), S(c, d)"
        )
        db = Database(
            [
                Relation(
                    "R",
                    4,
                    [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 6, 7), (8, 9, 3, 4)],
                ),
                Relation("S", 2, [(3, 4), (6, 7)]),
            ]
        )
        cr = CompressedRepresentation(view, db, tau=2.0)
        assert cr.answer((1, 2)) == [(3, 4), (6, 7)]
        assert cr.answer((8, 9)) == [(3, 4)]

    def test_string_valued_domains(self):
        """Domains are any mutually comparable values, not just ints."""
        view = parse_view("Q^bf(x, y) = R(x, y), S(y)")
        db = Database(
            [
                Relation(
                    "R", 2, [("ann", "bob"), ("ann", "cat"), ("dan", "eve")]
                ),
                Relation("S", 1, [("bob",), ("eve",)]),
            ]
        )
        cr = CompressedRepresentation(view, db, tau=1.0)
        assert cr.answer(("ann",)) == [("bob",)]
        assert cr.answer(("dan",)) == [("eve",)]
        assert cr.answer(("zoe",)) == []

    def test_tau_float_and_int_equivalent(self):
        view = triangle_view("bbf")
        db = triangle_database(12, 45, seed=74)
        a = CompressedRepresentation(view, db, tau=4)
        b = CompressedRepresentation(view, db, tau=4.0)
        for access in oracle_accesses(view, db, limit=5):
            assert a.answer(access) == b.answer(access)
