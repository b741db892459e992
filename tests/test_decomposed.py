"""The Theorem 2 structure: per-bag compression over connex decompositions."""

import dataclasses
from pathlib import Path

import pytest

from oracle import oracle_accesses, oracle_answer
from repro.core.decomposed import DecomposedRepresentation
from repro.core.snapshot import encode_snapshot
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.exceptions import ParameterError, QueryError
from repro.hypergraph.hypergraph import hypergraph_of_view
from repro.hypergraph.width import DelayAssignment, connex_fhw
from repro.joins.generic_join import JoinCounter
from repro.query.parser import parse_view
from repro.workloads.generators import path_database, triangle_database
from repro.workloads.queries import (
    figure2_view,
    figure7_view,
    figure7_database,
    path_view,
    triangle_view,
)

RECORDED = Path(__file__).parent / "data" / "pr38_decomposed_v4"


def check_decomposed(view, db, assignments=(None,), limit=8):
    accesses = oracle_accesses(view, db, limit=limit)
    hg = hypergraph_of_view(view)
    _, decomposition = connex_fhw(hg, frozenset(view.bound_variables))
    for assignment in assignments:
        dr = DecomposedRepresentation(
            view, db, decomposition=decomposition, assignment=assignment
        )
        for access in accesses:
            got = sorted(dr.answer(access))
            assert got == oracle_answer(view, db, access), access


class TestCorrectness:
    def test_path3_zero_delay(self):
        check_decomposed(path_view(3), path_database(3, 60, 12, seed=1))

    def test_path4_with_delays(self):
        view = path_view(4)
        db = path_database(4, 55, 10, seed=2)
        hg = hypergraph_of_view(view)
        _, decomposition = connex_fhw(hg, frozenset(view.bound_variables))
        assignments = [
            None,
            DelayAssignment.uniform(decomposition, 0.2),
            DelayAssignment.uniform(decomposition, 0.5),
        ]
        check_decomposed(view, db, assignments)

    def test_triangle_bbf(self):
        check_decomposed(
            triangle_view("bbf"), triangle_database(15, 60, seed=3)
        )

    def test_figure2_query(self):
        view = figure2_view()
        db = path_database(6, 45, 8, seed=4)
        # figure2 uses relations R1..R6 like the path database provides.
        check_decomposed(view, db, limit=5)

    def test_figure7_query(self):
        check_decomposed(figure7_view(), figure7_database(14, 56, seed=5), limit=5)

    def test_example10_path_decomposition(self):
        """Example 10: P^bf..fb — Theorem 2 with paired bags."""
        view = path_view(5)
        db = path_database(5, 45, 8, seed=6)
        check_decomposed(view, db, limit=5)


class TestStructure:
    def _build(self, delay=0.0):
        view = path_view(4)
        db = path_database(4, 50, 10, seed=7)
        hg = hypergraph_of_view(view)
        _, decomposition = connex_fhw(hg, frozenset(view.bound_variables))
        assignment = (
            DelayAssignment.uniform(decomposition, delay) if delay else None
        )
        return DecomposedRepresentation(
            view, db, decomposition=decomposition, assignment=assignment
        )

    def test_bags_cover_free_variables(self):
        dr = self._build()
        free = set()
        for bag in dr.bags.values():
            free |= set(bag.free_vars)
        assert free == set(dr.view.free_variables)

    def test_delta_height_zero_for_zero_assignment(self):
        assert self._build().delta_height == 0.0

    def test_delta_height_grows_with_delay(self):
        assert self._build(0.3).delta_height > 0.0

    def test_space_shrinks_with_delay(self):
        """Larger per-bag τ ⇒ smaller bag structures (the tradeoff)."""
        small = self._build(0.0).space_report().structure_cells
        large = self._build(0.9).space_report().structure_cells
        assert large <= small

    def test_refinement_zeroes_unsupported_entries(self):
        """After Algorithm 4, every 1-entry extends into the subtree."""
        view = path_view(3)
        db = path_database(3, 40, 8, seed=8)
        dr = DecomposedRepresentation(view, db)
        decomposition = dr.decomposition
        for parent in decomposition.postorder():
            if parent == decomposition.root:
                continue
            children = decomposition.children[parent]
            if not children:
                continue
            bag = dr.bags[parent]
            rep = bag.representation
            for (node_id, access), bit in rep.dictionary.items():
                if bit != 1:
                    continue
                node = rep.tree.nodes[node_id]
                supported = False
                for values in rep.enumerate_interval(access, node.interval):
                    valuation = dict(zip(bag.bound_vars, access))
                    valuation.update(zip(bag.free_vars, values))
                    if all(
                        dr._child_extends(child, valuation)
                        for child in children
                    ):
                        supported = True
                        break
                assert supported, (parent, node_id, access)

    def test_a_fresh_build_encodes_to_the_recorded_bytes(self):
        # Algorithm 4's flips as the in-place refinement wrote them
        # (tests/data/pr38_decomposed_v4/README.md): bag t_x3 takes flips.
        dr = DecomposedRepresentation(
            path_view(4), path_database(4, size=300, domain=40, seed=11)
        )
        dr.build_seconds = 0.0
        for bag in dr.bags.values():
            bag.representation.stats = dataclasses.replace(
                bag.representation.stats, build_seconds=0.0
            )
        recorded = RECORDED / "decomposed_path4.snap"
        assert encode_snapshot(dr) == recorded.read_bytes()

    def test_counter_threads_through_bags(self):
        dr = self._build()
        counter = JoinCounter()
        accesses = oracle_accesses(
            dr.view, dr.db, limit=1
        )
        list(dr.enumerate(accesses[0], counter=counter))
        assert counter.steps > 0


class TestValidation:
    def test_wrong_connex_set_rejected(self):
        view = path_view(3)
        db = path_database(3, 30, 8, seed=9)
        other = path_view(3, pattern="bffb")  # different bound set? same...
        hg = hypergraph_of_view(view)
        # Build a decomposition for a DIFFERENT connex set.
        from repro.query.atoms import Variable

        wrong_connex = frozenset({Variable("x1"), Variable("x2")})
        _, decomposition = connex_fhw(hg, wrong_connex)
        from repro.exceptions import DecompositionError

        with pytest.raises(DecompositionError):
            DecomposedRepresentation(view, db, decomposition=decomposition)

    def test_nonzero_root_delay_rejected(self):
        view = path_view(3)
        db = path_database(3, 30, 8, seed=10)
        hg = hypergraph_of_view(view)
        _, decomposition = connex_fhw(hg, frozenset(view.bound_variables))
        bad = DelayAssignment({decomposition.root: 0.5})
        with pytest.raises(ParameterError):
            DecomposedRepresentation(
                view, db, decomposition=decomposition, assignment=bad
            )

    def test_wrong_access_arity(self):
        view = path_view(3)
        db = path_database(3, 30, 8, seed=11)
        dr = DecomposedRepresentation(view, db)
        with pytest.raises(QueryError):
            list(dr.enumerate((1,)))

    def test_root_membership_check(self):
        """An edge inside V_b filters accesses at the root (Section 5.1)."""
        view = parse_view(
            "Q^bbf(x, y, z) = R(x, y), S(y, z)"
        )
        db = Database(
            [
                Relation("R", 2, [(1, 2), (3, 4)]),
                Relation("S", 2, [(2, 5), (4, 6)]),
            ]
        )
        dr = DecomposedRepresentation(view, db)
        assert sorted(dr.answer((1, 2))) == [(5,)]
        assert dr.answer((1, 4)) == []  # (1,4) not in R
