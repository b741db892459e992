"""Regression tests for bugs found during development.

Each test pins a specific failure mode so it cannot silently return:

1. box decomposition dropped closed endpoints when only the last
   coordinate differs (the single-box case);
2. the generic join selected its candidate stream by *total* key count
   instead of *in-range* count, breaking the O(T) evaluation bound of
   Proposition 6 on range-restricted sub-instances;
3. counting |R_F ⋉ B| without a bound valuation walked the bound-first
   trie at the wrong levels (needs the multiplicity-preserving free
   columns);
4. an all-constant atom whose constant is absent — normalised to a
   nullary atom over an empty relation — was ignored, and every answer
   source but the oracle answered as if it held.
"""

import math

import pytest

from oracle import oracle_answer
from reference_index import TrieIndex, generic_join
from reference_walk import spec_enumerate
from repro.baselines.lazy import LazyView
from repro.baselines.materialized import MaterializedView
from repro.core.context import ViewContext
from repro.core.cost import CostModel
from repro.core.dynamic import DynamicRepresentation
from repro.core.intervals import FInterval
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine import ViewServer
from repro.joins.generic_join import JoinCounter
from repro.query.atoms import Variable
from repro.query.parser import parse_view
from repro.workloads.queries import running_example_database, running_example_view

x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestClosedEndpointBoxes:
    def test_last_coordinate_interval_keeps_endpoints(self):
        """Width-1 interval [6, 8] must decompose to the single closed box
        [6, 8], not the open (6, 8)."""
        from repro.core.intervals import box_decomposition

        assert box_decomposition((6,), (8,), (9,)) == [((6, 8),)]

    def test_triangle_small_tau_endpoints(self):
        """The original symptom: missing answers at tau=1 for accesses
        whose witness sat on an interval endpoint."""
        from repro.workloads.generators import triangle_database
        from repro.workloads.queries import triangle_view
        from oracle import oracle_accesses, oracle_answer

        view = triangle_view("bbf")
        db = triangle_database(20, 60, seed=3)
        cr = CompressedRepresentation(view, db, tau=1.0)
        for access in oracle_accesses(view, db, limit=12):
            assert cr.answer(access) == oracle_answer(view, db, access)


class TestInRangeCandidateSelection:
    def test_join_work_respects_empty_range(self):
        """One atom has 0 keys in the range, the other 500: the join must
        probe O(1), not 500 (the Proposition 6 bound through T)."""
        big = TrieIndex(
            Relation("A", 2, [(1, k) for k in range(500)]), [0, 1]
        ).root
        empty_in_range = TrieIndex(
            Relation("B", 2, [(1, k + 10_000) for k in range(500)]), [0, 1]
        ).root
        counter = JoinCounter()
        result = list(
            generic_join(
                [(big.children[1], (y,)), (empty_in_range.children[1], (y,))],
                (y,),
                ranges={y: (0, 499)},
                counter=counter,
            )
        )
        assert result == []
        assert counter.steps == 0

    def test_structure_delay_on_barren_stretch(self):
        """End-to-end: a sparse-overlap access must not pay per-candidate
        work inside zero-cost intervals."""
        rows = set()
        for k in range(300):
            rows.add((1, 2 * k))        # R1: even ys
            rows.add((2, 2 * k + 1))    # R2 side: odd ys
        view = parse_view("Q^bbf(a, b, y) = R(a, y), R(b, y)")
        db = Database([Relation("R", 2, rows)])
        cr = CompressedRepresentation(view, db, tau=4.0)
        counter = JoinCounter()
        assert list(cr.enumerate((1, 2), counter=counter)) == []
        # The heavy empty pair is answered from its 0-bit.
        assert counter.steps <= 10


class TestUnrestrictedCounting:
    def test_free_trie_counts_multiplicities(self):
        """|R1 ⋉ (x=1, y=1)| over all w1 must be 3 on the Example 13
        instance (three w1 values share that free part)."""
        ctx = ViewContext(running_example_view(), running_example_database())
        # R1 alone, exponent 1: T(B) is the count itself.
        model = CostModel(ctx, {0: 1.0}, alpha=1.0)
        assert model.box_cost(((0, 0), (0, 0), (0, 1))) == 3.0
        # It is read off R1's free-columns instance, whose (x, y) = (1, 1)
        # entry counts its rows; the bound-first columns count keys.
        free = ctx.count_columns()[0]
        assert free is not ctx.columns().atoms[0]
        assert free.counts[1][1] - free.counts[1][0] == 3

    def test_paper_t_value_depends_on_it(self):
        ctx = ViewContext(running_example_view(), running_example_database())
        model = CostModel(ctx, {0: 1.0, 1: 1.0, 2: 1.0}, alpha=2.0)
        root = FInterval.full(ctx.space)
        assert abs(
            model.interval_cost(root)
            - (math.sqrt(36) + math.sqrt(8) + math.sqrt(3))
        ) < 1e-9


class TestNullaryAtoms:
    @pytest.mark.parametrize("constant, held", [(3, False), (2, True)])
    def test_an_all_constant_atom_gates_every_answer_source(
        self, constant, held
    ):
        """``V^f(x) = R(x), S(c)``: ``S(c)`` becomes a nullary atom over
        ``{()}`` or over nothing, and then the answer is empty."""
        view = parse_view(f"V^f(x) = R(x), S({constant})")
        db = Database(
            [Relation("R", 1, [(1,), (2,)]), Relation("S", 1, [(2,), (4,)])]
        )
        expected = oracle_answer(view, db, ())
        assert expected == ([(1,), (2,)] if held else [])
        rep = CompressedRepresentation(view, db, tau=1.0)
        server = ViewServer(db)
        server.register(view, tau=1.0, name="V")
        assert rep.answer(()) == expected
        assert list(spec_enumerate(rep, ())) == expected
        assert server.open("V", ()).fetchall() == expected
        assert LazyView(view, db).answer(()) == expected
        assert MaterializedView(view, db).answer(()) == expected
        dynamic = DynamicRepresentation(
            view, db, tau=1.0, rebuild_fraction=math.inf
        )
        dynamic.insert("R", (5,))
        current = dynamic.current_database()
        assert dynamic.freeze().answer(()) == oracle_answer(view, current, ())
