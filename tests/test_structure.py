"""The Theorem 1 structure: correctness against the hash-join oracle.

Every test compares :class:`CompressedRepresentation` answers with an
independently computed oracle, across the paper's query families, several
τ settings (from constant-delay to lazy-like), and adversarial inputs.
"""

import itertools

import pytest

from oracle import oracle_accesses, oracle_answer
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.exceptions import ParameterError, QueryError
from repro.joins.generic_join import JoinCounter
from repro.query.parser import parse_view
from repro.workloads.generators import (
    loomis_whitney_database,
    path_database,
    star_database,
    triangle_database,
    zipf_relation,
)
from repro.workloads.queries import (
    loomis_whitney_view,
    mutual_friend_view,
    path_view,
    running_example_database,
    running_example_view,
    star_view,
    triangle_view,
)

TAUS = (1.0, 3.0, 10.0, 1000.0)


def check_view(view, db, taus=TAUS, weights=None, limit=10):
    accesses = oracle_accesses(view, db, limit=limit)
    for tau in taus:
        cr = CompressedRepresentation(view, db, tau=tau, weights=weights)
        for access in accesses:
            assert cr.answer(access) == oracle_answer(view, db, access), (
                tau,
                access,
            )


class TestTriangle:
    def test_bbf(self):
        check_view(triangle_view("bbf"), triangle_database(18, 70, seed=1))

    def test_bfb(self):
        check_view(triangle_view("bfb"), triangle_database(18, 70, seed=2))

    def test_fbb(self):
        check_view(triangle_view("fbb"), triangle_database(18, 70, seed=3))

    def test_bff(self):
        check_view(triangle_view("bff"), triangle_database(15, 55, seed=4))

    def test_fff_full_enumeration(self):
        view = triangle_view("fff")
        db = triangle_database(12, 45, seed=5)
        for tau in (1.0, 8.0):
            cr = CompressedRepresentation(view, db, tau=tau)
            assert cr.answer(()) == oracle_answer(view, db, ())

    def test_mutual_friend_self_join(self):
        """Example 1: the same relation used three times."""
        view = mutual_friend_view()
        db = triangle_database(16, 50, seed=6, shared=True)
        check_view(view, db)


class TestPaperExamples:
    def test_running_example_all_accesses(self):
        view = running_example_view()
        db = running_example_database()
        accesses = list(itertools.product((1, 2, 3), (1, 2), (1, 2, 3)))
        for tau in (1.0, 4.0, 16.0):
            cr = CompressedRepresentation(
                view, db, tau=tau, weights={0: 1.0, 1: 1.0, 2: 1.0}
            )
            for access in accesses:
                assert cr.answer(access) == oracle_answer(view, db, access)

    def test_star_join(self):
        check_view(star_view(3), star_database(3, 70, 10, seed=7))

    def test_star_join_zipf(self):
        db = Database(
            [
                zipf_relation(f"R{i}", 2, 90, 12, skew=1.2, seed=8 + i)
                for i in range(1, 4)
            ]
        )
        check_view(star_view(3), db)

    def test_loomis_whitney(self):
        check_view(
            loomis_whitney_view(3), loomis_whitney_database(3, 60, 9, seed=9)
        )

    def test_path_endpoints_bound(self):
        check_view(path_view(3), path_database(3, 55, 10, seed=10))

    def test_path_interior_bound(self):
        check_view(
            path_view(3, pattern="fbbf"), path_database(3, 55, 10, seed=11)
        )


class TestEnumerationOrder:
    def test_lexicographic_by_head_order(self):
        view = triangle_view("bff")
        db = triangle_database(15, 60, seed=12)
        cr = CompressedRepresentation(view, db, tau=4.0)
        for access in oracle_accesses(view, db, limit=8):
            answer = cr.answer(access)
            assert answer == sorted(answer)

    def test_order_respects_custom_head_order(self):
        """Free order = head order, not body order."""
        view = parse_view("Q^bff(y, z, x) = R(x, y), S(y, z), T(z, x)")
        db = triangle_database(15, 60, seed=13)
        cr = CompressedRepresentation(view, db, tau=4.0)
        for access in oracle_accesses(view, db, limit=6):
            answer = cr.answer(access)
            assert answer == sorted(answer)
            assert answer == oracle_answer(view, db, access)

    def test_no_duplicates(self):
        view = triangle_view("bff")
        db = triangle_database(15, 70, seed=14)
        cr = CompressedRepresentation(view, db, tau=2.0)
        for access in oracle_accesses(view, db, limit=8):
            answer = cr.answer(access)
            assert len(answer) == len(set(answer))


class TestNormalizationIntegration:
    def test_view_with_constant(self):
        view = parse_view("Q^bf(x, z) = R(x, y, 7), S(y, z)")
        r = Relation("R", 3, [(1, 2, 7), (2, 3, 7), (1, 4, 5), (3, 2, 7)])
        s = Relation("S", 2, [(2, 5), (2, 6), (3, 7), (4, 8)])
        db = Database([r, s])
        # Wait: the view must be full; y appears in body but not head.
        # Use the full variant instead.
        view = parse_view("Q^bff(x, y, z) = R(x, y, 7), S(y, z)")
        cr = CompressedRepresentation(view, db, tau=2.0)
        for access in [(1,), (2,), (3,), (9,)]:
            assert cr.answer(access) == oracle_answer(view, db, access)

    def test_view_with_repeated_variable(self):
        view = parse_view("Q^bf(y, z) = S(y, y, z)")
        s = Relation("S", 3, [(2, 2, 9), (2, 3, 9), (3, 3, 8), (2, 2, 5)])
        db = Database([s])
        cr = CompressedRepresentation(view, db, tau=2.0)
        assert cr.answer((2,)) == [(5,), (9,)]
        assert cr.answer((3,)) == [(8,)]
        assert cr.answer((4,)) == []


class TestBoundaryCases:
    def test_boolean_adorned_view(self):
        """All head variables bound: yields () exactly when satisfied."""
        view = triangle_view("bbb")
        db = triangle_database(12, 50, seed=15)
        cr = CompressedRepresentation(view, db, tau=2.0)
        for access in oracle_accesses(view, db, limit=8):
            expected = oracle_answer(view, db, access)
            assert cr.answer(access) == expected

    def test_empty_database(self):
        view = triangle_view("bbf")
        db = Database(
            [Relation("R", 2), Relation("S", 2), Relation("T", 2)]
        )
        cr = CompressedRepresentation(view, db, tau=2.0)
        assert cr.answer((1, 2)) == []

    def test_one_empty_relation(self):
        view = triangle_view("bbf")
        db = triangle_database(12, 40, seed=16).replace(Relation("T", 2))
        cr = CompressedRepresentation(view, db, tau=2.0)
        for access in [(0, 1), (3, 4)]:
            assert cr.answer(access) == []

    def test_access_value_outside_domain(self):
        view = triangle_view("bbf")
        db = triangle_database(12, 40, seed=17)
        cr = CompressedRepresentation(view, db, tau=2.0)
        assert cr.answer(("zz", -5)) == []

    def test_wrong_access_arity_rejected(self):
        view = triangle_view("bbf")
        db = triangle_database(12, 40, seed=18)
        cr = CompressedRepresentation(view, db, tau=2.0)
        with pytest.raises(QueryError):
            list(cr.enumerate((1,)))

    def test_invalid_tau_rejected(self):
        view = triangle_view("bbf")
        db = triangle_database(12, 40, seed=19)
        with pytest.raises(ParameterError):
            CompressedRepresentation(view, db, tau=-1.0)

    def test_non_cover_weights_rejected(self):
        view = triangle_view("bbf")
        db = triangle_database(12, 40, seed=20)
        with pytest.raises(ParameterError):
            CompressedRepresentation(view, db, tau=2.0, weights={0: 0.2})

    def test_projection_view_rejected(self):
        view = parse_view("Q^bf(x, y) = R(x, y), S(y, z)")
        db = Database([Relation("R", 2, [(1, 2)]), Relation("S", 2, [(2, 3)])])
        with pytest.raises(QueryError):
            CompressedRepresentation(view, db, tau=2.0)


class TestConvenienceAPI:
    def test_exists_count(self):
        view = triangle_view("bbf")
        db = triangle_database(15, 60, seed=21)
        cr = CompressedRepresentation(view, db, tau=4.0)
        for access in oracle_accesses(view, db, limit=6):
            expected = oracle_answer(view, db, access)
            assert cr.exists(access) == bool(expected)
            assert cr.count(access) == len(expected)

    def test_enumerate_interval_matches_filtered_answer(self):
        from repro.core.intervals import FInterval

        view = triangle_view("bbf")
        db = triangle_database(15, 60, seed=22)
        cr = CompressedRepresentation(view, db, tau=4.0)
        space = cr.ctx.space
        interval = FInterval(space.bottom(), space.top())
        for access in oracle_accesses(view, db, limit=4):
            got = list(cr.enumerate_interval(access, interval))
            assert got == oracle_answer(view, db, access)

    def test_stats_populated(self):
        view = triangle_view("bbf")
        db = triangle_database(15, 60, seed=23)
        cr = CompressedRepresentation(view, db, tau=4.0)
        assert cr.stats.tau == 4.0
        assert cr.stats.tree_nodes == len(cr.tree.nodes)
        assert cr.stats.dictionary_entries == len(cr.dictionary)
        assert cr.stats.build_seconds >= 0

    def test_space_report_components(self):
        view = triangle_view("bbf")
        db = triangle_database(15, 60, seed=24)
        cr = CompressedRepresentation(view, db, tau=4.0)
        report = cr.space_report()
        assert report.base_tuples == db.total_tuples()
        assert report.tree_nodes == len(cr.tree.nodes)
        assert report.dictionary_entries == len(cr.dictionary)
        assert report.total_cells > report.structure_cells

    def test_counter_accumulates(self):
        view = triangle_view("bbf")
        db = triangle_database(15, 60, seed=25)
        cr = CompressedRepresentation(view, db, tau=4.0)
        counter = JoinCounter()
        access = oracle_accesses(view, db, limit=1)[0]
        list(cr.enumerate(access, counter=counter))
        assert counter.steps > 0


def test_the_benchmark_harness_reads_what_a_structure_exposes():
    # benchmarks/e2e/e2e_probes.py (structure_probe, enumeration_probe)
    # reads exactly this surface of a built structure; tier-1 does not
    # collect benchmarks/, so the surface is held here.
    from itertools import islice

    from repro.core.kernel import kernel_enumerate
    from repro.core.decomposed import DecomposedRepresentation

    view = triangle_view("bbf")
    db = triangle_database(20, 120, seed=4)
    refined = DecomposedRepresentation(path_view(4), path_database(4, 40, 10, seed=10))
    structures = [CompressedRepresentation(view, db, tau=1.0)] + [
        bag.representation for bag in refined.bags.values()
    ]
    assert not all(rep.cuttable for rep in structures)  # a refined bag
    lights = 0
    for rep in structures:
        layout = rep.compile_layout()
        assert layout is rep.compile_layout()
        for access in oracle_accesses(rep.view, rep.db, limit=4):
            assert list(kernel_enumerate(layout, access)) == list(rep.enumerate(access))
        dictionary = rep.dictionary
        entries = dictionary.items()
        assert isinstance(entries, list)
        assert len(dictionary) == len(entries) == rep.stats.dictionary_entries
        for (node_id, access), bit in islice(entries, 4000):
            assert dictionary.get(node_id, access) == bit
        stored = {key for key, _ in entries}
        light = [
            (node_id, access)
            for node_id in range(rep.stats.tree_nodes)
            for access in {access for _, access in stored}
            if (node_id, access) not in stored
        ]
        assert all(dictionary.get(*pair) is None for pair in light)
        assert dictionary.get(0, ("absent",) * len(rep.bound_variables)) is None
        lights += len(light)
        assert rep.tree.depth() == rep.stats.tree_depth
        assert isinstance(rep.layout_compile_seconds, float)
    assert lights
