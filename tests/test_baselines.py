"""The two extremal baselines and their position in the tradeoff."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracle import oracle_accesses, oracle_answer
from test_build_kernel import SHAPES, databases, empty_databases
from repro.baselines.lazy import LazyView
from repro.baselines.materialized import MaterializedView
from repro.core.constant_delay import ConnexConstantDelayStructure
from repro.core.structure import CompressedRepresentation
from repro.exceptions import QueryError
from repro.joins.generic_join import JoinCounter
from repro.joins.hash_join import evaluate_by_hash_join
from repro.workloads.generators import triangle_database
from repro.workloads.queries import triangle_view


@pytest.fixture
def setup():
    view = triangle_view("bbf")
    db = triangle_database(16, 70, seed=1)
    return view, db, oracle_accesses(view, db, limit=8)


class TestMaterialized:
    def test_matches_oracle(self, setup):
        view, db, accesses = setup
        mv = MaterializedView(view, db)
        for access in accesses:
            assert mv.answer(access) == oracle_answer(view, db, access)

    def test_lexicographic(self, setup):
        view, db, accesses = setup
        mv = MaterializedView(view, db)
        for access in accesses:
            answer = mv.answer(access)
            assert answer == sorted(answer)

    def test_output_size(self, setup):
        view, db, _ = setup
        from repro.joins.hash_join import evaluate_by_hash_join

        mv = MaterializedView(view, db)
        assert mv.output_size() == len(evaluate_by_hash_join(view.query, db))

    def test_space_accounts_output(self, setup):
        view, db, _ = setup
        mv = MaterializedView(view, db)
        assert mv.space_report().materialized_tuples == mv.output_size()

    def test_wrong_arity(self, setup):
        view, db, _ = setup
        with pytest.raises(QueryError):
            list(MaterializedView(view, db).enumerate((1,)))


class TestLazy:
    def test_matches_oracle(self, setup):
        view, db, accesses = setup
        lv = LazyView(view, db)
        for access in accesses:
            assert lv.answer(access) == oracle_answer(view, db, access)

    def test_space_is_linear(self, setup):
        view, db, _ = setup
        lv = LazyView(view, db)
        report = lv.space_report()
        assert report.materialized_tuples == 0
        assert report.tree_nodes == 0
        assert report.dictionary_entries == 0

    def test_exists(self, setup):
        view, db, accesses = setup
        lv = LazyView(view, db)
        for access in accesses:
            assert lv.exists(access) == bool(oracle_answer(view, db, access))


class TestContinuum:
    def test_compressed_sits_between_extremes(self, setup):
        """Figure 1's continuum: CR structure-space between lazy (0) and
        materialized (|Q(D)|-ish); probes between materialized and lazy."""
        view, db, accesses = setup
        lv, mv = LazyView(view, db), MaterializedView(view, db)
        cr = CompressedRepresentation(view, db, tau=4.0)
        lazy_cells = lv.space_report().structure_cells
        cr_cells = cr.space_report().structure_cells
        assert lazy_cells == 0
        assert cr_cells > 0

        def max_probe(structure):
            worst = 0
            for access in accesses:
                counter = JoinCounter()
                list(structure.enumerate(access, counter=counter))
                worst = max(worst, counter.steps)
            return worst

        assert max_probe(mv) <= max_probe(cr) <= max_probe(lv) * 2


@pytest.mark.parametrize("name", sorted(SHAPES))
@given(data=st.data())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_the_readers_on_the_kernels_join_equal_the_oracle(name, data):
    # Both ends of Section 2.3 and Proposition 4 read the context's
    # columns through the kernel's join: held to the hash-join oracle at
    # the kernel's edge cases — nullary atoms, constants present and
    # absent, empty relations, an empty join over a live tuple space.
    view = SHAPES[name]
    for db in (data.draw(databases(view)), *empty_databases(view)):
        lazy, materialized = LazyView(view, db), MaterializedView(view, db)
        connex = ConnexConstantDelayStructure(view, db)
        for access in oracle_accesses(view, db):
            expected = oracle_answer(view, db, access)
            assert lazy.answer(access) == expected, access
            assert materialized.answer(access) == expected, access
            assert sorted(connex.answer(access)) == expected, access
            assert connex.count(access) == len(expected), access
        assert materialized.output_size() == len(
            evaluate_by_hash_join(view.query, db)
        )
