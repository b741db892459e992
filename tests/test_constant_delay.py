"""Propositions 1 and 4: the constant-delay structures."""

import functools
import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracle import oracle_accesses, oracle_answer
from reference_index import reference_bags
from test_build_kernel import SHAPES, databases, empty_databases
from repro.core.constant_delay import (
    ConnexConstantDelayStructure,
    FullyBoundStructure,
)
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.exceptions import QueryError
from repro.factorized.circuit import FactorizedCircuit
from repro.factorized.drep import FactorizedRepresentation
from repro.joins.generic_join import JoinCounter
from repro.joins.hash_join import evaluate_by_hash_join
from repro.query.parser import parse_view
from repro.workloads.generators import path_database, triangle_database
from repro.workloads.queries import (
    figure7_database,
    figure7_view,
    path_view,
    triangle_view,
)


class TestProposition1:
    def test_matches_oracle(self):
        view = triangle_view("bbb")
        db = triangle_database(12, 50, seed=1)
        structure = FullyBoundStructure(view, db)
        full = evaluate_by_hash_join(view.query, db)
        for access in itertools.product(range(12), repeat=3):
            assert structure.exists(access) == (access in full)

    def test_enumerate_protocol(self):
        view = triangle_view("bbb")
        db = triangle_database(12, 50, seed=2)
        structure = FullyBoundStructure(view, db)
        full = sorted(evaluate_by_hash_join(view.query, db))
        hit, miss = full[0], (-1, -1, -1)
        assert list(structure.enumerate(hit)) == [()]
        assert list(structure.enumerate(miss)) == []

    def test_space_is_linear(self):
        view = triangle_view("bbb")
        db = triangle_database(12, 50, seed=3)
        structure = FullyBoundStructure(view, db)
        assert structure.space_report().total_cells == db.total_tuples()

    def test_requires_boolean_view(self):
        with pytest.raises(QueryError):
            FullyBoundStructure(
                triangle_view("bbf"), triangle_database(10, 30, seed=4)
            )

    def test_handles_constants_via_normalization(self):
        view = parse_view("Q^bb(x, y) = R(x, y, 3)")
        db = Database([Relation("R", 3, [(1, 2, 3), (4, 5, 6)])])
        structure = FullyBoundStructure(view, db)
        assert structure.exists((1, 2))
        assert not structure.exists((4, 5))

    def test_wrong_arity_rejected(self):
        view = triangle_view("bbb")
        db = triangle_database(10, 30, seed=5)
        structure = FullyBoundStructure(view, db)
        with pytest.raises(QueryError):
            structure.exists((1,))


class TestProposition4:
    def check(self, view, db, limit=8):
        structure = ConnexConstantDelayStructure(view, db)
        for access in oracle_accesses(view, db, limit=limit):
            assert sorted(structure.answer(access)) == oracle_answer(
                view, db, access
            )
        return structure

    def test_path_query(self):
        self.check(path_view(3), path_database(3, 55, 10, seed=6))

    def test_interior_bound_path(self):
        self.check(
            path_view(4, pattern="fbfbf"), path_database(4, 45, 9, seed=7)
        )

    def test_triangle(self):
        self.check(triangle_view("bbf"), triangle_database(14, 55, seed=8))

    def test_figure7_width_realized(self):
        structure = self.check(
            figure7_view(), figure7_database(12, 50, seed=9), limit=5
        )
        assert structure.width == pytest.approx(1.5, abs=1e-6)

    def test_no_dead_ends_after_reduction(self):
        """Semijoin reduction: every indexed bag tuple extends to an
        answer — the crux of the constant-delay guarantee."""
        view = path_view(3)
        db = path_database(3, 45, 8, seed=10)
        structure = ConnexConstantDelayStructure(view, db)
        decomposition = structure.decomposition
        order = [
            n for n in decomposition.preorder() if n != decomposition.root
        ]
        full = evaluate_by_hash_join(view.query, db)
        head_index = {v: i for i, v in enumerate(view.head)}
        # Project the full result onto each bag: every stored row must
        # appear in the projection (no dangling tuples survive).
        for node in order:
            bag = structure._bags[node]
            bag_vars = bag.bound_vars + bag.free_vars
            projection = {
                tuple(row[head_index[v]] for v in bag_vars) for row in full
            }
            for row in bag.rows:
                assert row in projection

    def test_constant_delay_steps(self):
        """Probes per output stay bounded regardless of database size."""
        worst = []
        for size in (30, 60, 120):
            view = path_view(3)
            db = path_database(3, size, 16, seed=11)
            structure = ConnexConstantDelayStructure(view, db)
            bound_per_output = 0
            for access in oracle_accesses(view, db, limit=5):
                counter = JoinCounter()
                outputs = sum(
                    1 for _ in structure.enumerate(access, counter=counter)
                )
                if outputs:
                    bound_per_output = max(
                        bound_per_output, counter.steps / outputs
                    )
            worst.append(bound_per_output)
        # Constant-ish: the per-output probe count must not scale with |D|.
        assert max(worst) <= 12

    def test_empty_database(self):
        view = path_view(3)
        db = Database([Relation(f"R{i}", 2) for i in (1, 2, 3)])
        structure = ConnexConstantDelayStructure(view, db)
        assert structure.answer((1, 2)) == []


def measured_answers(structure, accesses):
    """Per access: the rows in enumeration order, the steps, the count."""
    result = []
    for access in accesses:
        counter = JoinCounter()
        rows = list(structure.enumerate(access, counter=counter))
        result.append((rows, counter.steps, structure.count(access)))
    return result


def factorized_facts(query, db, decomposition):
    """What the factorised baselines say: order, count, space, size."""
    factorized = FactorizedRepresentation(query, db, decomposition)
    return (
        factorized.answer(),
        factorized.count(),
        factorized.space_report(),
        FactorizedCircuit(query, db, decomposition).size(),
    )


@functools.lru_cache(maxsize=None)
def decompositions(name):
    """The default decompositions of a shape and of its all-free query.

    Data-free (the search reads the hypergraph and the bound set only),
    so one per shape: the LP per candidate bag is what a build costs
    here, not the bags.
    """
    view = SHAPES[name]
    db = empty_databases(view)[0]
    return (
        ConnexConstantDelayStructure(view, db).decomposition,
        FactorizedRepresentation(view.query, db)._inner.decomposition,
    )


@pytest.mark.parametrize("name", sorted(SHAPES))
@given(data=st.data())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_bags_on_the_kernels_join_equal_the_value_space_spec(name, data):
    # Proposition 4's bags as the induced views' materialised outputs,
    # against the tries and generic join they were built with: the same
    # rows and buckets after the semijoin pass (an emptied bucket gone),
    # the same count index and space, every answer in the same order at
    # the same steps, and the same factorised representation and circuit.
    view = SHAPES[name]
    decomposition, free_decomposition = decompositions(name)
    for db in (data.draw(databases(view)), *empty_databases(view)):
        built = ConnexConstantDelayStructure(view, db, decomposition)
        with reference_bags():
            spec = ConnexConstantDelayStructure(view, db, decomposition)
        for node, bag in spec._bags.items():
            assert built._bags[node].rows == bag.rows, node
            assert built._bags[node].index == bag.index, node
        assert built._count_index == spec._count_index
        assert built.space_report() == spec.space_report()
        accesses = oracle_accesses(view, db)
        assert measured_answers(built, accesses) == measured_answers(
            spec, accesses
        )
        facts = factorized_facts(view.query, db, free_decomposition)
        with reference_bags():
            assert factorized_facts(view.query, db, free_decomposition) == facts
