"""The heavy-pair dictionary: Example 15 and Proposition 7's size bound."""


import pytest

import numpy as np

from reference_build import SpecCostModel, output_nonempty_in
from repro.core.context import ViewContext
from repro.core.dictionary import Output, bound_candidates, nonempty_bits
from repro.core.intervals import FInterval
from repro.core.structure import CompressedRepresentation
from repro.joins.hash_join import evaluate_by_hash_join
from repro.workloads.generators import triangle_database
from repro.workloads.queries import (
    running_example_database,
    running_example_view,
    triangle_view,
)

UNIT_WEIGHTS = {0: 1.0, 1: 1.0, 2: 1.0}


class TestExample15:
    def test_dictionary_entries(self):
        """D(I(r), (1,1,1)) = 1 and D(I(rr), (1,1,1)) = 1, nothing else
        for the τ_ℓ-heavy pairs of the running instance at τ = 4."""
        cr = CompressedRepresentation(
            running_example_view(),
            running_example_database(),
            tau=4.0,
            weights=UNIT_WEIGHTS,
        )
        entries = dict(cr.dictionary.items())
        space = cr.ctx.space
        root = cr.tree.root
        rr = root.right
        assert entries[(root.id, (1, 1, 1))] == 1
        assert entries[(rr.id, (1, 1, 1))] == 1

    def test_leaves_have_no_entries(self):
        cr = CompressedRepresentation(
            running_example_view(),
            running_example_database(),
            tau=4.0,
            weights=UNIT_WEIGHTS,
        )
        leaf_ids = {node.id for node in cr.tree.leaves()}
        for (node_id, _), _bit in cr.dictionary.items():
            assert node_id not in leaf_ids


class TestCandidates:
    def test_candidates_cover_heavy_valuations(self):
        view = running_example_view()
        db = running_example_database()
        ctx = ViewContext(view, db)
        candidates = set(bound_candidates(ctx))
        # (1,1,1) is τ-heavy (Example 13), so it must be a candidate.
        assert (1, 1, 1) in candidates
        # Candidates are exactly the joinable bound combinations.
        for w1, w2, w3 in candidates:
            assert any(t[0] == w1 for t in db["R1"])
            assert any(t[0] == w2 for t in db["R2"])
            assert any(t[0] == w3 for t in db["R3"])

    def test_no_bound_variables_single_candidate(self):
        view = triangle_view("fff")
        db = triangle_database(10, 30, seed=1)
        ctx = ViewContext(view, db)
        assert bound_candidates(ctx) == [()]


class TestNonemptyProbe:
    def test_binary_search_probe(self):
        tuples = [(0, 1), (1, 0), (2, 2)]
        assert output_nonempty_in(tuples, FInterval((0, 0), (0, 5)))
        assert output_nonempty_in(tuples, FInterval((1, 0), (1, 0)))
        assert not output_nonempty_in(tuples, FInterval((3, 0), (9, 9)))
        assert not output_nonempty_in([], FInterval((0, 0), (9, 9)))

    def test_the_array_bits_answer_as_the_probe(self):
        # The same four intervals as one array step: access 0 owns the
        # three tuples, access 1 none.
        columns = tuple(np.array(c) for c in zip((0, 1), (1, 0), (2, 2)))
        output = Output(np.zeros(3, dtype=np.int64), columns, [])
        owner = np.array([0, 0, 0, 1])
        low = np.array([(0, 0), (1, 0), (3, 0), (0, 0)])
        high = np.array([(0, 5), (1, 0), (9, 9), (9, 9)])
        bits = nonempty_bits(output, (9, 9), owner, low, high)
        assert bits.tolist() == [True, True, False, False]


class TestDictionarySize:
    @pytest.mark.parametrize("tau", [2.0, 4.0, 8.0, 16.0])
    def test_proposition7_size_bound(self, tau):
        """|D| ≤ Õ(Π|R_F|^{u_F} / τ^α): check with explicit constants."""
        view = triangle_view("bbf")
        db = triangle_database(20, 80, seed=2)
        cr = CompressedRepresentation(view, db, tau=tau)
        sizes = {i: len(db[a.relation]) for i, a in enumerate(view.atoms)}
        product = 1.0
        for label, weight in cr.weights.items():
            product *= sizes[label] ** weight
        bound = product / (tau ** cr.alpha)
        depth = max(1, cr.tree.depth())
        mu = len(view.free_variables)
        constant = (2 * mu + 1) ** cr.alpha * (depth + 1) * 4
        assert len(cr.dictionary) <= max(4.0, constant * bound)

    def test_dictionary_shrinks_with_tau(self):
        view = triangle_view("bbf")
        db = triangle_database(25, 140, seed=3)
        sizes = [
            len(
                CompressedRepresentation(view, db, tau=tau).dictionary
            )
            for tau in (1.0, 4.0, 16.0, 64.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_every_stored_pair_is_heavy(self):
        """Only τ_ℓ-heavy pairs may be stored (the space bound's crux)."""
        view = running_example_view()
        db = running_example_database()
        cr = CompressedRepresentation(view, db, tau=4.0, weights=UNIT_WEIGHTS)
        spec = SpecCostModel(cr.ctx, cr.weights, cr.alpha)
        for (node_id, access), _bit in cr.dictionary.items():
            node = cr.tree.nodes[node_id]
            cost = spec.access_cost(node.interval, access)
            assert cost > cr.tree.threshold(node.level) - 1e-9

    def test_bits_match_semantics(self):
        """Stored 1 ⇔ the restricted sub-instance is non-empty."""
        view = triangle_view("bbf")
        db = triangle_database(15, 60, seed=5)
        cr = CompressedRepresentation(view, db, tau=1.0)
        full = evaluate_by_hash_join(view.query, db)
        space = cr.ctx.space
        by_access = {}
        for (a, b, c) in full:
            by_access.setdefault((a, b), set()).add((c,))
        for (node_id, access), bit in cr.dictionary.items():
            node = cr.tree.nodes[node_id]
            low = space.values(node.interval.low)
            high = space.values(node.interval.high)
            inside = {
                t
                for t in by_access.get(access, ())
                if low <= t <= high
            }
            assert bit == (1 if inside else 0), (node_id, access)
