"""Constant-delay fast paths: Propositions 1 and 4.

* :class:`FullyBoundStructure` — all head variables bound (Proposition 1):
  linear space, O(1)-probe answering of boolean access requests.
* :class:`ConnexConstantDelayStructure` — the δ = 0 point of Theorem 2
  (Proposition 4): materialize the bags of a V_b-connex decomposition,
  semijoin-reduce bottom-up, index each bag by its bound-side variables,
  and enumerate by pre-order nested lookups. Space ``O(|D|^{fhw(H|V_b)})``,
  constant delay. With ``V_b = ∅`` this recovers the d-representation
  result (Proposition 2); the factorized baseline in
  :mod:`repro.factorized` reuses this machinery.

A bag is the induced view Theorem 2 builds a Theorem 1 structure over
(:func:`~repro.core.decomposed.bag_view`), materialised by the
materialised baseline (:class:`~repro.baselines.MaterializedView`): the
kernel's join on the bag context's columns, bucketed by bound key with
each bucket sorted. The semijoin pass and the count index then work on
the bag's rows as value tuples, and the pass only ever drops rows, so a
bucket stays sorted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.baselines.materialized import MaterializedView
from repro.core.decomposed import bag_view
from repro.core.kernel import nested_product_rows
from repro.core.representation import (
    Representation,
    bound_atom_checks,
    bound_atoms_hold,
)
from repro.database.catalog import Database
from repro.exceptions import DecompositionError, QueryError
from repro.hypergraph.connex import ConnexDecomposition
from repro.hypergraph.hypergraph import hypergraph_of_view
from repro.hypergraph.width import connex_fhw
from repro.joins.generic_join import JoinCounter
from repro.joins.semijoin import semijoin
from repro.measure.space import SpaceReport
from repro.query.adorned import AdornedView
from repro.query.atoms import Variable
from repro.query.rewriting import natural_form


class FullyBoundStructure(Representation):
    """Proposition 1: answer all-bound access requests with O(1) probes.

    For a natural join query with every head variable bound, an access
    request succeeds iff each relation contains the access tuple projected
    to its columns — a constant number of hash probes over the input, so
    compression time and space stay linear.
    """

    def __init__(self, view: AdornedView, db: Database):
        if not view.is_boolean:
            raise QueryError(
                f"view {view.name!r} is not all-bound; use "
                "CompressedRepresentation instead"
            )
        self.view, self.db = natural_form(view, db)
        self._checks = bound_atom_checks(self.view, self.db)

    def exists(self, access: Sequence) -> bool:
        """Whether ``Q^η[v_b]`` is non-empty — O(1) per relation."""
        return bound_atoms_hold(self._checks, self._check_access(access))

    def enumerate(self, access: Sequence) -> Iterator[Tuple]:
        """Iterator yielding the empty tuple iff the request succeeds."""
        if self.exists(access):
            yield ()

    def space_report(self) -> SpaceReport:
        return SpaceReport(base_tuples=self.db.total_tuples())


@dataclass
class _Bag:
    """Materialized state of one non-root bag."""

    node: object
    bound_vars: Tuple[Variable, ...]
    free_vars: Tuple[Variable, ...]
    rows: set  # tuples over bound_vars + free_vars
    index: Dict[Tuple, List[Tuple]]  # bound values -> sorted free values


class ConnexConstantDelayStructure(Representation):
    """Proposition 4: constant delay in ``O(|D|^{fhw(H|V_b)})`` space."""

    def __init__(
        self,
        view: AdornedView,
        db: Database,
        decomposition: Optional[ConnexDecomposition] = None,
    ):
        started = time.perf_counter()
        self.view, self.db = natural_form(view, db)
        self.hypergraph = hypergraph_of_view(self.view)
        bound = frozenset(self.view.bound_variables)
        if decomposition is None:
            self.width, decomposition = connex_fhw(self.hypergraph, bound)
        else:
            decomposition.validate_connex(self.hypergraph)
            self.width = None
        if decomposition.connex_set != bound:
            raise DecompositionError(
                "decomposition connex set does not match the bound variables"
            )
        self.decomposition = decomposition
        self._bags: Dict[object, _Bag] = {}
        for node in decomposition.non_root_nodes():
            self._bags[node] = self._materialize_bag(node)
        self._semijoin_reduce()
        for bag in self._bags.values():
            bag.index = self._build_index(bag)
        self._root_checks = bound_atom_checks(self.view, self.db)
        # What the flattened walk reads, in the pre-order it nests bags.
        self._bag_specs = [
            (bag.bound_vars, bag.free_vars, bag.index)
            for bag in (
                self._bags[node]
                for node in decomposition.preorder()
                if node != decomposition.root
            )
        ]
        self._count_index = self._build_count_index()
        self.build_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    def _materialize_bag(self, node) -> _Bag:
        """The bag's induced view, materialised: its rows and its buckets."""
        view, db, _ = bag_view(self.view, self.db, self.decomposition, node)
        index = MaterializedView(view, db).index
        return _Bag(
            node=node,
            bound_vars=view.bound_variables,
            free_vars=view.free_variables,
            rows={key + free for key, frees in index.items() for free in frees},
            index=index,
        )

    def _semijoin_reduce(self) -> None:
        """Bottom-up pass: drop bag tuples with no extension below."""
        decomposition = self.decomposition
        for node in decomposition.postorder():
            if node == decomposition.root:
                continue
            parent = decomposition.parent[node]
            if parent == decomposition.root:
                continue
            child = self._bags[node]
            parent_bag = self._bags[parent]
            child_vars = child.bound_vars + child.free_vars
            parent_vars = parent_bag.bound_vars + parent_bag.free_vars
            parent_bag.rows = semijoin(
                parent_bag.rows, parent_vars, child.rows, child_vars
            )

    def _build_index(self, bag: _Bag) -> Dict[Tuple, List[Tuple]]:
        """The bag's buckets without the rows the semijoin pass dropped.

        A bucket stays sorted; one the pass emptied goes.
        """
        index: Dict[Tuple, List[Tuple]] = {}
        for key, rows in bag.index.items():
            kept = [free for free in rows if key + free in bag.rows]
            if kept:
                index[key] = kept
        return index

    # ------------------------------------------------------------------
    def enumerate(
        self, access: Sequence, counter: Optional[JoinCounter] = None
    ) -> Iterator[Tuple]:
        """Answer an access request with constant delay.

        Yields value tuples over the free head variables, in head order.
        The enumeration order follows the decomposition's pre-order, as
        Theorem 2 notes.
        """
        access = self._check_access(access)
        if not bound_atoms_hold(self._root_checks, access, counter):
            return
        assignment: Dict[Variable, object] = dict(
            zip(self.view.bound_variables, access)
        )
        # The per-bag generator nest of Proposition 4, flattened: one loop
        # over the pre-sorted bag indexes (the recursive form is the spec).
        yield from nested_product_rows(
            self._bag_specs, assignment, self.view.free_variables, counter
        )

    # ------------------------------------------------------------------
    # Aggregation: COUNT in O(1) probes per request (the group-by
    # connection of Section 3.2 — the connex decomposition is exactly the
    # d-tree used for aggregates with group-by attributes V_b).
    # ------------------------------------------------------------------
    def _build_count_index(self) -> Dict[object, Dict[Tuple, int]]:
        """Bottom-up weights: W_t[key] = Σ_rows Π_children W_c[child key].

        After the semijoin reduction every stored row extends into every
        child subtree, and sibling subtrees are independent given the
        ancestors, so the weighted sums count exactly the join results of
        each subtree per bound-side key.
        """
        decomposition = self.decomposition
        index: Dict[object, Dict[Tuple, int]] = {}
        for node in decomposition.postorder():
            if node == decomposition.root:
                continue
            bag = self._bags[node]
            bag_vars = bag.bound_vars + bag.free_vars
            positions = {var: i for i, var in enumerate(bag_vars)}
            children = [
                child
                for child in decomposition.children[node]
            ]
            child_keys = [
                (
                    child,
                    [positions[v] for v in self._bags[child].bound_vars],
                )
                for child in children
            ]
            weights: Dict[Tuple, int] = {}
            n_bound = len(bag.bound_vars)
            for row in bag.rows:
                weight = 1
                for child, key_positions in child_keys:
                    key = tuple(row[p] for p in key_positions)
                    weight *= index[child].get(key, 0)
                    if not weight:
                        break
                if weight:
                    key = row[:n_bound]
                    weights[key] = weights.get(key, 0) + weight
            index[node] = weights
        return index

    def count(self, access: Sequence) -> int:
        """|Q^η[v_b]| with O(1) probes — no enumeration.

        Multiplies the subtree counts of the root's children (independent
        given the bound values) after the O(1) root membership checks.
        """
        access = self._check_access(access)
        bound_order = self.view.bound_variables
        if not bound_atoms_hold(self._root_checks, access):
            return 0
        assignment = dict(zip(bound_order, access))
        total = 1
        for child in self.decomposition.children[self.decomposition.root]:
            bag = self._bags[child]
            key = tuple(assignment[v] for v in bag.bound_vars)
            total *= self._count_index[child].get(key, 0)
            if not total:
                return 0
        return total

    def space_report(self) -> SpaceReport:
        materialized = sum(len(bag.rows) for bag in self._bags.values())
        index_cells = sum(
            len(values) + 1
            for bag in self._bags.values()
            for values in bag.index.values()
        )
        return SpaceReport(
            base_tuples=self.db.total_tuples(),
            index_cells=index_cells,
            materialized_tuples=materialized,
        )
