"""The Theorem 2 structure: Theorem 1 per bag of a connex decomposition.

Construction (Section 5, Appendices B–C):

1. fix a V_b-connex tree decomposition and a delay assignment δ;
2. for every non-root bag ``t`` build a Theorem 1 structure for the bag's
   induced view — bound side ``V_b^t = B_t ∩ anc(t)``, free side
   ``V_f^t = B_t \\ anc(t)`` — with threshold ``τ_t = |D|^{δ(t)}`` and the
   cover minimizing ``ρ+_t`` (Equation 3);
3. refine the bag dictionaries bottom-up (Algorithm 4): a dictionary 1-bit
   survives only if some valuation in its interval extends into every
   child subtree, so that following a 1 during enumeration is never a dead
   end at interval granularity;
4. answer requests by nested pre-order enumeration over the bags
   (Algorithm 5): each bag enumerates its free variables given the values
   fixed by its ancestors, giving delay ``Õ(|D|^h)`` where ``h`` is the
   δ-height — multiplicative along a root-to-leaf path, additive across
   branches.

The enumeration order is lexicographic per bag but globally depends on the
decomposition, exactly as the paper notes after Theorem 2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.kernel import join_rows
from repro.core.representation import (
    Representation,
    bound_atom_checks,
    bound_atoms_hold,
)
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.exceptions import (
    DecompositionError,
    ParameterError,
    QueryError,
    SnapshotError,
)
from repro.hypergraph.connex import ConnexDecomposition
from repro.hypergraph.hypergraph import hypergraph_of_view
from repro.hypergraph.width import (
    DelayAssignment,
    bag_delta_cover,
    connex_fhw,
    delta_height,
)
from repro.joins.generic_join import JoinCounter
from repro.measure.space import SpaceReport
from repro.query.adorned import AdornedView
from repro.query.atoms import Atom, Variable
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.rewriting import natural_form


def bag_view(
    view: AdornedView, db: Database, decomposition: ConnexDecomposition, node
) -> Tuple[AdornedView, Database, Tuple[int, ...]]:
    """A non-root bag's induced view, its database and its atoms' labels.

    The head is the bag's bound side ``V_b^t = B_t ∩ anc(t)``, then its
    free side ``V_f^t = B_t \\ anc(t)``, each in ``view``'s head order.
    Every atom of ``view`` meeting the bag becomes one atom over its
    relation projected onto the shared variables, named
    ``{relation}__bag_{node}_{label}``; the labels say which, in order.
    Theorem 2 builds a Theorem 1 structure over this view, Proposition 4
    (:mod:`repro.core.constant_delay`) materialises it.
    """
    hypergraph = hypergraph_of_view(view)
    rank = {v: i for i, v in enumerate(view.head)}
    bound_vars = tuple(sorted(decomposition.bag_bound(node), key=rank.__getitem__))
    free_vars = tuple(sorted(decomposition.bag_free(node), key=rank.__getitem__))
    head = bound_vars + free_vars
    labels = hypergraph.edges_intersecting(decomposition.bags[node])
    atoms: List[Atom] = []
    bag_db = Database()
    for label in labels:
        atom = view.atoms[label]
        members = tuple(v for v in head if v in hypergraph.edge(label))
        positions = [atom.variable_positions(v)[0] for v in members]
        name = f"{atom.relation}__bag_{node}_{label}"
        bag_db.add(db[atom.relation].project(positions, name=name))
        atoms.append(Atom(name, members))
    query = ConjunctiveQuery(f"{view.name}__bag_{node}", head, atoms)
    pattern = "b" * len(bound_vars) + "f" * len(free_vars)
    return AdornedView(query, pattern), bag_db, labels


@dataclass
class _BagStructure:
    """One non-root bag: its induced view and Theorem 1 structure."""

    node: object
    bound_vars: Tuple[Variable, ...]
    free_vars: Tuple[Variable, ...]
    representation: CompressedRepresentation


class DecomposedRepresentation(Representation):
    """Theorem 2: compressed representation over a connex decomposition.

    Parameters
    ----------
    view:
        A full adorned view (normalized automatically if needed).
    db:
        The input database.
    decomposition:
        Optional V_b-connex decomposition; defaults to one witnessing
        ``fhw(H | V_b)``.
    assignment:
        Optional delay assignment δ (exponents of |D|); defaults to the
        all-zero assignment, i.e. the constant-delay point of Proposition 4
        realized through the Theorem 1 machinery.
    """

    #: Mid-traversal re-entry is supported (``enumerate_from`` /
    #: ``enumerate_after``), in the decomposition's own enumeration order.
    supports_resume = True

    #: Every bag's enumeration rides the columnar kernel.
    kernel_ready = True

    def __init__(
        self,
        view: AdornedView,
        db: Database,
        decomposition: Optional[ConnexDecomposition] = None,
        assignment: Optional[DelayAssignment] = None,
        refine: bool = True,
    ):
        started = time.perf_counter()
        self.view, self.db = natural_form(view, db)
        self.hypergraph = hypergraph_of_view(self.view)
        bound = frozenset(self.view.bound_variables)
        if decomposition is None:
            _, decomposition = connex_fhw(self.hypergraph, bound)
        else:
            decomposition.validate_connex(self.hypergraph)
        if decomposition.connex_set != bound:
            raise DecompositionError(
                "decomposition connex set does not match the bound variables"
            )
        self.decomposition = decomposition
        self.assignment = assignment or DelayAssignment({})
        if abs(self.assignment.of(decomposition.root)) > 0:
            raise ParameterError("the delay assignment must be 0 on the root")
        self.delta_height = delta_height(decomposition, self.assignment)
        size = max(2, self.db.total_tuples())
        self._bags: Dict[object, _BagStructure] = {}
        for node in decomposition.non_root_nodes():
            tau = float(size) ** self.assignment.of(node)
            self._bags[node] = self._build_bag(node, tau)
        if refine:
            # Algorithm 4; skipping it (refine=False) keeps answers
            # identical but loses the no-dead-end delay guarantee — the
            # ablation benchmark quantifies the difference.
            self._refine_dictionaries()
        self._root_checks = bound_atom_checks(self.view, self.db)
        self._preorder = [
            node
            for node in decomposition.preorder()
            if node != decomposition.root
        ]
        self.build_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_bag(self, node: object, tau: float) -> _BagStructure:
        view, db, labels = bag_view(self.view, self.db, self.decomposition, node)
        # The ρ+-minimizing cover for this bag, remapped to bag atom indexes.
        cover = bag_delta_cover(
            self.hypergraph,
            self.decomposition.bags[node],
            view.free_variables,
            self.assignment.of(node),
        )
        weights = {
            index: cover.weights.get(label, 0.0)
            for index, label in enumerate(labels)
        }
        representation = CompressedRepresentation(view, db, tau=tau, weights=weights)
        return _BagStructure(
            node=node,
            bound_vars=view.bound_variables,
            free_vars=view.free_variables,
            representation=representation,
        )

    def _refine_dictionaries(self) -> None:
        """Algorithm 4: zero unsupported 1-bits, bottom-up.

        For each non-root bag ``p`` with children, a dictionary entry
        ``(w, v_b) = 1`` survives only if some bag valuation in ``I(w)`` —
        a row of the join over ``w``'s boxes — extends into *every* child
        subtree (children are checked with their own already-refined
        structures, hence the post-order). A built structure is never
        edited: the flips are found from the bag's own columns, and the
        bag takes a new structure that shares everything but the bits
        (:meth:`~repro.core.structure.CompressedRepresentation.with_bits`).
        """
        decomposition = self.decomposition
        for parent in decomposition.postorder():
            children = decomposition.children[parent]
            if parent == decomposition.root or not children:
                continue
            bag = self._bags[parent]
            layout = bag.representation.compile_layout()
            columns, dictionary = bag.representation.ctx.columns(), layout.dictionary
            bits = bytearray(dictionary.bits)
            for access, (lo, hi) in dictionary.index.items():
                valuation = dict(zip(bag.bound_vars, access))
                for at in range(lo, hi):
                    if bits[at] != 1:
                        continue
                    boxes = layout.tree.boxes[dictionary.nodes[at]]
                    for free_values in join_rows(columns, access, boxes):
                        valuation.update(zip(bag.free_vars, free_values))
                        if all(self._child_extends(c, valuation) for c in children):
                            break
                    else:
                        bits[at] = 0
            if bits != dictionary.bits:
                bag.representation = bag.representation.with_bits(bytes(bits))

    def _child_extends(self, child: object, valuation: Mapping) -> bool:
        bag = self._bags[child]
        access = tuple(valuation[v] for v in bag.bound_vars)
        return bag.representation.exists(access)

    # ------------------------------------------------------------------
    # explicit state (the snapshot boundary)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict:
        """Plain-data state: decomposition shape plus per-bag structures.

        Bag representations are stored through their own
        :meth:`~repro.core.structure.CompressedRepresentation.snapshot_state`
        (each bag carries its projected bag database), *after* the
        Algorithm 4 refinement — restoring skips the refinement pass
        because the stored dictionary bits already reflect it.
        """
        from repro.core.snapshot import database_state, view_state

        decomposition = self.decomposition
        return {
            "view": view_state(self.view),
            "db": database_state(self.db),
            "decomposition": {
                "bags": sorted(
                    (node, sorted(v.name for v in bag))
                    for node, bag in decomposition.bags.items()
                ),
                "edges": sorted(
                    (node, parent)
                    for node, parent in decomposition.parent.items()
                    if parent is not None
                ),
                "root": decomposition.root,
                "connex": sorted(v.name for v in decomposition.connex_set),
            },
            "assignment": sorted(self.assignment.exponents.items()),
            "bags": [
                {
                    "node": node,
                    "bound": [v.name for v in self._bags[node].bound_vars],
                    "free": [v.name for v in self._bags[node].free_vars],
                    "representation": self._bags[
                        node
                    ].representation.snapshot_state(),
                }
                for node in self._preorder
            ],
            "build_seconds": self.build_seconds,
        }

    @classmethod
    def from_snapshot_state(cls, state: Dict) -> "DecomposedRepresentation":
        from repro.core.snapshot import database_from_state, view_from_state

        try:
            view = view_from_state(state["view"])
            db = database_from_state(state["db"])
            shape = state["decomposition"]
            decomposition = ConnexDecomposition(
                {
                    node: frozenset(Variable(name) for name in names)
                    for node, names in shape["bags"]
                },
                [tuple(edge) for edge in shape["edges"]],
                shape["root"],
                frozenset(Variable(name) for name in shape["connex"]),
            )
            self = object.__new__(cls)
            self.view, self.db = view, db
            self.hypergraph = hypergraph_of_view(view)
            self.decomposition = decomposition
            self.assignment = DelayAssignment(dict(state["assignment"]))
            self.delta_height = delta_height(decomposition, self.assignment)
            self._bags = {}
            for bag_state in state["bags"]:
                node = bag_state["node"]
                self._bags[node] = _BagStructure(
                    node=node,
                    bound_vars=tuple(
                        Variable(name) for name in bag_state["bound"]
                    ),
                    free_vars=tuple(
                        Variable(name) for name in bag_state["free"]
                    ),
                    representation=CompressedRepresentation.from_snapshot_state(
                        bag_state["representation"]
                    ),
                )
            self._root_checks = bound_atom_checks(self.view, self.db)
            self._preorder = [
                node
                for node in decomposition.preorder()
                if node != decomposition.root
            ]
            missing = [n for n in self._preorder if n not in self._bags]
            if missing:
                raise SnapshotError(
                    f"decomposed snapshot missing bag structures {missing!r}"
                )
            self.build_seconds = state["build_seconds"]
            return self
        except SnapshotError:
            raise
        except (KeyError, TypeError, ValueError, DecompositionError) as error:
            raise SnapshotError(
                f"malformed decomposed-representation state: {error}"
            ) from error

    # ------------------------------------------------------------------
    # Algorithm 5: query answering
    # ------------------------------------------------------------------
    def _nest(
        self,
        access: Sequence,
        counter: Optional[JoinCounter],
        start_values: Optional[Sequence] = None,
    ) -> Iterator[Tuple]:
        """Algorithm 5: nested pre-order enumeration over the bags.

        The one recursion behind both entry points. A bag's rows come
        from its plain Theorem 1 ``enumerate``, or from its
        ``enumerate_from`` while the recursion is still *tight* on
        ``start_values`` (every shallower bag sits exactly on its start
        value — the first bag to move strictly past releases all deeper
        bags to enumerate in full).
        """
        access = self._check_access(access)
        free_order = self.view.free_variables
        bags = self._preorder
        starts: Dict[object, Tuple] = {}
        if start_values is not None:
            start_values = tuple(start_values)
            if len(start_values) != len(free_order):
                raise QueryError(
                    f"start tuple has {len(start_values)} values, expected "
                    f"{len(free_order)}"
                )
            position_of = {v: i for i, v in enumerate(free_order)}
            starts = {
                node: tuple(
                    start_values[position_of[v]]
                    for v in self._bags[node].free_vars
                )
                for node in bags
            }
        if not bound_atoms_hold(self._root_checks, access, counter):
            return
        assignment: Dict[Variable, object] = dict(
            zip(self.view.bound_variables, access)
        )

        def recurse(position: int, tight: bool) -> Iterator[Tuple]:
            if position == len(bags):
                yield tuple(assignment[v] for v in free_order)
                return
            bag = self._bags[bags[position]]
            bag_access = tuple(assignment[v] for v in bag.bound_vars)
            start = starts[bag.node] if tight else None
            representation = bag.representation
            if start is None:
                rows = representation.enumerate(bag_access, counter=counter)
            else:
                rows = representation.enumerate_from(
                    bag_access, start, counter=counter
                )
            for values in rows:
                for var, value in zip(bag.free_vars, values):
                    assignment[var] = value
                yield from recurse(position + 1, tight and values == start)

        yield from recurse(0, start_values is not None)

    def enumerate(
        self, access: Sequence, counter: Optional[JoinCounter] = None
    ) -> Iterator[Tuple]:
        """Answer an access request; yields free-variable tuples, head order.

        The per-bag enumerations are lexicographic; the global order is the
        decomposition's pre-order nesting (Theorem 2's caveat).
        """
        return self._nest(access, counter)

    def enumerate_from(
        self,
        access: Sequence,
        start_values: Sequence,
        counter: Optional[JoinCounter] = None,
    ) -> Iterator[Tuple]:
        """Enumerate answers from ``start_values`` onward, enumeration order.

        ``start_values`` is a full free-variable value tuple in *head*
        order. The decomposition's global order is the pre-order bag
        nesting (not head-lexicographic), so "onward" means: every tuple
        whose bag-nesting key — the concatenation of its per-bag value
        tuples in pre-order — is >= the start tuple's key. This is
        exactly the order :meth:`enumerate` yields, so resumption after
        the n-th tuple returns precisely the remaining tuples.

        The seek is hierarchical: while a prefix of bags sits exactly on
        the start point, each bag resumes via its own Theorem 1
        ``enumerate_from``; the first bag to move strictly past its
        start value releases all deeper bags to enumerate in full.
        """
        return self._nest(access, counter, start_values)

    @property
    def layout_compile_seconds(self) -> float:
        """Total layout compile time across the per-bag structures."""
        return sum(
            bag.representation.layout_compile_seconds
            for bag in self._bags.values()
        )

    # ------------------------------------------------------------------
    def space_report(self) -> SpaceReport:
        """Input cells plus the per-bag structure cells (the |D|^f term)."""
        report = SpaceReport(base_tuples=self.db.total_tuples())
        for bag in self._bags.values():
            bag_report = bag.representation.space_report()
            report = report + SpaceReport(
                index_cells=bag_report.index_cells,
                tree_nodes=bag_report.tree_nodes,
                dictionary_entries=bag_report.dictionary_entries,
            )
        return report

    @property
    def bags(self) -> Mapping[object, _BagStructure]:
        return dict(self._bags)
