"""Per-view evaluation context: orders, domains, and atom tries.

A :class:`ViewContext` freezes everything the Theorem 1 machinery needs
about one (natural-join) adorned view over one database:

* the global *bound order* (bound head variables, head order) — access
  tuples align with it;
* the global *free order* (free head variables, head order) — the
  lexicographic enumeration order and the coordinate order of f-intervals;
* per-free-variable active domains and the induced
  :class:`~repro.core.domain.TupleSpace`;
* one :class:`AtomBinding` per atom, holding the trie indexed
  (bound variables first, then free variables in free order) that serves
  counting, joining and membership during a build.

None of it depends on ``τ``: this is the ``|D|`` term of Theorem 1, and
the per-view half of a static structure. A context is immutable once
built, so one instance is shared by reference by every structure (every
``τ``) built or restored over the same ``(view, database)`` — the
engine keeps one per registration. It also carries the other pure
functions of ``(view, database)`` a structure needs, memoised on first
use: the kernel's join columns, the tries a build counts and joins with,
the default max-slack cover, the trie cell count, and the plain
view/database states a snapshot must equal to adopt the context.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.database.catalog import Database
from repro.database.index import TrieIndex, TrieNode
from repro.core.domain import Domain, TupleSpace
from repro.core.layout import JoinColumns, compile_join_columns
from repro.core.snapshot import database_state, view_state
from repro.exceptions import QueryError
from repro.hypergraph.covers import max_slack_cover
from repro.hypergraph.hypergraph import Hypergraph, hypergraph_of_view
from repro.query.adorned import AdornedView
from repro.query.atoms import Atom, Variable


class AtomBinding:
    """One atom's variables, positions and tries within a view context.

    The tries are what the *build* reads — counting, the preprocessing
    joins, membership — and are built when it first asks (memoised like
    the context's own memos, benign on a race); serving reads the
    context's join columns, compiled from the rows, so a context that is
    only ever served from builds none.
    """

    __slots__ = (
        "label",
        "atom",
        "bound_vars",
        "free_vars",
        "bound_access_positions",
        "free_coordinates",
        "relation",
        "column_order",
        "_trie",
        "_free_trie",
    )

    def __init__(
        self,
        label: int,
        atom: Atom,
        bound_order: Tuple[Variable, ...],
        free_order: Tuple[Variable, ...],
        db: Database,
    ):
        self.label = label
        self.atom = atom
        atom_vars = set(atom.variables())
        self.bound_vars: Tuple[Variable, ...] = tuple(
            v for v in bound_order if v in atom_vars
        )
        self.free_vars: Tuple[Variable, ...] = tuple(
            v for v in free_order if v in atom_vars
        )
        # Position of each of this atom's bound variables in the access tuple.
        self.bound_access_positions: Tuple[int, ...] = tuple(
            bound_order.index(v) for v in self.bound_vars
        )
        # Global free-order coordinate of each of this atom's free variables.
        self.free_coordinates: Tuple[int, ...] = tuple(
            free_order.index(v) for v in self.free_vars
        )
        relation = db[atom.relation]
        if relation.arity != atom.arity:
            raise QueryError(
                f"atom {atom!r} arity {atom.arity} does not match relation "
                f"{relation.name!r} arity {relation.arity}"
            )
        self.relation = relation
        # Column positions: bound variables first, then free variables in
        # the global free order.
        self.column_order: Tuple[int, ...] = tuple(
            atom.variable_positions(v)[0]
            for v in self.bound_vars + self.free_vars
        )
        self._trie: Optional[TrieIndex] = None
        self._free_trie: Optional[TrieIndex] = None

    @property
    def trie(self) -> TrieIndex:
        """The trie over ``column_order`` (distinct keys)."""
        trie = self._trie
        if trie is None:
            trie = self._trie = TrieIndex(self.relation, self.column_order)
        return trie

    @property
    def free_trie(self) -> TrieIndex:
        """Free-columns-only trie with tuple multiplicities.

        The count oracle for the unrestricted |R_F ⋉ B| statistics (v_b
        not fixed), read by cost models (and the cell count) alone. Nodes
        of both tries sit "at the free levels", so the cost model can use
        them interchangeably. With no bound variable the two index the
        same columns in the same order over a set of rows (every key is a
        whole row, so multiplicities are all 1): one trie serves as both.
        """
        if not self.bound_vars:
            return self.trie
        trie = self._free_trie
        if trie is None:
            free_positions = self.column_order[len(self.bound_vars) :]
            trie = self._free_trie = TrieIndex(
                self.relation, free_positions, dedupe=False
            )
        return trie

    def subtrie(self, access: Sequence) -> Optional[TrieNode]:
        """The trie node fixing this atom's bound variables per the access
        tuple; None when no tuple of the relation matches."""
        prefix = tuple(access[i] for i in self.bound_access_positions)
        return self.trie.descend(prefix)

    def contains(self, access: Sequence, free_values: Sequence) -> bool:
        """Membership of the full tuple assembled from (access, free values).

        ``free_values`` is a complete value tuple over the *global* free
        order; the atom picks out its own coordinates.
        """
        key = tuple(access[i] for i in self.bound_access_positions) + tuple(
            free_values[c] for c in self.free_coordinates
        )
        return self.trie.contains(key)


class ViewContext:
    """Frozen evaluation context for one natural-join adorned view."""

    def __init__(self, view: AdornedView, db: Database):
        if not view.is_full:
            raise QueryError(
                f"view {view.name!r} has projections; only full views are supported"
            )
        if not view.is_natural_join():
            raise QueryError(
                f"view {view.name!r} is not a natural join query; apply "
                "repro.query.normalize_view first"
            )
        self.view = view
        self.db = db
        self.bound_order: Tuple[Variable, ...] = view.bound_variables
        self.free_order: Tuple[Variable, ...] = view.free_variables
        self.atoms: List[AtomBinding] = [
            AtomBinding(i, atom, self.bound_order, self.free_order, db)
            for i, atom in enumerate(view.atoms)
        ]
        self.free_domains: List[Domain] = [
            Domain(self._occurrence_values(v)) for v in self.free_order
        ]
        self.bound_domains: Dict[Variable, Domain] = {
            v: Domain(self._occurrence_values(v)) for v in self.bound_order
        }
        self.space = TupleSpace(self.free_domains)
        # Sorted raw value sequences, for generic-join fallbacks.
        self.free_value_domains: Dict[Variable, Tuple] = {
            v: d.values for v, d in zip(self.free_order, self.free_domains)
        }
        self.hypergraph: Hypergraph = hypergraph_of_view(view)
        # Memos of pure functions of (view, db). Unsynchronised on
        # purpose: racing threads compute equal values and the last
        # assignment wins.
        self._columns: Optional[JoinColumns] = None
        self._default_cover: Optional[Tuple[Dict[int, float], float]] = None
        self._index_cells: Optional[int] = None
        self._states: Optional[Tuple[Dict, List]] = None

    def _occurrence_values(self, var: Variable) -> set:
        values = set()
        for atom in self.view.atoms:
            for position in atom.variable_positions(var):
                values |= self.db[atom.relation].column_values(position)
        return values

    # ------------------------------------------------------------------
    def subtries(self, access: Sequence) -> List[Optional[TrieNode]]:
        """Per-atom subtries under the access tuple (aligned with atoms)."""
        if len(access) != len(self.bound_order):
            raise QueryError(
                f"access tuple {tuple(access)!r} has {len(access)} values, "
                f"expected {len(self.bound_order)}"
            )
        return [binding.subtrie(access) for binding in self.atoms]

    def beta_matches(self, access: Sequence, free_values: Sequence) -> bool:
        """True iff the full valuation (access ∪ free values) is in the join."""
        return all(
            binding.contains(access, free_values) for binding in self.atoms
        )

    def free_ranges_of_box(self, box) -> Dict[Variable, Tuple]:
        """Translate an f-box (index rows) into per-variable value ranges."""
        ranges: Dict[Variable, Tuple] = {}
        for coordinate, (low, high) in enumerate(box):
            domain = self.free_domains[coordinate]
            if low == 0 and high == domain.top:
                continue  # unrestricted
            ranges[self.free_order[coordinate]] = (
                domain.value_at(low),
                domain.value_at(high),
            )
        return ranges

    def columns(self) -> JoinColumns:
        """The atoms in the kernel's columnar form, compiled once.

        Every layout over this context — every ``τ``, built or restored —
        holds these objects by reference. They come from the relations'
        rows, not from the tries: a context that is only enumerated from
        (a dirty dynamic version's) builds no trie at all.
        """
        if self._columns is None:
            self._columns = compile_join_columns(self)
        return self._columns

    def index_cells(self) -> int:
        """Total logical size of the atom tries (both access paths)."""
        if self._index_cells is None:
            self._index_cells = sum(
                binding.trie.cells() + binding.free_trie.cells()
                for binding in self.atoms
            )
        return self._index_cells

    def default_cover(self) -> Tuple[Dict[int, float], float]:
        """``(weights, alpha)`` of the max-slack cover on the free variables.

        The cover a structure uses when none is given. It depends only
        on the hypergraph and the free order, so the LP is solved once
        per context, not once per ``τ``. Callers copy the weights.
        """
        if self._default_cover is None:
            cover, alpha = max_slack_cover(self.hypergraph, self.free_order)
            self._default_cover = (cover.weights, alpha)
        return self._default_cover

    def adopt_cover(self, previous: "ViewContext") -> None:
        """Take ``previous``'s memoised default cover as-is.

        For a context over the same view and a later database: a delta
        changes neither the hypergraph nor the free order, so the LP's
        answer stands — the very pair, not one re-derived from the
        weights (a recomputed slack may round differently).
        """
        self._default_cover = previous._default_cover

    def states(self) -> Tuple[Dict, List]:
        """``(view state, database state)`` exactly as a snapshot stores them.

        A restored structure may adopt this context only when its blob's
        own two states compare equal to these.
        """
        if self._states is None:
            self._states = (view_state(self.view), database_state(self.db))
        return self._states
