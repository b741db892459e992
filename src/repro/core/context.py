"""Per-view evaluation context: orders, domains, and the atoms' index.

A :class:`ViewContext` freezes everything the Theorem 1 machinery needs
about one (natural-join) adorned view over one database:

* the global *bound order* (bound head variables, head order) — access
  tuples align with it;
* the global *free order* (free head variables, head order) — the
  lexicographic enumeration order and the coordinate order of f-intervals;
* per-variable active domains and the induced
  :class:`~repro.core.domain.TupleSpace`;
* one :class:`AtomBinding` per atom: its variables, its access
  positions and its key order (bound variables first, then free
  variables in free order).

None of it depends on ``τ``: this is the ``|D|`` term of Theorem 1, and
the per-view half of a static structure. A context is immutable once
built, so one instance is shared by reference by every structure (every
``τ``) built or restored over the same ``(view, database)`` — the
engine keeps one per registration. It also carries the other pure
functions of ``(view, database)`` a structure needs, memoised on first
use: the atoms' one sorted index (:meth:`ViewContext.columns`, what the
kernel enumerates from and a build counts and joins on), the
multiplicity counts an unrestricted cost needs, the default max-slack
cover, the index's cell count, and the plain view/database states a
snapshot must equal to adopt the context, also as the bytes a snapshot
stores them in.

A context over a later database of the same view may be *derived* from
an earlier one (``ViewContext(view, db, previous=ctx)`` — a dynamic
view's next version, or its rebuild): it takes over, by identity, each
domain whose relations are the very same objects or whose values are
equal; each atom's columns whose relation is the very same object and
whose free-coordinate domains each still start with their old values
(a value appended at the top of a domain moves no index the columns
hold — :func:`~repro.core.layout.compile_join_columns`); the
hypergraph and the default cover. Over the very same view object it
also skips validating the view again and shares each atom binding's
view-only parts (variables, positions, key order) and each variable's
occurrences. It holds ``previous`` only until its own columns are
compiled, so no chain of old databases stays alive. With no
predecessor it compiles exactly as it otherwise would.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter, sub
from typing import Dict, List, Optional, Tuple

from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.core.domain import Domain, TupleSpace
from repro.core.layout import (
    AtomColumns,
    JoinColumns,
    RowKeys,
    compile_build_columns,
    compile_join_columns,
)
from repro.core.snapshot import database_state, source_section, view_state
from repro.exceptions import QueryError
from repro.hypergraph.covers import max_slack_cover
from repro.hypergraph.hypergraph import hypergraph_of_view
from repro.query.adorned import AdornedView
from repro.query.atoms import Atom, Variable


class AtomBinding:
    """One atom's variables and positions within a view context.

    ``column_order`` is the atom's key: its bound columns first, then its
    free ones in the global free order — the order of the context's one
    index over the relation (:meth:`ViewContext.columns`).
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
        self.relation = _checked(atom, db[atom.relation])
        # Column positions: bound variables first, then free variables in
        # the global free order.
        self.column_order: Tuple[int, ...] = tuple(
            atom.variable_positions(v)[0]
            for v in self.bound_vars + self.free_vars
        )

    def over(self, db: Database) -> "AtomBinding":
        """This binding over ``db``: the same view-only parts, by
        reference, with the atom's relation in ``db``."""
        relation = db[self.atom.relation]
        if relation is self.relation:
            return self
        binding = object.__new__(AtomBinding)
        for slot in AtomBinding.__slots__:
            setattr(binding, slot, getattr(self, slot))
        binding.relation = _checked(self.atom, relation)
        return binding


def _checked(atom: Atom, relation: Relation) -> Relation:
    """``atom``'s relation, refused unless it has the atom's arity."""
    if relation.arity != atom.arity:
        raise QueryError(
            f"atom {atom!r} arity {atom.arity} does not match relation "
            f"{relation.name!r} arity {relation.arity}"
        )
    return relation


def _index_cells(atom: AtomColumns) -> int:
    """Edges of a trie over ``atom``'s key and of one over its free part.

    A trie's edges at a depth are its distinct prefixes there. The key
    trie's free depths are the compiled levels, its bound depths the
    distinct prefixes of the roots' keys. Without a bound variable the
    free part's trie is the same levels; with one, each level's values
    are extended by their parents' paths, and the distinct paths counted.
    """
    levels = sum(map(len, atom.vals))
    depth = len(atom.bound_positions)
    if not depth:
        return 2 * levels
    roots = atom.roots
    bound = len(roots) + sum(
        len(set(map(itemgetter(slice(0, k)), roots))) for k in range(1, depth)
    )
    free, paths = 0, ()
    for level, values in enumerate(atom.vals):
        if level:
            spans = map(sub, atom.kid_hi[level - 1], atom.kid_lo[level - 1])
            values = zip(chain.from_iterable(map(repeat, paths, spans)), values)
        paths = list(values)
        free += len(set(paths))
    return levels + bound + free


def _validate(view: AdornedView) -> None:
    """Refuse a view a context cannot be built over."""
    if not view.is_full:
        raise QueryError(
            f"view {view.name!r} has projections; only full views are supported"
        )
    if not view.is_natural_join():
        raise QueryError(
            f"view {view.name!r} is not a natural join query; apply "
            "repro.query.normalize_view first"
        )


class ViewContext:
    """Frozen evaluation context for one natural-join adorned view.

    ``previous``, if given, is a context over the same view (a later
    database) to derive from, as the module docstring says.
    ``domains`` maps every head variable to its domain.
    """

    def __init__(
        self, view: AdornedView, db: Database, previous: Optional["ViewContext"] = None
    ):
        self.view = view
        self.db = db
        self.bound_order: Tuple[Variable, ...] = view.bound_variables
        self.free_order: Tuple[Variable, ...] = view.free_variables
        self.atoms: List[AtomBinding]
        # Per variable, the (relation, column) pairs its domain is read off.
        self._occurrences: Dict[Variable, List[Tuple[str, int]]]
        if previous is not None and previous.view is view:
            # The very view object was validated and bound then.
            self.atoms = [binding.over(db) for binding in previous.atoms]
            self._occurrences = previous._occurrences
        else:
            _validate(view)
            self.atoms = [
                AtomBinding(i, atom, self.bound_order, self.free_order, db)
                for i, atom in enumerate(view.atoms)
            ]
            self._occurrences = {
                v: [
                    (atom.relation, position)
                    for atom in view.atoms
                    for position in atom.variable_positions(v)
                ]
                for v in self.bound_order + self.free_order
            }
        self.domains: Dict[Variable, Domain] = {
            v: self._domain(v, previous) for v in self.bound_order + self.free_order
        }
        self.free_domains: List[Domain] = [self.domains[v] for v in self.free_order]
        self.bound_domains: Dict[Variable, Domain] = {
            v: self.domains[v] for v in self.bound_order
        }
        self.space = TupleSpace(self.free_domains)
        # What columns() may take over from, until it is compiled.
        self._previous = previous
        self.hypergraph = previous.hypergraph if previous else hypergraph_of_view(view)
        # Memos of pure functions of (view, db). Unsynchronised on
        # purpose: racing threads compute equal values and the last
        # assignment wins. A delta changes neither the hypergraph nor the
        # free order, so a predecessor's cover stands — the very pair,
        # not one re-derived from the weights.
        self._columns: Optional[JoinColumns] = None
        self._count_columns: Optional[Tuple[AtomColumns, ...]] = None
        self._bound_columns: Optional[JoinColumns] = None
        self._default_cover = getattr(previous, "_default_cover", None)
        self._index_cells: Optional[int] = None
        self._states: Optional[Tuple[Dict, List]] = None
        self._source: Optional[bytes] = None

    def _domain(self, var: Variable, previous: Optional["ViewContext"]) -> Domain:
        """``var``'s active domain — ``previous``'s very object when that
        one is read off the very same relations or holds the same values."""
        occurrences = self._occurrences[var]
        before = previous.domains[var] if previous else None
        if before is not None and all(
            self.db[name] is previous.db[name] for name, _ in occurrences
        ):
            return before
        values = self.db.active_domain(occurrences)
        if before is not None and before.values == values:
            return before
        return Domain(values)

    # ------------------------------------------------------------------
    def columns(self) -> JoinColumns:
        """The atoms' one index, compiled from their rows once.

        Every layout over this context — every ``τ``, built or restored —
        holds these objects by reference, and a build counts and joins
        on them too.
        """
        if self._columns is None:
            self._compile_columns(RowKeys(self))
        return self._columns

    def _compile_columns(self, keys: RowKeys) -> None:
        self._columns = compile_join_columns(self, self._previous, keys)
        self._previous = None

    def count_columns(self) -> Tuple[AtomColumns, ...]:
        """Per atom, the columns an unrestricted ``T(B)`` counts on.

        An atom with a bound variable needs its rows counted by their
        free part alone, repeats included: a second instance over the
        free columns, compiled when a build first asks (with
        :meth:`bound_columns`) — so a context that is only enumerated
        from (a dirty dynamic version's) has none. Any other atom counts
        on :meth:`columns` itself.
        """
        return self._build_columns()[0]

    def bound_columns(self) -> JoinColumns:
        """The atoms' bound projections, what the candidate join walks.

        Compiled once, with :meth:`count_columns`, when a build first
        asks: every build over this context joins the same candidates.
        """
        return self._build_columns()[1]

    def _build_columns(self) -> Tuple[Tuple[AtomColumns, ...], JoinColumns]:
        """The build's two instances, off the join columns' sorted keys.

        When the join columns are compiled here too, each atom's rows
        are folded and sorted once for all three; the keys go with the
        call. ``_bound_columns`` is assigned last, so it guards both.
        """
        if self._bound_columns is None:
            keys = RowKeys(self)
            if self._columns is None:
                self._compile_columns(keys)
            built = compile_build_columns(self, keys)
            self._count_columns, self._bound_columns = built
        return self._count_columns, self._bound_columns

    def index_cells(self) -> int:
        """Cells of the atoms' index, as a trie per access path counts them.

        One cell per edge of a trie over each atom's column order and of
        one over its free columns — an atom without a bound variable
        counted twice — read off the compiled columns
        (:func:`_index_cells`).
        """
        if self._index_cells is None:
            self._index_cells = sum(map(_index_cells, self.columns().atoms))
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

    def states(self) -> Tuple[Dict, List]:
        """``(view state, database state)`` exactly as a snapshot stores them.

        A restored structure may adopt this context only when its blob's
        own two states compare equal to these.
        """
        if self._states is None:
            self._states = (view_state(self.view), database_state(self.db))
        return self._states

    def source(self) -> bytes:
        """The same two states pickled as one, a v4 blob's ``"source"``.

        What a structure over this context stores; a restored one adopts
        the context on equal bytes without unpickling them.
        """
        if self._source is None:
            self._source = source_section(self.states())
        return self._source
