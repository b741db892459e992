"""The linear-time normalization of Section 2.4 (Example 3).

Whenever the adorned view is a full CQ, constants and repeated variables can
be compiled away in time ``O(|D|)``: each offending atom ``R(x, y, a)`` or
``S(y, y, z)`` is replaced by a fresh atom over a derived relation obtained
by selecting on the constants / column equalities and projecting onto one
occurrence of each distinct variable. The resulting view is a *natural join
query* with the same adornment and, on the derived database, the same
answers — which is what both main theorems assume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.exceptions import QueryError
from repro.query.adorned import AdornedView
from repro.query.atoms import Atom, Variable
from repro.query.conjunctive import ConjunctiveQuery


@dataclass(frozen=True)
class NormalizedView:
    """Result of :func:`normalize_view`.

    Attributes
    ----------
    view:
        The rewritten adorned view; a natural join query with the original
        adornment.
    database:
        A database containing the (possibly derived) relations the rewritten
        view refers to.
    derived:
        Names of relations that were created by the rewriting, for reporting.
    """

    view: AdornedView
    database: Database
    derived: Tuple[str, ...]


def _normalize_atom(atom: Atom, index: int, db: Database) -> Tuple[Atom, Relation]:
    """Rewrite one atom into a natural-join atom over a derived relation."""
    relation = db[atom.relation]
    if relation.arity != atom.arity:
        raise QueryError(
            f"atom {atom!r} has arity {atom.arity}, relation "
            f"{relation.name!r} has arity {relation.arity}"
        )
    constants = dict(atom.constants())
    groups: Dict[Variable, List[int]] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            groups.setdefault(term, []).append(position)
    derived = relation
    if constants:
        derived = derived.select_constants(constants)
    repeated = [positions for positions in groups.values() if len(positions) > 1]
    if repeated:
        derived = derived.select_equal_columns(repeated)
    keep_vars = list(groups)  # order of first occurrence is preserved by dict
    keep_positions = [groups[v][0] for v in keep_vars]
    derived_name = f"{atom.relation}__n{index}"
    derived = derived.project(keep_positions, name=derived_name)
    return Atom(derived_name, tuple(keep_vars)), derived


def normalize_view(view: AdornedView, db: Database) -> NormalizedView:
    """Rewrite a full adorned view into a natural join query (Example 3).

    Atoms that are already natural are kept as-is (and their relations are
    carried over unchanged); atoms with constants or repeated variables get
    fresh derived relations. Raises :class:`QueryError` if the view is not
    full, since the rewriting (and the paper's data structures) require every
    body variable to appear in the head.
    """
    if not view.is_full:
        raise QueryError(
            f"view {view.name!r} is not full; projections are outside the "
            "scope of the Theorem 1/2 structures"
        )
    new_atoms: List[Atom] = []
    new_db = Database()
    derived_names: List[str] = []
    kept: Dict[str, Relation] = {}
    for index, atom in enumerate(view.atoms):
        if atom.is_natural():
            relation = db[atom.relation]
            if relation.arity != atom.arity:
                raise QueryError(
                    f"atom {atom!r} has arity {atom.arity}, relation "
                    f"{relation.name!r} has arity {relation.arity}"
                )
            new_atoms.append(atom)
            kept[atom.relation] = relation
            continue
        new_atom, derived = _normalize_atom(atom, index, db)
        new_atoms.append(new_atom)
        new_db.add(derived)
        derived_names.append(derived.name)
    for relation in kept.values():
        new_db.add(relation)
    query = ConjunctiveQuery(view.query.name, view.query.head, new_atoms)
    return NormalizedView(
        view=AdornedView(query, view.pattern),
        database=new_db,
        derived=tuple(derived_names),
    )


def natural_form(view: AdornedView, db: Database) -> Tuple[AdornedView, Database]:
    """``(view, db)`` as a natural join query: itself, or normalized.

    The preamble every structure over a full adorned view runs: natural
    joins pass through untouched (same objects), anything else goes
    through :func:`normalize_view`.
    """
    if view.is_natural_join():
        return view, db
    normalized = normalize_view(view, db)
    return normalized.view, normalized.database
