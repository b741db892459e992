"""Conjunctive queries (Section 2.1)."""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.exceptions import QueryError
from repro.query.atoms import Atom, Variable


class ConjunctiveQuery:
    """A conjunctive query ``Q(y) = R1(x1), ..., Rn(xn)``.

    Parameters
    ----------
    name:
        Name of the head atom.
    head:
        The head variables, in order. Must be a subset of the body variables.
    atoms:
        The body atoms.
    """

    __slots__ = ("name", "head", "atoms", "is_full", "_natural")

    def __init__(self, name: str, head: Sequence[Variable], atoms: Sequence[Atom]):
        if not atoms:
            raise QueryError(f"query {name!r}: empty body")
        body_vars = set()
        for atom in atoms:
            body_vars.update(atom.variables())
        seen = set()
        for var in head:
            if not isinstance(var, Variable):
                raise QueryError(f"query {name!r}: head term {var!r} is not a variable")
            if var in seen:
                raise QueryError(f"query {name!r}: duplicate head variable {var!r}")
            if var not in body_vars:
                raise QueryError(
                    f"query {name!r}: head variable {var!r} missing from body"
                )
            seen.add(var)
        self.name = name
        self.head = tuple(head)
        self.atoms = tuple(atoms)
        #: True iff every body variable appears in the head.
        self.is_full = len(seen) == len(body_vars)
        self._natural = self.is_full and all(a.is_natural() for a in self.atoms)

    # ------------------------------------------------------------------
    # structural properties
    # ------------------------------------------------------------------
    def body_variables(self) -> Tuple[Variable, ...]:
        """Distinct body variables in order of first occurrence."""
        seen = []
        for atom in self.atoms:
            for var in atom.variables():
                if var not in seen:
                    seen.append(var)
        return tuple(seen)

    @property
    def is_boolean(self) -> bool:
        return not self.head

    def is_natural_join(self) -> bool:
        """Full, no constants, no repeated variables in any atom."""
        return self._natural

    def atoms_for(self, var: Variable) -> Tuple[int, ...]:
        """Indices of atoms that mention ``var``."""
        return tuple(
            i for i, atom in enumerate(self.atoms) if var in atom.variables()
        )

    def __repr__(self) -> str:
        head = ", ".join(v.name for v in self.head)
        body = ", ".join(repr(a) for a in self.atoms)
        return f"{self.name}({head}) = {body}"
