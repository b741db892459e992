"""Databases: named collections of relations.

A :class:`Database` is the ``D`` of the paper — the input instance a
compressed representation is built from. It also computes the per-variable
*active domains* ``D[x]`` used by f-intervals: the sorted set of values
appearing in any column that a query binds to the variable ``x``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple

from repro.database.relation import Relation
from repro.exceptions import SchemaError


class Database:
    """A mapping from relation names to :class:`Relation` instances."""

    def __init__(self, relations: Iterable[Relation] = ()):
        self._relations: Dict[str, Relation] = {}
        for relation in relations:
            self.add(relation)

    def add(self, relation: Relation) -> None:
        """Register a relation; the name must be fresh."""
        if relation.name in self._relations:
            raise SchemaError(f"duplicate relation name {relation.name!r}")
        self._relations[relation.name] = relation

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self):
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relations(self) -> Mapping[str, Relation]:
        return dict(self._relations)

    def total_tuples(self) -> int:
        """|D| measured as the total number of stored tuples."""
        return sum(len(r) for r in self._relations.values())

    def replace(self, relation: Relation) -> "Database":
        """A copy of this database with one relation replaced or added."""
        copy = Database()
        copy._relations = dict(self._relations)
        copy._relations[relation.name] = relation
        return copy

    # ------------------------------------------------------------------
    # active domains
    # ------------------------------------------------------------------
    def active_domain(self, occurrences: Sequence[Tuple[str, int]]) -> Tuple:
        """Sorted distinct values over the given (relation, column) occurrences.

        This is the active domain ``D[x]`` of a query variable ``x`` whose
        occurrences in the body are the given positions. The union (rather
        than intersection) of the occurrence columns follows the paper's
        definition; tightening to the intersection would only shrink the
        f-interval space and is an optimization the tests do not assume.
        """
        columns = [self[name].column_values(p) for name, p in occurrences]
        return tuple(sorted(frozenset().union(*columns)))
