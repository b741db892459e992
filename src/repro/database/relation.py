"""Immutable relations over positional columns.

The paper works with named relations ``R_F`` whose columns are identified by
the query variables bound to them; the storage layer is deliberately
schema-free (columns are positions) and the query layer supplies the
variable-to-position mapping per atom. Tuples are plain Python tuples of
mutually comparable, hashable values.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence, Tuple

from repro.exceptions import SchemaError

Value = object
Row = Tuple[Value, ...]


class Relation:
    """A set of fixed-arity tuples.

    The constructor deduplicates. Instances behave like immutable containers:
    iteration, ``len``, and ``in`` work on rows, and the relational operators
    return new relations.

    Parameters
    ----------
    name:
        Identifier used in error messages and catalogs.
    arity:
        Number of columns. Every row must have exactly this length.
    rows:
        Iterable of tuples (any iterable of sequences; converted to tuples).
    """

    __slots__ = ("name", "arity", "_rows")

    def __init__(self, name: str, arity: int, rows: Iterable[Sequence[Value]] = ()):
        if arity < 0:
            raise SchemaError(f"relation {name!r}: arity must be >= 0, got {arity}")
        self.name = name
        self.arity = arity
        deduped = set()
        for row in rows:
            tup = tuple(row)
            if len(tup) != arity:
                raise SchemaError(
                    f"relation {name!r}: row {tup!r} has arity "
                    f"{len(tup)}, expected {arity}"
                )
            deduped.add(tup)
        self._rows = frozenset(deduped)

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Sequence[Value]) -> bool:
        return tuple(row) in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.arity == other.arity and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.arity, self._rows))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name!r}, arity={self.arity}, |rows|={len(self._rows)})"

    @property
    def rows(self) -> frozenset:
        """The underlying frozen set of tuples."""
        return self._rows

    def sorted_rows(self) -> list:
        """Rows in lexicographic order (requires comparable values)."""
        return sorted(self._rows)

    # ------------------------------------------------------------------
    # relational algebra
    # ------------------------------------------------------------------
    def project(self, positions: Sequence[int], name: str = None) -> "Relation":
        """Project (with duplicate elimination) onto the given column positions.

        ``positions`` may repeat or reorder columns; the result has arity
        ``len(positions)``.
        """
        for p in positions:
            if not 0 <= p < self.arity:
                raise SchemaError(
                    f"relation {self.name!r}: projection position {p} out of range"
                )
        new_rows = {tuple(row[p] for p in positions) for row in self._rows}
        return Relation(name or f"pi({self.name})", len(positions), new_rows)

    def select_constants(
        self, bindings: Mapping[int, Value], name: str = None
    ) -> "Relation":
        """Keep rows whose value at each position matches the given constant."""
        for p in bindings:
            if not 0 <= p < self.arity:
                raise SchemaError(
                    f"relation {self.name!r}: selection position {p} out of range"
                )
        items = tuple(bindings.items())
        new_rows = [
            row for row in self._rows if all(row[p] == v for p, v in items)
        ]
        return Relation(name or f"sigma({self.name})", self.arity, new_rows)

    def select_equal_columns(
        self, groups: Sequence[Sequence[int]], name: str = None
    ) -> "Relation":
        """Keep rows where, within each group of positions, all values agree.

        Used by the Example 3 rewriting to eliminate repeated variables in an
        atom (e.g. ``S(y, y, z)`` keeps rows with columns 0 and 1 equal).
        """
        new_rows = []
        for row in self._rows:
            ok = True
            for group in groups:
                first = row[group[0]]
                if any(row[p] != first for p in group[1:]):
                    ok = False
                    break
            if ok:
                new_rows.append(row)
        return Relation(name or f"sigma=({self.name})", self.arity, new_rows)

    def filter(self, predicate: Callable[[Row], bool], name: str = None) -> "Relation":
        """Generic selection by a row predicate."""
        return Relation(
            name or f"filter({self.name})",
            self.arity,
            (row for row in self._rows if predicate(row)),
        )

    def column_values(self, position: int) -> set:
        """The set of distinct values appearing in one column."""
        if not 0 <= position < self.arity:
            raise SchemaError(
                f"relation {self.name!r}: column {position} out of range"
            )
        return {row[position] for row in self._rows}

    def rename(self, name: str) -> "Relation":
        """A copy of this relation under a different name (rows shared)."""
        clone = Relation(name, self.arity)
        clone._rows = self._rows
        return clone

    def union(self, other: "Relation", name: str = None) -> "Relation":
        """Set union of two relations of equal arity."""
        if self.arity != other.arity:
            raise SchemaError(
                f"union of {self.name!r} (arity {self.arity}) and "
                f"{other.name!r} (arity {other.arity})"
            )
        result = Relation(name or f"({self.name} U {other.name})", self.arity)
        result._rows = self._rows | other._rows
        return result

    def with_changes(self, inserts: Iterable[Row], deletes: Iterable[Row]) -> "Relation":
        """This relation plus ``inserts`` minus ``deletes``, same name.

        The rows are taken as they are, not re-checked: the caller owns
        their arity (a dynamic representation checks each buffered row
        once, on the way in).
        """
        result = Relation(self.name, self.arity)
        result._rows = self._rows.union(inserts).difference(deletes)
        return result

    def semijoin_values(
        self, position: int, values: Iterable[Value], name: str = None
    ) -> "Relation":
        """Keep rows whose value at ``position`` is in ``values``."""
        allowed = set(values)
        return Relation(
            name or f"lsj({self.name})",
            self.arity,
            (row for row in self._rows if row[position] in allowed),
        )
