"""Immutable relations over positional columns.

The paper works with named relations ``R_F`` whose columns are identified by
the query variables bound to them; the storage layer is deliberately
schema-free (columns are positions) and the query layer supplies the
variable-to-position mapping per atom. Tuples are plain Python tuples of
mutually comparable, hashable values.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Tuple

from repro.exceptions import SchemaError

Value = object
Row = Tuple[Value, ...]


class Relation:
    """A set of fixed-arity tuples.

    The constructor deduplicates. Instances behave like immutable containers:
    iteration, ``len``, and ``in`` work on rows, and the relational operators
    return new relations.

    Two facts derived from the rows are memoised on the instance, each
    computed on first use: a column's distinct values
    (:meth:`column_values`) and the rows in canonical ``repr`` order with
    their ``repr`` bytes (:meth:`canonical`), what a snapshot's database
    state and fingerprints are made of. The rows never change after
    construction, so a memo cannot go stale; and every relation is made
    with its rows and an empty memo together (:meth:`_hold`), so none
    carries facts derived from other rows — an operator's result starts
    empty even when it shares its rows, and a pickled or copied relation
    leaves its memo behind. The memo is unsynchronised on purpose: racing
    threads compute equal values and the last assignment wins.

    Parameters
    ----------
    name:
        Identifier used in error messages and catalogs.
    arity:
        Number of columns. Every row must have exactly this length.
    rows:
        Iterable of tuples (any iterable of sequences; converted to tuples).
    """

    __slots__ = ("name", "arity", "_rows", "_columns", "_canonical")

    def __init__(self, name: str, arity: int, rows: Iterable[Sequence[Value]] = ()):
        if arity < 0:
            raise SchemaError(f"relation {name!r}: arity must be >= 0, got {arity}")
        deduped = set()
        for row in rows:
            tup = tuple(row)
            if len(tup) != arity:
                raise SchemaError(
                    f"relation {name!r}: row {tup!r} has arity "
                    f"{len(tup)}, expected {arity}"
                )
            deduped.add(tup)
        self._hold(name, arity, frozenset(deduped))

    def _hold(self, name: str, arity: int, rows: frozenset) -> None:
        """Set the rows and an empty memo together: the one place either
        is set."""
        self.name = name
        self.arity = arity
        self._rows = rows
        self._columns = {}  # column position -> its distinct values
        self._canonical = None  # (rows in repr order, their repr bytes)

    @classmethod
    def _of(cls, name: str, arity: int, rows: frozenset) -> "Relation":
        """A relation over ``rows`` taken as they are: a frozenset of
        tuples of arity ``arity``, not re-checked."""
        relation = object.__new__(cls)
        relation._hold(name, arity, rows)
        return relation

    def __reduce__(self):
        # The memo stays behind: a copy derives its own from its rows.
        return (self._of, (self.name, self.arity, self._rows))

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

    def canonical(self) -> Tuple[Tuple[Row, ...], bytes]:
        """The rows in ``repr`` order, and the UTF-8 bytes of their ``repr``.

        The order is ``sorted(rows, key=repr)``'s, ties included, so it is
        deterministic even for values that are not mutually comparable;
        the bytes are ``b"".join(repr(row).encode("utf-8"))`` over it.
        Computed once per relation (see the class docstring).
        """
        canonical = self._canonical
        if canonical is None:
            rows = tuple(self._rows)
            reprs = list(map(repr, rows))
            # A stable sort of positions: ties keep the rows' own order.
            order = sorted(range(len(rows)), key=reprs.__getitem__)
            canonical = (
                tuple(map(rows.__getitem__, order)),
                "".join(map(reprs.__getitem__, order)).encode("utf-8"),
            )
            self._canonical = canonical
        return canonical

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

    def column_values(self, position: int) -> frozenset:
        """The distinct values appearing in one column, computed once."""
        values = self._columns.get(position)
        if values is None:
            if not 0 <= position < self.arity:
                raise SchemaError(
                    f"relation {self.name!r}: column {position} out of range"
                )
            values = frozenset(map(itemgetter(position), self._rows))
            self._columns[position] = values
        return values

    def rename(self, name: str) -> "Relation":
        """A copy of this relation under a different name (rows shared)."""
        return Relation._of(name, self.arity, self._rows)

    def union(self, other: "Relation", name: str = None) -> "Relation":
        """Set union of two relations of equal arity."""
        if self.arity != other.arity:
            raise SchemaError(
                f"union of {self.name!r} (arity {self.arity}) and "
                f"{other.name!r} (arity {other.arity})"
            )
        return Relation._of(
            name or f"({self.name} U {other.name})",
            self.arity,
            self._rows | other._rows,
        )

    def with_changes(self, inserts: Iterable[Row], deletes: Iterable[Row]) -> "Relation":
        """This relation plus ``inserts`` minus ``deletes``, same name.

        The rows are taken as they are, not re-checked: the caller owns
        their arity (a dynamic representation checks each buffered row
        once, on the way in).
        """
        return Relation._of(
            self.name, self.arity, self._rows.union(inserts).difference(deletes)
        )

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
