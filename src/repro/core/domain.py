"""Active domains and the lexicographic tuple space ``D_f`` (Section 4.1).

All f-interval machinery works in *index space*: each variable's active
domain is a sorted tuple of values, and positions refer to indexes into it.
This makes successor/predecessor, range widths and binary searches trivial
and keeps value comparisons out of the hot paths.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional, Sequence, Tuple

from repro.exceptions import ParameterError, QueryError


class Domain:
    """The sorted active domain of one variable."""

    __slots__ = ("values", "_index")

    def __init__(self, values: Sequence):
        self.values = tuple(sorted(set(values)))
        self._index = {v: i for i, v in enumerate(self.values)}

    def __len__(self) -> int:
        return len(self.values)

    def __bool__(self) -> bool:
        return bool(self.values)

    def index_of(self, value) -> Optional[int]:
        """Index of an exact value, or None if absent."""
        return self._index.get(value)

    def value_at(self, index: int) -> object:
        return self.values[index]

    def floor_index(self, value) -> Optional[int]:
        """Index of the largest domain value <= value, or None."""
        position = bisect_right(self.values, value)
        return position - 1 if position else None

    def ceil_index(self, value) -> Optional[int]:
        """Index of the smallest domain value >= value, or None."""
        position = bisect_left(self.values, value)
        return position if position < len(self.values) else None

    @property
    def bottom(self) -> int:
        """Index of ⊥ (the smallest element)."""
        return 0

    @property
    def top(self) -> int:
        """Index of ⊤ (the largest element)."""
        return len(self.values) - 1


class TupleSpace:
    """The space ``D_f = D[x1] × ... × D[xµ]`` under lexicographic order.

    Operates on *index tuples* — per-coordinate indexes into the sorted
    domains. The empty product (µ = 0) is the one-point space containing
    the empty tuple, which models boolean adorned views.
    """

    __slots__ = ("domains",)

    def __init__(self, domains: Sequence[Domain]):
        self.domains = tuple(domains)

    @property
    def width(self) -> int:
        return len(self.domains)

    def is_empty(self) -> bool:
        """True iff the space contains no tuples (some domain is empty)."""
        return any(len(d) == 0 for d in self.domains)

    def bottom(self) -> Tuple[int, ...]:
        """The lexicographically smallest index tuple."""
        if self.is_empty():
            raise ParameterError("empty tuple space has no bottom")
        return tuple(0 for _ in self.domains)

    def top(self) -> Tuple[int, ...]:
        """The lexicographically largest index tuple."""
        if self.is_empty():
            raise ParameterError("empty tuple space has no top")
        return tuple(d.top for d in self.domains)

    def successor(self, point: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
        """Lexicographic successor, or None at the top (odometer with carry)."""
        digits = list(point)
        for position in range(self.width - 1, -1, -1):
            if digits[position] < self.domains[position].top:
                digits[position] += 1
                for later in range(position + 1, self.width):
                    digits[later] = 0
                return tuple(digits)
            digits[position] = 0
        return None

    def predecessor(self, point: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
        """Lexicographic predecessor, or None at the bottom."""
        digits = list(point)
        for position in range(self.width - 1, -1, -1):
            if digits[position] > 0:
                digits[position] -= 1
                for later in range(position + 1, self.width):
                    digits[later] = self.domains[later].top
                return tuple(digits)
        return None

    def values(self, point: Tuple[int, ...]) -> Tuple:
        """Convert an index tuple to the underlying value tuple."""
        return tuple(
            domain.value_at(index)
            for domain, index in zip(self.domains, point)
        )

    def ceil_point(self, values: Sequence) -> Optional[Tuple[int, ...]]:
        """Smallest index tuple whose values are >= the given value tuple.

        The seek point of every ``enumerate_from``: ``values`` is a full
        value tuple whose entries need not be in the domains (a resume
        token is client-supplied). None when it lies beyond the top of
        the space; a tuple of the wrong width, or a value the domain's
        own cannot be ordered against, is a :class:`QueryError`.
        """
        if len(values) != self.width:
            raise QueryError(
                f"start tuple has {len(values)} values, expected "
                f"{self.width}"
            )
        point = []
        for coordinate, value in enumerate(values):
            domain = self.domains[coordinate]
            try:
                index = domain.index_of(value)
                ceiling = domain.ceil_index(value) if index is None else index
            except TypeError as error:
                raise QueryError(
                    f"start tuple value {value!r} at coordinate "
                    f"{coordinate} does not compare with that "
                    f"coordinate's domain: {error}"
                ) from error
            if ceiling is None:
                # This coordinate overflows: bump the previous coordinate.
                prefix = tuple(point) + tuple(d.top for d in self.domains[coordinate:])
                return self.successor(prefix)
            point.append(ceiling)
            if index is None:
                # Strictly larger at this coordinate: reset the suffix to ⊥.
                point.extend(0 for _ in range(coordinate + 1, self.width))
                break
        return tuple(point)

    def size(self) -> int:
        """Number of tuples in the space (1 for the empty product)."""
        total = 1
        for domain in self.domains:
            total *= len(domain)
        return total
