"""f-intervals and the box decomposition (Section 4.1).

Everything lives in index space (see :mod:`repro.core.domain`). Intervals
are *closed* on both ends: the paper's half-open constructions are
normalized through successor/predecessor, which exist because domains are
finite.

An f-box (Definition 2) is a product of per-coordinate closed index
ranges, written as the plain row ``((lo, hi), ...)`` — one pair per free
coordinate, the form :class:`~repro.core.layout.TreeColumns` stores and
the kernel walks. The boxes :func:`box_decomposition` produces are
*canonical* (a prefix of unit ranges, one general range, then
unrestricted coordinates), ordered lexicographically, with empty boxes
dropped — exactly the properties Lemma 1 proves. The object form of the
same construction (one class per box and per scalar range) is the
build's executable spec in ``tests/reference_build.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.domain import TupleSpace
from repro.exceptions import ParameterError

#: One f-box in index space: a closed ``(lo, hi)`` range per coordinate.
Box = Tuple[Tuple[int, int], ...]


def _canonical(
    units: Sequence[int], low: int, high: int, tops: Sequence[int]
) -> Box:
    """The row ``⟨units, [low, high], ▢, ...⟩``, every pair its own."""
    row = [(index, index) for index in units]
    row.append((low, high))
    row.extend([(0, top) for top in tops[len(row) :]])
    return tuple(row)


def box_decomposition(
    low: Tuple[int, ...], high: Tuple[int, ...], tops: Sequence[int]
) -> List[Box]:
    """The canonical box decomposition ``B([low, high])`` (Lemma 1).

    ``tops`` holds each coordinate's largest domain index. The returned
    boxes are non-empty, pairwise disjoint, ordered lexicographically,
    and their union is exactly the interval; a width-µ space yields at
    most ``2µ - 1`` of them.
    """
    width = len(low)
    if width == 0:
        # Boolean views: the one-point space decomposes into one box.
        return [()]
    last = width - 1
    j = 0
    while j < last and low[j] == high[j]:
        j += 1
    if j == last:
        # At most the last coordinate differs: one closed box covers it
        # (the paper's single-box case, cf. the end of Example 12).
        return [_canonical(low[:j], low[j], high[j], tops)]
    boxes: List[Box] = []
    # Left boxes: innermost coordinate first (the paper's order
    # B^ℓ_µ ≤ ... ≤ B^ℓ_{j+1}, Lemma 1).
    for i in range(last, j, -1):
        start = low[i] if i == last else low[i] + 1
        if start <= tops[i]:
            boxes.append(_canonical(low[:i], start, tops[i], tops))
    # Middle box: the open range at the first differing coordinate.
    if low[j] + 1 < high[j]:
        boxes.append(_canonical(low[:j], low[j] + 1, high[j] - 1, tops))
    # Right boxes, outermost first.
    for i in range(j + 1, width):
        end = high[i] if i == last else high[i] - 1
        if end >= 0:
            boxes.append(_canonical(high[:i], 0, end, tops))
    return boxes


class FInterval:
    """A closed lexicographic interval ``[low, high]`` of index tuples."""

    __slots__ = ("low", "high")

    def __init__(self, low: Tuple[int, ...], high: Tuple[int, ...]):
        if len(low) != len(high):
            raise ParameterError("interval endpoints have different widths")
        if low > high:
            raise ParameterError(f"empty f-interval [{low}, {high}]")
        self.low = tuple(low)
        self.high = tuple(high)

    @classmethod
    def full(cls, space: TupleSpace) -> "FInterval":
        """The interval covering the entire tuple space."""
        return cls(space.bottom(), space.top())

    def is_unit(self) -> bool:
        return self.low == self.high

    def contains(self, point: Tuple[int, ...]) -> bool:
        return self.low <= tuple(point) <= self.high

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FInterval):
            return NotImplemented
        return self.low == other.low and self.high == other.high

    def __hash__(self) -> int:
        return hash((self.low, self.high))

    def __repr__(self) -> str:
        return f"FInterval[{self.low}, {self.high}]"

    # ------------------------------------------------------------------
    def split_at(
        self, space: TupleSpace, point: Tuple[int, ...]
    ) -> Tuple[Optional["FInterval"], Optional["FInterval"]]:
        """The closed intervals ``[low, point)`` and ``(point, high]``.

        Either side may be None when empty. ``point`` must lie inside.
        """
        if not self.contains(point):
            raise ParameterError(f"split point {point} outside {self!r}")
        left = None
        before = space.predecessor(point)
        if before is not None and before >= self.low:
            left = FInterval(self.low, before)
        right = None
        after = space.successor(point)
        if after is not None and after <= self.high:
            right = FInterval(after, self.high)
        return left, right
