"""Balanced splitting of f-intervals (Algorithm 1, Lemma 3, Proposition 8).

Given an f-interval ``I`` with total cost ``T = T(I)``, the algorithm finds
a split point ``c ∈ D_f`` such that both ``T([a, c))`` and ``T((c, b])`` are
at most ``T/2``. It first locates the box of the decomposition where the
prefix sums cross ``T/2``, then refines coordinate by coordinate: at each
coordinate a binary search (Lemma 3) finds the smallest value whose
"below-or-equal" cost reaches the remaining budget, using the O(log)
count oracle of the context's columns. The two running quantities mirror the paper's
Algorithm 1: ``gamma`` (cost strictly to the left of the evolving prefix)
and ``delta`` (cost of the current unit-prefix box).

The interval arrives as its boxes and their costs — whoever decomposed
and costed it (the tree builder did, to decide whether to split at all)
hands both over, so no box is costed twice. Every probe of the search
shares the unit prefix fixed so far, which the
:class:`~repro.core.cost.CostWalk` descends once.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.cost import CostModel, CostWalk
from repro.core.intervals import Box, FInterval

_EPS = 1e-12


def split_boxes(
    walk: CostWalk, boxes: Sequence[Box], costs: Sequence[float]
) -> Optional[Tuple[int, ...]]:
    """Algorithm 1 over an interval's canonical ``boxes`` and ``costs``.

    ``walk`` is the unrestricted cost evaluator the costs came from.
    Returns the split point, or None when the costs sum to 0.
    """
    total = sum(costs)
    if total <= 0.0:
        return None
    half = total / 2.0

    # Box where the prefix sums first exceed T/2.
    gamma = 0.0
    chosen = len(boxes) - 1
    for index, cost in enumerate(costs):
        if gamma + cost > half + _EPS:
            chosen = index
            break
        gamma += cost
    delta = costs[chosen]
    box = boxes[chosen]

    # Refine inside the chosen box, coordinate by coordinate: its own
    # range first, then (the box is canonical) whole domains.
    row = list(box)
    depth = 0
    while depth < len(row) and row[depth][0] == row[depth][1]:
        depth += 1
    for coordinate in range(depth, len(row)):
        first, high = row[coordinate]
        nodes = walk.descend(row, coordinate)
        target = min(delta, half - gamma)
        low = first
        while low < high:
            mid = (low + high) // 2
            below = walk.range_cost(nodes, coordinate, first, mid)
            if below >= target - _EPS:
                high = mid
            else:
                low = mid + 1
                left = below
        if low > first:
            # low moved last on the failed probe at low - 1: its cost is
            # what lies strictly left of the chosen value.
            gamma += left
        if coordinate + 1 < len(row):
            delta = walk.range_cost(nodes, coordinate, low, low)
        row[coordinate] = (low, low)
    return tuple([pair[0] for pair in row])


def split_interval(
    cost_model: CostModel, interval: FInterval
) -> Optional[Tuple[int, ...]]:
    """The split point of Algorithm 1, or None when ``T(I) = 0``.

    Returns an index tuple ``c`` inside ``interval`` with
    ``T([a, c)) ≤ T/2`` and ``T((c, b]) ≤ T/2`` (Proposition 8).
    """
    walk = cost_model.walk()
    boxes = cost_model.boxes(interval)
    costs = [walk.box_cost(box) for box in boxes]
    return split_boxes(walk, boxes, costs)
