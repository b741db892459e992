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

:func:`split_points` runs the algorithm for many intervals at once, as
the tree pass (:mod:`repro.core.balanced_tree`) hands over one tree
level's split nodes: each box position of the prefix scan, each
coordinate and each step of the binary search is one array step over
every interval still searching, through the one evaluator of ``T``
(:class:`~repro.core.cost.BoxCosts`). The intervals arrive as their
boxes and box costs — the tree pass decomposed and costed them to
decide whether to split at all — so no box is costed twice; every probe
of a coordinate shares the prefix fixed so far, descended once.
:func:`split_interval` is the same pass over one interval.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.cost import BoxCosts, Boxes, CostModel, _row
from repro.core.intervals import FInterval

_EPS = 1e-12


def split_points(
    costs: BoxCosts, boxes: Boxes, box_costs: np.ndarray, totals: np.ndarray
) -> np.ndarray:
    """Algorithm 1 for every interval of ``boxes``: an ``(n, width)`` array.

    ``costs`` is the unrestricted evaluator the ``box_costs`` came from
    and ``totals`` each interval's ``T``, the sum of its box costs, which
    must be positive. Row ``i`` is interval ``i``'s split point.
    """
    count = len(totals)
    half = totals / 2.0
    owner, position = boxes.owner, boxes.position

    # The box where the prefix sums first exceed T/2; gamma adds the
    # boxes before it (all of them, and the last is chosen, if none does).
    gamma, chosen = np.zeros(count), np.full(count, -1)
    for k in range(int(position.max(initial=-1)) + 1):
        at = (position == k).nonzero()[0]
        at = at[chosen[owner[at]] < 0]
        mine, cost = owner[at], box_costs[at]
        crossed = gamma[mine] + cost > half[mine] + _EPS
        chosen[mine[crossed]] = at[crossed]
        gamma[mine[~crossed]] += cost[~crossed]
    last = np.searchsorted(owner, np.arange(count), "right") - 1
    chosen = np.where(chosen < 0, last, chosen)
    delta = box_costs[chosen]
    row = boxes.rows[chosen]

    # Refine inside the chosen box, coordinate by coordinate: its own
    # range first, then (the box is canonical) whole domains.
    width = row.shape[1]
    depth = np.logical_and.accumulate(row[:, :, 0] == row[:, :, 1], axis=1).sum(axis=1)
    every = np.arange(count)
    slices, absent = costs.start(np.zeros(count, np.int64)), np.zeros(count, bool)
    for coordinate in range(width):
        at = (depth <= coordinate).nonzero()[0]
        if at.size:
            first, high = row[at, coordinate, 0], row[at, coordinate, 1]
            probe = costs.counter(slices, absent, coordinate, at, first)
            target = np.minimum(delta[at], half[at] - gamma[at]) - _EPS
            low, left = first.copy(), np.zeros(len(at))
            # The items still searching, and their state.
            go = (first < high).nonzero()[0]
            lo, hi, aim, last = first[go], high[go], target[go], left[go]
            while go.size:
                mid = (lo + hi) // 2
                below = probe(go, mid)
                reached = below >= aim
                hi, lo = np.where(reached, mid, hi), np.where(reached, lo, mid + 1)
                last = np.where(reached, last, below)
                done = lo == hi
                if done.any():
                    low[go[done]], left[go[done]] = lo[done], last[done]
                    on = ~done
                    go, lo, hi, aim, last = go[on], lo[on], hi[on], aim[on], last[on]
            # low moved last on the failed probe at low - 1: its cost is
            # what lies strictly left of the chosen value.
            moved = low > first
            gamma[at[moved]] += left[moved]
            if coordinate + 1 < width:
                delta[at] = costs.counter(slices, absent, coordinate, at, low)(
                    slice(None), low
                )
            row[at, coordinate] = low[:, None]
        if coordinate + 1 < width:
            costs.fix(slices, absent, coordinate, every, row[:, coordinate, 0])
    return row[:, :, 0]


def split_interval(
    cost_model: CostModel, interval: FInterval
) -> Optional[Tuple[int, ...]]:
    """The split point of Algorithm 1, or None when ``T(I) = 0``.

    Returns an index tuple ``c`` inside ``interval`` with
    ``T([a, c)) ≤ T/2`` and ``T((c, b]) ≤ T/2`` (Proposition 8).
    """
    costs = cost_model.evaluator()
    if not costs.live.size:
        return None
    boxes, box_costs, total = costs.intervals(_row(interval.low), _row(interval.high))
    if total[0] <= 0.0:
        return None
    return tuple(split_points(costs, boxes, box_costs, total)[0].tolist())
