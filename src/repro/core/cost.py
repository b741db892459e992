"""The AGM-based cost function ``T`` (Section 4.2).

For a canonical f-box ``B`` and an optional bound valuation ``v_b``,

    T(v_b, B) = Π_{F∈E} |R_F(v_b, B)|^{û_F},      û_F = u_F / α(V_f),

and for an f-interval, ``T`` sums over the box decomposition. Proposition 6
shows ``T(v_b, I)`` bounds the time to evaluate the join restricted to
``(v_b, I)`` with a worst-case-optimal algorithm; the compressed
representation uses it as its notion of "expensive sub-instance".

Counts ``|R_F(B)|`` come from the context's sorted index over each atom
(:class:`~repro.core.layout.AtomColumns`): descend the unit prefix one
coordinate at a time, then count one coordinate's index range off the
prefix count column. With no ``v_b`` fixed they read the context's
free-columns-only instances, which keep each row's multiplicity; a
restricted ``T(v_b, B)`` starts from the slice of the bound values in
the atoms' own columns. Exponents ``û_F = 0`` contribute a factor of 1
by the usual ``x^0 = 1`` convention (including ``x = 0``), matching the
paper's product.

There is one evaluation of ``T``, :class:`BoxCosts`, and it works on
arrays: every box of a call descends its prefix with one
:func:`numpy.searchsorted` per factor atom and coordinate, over
composite ``run start · scale + value`` keys of the atom's level, and
counts its range the same way. The tree pass
(:mod:`repro.core.balanced_tree`), Algorithm 1
(:mod:`repro.core.splitting`) and the dictionary pass
(:mod:`repro.core.dictionary`) cost all their boxes of one tree level
in one call; :meth:`CostModel.box_cost` and
:meth:`CostModel.interval_cost` are one-interval calls. A cost is one
well-defined float — the object-form transcription in
``tests/reference_build.py``, counting on tries, computes the same
bits — by five rules:

1. **powers** — ``float(count) ** û`` is Python's, from a table per
   factor atom indexed by count and filled as counts occur (a
   vectorised power may differ in the last bit);
2. **products** — in factor-atom order, from the first factor; a zero
   count makes the box's cost 0.0;
3. **box sums** — one box position at a time, in box order, as the
   builtin ``sum`` adds them (left to right; with its compensation term
   from CPython 3.12 on), never a pairwise reduction (:func:`_box_sums`);
4. **thresholds** — the very floats
   :func:`~repro.core.balanced_tree.level_threshold` returns;
5. **output types** — Python ints, floats and tuples leave the build,
   never a numpy scalar or array.

Boxes are the plain index rows of :mod:`repro.core.intervals`; as
arrays, :class:`Boxes` holds the decomposition of many intervals at
once. numpy stops at the build: the serving kernel, layouts and
snapshots never see it.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from itertools import chain
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.context import ViewContext
from repro.core.intervals import Box, FInterval, box_decomposition
from repro.exceptions import ParameterError

#: From CPython 3.12 on, ``sum`` adds floats with Neumaier's compensation.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


def read_level(atom, coordinate: int) -> Tuple[int, bool]:
    """The level of ``atom``'s columns a count at ``coordinate`` reads.

    And whether the coordinate is one of the atom's, so its values clip
    the count there. Past the atom's last free coordinate the level is
    its last: the one-entry slice a fixed value leaves.
    """
    level = min(bisect_left(atom.coords, coordinate), max(atom.width - 1, 0))
    return level, coordinate in atom.coords


def _ints(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


class Boxes(NamedTuple):
    """The canonical boxes of many intervals, as arrays, box after box.

    ``owner`` is each box's interval, ``position`` its place in that
    interval's decomposition, ``depth`` the coordinate of its range
    (coordinates before are its unit prefix, after it whole domains)
    and ``rows`` its ``(lo, hi)`` pair per coordinate. Boxes are grouped
    by interval, in box order within each.
    """

    owner: np.ndarray
    position: np.ndarray
    depth: np.ndarray
    rows: np.ndarray

    def select(self, keep: np.ndarray) -> "Boxes":
        """The boxes of the intervals ``keep`` marks, renumbered in order."""
        chosen, rank = keep[self.owner], np.cumsum(keep) - 1
        return Boxes(rank[self.owner[chosen]], *(column[chosen] for column in self[1:]))


def decompose(low: np.ndarray, high: np.ndarray, tops: np.ndarray) -> Boxes:
    """:func:`~repro.core.intervals.box_decomposition` of every row pair.

    ``low`` and ``high`` are ``(n, width)`` endpoint rows of ``n``
    intervals. Each has ``2·width − 1`` candidate boxes in box order —
    left boxes innermost first, the middle box, right boxes outermost
    first — each a range at coordinate ``depth`` under a unit prefix of
    the low endpoint (the high one for right boxes); Lemma 1 keeps the
    non-empty ones, left and right boxes past the first coordinate the
    endpoints differ at (the last at most).
    """
    count, width = low.shape
    if not width:
        # Boolean views: the one-point space decomposes into one box.
        zeros = np.zeros(count, dtype=np.int64)
        return Boxes(np.arange(count), zeros, zeros, np.zeros((count, 0, 2), np.int64))
    last = width - 1
    first = np.full(count, last)
    if last:
        differ = low[:, :last] != high[:, :last]
        first = np.where(differ.any(axis=1), differ.argmax(axis=1), last)
    if (first == last).all():
        # At most the last coordinate differs: one closed box each.
        rows = np.stack([low, high], axis=2)
        return Boxes(np.arange(count), np.zeros(count, np.int64), first, rows)
    slot = np.arange(2 * width - 1)
    right, middle = slot > last, slot == last
    depth = np.abs(slot - last) + np.zeros((count, 1), np.int64)
    depth[:, last] = first
    items, inner = np.arange(count)[:, None], depth < last
    start = np.where(right, 0, low[items, depth] + inner)
    end = np.where(right | middle, high[items, depth] - inner, tops[depth])
    keep = (start <= end) & (middle | (first[:, None] < depth))
    owner, slot = keep.nonzero()
    depth, prefix = depth[keep], np.where(right[slot, None], high[owner], low[owner])
    before = np.arange(width) < depth[:, None]
    at = np.arange(width) == depth[:, None]
    rows = np.empty((len(owner), width, 2), np.int64)
    rows[..., 0] = np.where(before, prefix, np.where(at, start[keep][:, None], 0))
    rows[..., 1] = np.where(before, prefix, np.where(at, end[keep][:, None], tops))
    position = (keep.cumsum(axis=1) - 1)[keep]
    return Boxes(owner, position, depth, rows)


def _box_sums(count: int, owner, position, cost) -> np.ndarray:
    """Per owner, its boxes' costs added as ``sum`` adds a list of them.

    One box position at a time, so each owner's boxes go in box order.
    Without the compensation its term stays 0.0, and adding it to a
    non-negative total changes no bit.
    """
    positions = int(position.max(initial=-1)) + 1
    if positions == 1 and len(cost) == count:
        return cost + 0.0  # one box each: 0.0 + x, and no compensation
    total, compensation = np.zeros(count), np.zeros(count)
    for k in range(positions):
        rows, x = owner[position == k], cost[position == k]
        s = total[rows]
        t = total[rows] = s + x
        if _COMPENSATED_SUM:
            compensation[rows] += np.where(abs(s) >= abs(x), (s - t) + x, (x - t) + s)
    return total + compensation


def _level(atom, level: int, tops) -> Tuple:
    """``(counts, keys, scale, kids)``: one level of ``atom`` as arrays.

    ``counts`` are the prefix counts. Where the level holds values, a
    key is ``run start · scale + value index`` — runs are contiguous and
    sorted within, so the keys are sorted and a slice ``[lo, hi)`` finds
    ``v`` at ``lo · scale + v`` — and ``kids`` are the entries' child
    slices, on the last level each entry's own one-entry slice.
    """
    counts = _ints(atom.counts[level])
    if level >= atom.width:
        return counts, None, 0, None
    return (counts, *run_keys(atom, level, tops))


def run_keys(atom, level: int, tops) -> Tuple:
    """``(keys, scale, kids)`` of one of ``atom``'s levels, as :func:`_level`."""
    if level:
        lo, hi = _ints(atom.kid_lo[level - 1]), _ints(atom.kid_hi[level - 1])
    else:
        lo, hi = _ints(list(atom.roots.values())).reshape(-1, 2).T
    scale = tops[atom.coords[level]] + 1
    keys = np.repeat(lo, hi - lo) * scale + _ints(atom.vals[level])
    kids = np.arange(len(keys)), np.arange(1, len(keys) + 1)
    if level + 1 < atom.width:
        kids = _ints(atom.kid_lo[level]), _ints(atom.kid_hi[level])
    return keys, scale, kids


#: Per atom, the ``(lo, hi)`` slice arrays of a call's items.
Slices = List[Tuple[np.ndarray, np.ndarray]]


def root_slices(atoms, accesses) -> Slices:
    """Per atom every access's root ``(lo, hi)``.

    In one :meth:`~repro.core.layout.AtomColumns.root_ranges` pass per
    atom; an absent root is the empty slice ``(0, 0)``. A build resolves
    its candidates' once, for its join and its costs alike.
    """
    roots = []
    for atom in atoms:
        ranges = [r or (0, 0) for r in atom.root_ranges(accesses)]
        flat = np.fromiter(chain.from_iterable(ranges), np.int64, 2 * len(ranges))
        roots.append((flat[0::2], flat[1::2]))
    return roots


def live_accesses(roots: Slices, count: int) -> np.ndarray:
    """Which of ``count`` accesses every atom of ``roots`` has a root
    for: the only ones with a non-empty join over those atoms."""
    live = np.ones(count, dtype=bool)
    for lo, hi in roots:
        live &= hi > lo
    return np.flatnonzero(live)


class BoxCosts:
    """``T(v_b, B)`` of many (access, box) items in a few array steps.

    Made once per pass over the factor atoms' columns: per atom its
    levels as arrays and, per coordinate, the level a count reads there
    and whether the coordinate clips it (:func:`read_level`); per atom
    the ``count`` accesses' root slices, ``roots``, as the caller
    resolved them (``live`` lists the accesses every factor atom has —
    only those may be costed); per atom a table of Python's own powers,
    indexed by count. The pass's items carry an
    owner (an index into the accesses); their slices are arrays the
    caller holds (:meth:`start`), descended a coordinate at a time
    (:meth:`fix`) and counted over a range (:meth:`counter`).
    """

    def __init__(self, atoms, exponents: Sequence[float], tops, roots, count: int):
        self.width = width = len(tops)
        self.tops = _ints(tops)
        self.exponents, self.plan, self.powers = exponents, [], []
        for atom in atoms:
            levels = [_level(atom, lv, tops) for lv in range(max(atom.width, 1))]
            reads = (read_level(atom, c) for c in range(max(width, 1)))
            self.plan.append([(levels[level], clips) for level, clips in reads])
            # No slice counts more than the level's total; -1.0: not yet.
            self.powers.append(np.full(int(levels[0][0][-1]) + 1, -1.0))
        self.roots, self.live = roots, live_accesses(roots, count)

    def start(self, owner: np.ndarray) -> Slices:
        """Each item's root slices: its access's, per factor atom."""
        return [(lo[owner], hi[owner]) for lo, hi in self.roots]

    def fix(self, slices: Slices, absent, coordinate: int, at, values) -> None:
        """Descend items ``at`` through the unit ``values`` at ``coordinate``.

        In place. An item some factor atom lacks the value for is marked
        ``absent`` (it costs 0); its slices go on at entry 0's children,
        in bounds, and are not read.
        """
        for (lo, hi), plan in zip(slices, self.plan):
            (_, keys, scale, kids), clips = plan[coordinate]
            if clips:
                probe = lo[at] * scale + values
                found = keys.searchsorted(probe)
                miss = keys.take(found, mode="clip") != probe
                absent[at[miss]], found[miss] = True, 0
                lo[at], hi[at] = kids[0][found], kids[1][found]

    def counter(self, slices: Slices, absent, coordinate: int, at, low):
        """``T`` of items ``at``' boxes ``⟨prefix, [low, high], ▢, …⟩``.

        ``coordinate`` is the range's and ``low`` each item's range start;
        the slices are the items' under their unit prefix, read once.
        Returns ``count(which, high)``: the cost of the items
        ``at[which]`` up to their ``high``. Counts are clipped where the
        coordinate is the atom's — an atom it does not clip has one
        factor per item, whatever the range — and multiplied in
        factor-atom order.
        """
        factors = []
        for slot, ((lo, hi), plan) in enumerate(zip(slices, self.plan)):
            (counts, keys, scale, _), clips = plan[coordinate]
            lo, hi = lo[at], hi[at]
            if clips:
                base = lo * scale
                below = counts[keys.searchsorted(base + low)]
                factors.append((base, keys, counts, below, slot))
            else:
                factor = self._powers(slot, counts[hi] - counts[lo])
                factors.append((None, None, None, None, factor))
        zero = absent[at]
        anywhere = zero.any()

        def count(which, high):
            cost = np.ones(len(high)) if not factors else None
            for base, keys, counts, below, factor in factors:
                if base is None:
                    factor = factor[which]
                else:
                    hi = keys.searchsorted(base[which] + high, "right")
                    factor = self._powers(factor, counts[hi] - below[which])
                cost = factor if cost is None else cost * factor
            return np.where(zero[which], 0.0, cost) if anywhere else cost

        return count

    def _powers(self, slot: int, counts: np.ndarray) -> np.ndarray:
        """``float(count) ** û`` per count, each power Python's own."""
        table = self.powers[slot]
        powers = table[counts]
        if powers.min(initial=0.0) < 0.0:
            exponent = self.exponents[slot]
            for count in set(counts[powers < 0.0].tolist()):
                table[count] = float(count) ** exponent if count else 0.0
            powers = table[counts]
        return powers

    def intervals(
        self, low: np.ndarray, high: np.ndarray
    ) -> Tuple[Boxes, np.ndarray, np.ndarray]:
        """``T`` of every interval ``[low[i], high[i]]``, no ``v_b`` fixed.

        With its boxes (:func:`decompose`) and their costs: the box
        costs summed in box order, as ``sum`` adds them.
        """
        boxes = decompose(low, high, self.tops)
        owner = np.zeros(len(boxes.owner), np.int64)
        costs = self.box_costs(owner, boxes.rows, boxes.depth)
        return boxes, costs, _box_sums(len(low), boxes.owner, boxes.position, costs)

    def box_costs(self, owner: np.ndarray, rows: np.ndarray, depth: np.ndarray):
        """``T`` of every box ``rows[i]`` under access ``owner[i]``.

        ``depth[i]`` is the box's range coordinate, or any coordinate of
        its unit prefix past it: a unit range counts what fixing it
        leaves.
        """
        slices, absent = self.start(owner), np.zeros(len(owner), dtype=bool)
        for coordinate in range(self.width - 1):
            at = (depth > coordinate).nonzero()[0]
            self.fix(slices, absent, coordinate, at, rows[at, coordinate, 0])
        cost = np.empty(len(owner))
        for d in range(max(self.width, 1)):
            at = (depth == d).nonzero()[0]
            # A boolean view's one box has no range: nothing is clipped.
            low, high = rows[at, d].T if d < self.width else (at, at)
            cost[at] = self.counter(slices, absent, d, at, low)(slice(None), high)
        return cost


class CostModel:
    """Evaluates ``T`` for boxes and intervals under a fixed cover.

    Parameters
    ----------
    ctx:
        The view context (atom columns, domains, orders).
    weights:
        Fractional edge cover ``u`` of all variables, keyed by atom index.
    alpha:
        The slack ``α(V_f)`` of the cover on the free variables;
        ``math.inf`` encodes "no free variables".
    """

    def __init__(
        self,
        ctx: ViewContext,
        weights: Mapping[int, float],
        alpha: float,
    ):
        if alpha < 1:
            raise ParameterError(f"slack must be >= 1, got {alpha}")
        self.ctx = ctx
        self.weights = {
            binding.label: float(weights.get(binding.label, 0.0))
            for binding in ctx.atoms
        }
        self.alpha = alpha
        if math.isinf(alpha):
            self.uhat = {label: 0.0 for label in self.weights}
        else:
            self.uhat = {
                label: weight / alpha for label, weight in self.weights.items()
            }
        self.tops: Tuple[int, ...] = tuple(
            domain.top for domain in ctx.space.domains
        )
        # The atoms with a factor in the product, in atom order (a zero
        # exponent is a factor of 1 whatever the count), and their
        # exponents.
        self._factors: List[int] = [
            position
            for position, binding in enumerate(ctx.atoms)
            if self.uhat[binding.label] != 0.0
        ]
        self._exponents = [
            self.uhat[ctx.atoms[position].label] for position in self._factors
        ]

    # ------------------------------------------------------------------
    def evaluator(
        self, accesses: Optional[Sequence[Tuple]] = None, roots: Optional[Slices] = None
    ) -> BoxCosts:
        """The array evaluator of ``T``: ``T(v_b, B)`` for ``accesses``.

        ``roots`` are the accesses' :func:`root_slices` over the
        context's columns — a build's join resolved them. With neither,
        ``T(B)`` with no ``v_b`` fixed — the one access ``()`` over the
        free-columns-only instances, whose counts keep row multiplicities.
        """
        if accesses is None:
            atoms, accesses = self.ctx.count_columns(), [()]
            roots = root_slices(atoms, accesses)
        else:
            atoms = self.ctx.columns().atoms
        pick = self._factors
        factors, roots = [atoms[p] for p in pick], [roots[p] for p in pick]
        return BoxCosts(factors, self._exponents, self.tops, roots, len(accesses))

    def boxes(self, interval: FInterval) -> List[Box]:
        """The box decomposition of an interval of this model's space."""
        return box_decomposition(interval.low, interval.high, self.tops)

    def box_cost(self, box: Box) -> float:
        """``T(B)``: one box of the array evaluator (an empty box costs 0)."""
        rows = _ints(box).reshape(1, len(self.tops), 2)
        unit = rows[0, :-1, 0] == rows[0, :-1, 1]
        costs = self.evaluator()
        if not costs.live.size or (rows[..., 0] > rows[..., 1]).any():
            return 0.0
        depth = _ints([unit.cumprod().sum()])
        return float(costs.box_costs(_ints([0]), rows, depth)[0])

    def interval_cost(self, interval: FInterval) -> float:
        """``T(I) = Σ_{B ∈ B(I)} T(B)``, summed in box order."""
        costs = self.evaluator()
        if not costs.live.size:
            return 0.0
        return float(costs.intervals(_row(interval.low), _row(interval.high))[2][0])


def _row(point) -> np.ndarray:
    """One point as a ``(1, width)`` row."""
    return _ints(point).reshape(1, len(point))
