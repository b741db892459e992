"""The heavy-valuation dictionary ``D`` (Section 4.3 step 2, Appendix A).

For every tree node ``w`` at level ``ℓ`` and every bound valuation ``v_b``
such that ``(v_b, I(w))`` is ``τ_ℓ``-heavy, the dictionary stores one bit:
whether the join restricted to ``(v_b, I(w))`` is non-empty. Light pairs
are absent (⊥) — Algorithm 2 evaluates those directly within the delay
budget.

Construction follows Appendix A in spirit:

* candidate bound valuations come from joining the bound-variable
  projections of the relations (Proposition 13's observation that a heavy
  valuation must match every relation on its bound part), once per
  build, sorted; the output is joined under every candidate at once —
  the variable order with the bound variables first, as in Olteanu and
  Závodný's factorised representations, so it comes out grouped by
  candidate. Both are one array join (:func:`array_join`), the build's
  only one; :func:`materialize_outputs` decodes and groups the output,
  which is all the materialised baseline of Section 2.3 stores;
* candidates flow *down* the tree and are pruned once their cost drops to
  the smallest realizable threshold — by the sub-additivity of ``T`` under
  interval splitting (Lemma 2) the cost never grows toward the leaves, so
  pruned valuations can never be heavy below (and even a missed entry
  would only cost delay, never correctness);
* the emptiness bit is resolved against that output, sorted by candidate
  then free tuple, for every stored pair at once (:func:`nonempty_bits`,
  a lexicographic search a coordinate at a time: the spec's bisect per
  pair). The paper streams the same NPRR output level by level to bound
  *peak* memory; materializing it once keeps the identical ``T_C`` bound
  and the identical final structure, which is what the space guarantee
  is about. On ``point_lookup`` (4,000 candidates, 37,043 output rows,
  86,658 stored pairs) the array join and bits took the cold set-up
  from 0.094 to 0.051 s (``BENCH_38.json``: 10 alternating pairs on one
  shared 2-CPU machine).

Every count and join here reads the context's columns
(:mod:`repro.core.layout`) — no value-space index is built.

The descent is *level-synchronous* (:func:`build_dictionary`): one array
step per tree level takes every (candidate, node) pair alive at that
level, costs all of their boxes at once through the evaluator of ``T``
the tree pass uses too (:class:`~repro.core.cost.BoxCosts`, over the
candidates), computes every heavy test and survivor mask, and hands the
survivors to the node's children. It writes
:class:`~repro.core.layout.DictColumns` directly. Its arrays are locals
of the call, and numpy stops at the build: the serving kernel, layouts
and snapshots never see it. Each cost is the very float
:mod:`repro.core.cost`'s five rules give ``T(v_b, I(w))`` — the one the
spec's ``SpecCostModel.access_cost`` in ``tests/reference_build.py``
computes — compared with the very
:func:`~repro.core.balanced_tree.level_threshold` floats; Python ints,
``bytes``, an ``array('d')`` and the candidates' own access tuples reach
the columns, never a numpy scalar or array.
"""

from __future__ import annotations

from array import array
from itertools import chain, starmap
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.cost import (
    BoxCosts,
    CostModel,
    _box_sums,
    _ints,
    Slices,
    live_accesses,
    root_slices,
    run_keys,
)
from repro.core.layout import DictColumns, TreeColumns


class Output(NamedTuple):
    """A join's rows as index columns, sorted: by owner, then row.

    ``owner[i]`` is row ``i``'s access, a position in the accesses the
    join ran under, and ``columns[c][i]`` its index at coordinate ``c``.
    ``roots`` are those accesses' :func:`~repro.core.cost.root_slices`
    over every atom, as the join resolved them: a cost evaluator over
    the same accesses starts from them too.
    """

    owner: np.ndarray
    columns: Tuple[np.ndarray, ...]
    roots: Slices


def array_join(columns, accesses: Sequence[Tuple]) -> Output:
    """The join of ``columns`` over their whole space, under every access.

    Level-synchronous. The items start as the live accesses — those
    every atom has a root for, as :class:`~repro.core.cost.BoxCosts`
    rules — with their root slices. At each coordinate every item
    expands its smallest participating run (the first minimum, as the
    kernel's join takes), probes the other participants for each value
    through their composite keys (:func:`~repro.core.cost.run_keys`),
    keeps the hits and descends to their child slices (none past the
    last coordinate). The values are gathered from the runs in place, so
    the items stay in (access, prefix) order with no sort: the rows
    :func:`~repro.core.kernel.join_rows` emits, access by access. Every
    coordinate has a participant (a head variable occurs in some atom).
    """
    tops = [domain.top for domain in columns.space.domains]
    roots = root_slices(columns.atoms, accesses)
    owner, atoms = live_accesses(roots, len(accesses)), columns.join_atoms
    slices = [
        (lo[owner], hi[owner])
        for (lo, hi), atom in zip(roots, columns.atoms)
        if atom.width
    ]
    rows: Tuple[np.ndarray, ...] = ()
    for coordinate, parts in enumerate(columns.participants):
        runs = [run_keys(atoms[a], level, tops) for a, level in parts]
        lo = [slices[a][0] for a, _ in parts]
        item, chosen, at, value = _expand(runs, lo, [slices[a][1] for a, _ in parts])
        last = coordinate + 1 == columns.width
        keep, found = np.ones(len(item), dtype=bool), []
        for slot, (keys, scale, _) in enumerate(runs):
            other = chosen != slot
            probe = lo[slot][item[other]] * scale
            probe += value[other]
            hit = keys.searchsorted(probe)
            keep[other] &= keys.take(hit, mode="clip") == probe
            if not last:
                found.append((other, hit))
        del chosen  # each expansion-sized array goes once consumed
        item, value = item[keep], value[keep]
        owner, rows = owner[item], tuple(row[item] for row in rows) + (value,)
        if last:
            break
        for (a, level), (_, _, kids), (other, hit) in zip(parts, runs, found):
            slices[a] = None  # past its last level: never read again
            if level + 1 < atoms[a].width:
                position = at.copy()
                position[other] = hit
                position = position[keep]
                slices[a] = kids[0][position], kids[1][position]
        moved = {a for a, _ in parts}
        for a, atom in enumerate(atoms):
            if a not in moved and atom.coords[-1] > coordinate:
                slices[a] = slices[a][0][item], slices[a][1][item]
    return Output(owner, rows, roots)


def _expand(runs, lo, hi) -> Tuple[np.ndarray, ...]:
    """Each item's smallest run ``[lo, hi)``, entry by entry.

    ``runs`` are the participants' :func:`~repro.core.cost.run_keys`
    and ``lo``/``hi`` their items' slices. Returns ``(item, slot, at,
    value)`` per entry: its item, the run it is in (the first of the
    smallest, as the kernel's join takes), its position in that run's
    level and its index — items in order, values ascending within each.
    """
    starts = np.stack(lo)
    sizes = np.stack(hi) - starts
    items = np.arange(sizes.shape[1])
    pick = sizes.argmin(axis=0)
    size, start = sizes[pick, items], starts[pick, items]
    item = np.repeat(items, size)
    at = np.arange(len(item)) + np.repeat(start - np.cumsum(size) + size, size)
    slot = pick[item]
    offsets = np.cumsum([0] + [len(keys) for keys, _, _ in runs])[:-1]
    scales = _ints([scale for _, scale, _ in runs])
    merged = np.concatenate([keys for keys, _, _ in runs])
    value = merged[offsets[slot] + at]
    value -= (start * scales[pick])[item]
    return item, slot, at, value


def decode(columns, output: Output) -> List[Tuple]:
    """``output``'s rows as tuples, through ``columns.domain_values``."""
    pairs = zip(columns.domain_values, output.columns)
    rows = zip(*(map(values.__getitem__, column.tolist()) for values, column in pairs))
    return list(rows) if output.columns else [()] * len(output.owner)


def _spans(owner: np.ndarray) -> Tuple[List[int], List[Tuple[int, int]]]:
    """The first position of each owner's run in ``owner``, and the runs."""
    firsts = np.flatnonzero(np.diff(owner, prepend=-1)).tolist()
    return firsts, list(zip(firsts, firsts[1:] + [len(owner)]))


def bound_candidates(ctx) -> List[Tuple]:
    """Join of the bound-variable projections: the heavy-valuation superset.

    Every τ-heavy valuation must match each relation on its bound columns
    for at least one box, hence appears in this join (Proposition 13).
    Access tuples, in lexicographic order; ``[()]`` with no bound variable.
    """
    columns = ctx.bound_columns()
    return decode(columns, array_join(columns, [()]))


def materialize_outputs(
    columns, candidates: Sequence[Tuple]
) -> Tuple[Dict[Tuple, List[Tuple]], int]:
    """The full query output grouped by bound valuation, and its size.

    :func:`array_join` under the candidates, decoded, grouped by
    candidate in their order; a candidate without output gets no group.
    Each group is sorted; rows are decoded through
    ``columns.domain_values``, so a context's join columns give value
    tuples.
    """
    output = array_join(columns, candidates)
    rows = decode(columns, output)
    firsts, spans = _spans(output.owner)
    keys = map(candidates.__getitem__, output.owner[firsts].tolist())
    return dict(zip(keys, map(rows.__getitem__, starmap(slice, spans)))), len(rows)


def nonempty_bits(output: Output, tops, owner, low, high) -> np.ndarray:
    """Per ``i``: has access ``owner[i]`` an ``output`` row in ``[low[i], high[i]]``?

    ``low`` and ``high`` are ``(n, width)`` index rows of the space
    ``tops`` spans. The first row not below ``(owner, low)`` is found a
    coordinate at a time: over the rows sharing the prefix found so far,
    one sorted search on the keys ``group start · (top + 1) + index``,
    as an atom's runs are keyed, so no key exceeds ``rows · (top + 1)``
    however wide the space. Then that row is compared with ``high``:
    the bisect a stored pair's bit is, for every pair at once.
    """
    count = len(output.owner)
    if not count:
        return np.zeros(len(owner), dtype=bool)
    runs = output.owner.searchsorted(np.arange(int(owner.max(initial=-1)) + 2))
    lo, end = runs[owner], runs[owner + 1]
    position, open_ = lo, end > lo
    fresh, index = np.diff(output.owner, prepend=-1) != 0, np.arange(count)
    for column, top, point in zip(output.columns, tops, low.T):
        keys = np.maximum.accumulate(np.where(fresh, index, 0)) * (top + 1) + column
        probe = lo * (top + 1) + point
        first = keys.searchsorted(probe)
        position = np.where(open_, first, position)
        open_ &= keys.take(first, mode="clip") == probe
        lo = np.where(open_, first, lo)
        fresh |= np.diff(column, prepend=-1) != 0
    at, below = np.minimum(position, count - 1), np.ones(len(owner), dtype=bool)
    for column, point in zip(output.columns[::-1], high.T[::-1]):
        value = column[at]
        below = (value < point) | ((value == point) & below)
    return (position < end) & below


class TreeBoxes:
    """``T(v_b, I(w))`` of many (candidate, node) pairs in one array step.

    Every box of ``tree`` as a row, with its unit-prefix depth, costed
    by ``evaluator`` (:meth:`~repro.core.cost.CostModel.evaluator` over
    the candidates; only its live accesses may be asked for) and summed
    per pair as ``sum`` adds them.
    """

    def __init__(self, tree: TreeColumns, evaluator: BoxCosts):
        self.evaluator, width = evaluator, tree.width
        self.sizes = _ints([len(boxes) for boxes in tree.boxes])
        self.first = np.cumsum(self.sizes) - self.sizes
        ends = chain.from_iterable(chain.from_iterable(chain.from_iterable(tree.boxes)))
        self.rows = np.fromiter(ends, np.int64).reshape(self.sizes.sum(), width, 2)
        unit = self.rows[:, : width - 1, 0] == self.rows[:, : width - 1, 1]
        self.depth = np.cumprod(unit, axis=1).sum(axis=1)

    def __call__(self, owner: np.ndarray, node: np.ndarray) -> np.ndarray:
        """The cost of every pair ``(accesses[owner[i]], node[i])``."""
        boxes = self.sizes[node]
        pair = np.repeat(np.arange(len(node)), boxes)
        position = np.arange(len(pair)) - np.repeat(np.cumsum(boxes) - boxes, boxes)
        box = np.repeat(self.first[node], boxes) + position
        cost = self.evaluator.box_costs(owner[pair], self.rows[box], self.depth[box])
        return _box_sums(len(node), pair, position, cost)


def build_dictionary(
    cost_model: CostModel,
    tree: TreeColumns,
    thresholds: Sequence[float],
    candidates: Sequence[Tuple],
    output: Output,
) -> DictColumns:
    """The dictionary's columns for a constructed delay-balanced tree.

    ``tree`` is the tree pass's columns and ``thresholds[ℓ]`` its
    ``τ_ℓ`` at every level. ``candidates`` are :func:`bound_candidates`'
    and ``output`` the query output under them in index space, the
    context's :func:`array_join`.

    Level-synchronous, as the module docstring says: the pairs of one
    level are costed in one array step, and those costing more than the
    smallest threshold go on to the node's children. Entries come out
    grouped by access, in the candidates' (sorted) order, ids ascending
    within each, each with the cost that made it heavy: what a cut to a
    higher ``τ`` filters on, and the bit :func:`nonempty_bits` finds.
    With no bound variable the one candidate, ``()``, restricts nothing:
    its cost is the node's own.
    """
    if tree.root < 0:
        return DictColumns({}, [], b"", array("d"))
    left, right = _ints(tree.left), _ints(tree.right)
    owner, costs = np.arange(len(candidates)), None
    if cost_model.ctx.bound_order:
        costs = TreeBoxes(tree, cost_model.evaluator(candidates, output.roots))
        owner = costs.evaluator.live
    node_costs = np.frombuffer(tree.cost)
    node = np.full(len(owner), tree.root)
    found = [(owner[:0], node[:0], np.zeros(0))]
    for limit in thresholds:
        if not owner.size:
            break
        cost = node_costs[node] if costs is None else costs(owner, node)
        heavy = cost > limit
        found.append((owner[heavy], node[heavy], cost[heavy]))
        on = cost > thresholds[-1]
        kids = np.concatenate([left[node[on]], right[node[on]]])
        owner = np.concatenate([owner[on], owner[on]])[kids >= 0]
        node = kids[kids >= 0]
    owner, node, cost = (np.concatenate(column) for column in zip(*found))
    order = np.lexsort((node, owner))
    owner, node, cost = owner[order], node[order], cost[order]
    firsts, spans = _spans(owner)
    index = dict(zip(map(candidates.__getitem__, owner[firsts].tolist()), spans))
    shape = (len(tree.left), tree.width)
    low, high = (
        np.fromiter(chain.from_iterable(ends), np.int64).reshape(shape)[node]
        for ends in (tree.low, tree.high)
    )
    bits = nonempty_bits(output, cost_model.tops, owner, low, high).astype(np.uint8)
    return DictColumns(index, node.tolist(), bits.tobytes(), array("d", cost.tobytes()))
