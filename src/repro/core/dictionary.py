"""The heavy-valuation dictionary ``D`` (Section 4.3 step 2, Appendix A).

For every tree node ``w`` at level ``ℓ`` and every bound valuation ``v_b``
such that ``(v_b, I(w))`` is ``τ_ℓ``-heavy, the dictionary stores one bit:
whether the join restricted to ``(v_b, I(w))`` is non-empty. Light pairs
are absent (⊥) — Algorithm 2 evaluates those directly within the delay
budget.

Construction follows Appendix A in spirit:

* candidate bound valuations come from joining the bound-variable
  projections of the relations (Proposition 13's observation that a heavy
  valuation must match every relation on its bound part) — the kernel's
  index-space join over those projections, once per build, sorted; the
  build materialises the output per candidate in the same order
  (:func:`materialize_outputs`, which is also all the materialised
  baseline of Section 2.3 stores);
* candidates flow *down* the tree and are pruned once their cost drops to
  the smallest realizable threshold — by the sub-additivity of ``T`` under
  interval splitting (Lemma 2) the cost never grows toward the leaves, so
  pruned valuations can never be heavy below (and even a missed entry
  would only cost delay, never correctness);
* the emptiness bit is resolved against the full query output, grouped by
  bound valuation with per-group sorted free tuples, via binary search.
  The paper streams the same NPRR output level by level to bound *peak*
  memory; materializing it once keeps the identical ``T_C`` bound and the
  identical final structure, which is what the space guarantee is about
  (see DESIGN.md).

Every count and join here reads the context's columns
(:mod:`repro.core.layout`) — no value-space index is built.

The descent is *level-synchronous* (:func:`build_dictionary`): one array
step per tree level takes every (candidate, node) pair alive at that
level, resolves the factor atoms' slices under all of their boxes at
once — one :func:`numpy.searchsorted` per atom and coordinate, over
composite ``(parent slice, index)`` keys of the atom's level — computes
every cost, heavy test and survivor mask, and hands the survivors to the
node's children. It writes :class:`~repro.core.layout.DictColumns`
directly. Its arrays are locals of the call, and numpy stops here: the
serving kernel, layouts and snapshots never see it. Each cost is the
very float :mod:`repro.core.cost`'s arithmetic gives ``T(v_b, I(w))`` —
the one the spec's ``SpecCostModel.access_cost`` in
``tests/reference_build.py`` computes — by five rules:

1. **powers** — ``float(count) ** û`` is Python's, from a table per
   factor atom over the counts that occur (a vectorised power may
   differ in the last bit);
2. **products** — in factor-atom order, from the first factor; a zero
   count makes the box's cost 0.0;
3. **box sums** — one box position at a time, in box order, as the
   builtin ``sum`` adds them (left to right; with its compensation term
   from CPython 3.12 on), never a pairwise reduction;
4. **thresholds** — the very floats
   :func:`~repro.core.balanced_tree.level_threshold` returns;
5. **output types** — Python ints, ``bytes``, an ``array('d')`` and the
   candidates' own access tuples reach the columns, never a numpy
   scalar or array.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import chain, repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.balanced_tree import DelayBalancedTree
from repro.core.cost import CostModel, read_level
from repro.core.intervals import FInterval
from repro.core.kernel import join_rows
from repro.core.layout import DictColumns, compile_bound_columns

#: From CPython 3.12 on, ``sum`` adds floats with Neumaier's compensation.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


class HeavyDictionary:
    """Bits for heavy (node, bound valuation) pairs; absence means light.

    The probe-and-edit view of a structure's
    :class:`~repro.core.layout.DictColumns` (the build writes the columns
    directly) and the spec's container. ``version`` counts in-place
    edits; compiled columnar layouts pin the version they were built
    against and go stale (refused until recompiled) when it moves — the
    guard that keeps the Algorithm 4 refinement and any future mutation
    from serving old bits.
    """

    __slots__ = ("_entries", "version")

    def __init__(self):
        self._entries: Dict[Tuple[int, Tuple], int] = {}
        self.version = 0

    def set(self, node_id: int, access: Tuple, bit: int) -> None:
        self._entries[(node_id, access)] = bit
        self.version += 1

    def get(self, node_id: int, access: Tuple) -> Optional[int]:
        """The stored bit, or None (the paper's ⊥) when the pair is light."""
        return self._entries.get((node_id, access))

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()

    @classmethod
    def from_columns(cls, columns, version: int) -> "HeavyDictionary":
        """The object view of compiled :class:`~repro.core.layout.DictColumns`.

        In bulk, at the version the columns were compiled against, so a
        later in-place edit shows against the layout that pinned it.
        """
        dictionary = cls()
        index = columns.index.items()
        owners = chain.from_iterable(repeat(a, hi - lo) for a, (lo, hi) in index)
        dictionary._entries = dict(zip(zip(columns.nodes, owners), columns.bits))
        dictionary.version = version
        return dictionary


def _whole(columns) -> Tuple[Tuple[int, int], ...]:
    """The one box spanning the tuple space ``columns`` join over."""
    return tuple((0, domain.top) for domain in columns.space.domains)


def bound_candidates(ctx) -> List[Tuple]:
    """Join of the bound-variable projections: the heavy-valuation superset.

    Every τ-heavy valuation must match each relation on its bound columns
    for at least one box, hence appears in this join (Proposition 13).
    Access tuples, in lexicographic order; ``[()]`` with no bound variable.
    """
    columns = compile_bound_columns(ctx)
    return join_rows(columns, (), [_whole(columns)])


def materialize_outputs(
    columns, candidates: Sequence[Tuple]
) -> Tuple[Dict[Tuple, List[Tuple]], int]:
    """The full query output grouped by bound valuation, and its size.

    One join over the whole free space per candidate (every output's
    bound part is one), in the candidates' order; a candidate without
    output gets no group. Each group is sorted — the join emits in
    lexicographic order. ``columns`` decide the rows' form: a context's
    join columns give value tuples (the materialised baseline), their
    :meth:`~repro.core.layout.JoinColumns.in_index_space` twin index
    tuples (what the build's O(log) emptiness probes bisect).
    """
    whole = [_whole(columns)]
    outputs: Dict[Tuple, List[Tuple]] = {}
    count = 0
    for access in candidates:
        rows = join_rows(columns, access, whole)
        if rows:
            outputs[access] = rows
            count += len(rows)
    return outputs, count


def output_nonempty_in(
    sorted_free_tuples: Sequence[Tuple[int, ...]], interval: FInterval
) -> bool:
    """Binary-search whether any output free tuple lies inside the interval."""
    position = bisect_left(sorted_free_tuples, interval.low)
    return (
        position < len(sorted_free_tuples)
        and sorted_free_tuples[position] <= interval.high
    )


def _ints(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


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
    if level:
        lo, hi = _ints(atom.kid_lo[level - 1]), _ints(atom.kid_hi[level - 1])
    else:
        lo, hi = _ints(list(atom.roots.values())).reshape(-1, 2).T
    scale = tops[atom.coords[level]] + 1
    keys = np.repeat(lo, hi - lo) * scale + _ints(atom.vals[level])
    kids = np.arange(len(keys)), np.arange(1, len(keys) + 1)
    if level + 1 < atom.width:
        kids = _ints(atom.kid_lo[level]), _ints(atom.kid_hi[level])
    return counts, keys, scale, kids


def _powers(counts: np.ndarray, exponent: float) -> np.ndarray:
    """``float(count) ** exponent`` per count, each power Python's own."""
    values, inverse = np.unique(counts, return_inverse=True)
    powers = [float(c) ** exponent if c else 0.0 for c in values.tolist()]
    return np.array(powers)[inverse]


class _AccessCosts:
    """``T(v_b, I(w))`` of many (candidate, node) pairs in one array step.

    Made once per pass: per factor atom its levels as arrays and, per
    coordinate, the level a count reads there and whether the
    coordinate clips it (:func:`~repro.core.cost.read_level`); the
    candidates' root slices, resolved once each; every box of the tree
    as a row, with its unit-prefix depth by
    :meth:`~repro.core.cost.CostWalk.box_cost`'s rule.
    """

    def __init__(self, cost_model: CostModel, tree, candidates):
        atoms, self.exponents = cost_model.factors()
        tops = cost_model.tops
        self.width = width = len(tops)
        self.plan = []
        for atom in atoms:
            levels = [_level(atom, lv, tops) for lv in range(max(atom.width, 1))]
            reads = (read_level(atom, c) for c in range(max(width, 1)))
            self.plan.append([(levels[level], clips) for level, clips in reads])
        # An access some factor atom lacks costs 0 at every node: a build
        # hands on only the live ones.
        live, self.roots = np.ones(len(candidates), dtype=bool), []
        for atom in atoms:
            ranges = [r or (0, 0) for r in atom.root_ranges(candidates)]
            flat = np.fromiter(chain.from_iterable(ranges), np.int64, 2 * len(ranges))
            self.roots.append((flat[0::2], flat[1::2]))
            live &= flat[1::2] > flat[0::2]
        self.live, self.dead = np.flatnonzero(live), ~live
        self.boxes = _ints([len(boxes) for boxes in tree.boxes])
        self.first = np.cumsum(self.boxes) - self.boxes
        ends = chain.from_iterable(chain.from_iterable(chain.from_iterable(tree.boxes)))
        self.rows = np.fromiter(ends, np.int64).reshape(self.boxes.sum(), width, 2)
        unit = self.rows[:, : width - 1, 0] == self.rows[:, : width - 1, 1]
        self.depth = np.cumprod(unit, axis=1).sum(axis=1)

    def __call__(self, owner: np.ndarray, node: np.ndarray) -> np.ndarray:
        """The cost of every pair ``(candidates[owner[i]], node[i])``."""
        boxes = self.boxes[node]
        pair = np.repeat(np.arange(len(node)), boxes)
        position = np.arange(len(pair)) - np.repeat(np.cumsum(boxes) - boxes, boxes)
        box = np.repeat(self.first[node], boxes) + position
        slices = [[lo[owner[pair]], hi[owner[pair]]] for lo, hi in self.roots]
        # Fix each box's unit prefix, a coordinate at a time; a box under
        # a prefix some factor atom lacks costs 0 (its slices go on at
        # entry 0's children, in bounds, and are not read).
        depth, absent = self.depth[box], self.dead[owner[pair]]
        for coordinate in range(self.width - 1):
            at = np.flatnonzero(depth > coordinate)
            for (lo, hi), plan in zip(slices, self.plan):
                (_, keys, scale, kids), clips = plan[coordinate]
                if clips:
                    probe = lo[at] * scale + self.rows[box[at], coordinate, 0]
                    found = np.searchsorted(keys, probe)
                    miss = keys.take(found, mode="clip") != probe
                    absent[at[miss]], found[miss] = True, 0
                    lo[at], hi[at] = kids[0][found], kids[1][found]
        # Count at the depth — clipped to the box's range where the
        # coordinate is the atom's — and multiply in factor-atom order.
        cost = np.ones(len(box))
        for d in range(max(self.width, 1)):
            at = np.flatnonzero(depth == d)
            for slot, ((lo, hi), plan) in enumerate(zip(slices, self.plan)):
                (counts, keys, scale, _), clips = plan[d]
                lo, hi = lo[at], hi[at]
                if clips:
                    low, high = self.rows[box[at], d].T + lo * scale
                    lo = np.searchsorted(keys, low)
                    hi = np.searchsorted(keys, high, "right")
                factor = _powers(counts[hi] - counts[lo], self.exponents[slot])
                cost[at] = cost[at] * factor if slot else factor
        cost[absent] = 0.0
        return _box_sums(len(node), pair, position, cost)


def _box_sums(pairs: int, pair, position, cost) -> np.ndarray:
    """Per pair, its boxes' costs added as ``sum`` adds a list of them.

    One box position at a time, so each pair's boxes go in box order.
    Without the compensation its term stays 0.0, and adding it to a
    non-negative total changes no bit.
    """
    total, compensation = np.zeros(pairs), np.zeros(pairs)
    for k in range(int(position.max(initial=-1)) + 1):
        rows, x = pair[position == k], cost[position == k]
        s = total[rows]
        t = total[rows] = s + x
        if _COMPENSATED_SUM:
            compensation[rows] += np.where(abs(s) >= abs(x), (s - t) + x, (x - t) + s)
    return total + compensation


def build_dictionary(
    cost_model: CostModel,
    tree: DelayBalancedTree,
    candidates: Sequence[Tuple],
    outputs: Mapping[Tuple, Sequence[Tuple[int, ...]]],
) -> DictColumns:
    """The dictionary's columns for a constructed delay-balanced tree.

    ``candidates`` are :func:`bound_candidates`' and ``outputs`` maps
    each of them with a non-empty result to its sorted list of free index
    tuples (the materialized query output).

    Level-synchronous, as the module docstring says: the pairs of one
    level are costed in one array step, and those costing more than the
    smallest threshold go on to the node's children. Entries come out
    grouped by access, in the candidates' (sorted) order, ids ascending
    within each, each with the cost that made it heavy: what a cut to a
    higher ``τ`` filters on. With no bound variable the one candidate,
    ``()``, restricts nothing: its cost is the node's own.
    """
    if tree.root is None:
        return DictColumns({}, [], b"", array("d"))
    nodes = tree.nodes
    left = _ints([-1 if n.left is None else n.left.id for n in nodes])
    right = _ints([-1 if n.right is None else n.right.id for n in nodes])
    thresholds = [tree.threshold(level) for level in range(tree.max_level + 1)]
    limit = np.array(thresholds)[_ints([n.level for n in nodes])]
    prune, owner, costs = tree.min_threshold(), np.arange(len(candidates)), None
    if cost_model.ctx.bound_order:
        costs = _AccessCosts(cost_model, tree, candidates)
        owner = costs.live
    node_costs = np.array([n.cost for n in nodes])
    node = np.full(len(owner), tree.root.id)
    found = [(owner[:0], node[:0], np.zeros(0))]
    while owner.size:
        cost = node_costs[node] if costs is None else costs(owner, node)
        heavy = cost > limit[node]
        found.append((owner[heavy], node[heavy], cost[heavy]))
        on = cost > prune
        kids = np.concatenate([left[node[on]], right[node[on]]])
        owner = np.concatenate([owner[on], owner[on]])[kids >= 0]
        node = kids[kids >= 0]
    owner, node, cost = (np.concatenate(column) for column in zip(*found))
    order = np.lexsort((node, owner))
    owner, node, cost = owner[order], node[order], cost[order]
    firsts = np.flatnonzero(np.diff(owner, prepend=-1))
    spans = zip(firsts.tolist(), firsts[1:].tolist() + [len(owner)])
    index = dict(zip([candidates[i] for i in owner[firsts].tolist()], spans))
    ids, bits = node.tolist(), bytearray(len(node))
    for access, (lo, hi) in index.items():
        rows = outputs.get(access, ())
        for position in range(lo, hi):
            bits[position] = output_nonempty_in(rows, nodes[ids[position]].interval)
    return DictColumns(index, ids, bytes(bits), array("d", cost.tobytes()))
