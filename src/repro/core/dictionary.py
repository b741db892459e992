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
from bisect import bisect_left
from itertools import chain, repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost import BoxCosts, CostModel, _box_sums, _ints
from repro.core.intervals import FInterval
from repro.core.kernel import join_rows
from repro.core.layout import DictColumns, TreeColumns, compile_bound_columns


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
    return _nonempty(sorted_free_tuples, interval.low, interval.high)


def _nonempty(sorted_free_tuples, low: Tuple[int, ...], high: Tuple[int, ...]) -> bool:
    position = bisect_left(sorted_free_tuples, low)
    return position < len(sorted_free_tuples) and sorted_free_tuples[position] <= high


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
    outputs: Mapping[Tuple, Sequence[Tuple[int, ...]]],
) -> DictColumns:
    """The dictionary's columns for a constructed delay-balanced tree.

    ``tree`` is the tree pass's columns and ``thresholds[ℓ]`` its
    ``τ_ℓ`` at every level. ``candidates`` are :func:`bound_candidates`'
    and ``outputs`` maps each of them with a non-empty result to its
    sorted list of free index tuples (the materialized query output).

    Level-synchronous, as the module docstring says: the pairs of one
    level are costed in one array step, and those costing more than the
    smallest threshold go on to the node's children. Entries come out
    grouped by access, in the candidates' (sorted) order, ids ascending
    within each, each with the cost that made it heavy: what a cut to a
    higher ``τ`` filters on. With no bound variable the one candidate,
    ``()``, restricts nothing: its cost is the node's own.
    """
    if tree.root < 0:
        return DictColumns({}, [], b"", array("d"))
    left, right = _ints(tree.left), _ints(tree.right)
    owner, costs = np.arange(len(candidates)), None
    if cost_model.ctx.bound_order:
        costs = TreeBoxes(tree, cost_model.evaluator(candidates))
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
    firsts = np.flatnonzero(np.diff(owner, prepend=-1))
    spans = zip(firsts.tolist(), firsts[1:].tolist() + [len(owner)])
    index = dict(zip([candidates[i] for i in owner[firsts].tolist()], spans))
    ids, bits = node.tolist(), bytearray(len(node))
    lows, highs = tree.low, tree.high
    for access, (lo, hi) in index.items():
        rows = outputs.get(access, ())
        for position in range(lo, hi):
            at = ids[position]
            bits[position] = _nonempty(rows, lows[at], highs[at])
    return DictColumns(index, ids, bytes(bits), array("d", cost.tobytes()))
