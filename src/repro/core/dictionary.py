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
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.balanced_tree import DelayBalancedTree, TreeNode
from repro.core.cost import CostModel
from repro.core.intervals import FInterval
from repro.core.kernel import join_rows
from repro.core.layout import compile_bound_columns


class HeavyDictionary:
    """Bits for heavy (node, bound valuation) pairs; absence means light.

    ``version`` counts in-place edits; compiled columnar layouts pin the
    version they were built against and go stale (refused until
    recompiled) when it moves — the guard that keeps the Algorithm 4
    refinement and any future mutation from serving old bits.

    ``costs`` is what :func:`build_dictionary` adds: each entry's
    ``T_{v_b}(I(w))``, aligned with the entries' insertion order (the
    build sets each pair once, in pre-order). None on every other
    dictionary.
    """

    __slots__ = ("_entries", "version", "costs")

    def __init__(self):
        self._entries: Dict[Tuple[int, Tuple], int] = {}
        self.version = 0
        self.costs: Optional[array] = None

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


def build_dictionary(
    cost_model: CostModel,
    tree: DelayBalancedTree,
    candidates: Sequence[Tuple],
    outputs: Mapping[Tuple, Sequence[Tuple[int, ...]]],
) -> HeavyDictionary:
    """Build the dictionary for a constructed delay-balanced tree.

    ``candidates`` are :func:`bound_candidates`' and ``outputs`` maps
    each of them with a non-empty result to its sorted list of free index
    tuples (the materialized query output).

    Each candidate's slices are resolved once, into the
    :class:`~repro.core.cost.CostWalk` that costs it against every node
    it reaches; the walks are locals of this pass and go with it. The
    cost that made a pair heavy is kept beside its bit
    (:attr:`HeavyDictionary.costs`): it is what a cut to a higher ``τ``
    filters on.
    """
    dictionary = HeavyDictionary()
    costs = dictionary.costs = array("d")
    if tree.root is None:
        return dictionary
    ctx = cost_model.ctx
    boxes = tree.boxes
    # With no bound variable the one candidate, (), restricts nothing:
    # its T(v_b, I) is T(I) over the very same columns — the node's cost.
    unrestricted = not ctx.bound_order
    candidates = [
        (access, cost_model.walk(access), outputs.get(access))
        for access in candidates
    ]
    prune_threshold = tree.min_threshold()
    stack: List[Tuple[TreeNode, List[Tuple]]] = [(tree.root, candidates)]
    while stack:
        node, current = stack.pop()
        threshold = tree.threshold(node.level)
        interval = node.interval
        node_boxes = boxes[node.id]
        survivors: List[Tuple] = []
        has_children = node.left is not None or node.right is not None
        for candidate in current:
            access, walk, free_tuples = candidate
            cost = node.cost if unrestricted else walk.boxes_cost(node_boxes)
            if cost > threshold:
                nonempty = free_tuples is not None and output_nonempty_in(
                    free_tuples, interval
                )
                dictionary.set(node.id, access, 1 if nonempty else 0)
                costs.append(cost)
            if has_children and cost > prune_threshold:
                survivors.append(candidate)
        # Right pushed first, so nodes are visited in pre-order — id
        # order — and each access's entries arrive with ascending ids.
        if survivors:
            if node.right is not None:
                stack.append((node.right, survivors))
            if node.left is not None:
                stack.append((node.left, survivors))
    return dictionary
