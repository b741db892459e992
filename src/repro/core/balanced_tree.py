"""The delay-balanced tree (Section 4.3, step 1).

The tree recursively halves the cost mass of the output space: a node at
level ``ℓ`` with f-interval ``I`` becomes a leaf once ``T(I)`` drops below
the level threshold ``τ_ℓ = τ / 2^{ℓ(1 − 1/α)}``; otherwise it splits at
the Algorithm 1 point into ``[a, β)`` / ``(β, b]`` children. Lemma 4 then
bounds the depth by ``O(log T)`` and the size by ``O(Π|R_F|^{u_F}/τ^α)``.

Two implementation notes beyond the paper:

* unit intervals are always leaves — a unit interval is answerable with
  O(1) membership probes, so stopping there preserves the delay bound and
  sidesteps unsplittable intervals;
* children whose interval has ``T = 0`` are pruned: no valuation can
  produce output there for any access tuple, so Algorithm 2 never needs
  to visit them.

The construction (:func:`build_tree_columns`) is level-synchronous over
arrays, not a recursion: all open intervals of one level are decomposed,
costed, tested and split at once, a fixed number of array steps per
level however many nodes it holds, and the pass writes
:class:`~repro.core.layout.TreeColumns` directly, ids in pre-order.
:class:`TreeNode` / :class:`DelayBalancedTree` are the object view a
structure materialises from those columns on request
(:meth:`DelayBalancedTree.from_columns`); no node object is made on the
build path.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, compress
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.cost import CostModel
from repro.core.intervals import Box, FInterval
from repro.core.layout import TreeColumns
from repro.core.splitting import split_points
from repro.exceptions import ParameterError

_MAX_DEPTH = 512


def level_threshold(tau: float, alpha: float, level: int) -> float:
    """``τ_ℓ = τ / 2^{ℓ(1 − 1/α)}`` (α = ∞ degrades to τ / 2^ℓ).

    The one formula: the build's stop test, the dictionary's heaviness
    test and a cut (:meth:`~repro.core.structure.CompressedRepresentation.cut`)
    all read these very floats.
    """
    exponent = 1.0 if math.isinf(alpha) else 1.0 - 1.0 / alpha
    return tau / (2.0 ** (level * exponent))


class TreeNode:
    """One node of the delay-balanced tree."""

    __slots__ = ("id", "interval", "level", "cost", "beta", "left", "right")

    def __init__(self, node_id: int, interval: FInterval, level: int, cost: float):
        self.id = node_id
        self.interval = interval
        self.level = level
        self.cost = cost
        self.beta: Optional[Tuple[int, ...]] = None
        self.left: Optional["TreeNode"] = None
        self.right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.beta is None


class DelayBalancedTree:
    """The tree as node objects plus its tuning parameters.

    ``boxes`` is each node's box decomposition in row form, aligned with
    ``nodes`` — the very list the compiled layout keeps as its
    ``boxes`` column, shared by the view (:meth:`from_columns`).
    """

    def __init__(
        self,
        root: Optional[TreeNode],
        nodes: List[TreeNode],
        tau: float,
        alpha: float,
        boxes: Optional[List[Tuple[Box, ...]]] = None,
    ):
        self.root = root
        self.nodes = nodes
        self.tau = tau
        self.alpha = alpha
        self.boxes = boxes
        self.max_level = max((node.level for node in nodes), default=0)

    def __len__(self) -> int:
        return len(self.nodes)

    def threshold(self, level: int) -> float:
        """This tree's :func:`level_threshold` at ``level``."""
        return level_threshold(self.tau, self.alpha, level)

    def depth(self) -> int:
        return self.max_level

    def leaves(self) -> List[TreeNode]:
        return [node for node in self.nodes if node.is_leaf]

    @classmethod
    def from_columns(cls, columns, tau: float, alpha: float):
        """The object view of :class:`~repro.core.layout.TreeColumns`.

        Node for node and cost for cost; a node's level is its parent's
        plus one, and a child's id is above its parent's, so one forward
        pass levels the tree. The view shares the columns' boxes.
        """
        nodes = [
            TreeNode(node_id, FInterval(low, high), 0, cost)
            for node_id, (low, high, cost) in enumerate(
                zip(columns.low, columns.high, columns.cost)
            )
        ]
        links = zip(nodes, columns.beta, columns.left, columns.right)
        for node, beta, left, right in links:
            node.beta = beta
            if left >= 0:
                node.left = nodes[left]
                node.left.level = node.level + 1
            if right >= 0:
                node.right = nodes[right]
                node.right.level = node.level + 1
        root = nodes[columns.root] if columns.root >= 0 else None
        return cls(root, nodes, tau, alpha, columns.boxes)


class _Level(NamedTuple):
    """One level of the pass: its nodes, in the order the pass found them.

    ``parent`` indexes the level above, ``side`` is True for a right
    child; ``low`` holds the endpoints as rows and ``lows`` / ``highs``
    as the column's tuples (an endpoint a child shares with its parent
    is the parent's very tuple); ``beta`` the split nodes' points (a
    leaf's row is not read); ``box_owner`` / ``box_rows`` the level's
    boxes, until they get their ids.
    """

    parent: np.ndarray
    side: np.ndarray
    low: np.ndarray
    cost: np.ndarray
    lows: List[Tuple[int, ...]]
    highs: List[Tuple[int, ...]]
    split: np.ndarray
    beta: np.ndarray
    box_owner: np.ndarray
    box_rows: np.ndarray


def build_tree_columns(
    cost_model: CostModel, tau: float, alpha: float
) -> Tuple[TreeColumns, int]:
    """The delay-balanced tree for ``cost_model``'s context, and its depth.

    Level-synchronous: all open intervals of a level are decomposed,
    their boxes costed and summed, the costless ones pruned, the leaf
    test applied and the split nodes' points found by Algorithm 1
    (:func:`~repro.core.splitting.split_points`), each step a fixed
    number of array operations however many nodes the level holds; the
    split nodes' sides open the next level. Every node's boxes are
    decomposed and costed once and kept as the ``boxes`` column. The
    columns are written directly, nodes numbered in pre-order, with no
    node object on the way.
    """
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    space = cost_model.ctx.space
    width, levels = space.width, []
    costs = None if space.is_empty() else cost_model.evaluator()
    # With some factor atom empty every box costs 0, the root too.
    if costs is not None and costs.live.size:
        # The boxes wait for their ids in the least int type a domain
        # index fits in.
        tops = costs.tops
        index = np.min_scalar_type(int(tops.max(initial=0)))
        low, high = np.zeros((1, width), np.int64), tops[None].copy()
        lows, highs = _tuples(low), _tuples(high)
        parent, side = np.zeros(1, np.int64), np.zeros(1, bool)
    else:
        low = np.zeros((0, width), np.int64)
    while len(low):
        if len(levels) > _MAX_DEPTH:
            raise ParameterError(
                "delay-balanced tree exceeded the depth guard; "
                "check cover weights and tau"
            )
        boxes, box_costs, cost = costs.intervals(low, high)
        kept = cost > 0.0
        if not kept.all():
            box_costs, boxes = box_costs[kept[boxes.owner]], boxes.select(kept)
            low, high, cost = low[kept], high[kept], cost[kept]
            parent, side = parent[kept], side[kept]
            lows, highs = list(compress(lows, kept)), list(compress(highs, kept))
            if not len(low):
                break
        # Unit intervals are leaves, and so is a node costing less than
        # its level's threshold. Even with both sides empty or costless
        # a split node stays one: it carries the unit valuation at beta,
        # which Algorithm 2 outputs when present.
        threshold = level_threshold(tau, alpha, len(levels))
        split = ~(low == high).all(axis=1) & ~(cost < threshold)
        at, beta = split.nonzero()[0], low.copy()
        if at.size:
            beta[at] = split_points(
                costs, boxes.select(split), box_costs[split[boxes.owner]], cost[at]
            )
        rows = boxes.rows.astype(index)
        owner = boxes.owner.astype(np.int32)
        levels.append(
            _Level(parent, side, low, cost, lows, highs, split, beta, owner, rows)
        )
        if not at.size:
            break
        beta = beta[at]
        # The sides [low, β) and (β, high] — β's predecessor and
        # successor are mixed-radix carries on the rows — but not where β
        # is the endpoint: β lies in [low, high], so the side is empty.
        leftward = (beta != low[at]).any(axis=1)
        rightward = (beta != high[at]).any(axis=1)
        before, after = _step(beta[leftward], tops, -1), _step(beta[rightward], tops, 1)
        left, right = at[leftward], at[rightward]
        low = np.concatenate([low[left], after])
        high = np.concatenate([before, high[right]])
        lows = [lows[node] for node in left.tolist()] + _tuples(after)
        highs = _tuples(before) + [highs[node] for node in right.tolist()]
        parent = np.concatenate([left, right])
        side = np.repeat([False, True], [len(left), len(right)])
    return _columns(levels, width), max(len(levels) - 1, 0)


def _step(points: np.ndarray, tops: np.ndarray, step: int) -> np.ndarray:
    """Each point's lexicographic successor (``step`` 1) or predecessor
    (−1), which must exist: the last coordinate that can move does, and
    every later one wraps round."""
    movable = points < tops if step > 0 else points > 0
    width = points.shape[1]
    place = width - 1 - movable[:, ::-1].argmax(axis=1)
    wrap = np.arange(width) > place[:, None]
    result = np.where(wrap, 0 if step > 0 else tops, points)
    result[np.arange(len(points)), place] += step
    return result


def _tuples(rows: np.ndarray) -> List[Tuple[int, ...]]:
    """Each row of a 2-d int array as a tuple of Python ints."""
    if not rows.shape[1]:
        return [()] * len(rows)
    return list(zip(*rows.T.tolist()))


def _boxes(rows: np.ndarray, owner: np.ndarray, count: int, width: int):
    """The ``boxes`` column: each of ``count`` nodes' box ``rows`` (box
    ``i`` is node ``owner[i]``'s, in box order) as tuples, made node
    after node in id order, some thousands of nodes at a time."""
    order = np.argsort(owner, kind="stable")
    starts = np.concatenate([[0], np.bincount(owner, minlength=count).cumsum()])
    column = []
    for first in range(0, count, 4096):
        bounds = starts[first : first + 4097]
        chunk = rows[order[bounds[0] : bounds[-1]]]
        pairs = list(zip(*chunk.reshape(-1, 2).T.tolist()))
        flat = list(zip(*[iter(pairs)] * width)) if width else [()] * len(chunk)
        bounds = (bounds - bounds[0]).tolist()
        column += [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]
    return column


def _columns(levels: List[_Level], width: int) -> TreeColumns:
    """The pass's levels as :class:`~repro.core.layout.TreeColumns`.

    Ids are pre-order — node, its left subtree, its right subtree — and
    that is the order of ``(low, level)``: a subtree's nodes have lows
    inside its interval, its root the least low and, of the nodes
    sharing that low (its leftmost path), the least level.
    """
    if not levels:
        return TreeColumns(-1, width, [], [], [], [], [], array("d"), [])

    def column(values):
        return np.concatenate(list(values))

    sizes = [len(level.cost) for level in levels]
    starts, low = np.cumsum([0] + sizes), column(level.low for level in levels)
    depth = np.repeat(np.arange(len(levels)), sizes)
    order = np.lexsort((depth, *low.T[::-1]))
    ids = np.empty(len(order), np.int64)
    ids[order] = np.arange(len(order))
    # Every node but the root (the first) is its parent's left or right.
    below = enumerate(levels[1:])
    parent = ids[column([depth[:0]] + [lv.parent + starts[d] for d, lv in below])]
    side, child = column(level.side for level in levels)[1:], ids[1:]
    left, right = np.full(len(ids), -1), np.full(len(ids), -1)
    left[parent[~side]], right[parent[side]] = child[~side], child[side]
    # β points and boxes become tuples in id order — the order a walk
    # reads them in, so one node's objects sit by the next one's.
    split = column(level.split for level in levels)[order].tolist()
    betas = _tuples(column(level.beta for level in levels)[order])
    owner = ids[column(lv.box_owner + starts[d] for d, lv in enumerate(levels))]
    boxes = _boxes(column(lv.box_rows for lv in levels), owner, len(ids), width)
    order = order.tolist()

    def python(name):
        values = list(chain.from_iterable(getattr(level, name) for level in levels))
        return [values[node] for node in order]

    return TreeColumns(
        0,
        width,
        left.tolist(),
        right.tolist(),
        python("lows"),
        python("highs"),
        [point if is_split else None for point, is_split in zip(betas, split)],
        array("d", column(level.cost for level in levels)[order].tobytes()),
        boxes,
    )


def build_delay_balanced_tree(
    cost_model: CostModel, tau: float, alpha: float
) -> DelayBalancedTree:
    """The delay-balanced tree as node objects: a view of its columns."""
    columns, _ = build_tree_columns(cost_model, tau, alpha)
    return DelayBalancedTree.from_columns(columns, tau, alpha)
