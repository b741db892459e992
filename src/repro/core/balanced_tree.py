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
"""

from __future__ import annotations

import math
from array import array
from typing import List, Optional, Tuple

from repro.core.cost import CostModel
from repro.core.intervals import Box, FInterval, box_decomposition
from repro.core.splitting import split_boxes
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else f"split@{self.beta}"
        return f"TreeNode(id={self.id}, level={self.level}, {kind}, {self.interval!r})"


class DelayBalancedTree:
    """The constructed tree plus its tuning parameters.

    ``boxes`` is each node's box decomposition in row form, aligned with
    ``nodes`` — the very list the compiled layout keeps as its
    ``boxes`` column. The builder supplies it, and so do the columns a
    view is materialised from (:meth:`from_columns`).
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

    def min_threshold(self) -> float:
        """The smallest threshold over the realized levels."""
        return self.threshold(self.max_level)

    def depth(self) -> int:
        return self.max_level

    def leaves(self) -> List[TreeNode]:
        return [node for node in self.nodes if node.is_leaf]

    def columns(self):
        """The node columns the layout compiler takes, positionally aligned.

        ``(root id, left, right, lows, highs, betas, costs)``: child ids
        with ``-1`` sentinels (``node.id`` equals its index in ``nodes``
        by construction), interval endpoints as index tuples, β codes
        (None on leaves) and ``T(I)`` as an ``array('d')``.
        """
        nodes = self.nodes
        return (
            self.root.id if self.root is not None else -1,
            [n.left.id if n.left is not None else -1 for n in nodes],
            [n.right.id if n.right is not None else -1 for n in nodes],
            [n.interval.low for n in nodes],
            [n.interval.high for n in nodes],
            [n.beta for n in nodes],
            array("d", [n.cost for n in nodes]),
        )

    @classmethod
    def from_columns(cls, columns, tau: float, alpha: float):
        """The object view of compiled :class:`~repro.core.layout.TreeColumns`.

        The inverse of :meth:`columns`, node for node and cost for cost;
        a node's level is its parent's plus one, and a child's id is
        above its parent's, so one forward pass levels the tree. The
        view shares the columns' boxes.
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


def build_delay_balanced_tree(
    cost_model: CostModel, tau: float, alpha: float
) -> DelayBalancedTree:
    """Construct the delay-balanced tree for the context of ``cost_model``.

    Every node's interval is decomposed and its boxes costed exactly
    once: the sum decides leaf or split, the same boxes and costs go to
    Algorithm 1, and the boxes stay on the tree for the dictionary pass
    and the layout compiler. One :class:`~repro.core.cost.CostWalk`
    serves the whole construction and ends with it.
    """
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    space = cost_model.ctx.space
    if space.is_empty():
        return DelayBalancedTree(None, [], tau, alpha, [])
    tops = cost_model.tops
    walk = cost_model.walk()
    nodes: List[TreeNode] = []
    node_boxes: List[Tuple[Box, ...]] = []

    def make(interval: FInterval, level: int) -> Optional[TreeNode]:
        if level > _MAX_DEPTH:
            raise ParameterError(
                "delay-balanced tree exceeded the depth guard; "
                "check cover weights and tau"
            )
        boxes = tuple(box_decomposition(interval.low, interval.high, tops))
        costs = [walk.box_cost(box) for box in boxes]
        cost = sum(costs)
        if cost <= 0.0:
            return None
        node = TreeNode(len(nodes), interval, level, cost)
        nodes.append(node)
        node_boxes.append(boxes)
        if interval.is_unit() or cost < level_threshold(tau, alpha, level):
            return node
        # Even with both sides empty or costless the node stays a split
        # node: it carries the unit valuation at beta, which Algorithm 2
        # outputs when present.
        node.beta = beta = split_boxes(walk, boxes, costs)
        left_interval, right_interval = interval.split_at(space, beta)
        if left_interval is not None:
            node.left = make(left_interval, level + 1)
        if right_interval is not None:
            node.right = make(right_interval, level + 1)
        return node

    root = make(FInterval.full(space), 0)
    # ``make`` names itself, so it sits in a reference cycle with its own
    # closure — which holds ``nodes`` and the walk. Cut it here and the
    # nodes die with the tree that owns them, not at some later full
    # collection (a structure drops its tree as soon as it is compiled).
    del make
    return DelayBalancedTree(root, nodes, tau, alpha, node_boxes)
