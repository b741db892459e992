"""The AGM-based cost function ``T`` (Section 4.2).

For a canonical f-box ``B`` and an optional bound valuation ``v_b``,

    T(v_b, B) = Π_{F∈E} |R_F(v_b, B)|^{û_F},      û_F = u_F / α(V_f),

and for an f-interval, ``T`` sums over the box decomposition. Proposition 6
shows ``T(v_b, I)`` bounds the time to evaluate the join restricted to
``(v_b, I)`` with a worst-case-optimal algorithm; the compressed
representation uses it as its notion of "expensive sub-instance".

Counts ``|R_F(v_b, B)|`` come from the atom tries in ``O(arity · log |D|)``:
descend the bound values and the unit prefix, then range-count one
coordinate. Exponents ``û_F = 0`` contribute a factor of 1 by the usual
``x^0 = 1`` convention (including ``x = 0``), matching the paper's product.

Boxes are the plain index rows of :mod:`repro.core.intervals`. The
counts are exact integers, the factors are multiplied in atom order and
the boxes summed in box order, so a cost is one well-defined float —
the object-form transcription in ``tests/reference_build.py`` computes
the same bits. A :class:`CostWalk` evaluates many boxes over one set of
subtries and remembers the trie nodes below the last unit prefix, so the
probes of one split and the consecutive boxes of one interval descend
their shared prefix once.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.context import ViewContext
from repro.core.intervals import Box, FInterval, box_decomposition
from repro.database.index import TrieNode
from repro.exceptions import ParameterError


class CostModel:
    """Evaluates ``T`` for boxes and intervals under a fixed cover.

    Parameters
    ----------
    ctx:
        The view context (atom tries, domains, orders).
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
        # exponent is a factor of 1 whatever the count), their exponents,
        # and per coordinate which of them the coordinate constrains.
        self._factors: List[int] = [
            position
            for position, binding in enumerate(ctx.atoms)
            if self.uhat[binding.label] != 0.0
        ]
        self._exponents = [
            self.uhat[ctx.atoms[position].label] for position in self._factors
        ]
        self._constrains = [
            [
                coordinate in ctx.atoms[position].free_coordinates
                for position in self._factors
            ]
            for coordinate in range(ctx.space.width)
        ]
        self._values = [domain.values for domain in ctx.space.domains]

    # ------------------------------------------------------------------
    def walk(
        self, subtries: Optional[Sequence[Optional[TrieNode]]] = None
    ) -> "CostWalk":
        """A fresh evaluator of ``T(B)`` or, over some v_b's per-atom
        subtries (aligned with the atoms), of ``T(v_b, B)``.

        Unrestricted counts come from the free-columns-only tries with
        tuple multiplicities; their roots sit at the free levels like a
        v_b-descended subtrie.
        """
        if subtries is None:
            subtries = [binding.free_trie.root for binding in self.ctx.atoms]
        return CostWalk(self, [subtries[position] for position in self._factors])

    def boxes(self, interval: FInterval) -> List[Box]:
        """The box decomposition of an interval of this model's space."""
        return box_decomposition(interval.low, interval.high, self.tops)

    def box_cost(
        self,
        box: Box,
        subtries: Optional[Sequence[Optional[TrieNode]]] = None,
    ) -> float:
        """``T(B)`` or, with per-atom subtries for some v_b, ``T(v_b, B)``."""
        return self.walk(subtries).box_cost(box)

    def interval_cost(
        self,
        interval: FInterval,
        subtries: Optional[Sequence[Optional[TrieNode]]] = None,
    ) -> float:
        """``T(I) = Σ_{B ∈ B(I)} T(B)`` (and the v_b-restricted variant)."""
        return self.walk(subtries).boxes_cost(self.boxes(interval))

    def access_cost(self, interval: FInterval, access: Sequence) -> float:
        """``T(v_b, I)`` for an access tuple over the bound order."""
        return self.interval_cost(interval, self.ctx.subtries(access))

    def is_heavy(
        self, interval: FInterval, access: Sequence, threshold: float
    ) -> bool:
        """Definition 3: the pair (v_b, I) is τ-heavy iff T(v_b, I) > τ."""
        return self.access_cost(interval, access) > threshold


class CostWalk:
    """``T`` over many boxes for one set of per-atom subtries.

    ``roots`` holds, per factor atom of the model, the trie node
    positioned below the atom's bound values (the root when
    unrestricted); None means no tuple matches the bound values, and
    then every box costs 0.

    The walk keeps a *prefix finger*: level ``d`` is the per-atom nodes
    below the unit prefix last fixed at coordinates ``0..d-1`` (None once
    some factor atom lacks the prefix). A box whose unit prefix agrees
    with the finger up to some depth descends only from there. The
    finger is the walk's own state — a walk belongs to one build step
    and is dropped with it; nothing of it reaches the model, the
    context or the structure.
    """

    __slots__ = ("_model", "_fixed", "_levels", "_valid")

    def __init__(self, model: CostModel, roots: List[Optional[TrieNode]]):
        self._model = model
        width = len(model.tops)
        self._fixed = [-1] * width
        self._levels: List[Optional[List[TrieNode]]] = [None] * (width + 1)
        self._levels[0] = None if None in roots else roots
        self._valid = 0

    def descend(self, box: Sequence, depth: int) -> Optional[List[TrieNode]]:
        """The per-atom nodes below the unit prefix ``box[:depth]``.

        None when some factor atom has no tuple under the prefix. Only
        the coordinates past the finger's agreement are walked.
        """
        fixed = self._fixed
        levels = self._levels
        shared = 0
        limit = min(depth, self._valid)
        while shared < limit and fixed[shared] == box[shared][0]:
            shared += 1
        if shared == depth:
            return levels[depth]
        model = self._model
        nodes = levels[shared]
        for coordinate in range(shared, depth):
            index = box[coordinate][0]
            fixed[coordinate] = index
            if nodes is not None:
                value = model._values[coordinate][index]
                below = nodes
                for slot, constrained in enumerate(model._constrains[coordinate]):
                    if constrained:
                        child = nodes[slot].children.get(value)
                        if child is None:
                            below = None
                            break
                        if below is nodes:
                            below = list(nodes)
                        below[slot] = child
                nodes = below
            levels[coordinate + 1] = nodes
        self._valid = depth
        return nodes

    def range_cost(
        self,
        nodes: Optional[List[TrieNode]],
        coordinate: int,
        low: int,
        high: int,
    ) -> float:
        """``T`` of the canonical box ``⟨prefix, [low, high], ▢, ...⟩``.

        ``nodes`` is :meth:`descend`'s answer for the prefix and
        ``coordinate`` its length; the range may be empty (cost 0).
        """
        if nodes is None or low > high:
            return 0.0
        model = self._model
        if low == 0 and high == model.tops[coordinate]:
            return self._whole_cost(nodes)
        values = model._values[coordinate]
        low_value = values[low]
        high_value = values[high]
        exponents = model._exponents
        total = 1.0
        slot = 0
        for constrained in model._constrains[coordinate]:
            node = nodes[slot]
            if constrained:
                keys = node.keys
                first = bisect_left(keys, low_value)
                last = bisect_right(keys, high_value, first)
                if first == last:
                    return 0.0
                cumulative = node.cumulative
                count = cumulative[last] - cumulative[first]
            else:
                # Coordinates past the range are unrestricted.
                count = node.count
                if count == 0:
                    return 0.0
            total *= float(count) ** exponents[slot]
            slot += 1
        return total

    def _whole_cost(self, nodes: Optional[List[TrieNode]]) -> float:
        """``T`` with nothing to clip: every factor atom's full count."""
        if nodes is None:
            return 0.0
        total = 1.0
        for node, exponent in zip(nodes, self._model._exponents):
            if node.count == 0:
                return 0.0
            total *= float(node.count) ** exponent
        return total

    def box_cost(self, box: Box) -> float:
        """``T`` of one canonical box in row form."""
        if not box:
            # The empty row, the one box of a boolean view.
            return self._whole_cost(self._levels[0])
        depth = 0
        last = len(box) - 1
        while depth < last and box[depth][0] == box[depth][1]:
            depth += 1
        low, high = box[depth]
        return self.range_cost(self.descend(box, depth), depth, low, high)

    def boxes_cost(self, boxes: Iterable[Box]) -> float:
        """``Σ T(B)`` over ``boxes``, summed in their order."""
        return sum([self.box_cost(box) for box in boxes])
