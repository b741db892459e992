"""The AGM-based cost function ``T`` (Section 4.2).

For a canonical f-box ``B`` and an optional bound valuation ``v_b``,

    T(v_b, B) = Π_{F∈E} |R_F(v_b, B)|^{û_F},      û_F = u_F / α(V_f),

and for an f-interval, ``T`` sums over the box decomposition. Proposition 6
shows ``T(v_b, I)`` bounds the time to evaluate the join restricted to
``(v_b, I)`` with a worst-case-optimal algorithm; the compressed
representation uses it as its notion of "expensive sub-instance".

Counts ``|R_F(B)|`` come from the context's sorted index over each atom
(:class:`~repro.core.layout.AtomColumns`) in ``O(arity · log |D|)``:
descend the unit prefix by one bisect per level, then count one
coordinate's index range off the prefix count column — two bisects and a
subtraction. With no ``v_b`` fixed they read the context's
free-columns-only instances, which keep each row's multiplicity; the
restricted ``T(v_b, B)`` of a build's (candidate, node) pairs starts
from the slice of the bound values in the atoms' own columns, and the
dictionary pass (:mod:`repro.core.dictionary`) computes it, by the same
arithmetic, as arrays. Exponents ``û_F = 0`` contribute a
factor of 1 by the usual ``x^0 = 1`` convention (including ``x = 0``),
matching the paper's product.

Boxes are the plain index rows of :mod:`repro.core.intervals`, and the
whole evaluation stays in index space. The counts are exact integers,
the factors are multiplied in atom order and the boxes summed in box
order, so a cost is one well-defined float — the object-form
transcription in ``tests/reference_build.py``, counting on tries,
computes the same bits. A :class:`CostWalk` evaluates many boxes and
remembers the slices below the last unit prefix, so the
probes of one split and the consecutive boxes of one interval descend
their shared prefix once.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.context import ViewContext
from repro.core.intervals import Box, FInterval, box_decomposition
from repro.exceptions import ParameterError

#: Per factor atom, a slice ``(lo, hi)`` of one level of its columns.
Slices = List[Tuple[int, int]]


def read_level(atom, coordinate: int) -> Tuple[int, bool]:
    """The level of ``atom``'s columns a count at ``coordinate`` reads.

    And whether the coordinate is one of the atom's, so its values clip
    the count there. Past the atom's last free coordinate the level is
    its last: the one-entry slice a fixed value leaves.
    """
    level = min(bisect_left(atom.coords, coordinate), max(atom.width - 1, 0))
    return level, coordinate in atom.coords


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
        # exponents; and, once a walk asks, what it reads of their columns.
        self._factors: List[int] = [
            position
            for position, binding in enumerate(ctx.atoms)
            if self.uhat[binding.label] != 0.0
        ]
        self._exponents = [
            self.uhat[ctx.atoms[position].label] for position in self._factors
        ]
        self._count_plan: Optional[List[Tuple]] = None

    def _plan(self, atoms) -> List[Tuple]:
        """Per coordinate, what a walk over ``atoms`` reads there.

        ``(probes, runs, counts, exponents)``: a probe ``(slot, vals,
        kid_lo, kid_hi)`` per factor atom the coordinate constrains (no
        kid columns on its last level: a fixed entry stays the one-entry
        slice it is),
        and per factor atom in order the level's values where the
        coordinate clips its count (else None), the level's prefix
        counts (None where they are the identity) and the atom's
        exponent.
        """
        plan = []
        for coordinate in range(max(len(self.tops), 1)):
            probes, runs, counts = [], [], []
            for slot, atom in enumerate(atoms):
                level, constrains = read_level(atom, coordinate)
                run = None
                if constrains:
                    run = atom.vals[level]
                    kids = (None, None)
                    if level + 1 < atom.width:
                        kids = (atom.kid_lo[level], atom.kid_hi[level])
                    probes.append((slot, run, *kids))
                runs.append(run)
                level_counts = atom.counts[level]
                # None: one key per entry, so a slice counts its length.
                counts.append(None if type(level_counts) is range else level_counts)
            plan.append((probes, runs, counts, self._exponents))
        return plan

    def factors(self) -> Tuple[List, List[float]]:
        """The factor atoms' join columns, in atom order, and their exponents.

        What ``T(v_b, B)`` multiplies — the dictionary pass reads them
        as arrays (:mod:`repro.core.dictionary`).
        """
        atoms = self.ctx.columns().atoms
        return [atoms[position] for position in self._factors], self._exponents

    # ------------------------------------------------------------------
    def walk(self) -> "CostWalk":
        """A fresh evaluator of ``T(B)``, no ``v_b`` fixed.

        Its counts come from the free-columns-only instances, with row
        multiplicities. ``T(v_b, B)`` is the dictionary pass's
        (:mod:`repro.core.dictionary`), which costs every restricted
        pair of a build in array steps.
        """
        atoms = self.ctx.count_columns()
        atoms = [atoms[position] for position in self._factors]
        if self._count_plan is None:
            self._count_plan = self._plan(atoms)
        return CostWalk(self, self._count_plan, [atom.root_range(()) for atom in atoms])

    def boxes(self, interval: FInterval) -> List[Box]:
        """The box decomposition of an interval of this model's space."""
        return box_decomposition(interval.low, interval.high, self.tops)

    def box_cost(self, box: Box) -> float:
        """``T(B)``."""
        return self.walk().box_cost(box)

    def interval_cost(self, interval: FInterval) -> float:
        """``T(I) = Σ_{B ∈ B(I)} T(B)``, summed in box order."""
        walk = self.walk()
        return sum([walk.box_cost(box) for box in self.boxes(interval)])


class CostWalk:
    """``T(B)`` over many boxes.

    ``plan`` is the model's reading of the factor atoms' free-columns
    instances and ``roots`` each one's whole first level; None means
    some factor atom is empty, and then every box costs 0.

    The walk keeps a *prefix finger*: level ``d`` is the per-atom slices
    below the unit prefix last fixed at coordinates ``0..d-1`` (None once
    some factor atom lacks the prefix). A box whose unit prefix agrees
    with the finger up to some depth descends only from there. The
    finger is the walk's own state — a walk belongs to one build step
    and is dropped with it; nothing of it reaches the model, the
    context or the structure.
    """

    __slots__ = ("_model", "_plan", "_fixed", "_levels", "_valid")

    def __init__(self, model: CostModel, plan, roots: List):
        self._model = model
        self._plan = plan
        width = len(model.tops)
        self._fixed = [-1] * width
        self._levels: List[Optional[Slices]] = [None] * (width + 1)
        self._levels[0] = None if None in roots else roots
        self._valid = 0

    def descend(self, box: Sequence, depth: int) -> Optional[Slices]:
        """The per-atom slices below the unit prefix ``box[:depth]``.

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
        plan = self._plan
        nodes = levels[shared]
        for coordinate in range(shared, depth):
            index = box[coordinate][0]
            fixed[coordinate] = index
            probes = plan[coordinate][0]
            if nodes is not None and probes:
                below = list(nodes)
                for slot, run, kid_lo, kid_hi in probes:
                    lo, hi = nodes[slot]
                    position = bisect_left(run, index, lo, hi)
                    if position == hi or run[position] != index:
                        below = None
                        break
                    below[slot] = (
                        (position, position + 1)
                        if kid_lo is None
                        else (kid_lo[position], kid_hi[position])
                    )
                nodes = below
            levels[coordinate + 1] = nodes
        self._valid = depth
        return nodes

    def range_cost(
        self,
        nodes: Optional[Slices],
        coordinate: int,
        low: int,
        high: int,
    ) -> float:
        """``T`` of the canonical box ``⟨prefix, [low, high], ▢, ...⟩``.

        ``nodes`` is :meth:`descend`'s answer for the prefix and
        ``coordinate`` its length; the range may be empty (cost 0).
        Atoms the coordinate does not constrain count their whole slice:
        coordinates past the range are unrestricted.
        """
        if nodes is None or low > high:
            return 0.0
        if low == 0 and high == self._model.tops[coordinate]:
            return self._whole_cost(nodes, coordinate)
        total = 1.0
        _, runs, prefix_counts, exponents = self._plan[coordinate]
        for slot, (lo, hi) in enumerate(nodes):
            run = runs[slot]
            if run is not None:
                lo = bisect_left(run, low, lo, hi)
                hi = bisect_right(run, high, lo, hi)
            counts = prefix_counts[slot]
            count = hi - lo if counts is None else counts[hi] - counts[lo]
            if count == 0:
                return 0.0
            total *= float(count) ** exponents[slot]
        return total

    def _whole_cost(self, nodes: Optional[Slices], depth: int) -> float:
        """``T`` with nothing to clip: every factor atom's full count."""
        if nodes is None:
            return 0.0
        total = 1.0
        _, _, prefix_counts, exponents = self._plan[depth]
        for slot, (lo, hi) in enumerate(nodes):
            counts = prefix_counts[slot]
            count = hi - lo if counts is None else counts[hi] - counts[lo]
            if count == 0:
                return 0.0
            total *= float(count) ** exponents[slot]
        return total

    def box_cost(self, box: Box) -> float:
        """``T`` of one canonical box in row form."""
        if not box:
            # The empty row, the one box of a boolean view.
            return self._whole_cost(self._levels[0], 0)
        depth = 0
        last = len(box) - 1
        while depth < last and box[depth][0] == box[depth][1]:
            depth += 1
        low, high = box[depth]
        return self.range_cost(self.descend(box, depth), depth, low, high)
