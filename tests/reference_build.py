"""Section 4.3's preprocessing as the paper writes it — the build's spec.

``src/`` builds a structure in index space: boxes are plain
``((lo, hi), ...)`` rows, one array evaluator
(:class:`~repro.core.cost.BoxCosts`) costs a whole tree level's boxes at
once, and every node's boxes are decomposed and costed once
(:mod:`repro.core.intervals`, :mod:`repro.core.cost`,
:mod:`repro.core.splitting`, :mod:`repro.core.balanced_tree`,
:mod:`repro.core.dictionary`). This module is what that build is held
to: the object-based, line-by-line transcription it replaced, moved here
unchanged when the index-space build became the only one —

* :class:`ScalarInterval`, :class:`FBox` and
  :meth:`FInterval.box_decomposition` (Definition 2, Lemma 1);
* :class:`SpecCostModel` — ``T(B)``, ``T(v_b, B)``, ``T(I)`` by one trie
  descent per atom per box (Section 4.2);
* :func:`spec_split_interval` — Algorithm 1, costing every probe as a
  fresh canonical box;
* :func:`spec_build_tree` / :func:`spec_build_dictionary` — the tree
  (recursively, node after node) and the heavy dictionary of Section
  4.3, re-costing what they need and taking each stored pair's bit by
  one bisect into its valuation's sorted output
  (:func:`output_nonempty_in`), and :func:`spec_tree_columns`, the spec
  tree's nodes as the columns a layout keeps;
* :func:`spec_tries` and the value-space joins over them —
  :func:`spec_bound_candidates` (Proposition 13's candidate join) and
  :func:`spec_outputs` (the full output per bound valuation), by
  :func:`~repro.joins.generic_join.generic_join`. ``src/`` counts and
  joins on the context's index-space columns and builds no trie; these
  tries are built here, from each atom's rows and column order, and are
  what ``tests/reference_walk.py`` joins on too.

The contract between the two builds is *equality of state*: the same
compiled columns — links, endpoints, β points, boxes, costs, dictionary
buckets in the same insertion order — hence the same ``tree`` and
``dictionary`` views and the same ``layout.to_state()``, every float
the same bits, because the counts are exact integers, the factors are
multiplied in atom order and the boxes summed in box order on both
sides.
:func:`spec_structure` assembles a whole
:class:`~repro.core.structure.CompressedRepresentation` from the spec
builders so the two can be compared ``snapshot_state()`` to
``snapshot_state()``; ``tests/test_build_kernel.py`` does, over random
databases, and ``tests/reference_walk.py`` (Algorithm 2's spec) reads
its boxes from here.
"""

from __future__ import annotations

import math
import time
import weakref
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from reference_index import TrieIndex, TrieNode, generic_join
from repro.core import intervals
from repro.core.balanced_tree import DelayBalancedTree, TreeNode
from repro.core.context import AtomBinding, ViewContext
from repro.core.domain import TupleSpace
from repro.core.layout import TreeColumns, compile_dictionary
from repro.core.structure import CompressedRepresentation
from repro.exceptions import ParameterError, QueryError
from repro.query.rewriting import natural_form

_MAX_DEPTH = 512


# ----------------------------------------------------------------------
# the value-space index: one trie per atom and access path
# ----------------------------------------------------------------------
_TRIES: "weakref.WeakKeyDictionary[ViewContext, List[Tuple]]" = (
    weakref.WeakKeyDictionary()
)


def spec_tries(ctx: ViewContext) -> List[Tuple[TrieIndex, TrieIndex]]:
    """Per atom ``(trie, free trie)``, built once per context.

    The trie indexes the atom's column order (bound variables first,
    distinct keys) and serves membership, restricted counts and the
    joins; the free trie indexes the free columns alone with row
    multiplicities — the unrestricted ``|R_F ⋉ B|`` counts. With no bound
    variable the two index the same keys and one trie serves as both.
    """
    tries = _TRIES.get(ctx)
    if tries is None:
        tries = _TRIES[ctx] = []
        for binding in ctx.atoms:
            trie = TrieIndex(binding.relation, binding.column_order)
            free = trie
            if binding.bound_vars:
                free = TrieIndex(
                    binding.relation,
                    binding.column_order[len(binding.bound_vars) :],
                    dedupe=False,
                )
            tries.append((trie, free))
    return tries


def spec_subtries(ctx: ViewContext, access: Sequence) -> List[Optional[TrieNode]]:
    """Per-atom subtries under the access tuple (aligned with atoms)."""
    if len(access) != len(ctx.bound_order):
        raise QueryError(
            f"access tuple {tuple(access)!r} has {len(access)} values, "
            f"expected {len(ctx.bound_order)}"
        )
    return [
        trie.descend(tuple(access[i] for i in binding.bound_access_positions))
        for binding, (trie, _) in zip(ctx.atoms, spec_tries(ctx))
    ]


def spec_beta_matches(ctx: ViewContext, access: Sequence, free_values) -> bool:
    """True iff the full valuation (access ∪ free values) is in the join."""
    return all(
        trie.contains(
            tuple(access[i] for i in binding.bound_access_positions)
            + tuple(free_values[c] for c in binding.free_coordinates)
        )
        for binding, (trie, _) in zip(ctx.atoms, spec_tries(ctx))
    )


def spec_value_domains(ctx: ViewContext) -> Dict:
    """Every variable's sorted active domain, for unconstrained levels."""
    domains = {v: d.values for v, d in zip(ctx.free_order, ctx.free_domains)}
    domains.update((v, d.values) for v, d in ctx.bound_domains.items())
    return domains


def spec_bound_candidates(ctx: ViewContext) -> List[Tuple]:
    """Proposition 13: the join of the bound projections, in value order."""
    if not ctx.bound_order:
        return [()]
    participating = [
        (trie.root, binding.bound_vars)
        for binding, (trie, _) in zip(ctx.atoms, spec_tries(ctx))
        if binding.bound_vars
    ]
    return list(
        generic_join(
            participating, ctx.bound_order, domains=spec_value_domains(ctx)
        )
    )


def spec_outputs(ctx: ViewContext) -> Tuple[Dict[Tuple, List[Tuple]], int]:
    """The full output grouped by bound valuation, free parts as indexes."""
    n_bound = len(ctx.bound_order)
    outputs: Dict[Tuple, List[Tuple]] = {}
    count = 0
    # A variable-less atom joins on no level: an empty one says so here.
    roots = [trie.descend(()) for trie, _ in spec_tries(ctx)]
    if None in roots:
        return outputs, count
    atoms = [
        (root, binding.bound_vars + binding.free_vars)
        for binding, root in zip(ctx.atoms, roots)
    ]
    for row in generic_join(
        atoms, ctx.bound_order + ctx.free_order, domains=spec_value_domains(ctx)
    ):
        indexes = tuple(
            domain.index_of(value)
            for domain, value in zip(ctx.free_domains, row[n_bound:])
        )
        outputs.setdefault(row[:n_bound], []).append(indexes)
        count += 1
    return outputs, count


# ----------------------------------------------------------------------
# Section 4.1: scalar intervals, f-boxes, the Lemma 1 decomposition
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScalarInterval:
    """A closed index range [low, high] into one variable's domain."""

    low: int
    high: int

    def is_empty(self) -> bool:
        return self.low > self.high

    def is_unit(self) -> bool:
        return self.low == self.high

    def width(self) -> int:
        return max(0, self.high - self.low + 1)

    def contains(self, index: int) -> bool:
        return self.low <= index <= self.high


class FBox:
    """A product of scalar intervals over the free coordinates.

    ``intervals[i]`` constrains coordinate ``i``; a coordinate spanning the
    whole domain is *unrestricted*. A box is canonical when every
    coordinate before the first non-unit one is a unit and every coordinate
    after it is unrestricted.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Sequence[ScalarInterval]):
        self.intervals = tuple(intervals)

    @classmethod
    def canonical(
        cls,
        space: TupleSpace,
        unit_prefix: Sequence[int],
        interval: Optional[ScalarInterval] = None,
    ) -> "FBox":
        """Build ``⟨a1, ..., ak, I, ▢, ...⟩`` from its prefix and interval."""
        width = space.width
        if len(unit_prefix) + (1 if interval is not None else 0) > width:
            raise ParameterError("canonical box wider than the tuple space")
        parts: List[ScalarInterval] = [
            ScalarInterval(v, v) for v in unit_prefix
        ]
        if interval is not None:
            parts.append(interval)
        while len(parts) < width:
            position = len(parts)
            parts.append(ScalarInterval(0, space.domains[position].top))
        return cls(parts)

    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        return any(interval.is_empty() for interval in self.intervals)

    def is_unit(self) -> bool:
        return all(interval.is_unit() for interval in self.intervals)

    def contains(self, point: Tuple[int, ...]) -> bool:
        return all(
            interval.contains(index)
            for interval, index in zip(self.intervals, point)
        )

    def size(self) -> int:
        total = 1
        for interval in self.intervals:
            total *= interval.width()
        return total

    def unit_prefix_length(self, space: TupleSpace) -> int:
        """Number of leading unit coordinates (canonical boxes only)."""
        length = 0
        for interval in self.intervals:
            if interval.is_unit():
                length += 1
            else:
                break
        return length

    def is_canonical(self, space: TupleSpace) -> bool:
        seen_general = False
        for position, interval in enumerate(self.intervals):
            if not seen_general:
                if interval.is_unit():
                    continue
                seen_general = True
                continue
            if interval.low != 0 or interval.high != space.domains[position].top:
                return False
        return True

    def smallest(self) -> Tuple[int, ...]:
        """Lexicographically smallest point (box must be non-empty)."""
        return tuple(interval.low for interval in self.intervals)

    def largest(self) -> Tuple[int, ...]:
        return tuple(interval.high for interval in self.intervals)

    def iterate(self) -> Iterator[Tuple[int, ...]]:
        """All points of the box in lexicographic order (tests only)."""
        def rec(position: int, prefix: List[int]) -> Iterator[Tuple[int, ...]]:
            if position == len(self.intervals):
                yield tuple(prefix)
                return
            interval = self.intervals[position]
            for index in range(interval.low, interval.high + 1):
                prefix.append(index)
                yield from rec(position + 1, prefix)
                prefix.pop()

        if not self.is_empty():
            yield from rec(0, [])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FBox):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        parts = []
        for interval in self.intervals:
            if interval.is_empty():
                parts.append("∅")
            elif interval.is_unit():
                parts.append(str(interval.low))
            else:
                parts.append(f"[{interval.low},{interval.high}]")
        return f"FBox⟨{', '.join(parts)}⟩"


class FInterval(intervals.FInterval):
    """The production f-interval plus the object-form decomposition."""

    __slots__ = ()

    def box_decomposition(self, space: TupleSpace) -> List[FBox]:
        """The canonical box decomposition ``B(I)`` (Lemma 1).

        The returned boxes are non-empty, pairwise disjoint, ordered
        lexicographically, and their union is exactly the interval. For a
        width-µ space at most ``2µ - 1`` boxes are produced.
        """
        width = len(self.low)
        if width == 0:
            # Boolean views: the one-point space decomposes into one box.
            return [FBox(())]
        a, b = self.low, self.high
        if a == b:
            return [FBox.canonical(space, a)]
        j = 0
        while a[j] == b[j]:
            j += 1
        if j == width - 1:
            # Only the last coordinate differs: one closed box covers it
            # (the paper's single-box case, cf. the end of Example 12).
            return [
                FBox.canonical(space, a[:j], ScalarInterval(a[j], b[j]))
            ]
        result: List[FBox] = []
        # Left boxes: innermost coordinate first (the paper's order
        # B^ℓ_µ ≤ ... ≤ B^ℓ_{j+1}, Lemma 1).
        for i in range(width - 1, j, -1):
            low = a[i] if i == width - 1 else a[i] + 1
            interval = ScalarInterval(low, space.domains[i].top)
            box = FBox.canonical(space, a[:i], interval)
            if not box.is_empty():
                result.append(box)
        # Middle box: the open range at the first differing coordinate.
        middle = FBox.canonical(space, a[:j], ScalarInterval(a[j] + 1, b[j] - 1))
        if not middle.is_empty():
            result.append(middle)
        # Right boxes, outermost first.
        for i in range(j + 1, width):
            high = b[i] if i == width - 1 else b[i] - 1
            interval = ScalarInterval(0, high)
            box = FBox.canonical(space, b[:i], interval)
            if not box.is_empty():
                result.append(box)
        return result


def spec_boxes(interval: intervals.FInterval, space: TupleSpace) -> List[FBox]:
    """``B(I)`` of any f-interval (a tree node's, say) in object form."""
    return FInterval(interval.low, interval.high).box_decomposition(space)


def box_rows(boxes: Sequence[FBox]) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Object boxes flattened to the ``((lo, hi), ...)`` rows ``src/`` uses."""
    return tuple(
        tuple((interval.low, interval.high) for interval in box.intervals)
        for box in boxes
        if not box.is_empty()
    )


def free_ranges_of_box(ctx: ViewContext, box: FBox) -> Dict:
    """Translate an f-box into per-variable closed value ranges."""
    ranges: Dict = {}
    for coordinate, interval in enumerate(box.intervals):
        domain = ctx.free_domains[coordinate]
        if interval.low == 0 and interval.high == domain.top:
            continue  # unrestricted
        ranges[ctx.free_order[coordinate]] = (
            domain.value_at(interval.low),
            domain.value_at(interval.high),
        )
    return ranges


# ----------------------------------------------------------------------
# Section 4.2: the cost function T
# ----------------------------------------------------------------------
class SpecCostModel:
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
        self._decomposition_cache: Dict[FInterval, List[FBox]] = {}

    # ------------------------------------------------------------------
    def root_subtries(self) -> List[TrieNode]:
        """Unrestricted count tries (the v_b = None case of T(B)).

        These are the free-columns-only tries with tuple multiplicities;
        their roots sit at the free levels like a v_b-descended subtrie.
        """
        return [free.root for _, free in spec_tries(self.ctx)]

    def atom_box_count(
        self,
        binding: AtomBinding,
        box: FBox,
        node: Optional[TrieNode],
    ) -> int:
        """``|R_F(v_b, B)|`` — tuples of the atom consistent with the box.

        ``node`` is the subtrie already positioned below the atom's bound
        values (or the root when unrestricted); None means no tuple matches
        the bound values.
        """
        if node is None:
            return 0
        space = self.ctx.space
        ipos = box.unit_prefix_length(space)
        for coordinate in binding.free_coordinates:
            if coordinate < ipos:
                value = space.domains[coordinate].value_at(
                    box.intervals[coordinate].low
                )
                node = node.children.get(value)
                if node is None:
                    return 0
            elif coordinate == ipos:
                interval = box.intervals[coordinate]
                if interval.is_empty():
                    return 0
                domain = space.domains[coordinate]
                return node.range_count(
                    domain.value_at(interval.low), domain.value_at(interval.high)
                )
            else:
                # Coordinates past the general interval are unrestricted.
                return node.count
        return node.count

    def box_cost(
        self,
        box: FBox,
        subtries: Optional[Sequence[Optional[TrieNode]]] = None,
    ) -> float:
        """``T(B)`` or, with per-atom subtries for some v_b, ``T(v_b, B)``."""
        if box.is_empty():
            return 0.0
        if subtries is None:
            subtries = self.root_subtries()
        total = 1.0
        for binding, node in zip(self.ctx.atoms, subtries):
            exponent = self.uhat[binding.label]
            if exponent == 0.0:
                continue  # factor count**0 == 1 by convention
            count = self.atom_box_count(binding, box, node)
            if count == 0:
                return 0.0
            total *= float(count) ** exponent
        return total

    def boxes_of(self, interval: FInterval) -> List[FBox]:
        """Cached box decomposition of an interval."""
        boxes = self._decomposition_cache.get(interval)
        if boxes is None:
            boxes = spec_boxes(interval, self.ctx.space)
            self._decomposition_cache[interval] = boxes
        return boxes

    def interval_cost(
        self,
        interval: FInterval,
        subtries: Optional[Sequence[Optional[TrieNode]]] = None,
    ) -> float:
        """``T(I) = Σ_{B ∈ B(I)} T(B)`` (and the v_b-restricted variant)."""
        return sum(
            self.box_cost(box, subtries) for box in self.boxes_of(interval)
        )

    def access_cost(self, interval: FInterval, access: Sequence) -> float:
        """``T(v_b, I)`` for an access tuple over the bound order."""
        return self.interval_cost(interval, spec_subtries(self.ctx, access))

    def is_heavy(
        self, interval: FInterval, access: Sequence, threshold: float
    ) -> bool:
        """Definition 3: the pair (v_b, I) is τ-heavy iff T(v_b, I) > τ."""
        return self.access_cost(interval, access) > threshold


# ----------------------------------------------------------------------
# Algorithm 1: balanced splitting
# ----------------------------------------------------------------------
_EPS = 1e-12


def spec_split_interval(
    cost_model: SpecCostModel, interval: FInterval
) -> Optional[Tuple[int, ...]]:
    """The split point of Algorithm 1, or None when ``T(I) = 0``.

    Returns an index tuple ``c`` inside ``interval`` with
    ``T([a, c)) ≤ T/2`` and ``T((c, b]) ≤ T/2`` (Proposition 8).
    """
    space = cost_model.ctx.space
    boxes = cost_model.boxes_of(interval)
    costs = [cost_model.box_cost(box) for box in boxes]
    total = sum(costs)
    if total <= 0.0:
        return None
    half = total / 2.0

    # Box where the prefix sums first exceed T/2.
    prefix_sum = 0.0
    chosen = len(boxes) - 1
    for index, cost in enumerate(costs):
        if prefix_sum + cost > half + _EPS:
            chosen = index
            break
        prefix_sum += cost
    gamma = prefix_sum
    delta = costs[chosen]
    box = boxes[chosen]

    # Refine inside the chosen box, coordinate by coordinate.
    ipos = box.unit_prefix_length(space)
    unit_prefix = [box.intervals[i].low for i in range(ipos)]
    for coordinate in range(ipos, space.width):
        if coordinate == ipos:
            allowed = box.intervals[coordinate]
        else:
            allowed = ScalarInterval(0, space.domains[coordinate].top)
        target = min(delta, half - gamma)
        low, high = allowed.low, allowed.high
        while low < high:
            mid = (low + high) // 2
            below = cost_model.box_cost(
                FBox.canonical(
                    space, unit_prefix, ScalarInterval(allowed.low, mid)
                )
            )
            if below >= target - _EPS:
                high = mid
            else:
                low = mid + 1
        chosen_value = low
        if chosen_value > allowed.low:
            gamma += cost_model.box_cost(
                FBox.canonical(
                    space,
                    unit_prefix,
                    ScalarInterval(allowed.low, chosen_value - 1),
                )
            )
        unit_prefix.append(chosen_value)
        delta = cost_model.box_cost(FBox.canonical(space, unit_prefix))
    return tuple(unit_prefix)


# ----------------------------------------------------------------------
# Section 4.3: the delay-balanced tree and the heavy dictionary
# ----------------------------------------------------------------------
def spec_build_tree(
    cost_model: SpecCostModel, tau: float, alpha: float
) -> DelayBalancedTree:
    """Construct the delay-balanced tree for the context of ``cost_model``."""
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    space = cost_model.ctx.space
    if space.is_empty():
        return DelayBalancedTree(None, [], tau, alpha)
    nodes: List[TreeNode] = []

    def threshold(level: int) -> float:
        if math.isinf(alpha):
            exponent = 1.0
        else:
            exponent = 1.0 - 1.0 / alpha
        return tau / (2.0 ** (level * exponent))

    def make(interval: FInterval, level: int) -> Optional[TreeNode]:
        if level > _MAX_DEPTH:
            raise ParameterError(
                "delay-balanced tree exceeded the depth guard; "
                "check cover weights and tau"
            )
        cost = cost_model.interval_cost(interval)
        if cost <= 0.0:
            return None
        node = TreeNode(len(nodes), interval, level, cost)
        nodes.append(node)
        if interval.is_unit() or cost < threshold(level):
            return node
        beta = spec_split_interval(cost_model, interval)
        if beta is None:
            return node
        node.beta = beta
        left_interval, right_interval = interval.split_at(space, beta)
        if left_interval is not None:
            node.left = make(left_interval, level + 1)
        if right_interval is not None:
            node.right = make(right_interval, level + 1)
        if node.left is None and node.right is None and not interval.is_unit():
            # Both sides empty or costless: the node still carries the unit
            # valuation at beta during enumeration, so keep it as a split
            # node (Algorithm 2 outputs the beta tuple when present).
            pass
        return node

    root = make(intervals.FInterval.full(space), 0)
    return DelayBalancedTree(root, nodes, tau, alpha)


def output_nonempty_in(
    sorted_free_tuples: Sequence[Tuple[int, ...]], interval: intervals.FInterval
) -> bool:
    """Binary-search whether any output free tuple lies inside the interval."""
    return _nonempty(sorted_free_tuples, interval.low, interval.high)


def _nonempty(sorted_free_tuples, low: Tuple[int, ...], high: Tuple[int, ...]) -> bool:
    position = bisect_left(sorted_free_tuples, low)
    return position < len(sorted_free_tuples) and sorted_free_tuples[position] <= high


class HeavyDictionary:
    """Bits for heavy (node, bound valuation) pairs; absence means light.

    The spec's container, as ``src/`` kept it before the build wrote
    :class:`~repro.core.layout.DictColumns` directly (and before the
    columns became the one form): a ``(node id, access) → bit`` map with
    the columns' read side, ``get``, ``len`` and ``items``.
    """

    def __init__(self):
        self._entries: Dict[Tuple[int, Tuple], int] = {}

    def set(self, node_id: int, access: Tuple, bit: int) -> None:
        self._entries[(node_id, access)] = bit

    def get(self, node_id: int, access: Tuple) -> Optional[int]:
        """The stored bit, or None (the paper's ⊥) when the pair is light."""
        return self._entries.get((node_id, access))

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()


def spec_build_dictionary(
    cost_model: SpecCostModel,
    tree: DelayBalancedTree,
    outputs: Mapping[Tuple, Sequence[Tuple[int, ...]]],
) -> HeavyDictionary:
    """Build the dictionary for a constructed delay-balanced tree.

    ``outputs`` maps each bound valuation with non-empty result to its
    sorted list of free index tuples (the materialized query output).
    """
    dictionary = HeavyDictionary()
    if tree.root is None:
        return dictionary
    candidates = spec_bound_candidates(cost_model.ctx)
    prune_threshold = tree.threshold(tree.max_level)
    stack: List[Tuple[TreeNode, List[Tuple]]] = [(tree.root, candidates)]
    while stack:
        node, current = stack.pop()
        threshold = tree.threshold(node.level)
        survivors: List[Tuple] = []
        has_children = node.left is not None or node.right is not None
        for access in current:
            cost = cost_model.access_cost(node.interval, access)
            if cost > threshold:
                free_tuples = outputs.get(access)
                nonempty = free_tuples is not None and output_nonempty_in(
                    free_tuples, node.interval
                )
                dictionary.set(node.id, access, 1 if nonempty else 0)
            if has_children and cost > prune_threshold:
                survivors.append(access)
        if survivors:
            if node.left is not None:
                stack.append((node.left, survivors))
            if node.right is not None:
                stack.append((node.right, survivors))
    return dictionary


# ----------------------------------------------------------------------
# a whole structure from the spec builders
# ----------------------------------------------------------------------
def spec_tree_columns(tree: DelayBalancedTree, width: int) -> TreeColumns:
    """The spec's node objects as the columns a layout keeps.

    Child ids with ``-1`` sentinels (``node.id`` is its index in
    ``nodes``), endpoints as index tuples, β codes (None on leaves),
    ``T(I)`` as an ``array('d')`` and the boxes as they are.
    """
    nodes = tree.nodes
    return TreeColumns(
        tree.root.id if tree.root is not None else -1,
        width,
        [n.left.id if n.left is not None else -1 for n in nodes],
        [n.right.id if n.right is not None else -1 for n in nodes],
        [n.interval.low for n in nodes],
        [n.interval.high for n in nodes],
        [n.beta for n in nodes],
        array("d", [n.cost for n in nodes]),
        tree.boxes,
    )


def spec_structure(
    view, db, tau, weights=None, alpha=None, context=None
) -> CompressedRepresentation:
    """A ``CompressedRepresentation`` whose (T, D) the spec built.

    Mirrors the building constructor step for step — ``_bind``, tree,
    outputs, dictionary, stats, layout — with the spec's tree, output
    and dictionary builders (its own candidates and tries) and the
    spec's boxes in place of production's.
    Only the layout compiler is shared: it copies the boxes it is given.
    """
    started = time.perf_counter()
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    self = object.__new__(CompressedRepresentation)
    self.original_view = view
    self.view, self.db = natural_form(view, db)
    self._bind(tau, weights, alpha, context)
    model = SpecCostModel(self.ctx, self.weights, self.alpha)
    tree = spec_build_tree(model, self.tau, self.alpha)
    tree.boxes = [
        box_rows(model.boxes_of(node.interval)) for node in tree.nodes
    ]
    outputs, output_count = spec_outputs(self.ctx)
    dictionary = spec_build_dictionary(model, tree, outputs)
    self._compile(
        spec_tree_columns(tree, self.ctx.space.width),
        tree.depth(),
        compile_dictionary(dictionary.items()),
        output_count,
        started,
    )
    return self
