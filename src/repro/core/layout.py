"""Array-backed columnar layouts for the enumeration kernel.

The Theorem 1 structures are pointer-chasing by nature: tree nodes link to
children, dictionary buckets hash ``(node, access)`` pairs, and atom tries
are nested dicts walked one value at a time. This module *compiles* them —
once, at representation-build time — into flat, array-backed sorted runs:

* :class:`TreeColumns` — the delay-balanced tree as parallel columns
  (child ids with ``-1`` sentinels, interval endpoints, β codes) plus the
  per-node box decompositions resolved ahead of time;
* :class:`DictColumns` — the heavy dictionary re-bucketed per access
  tuple into sorted ``node id`` runs probed with :func:`bisect.bisect_left`;
* :class:`AtomColumns` — each atom's free trie levels flattened CSR-style
  (one sorted value-index run per parent, contiguous child-offset ranges),
  keyed by bound prefix;
* :class:`CompiledLayout` — the bundle the bulk enumerator in
  :mod:`repro.core.kernel` walks.

Everything is stored in *index space* (integer positions into the per
coordinate domains, see :mod:`repro.core.domain`), so the hot loops touch
only integers; runs serialize as packed ``int64`` bytes (via
:mod:`array`) and live in memory as plain lists — C-speed ``bisect``
probes without per-access boxing. When ``numpy`` is importable the runs
additionally get ``int64`` views used for large merge-intersections; the
pure ``bisect`` path computes identical results without it (numpy is an
optional extra — ``pip install .[kernel]``).

The kernel is the one enumerator of the static structures: answers,
order, and measured delay statistics are bit-identical to the recursive
transcription of Algorithm 2 kept as the executable spec in
``tests/reference_walk.py`` — the kernel counts that walk's logical steps
itself when a :class:`~repro.joins.generic_join.JoinCounter` is attached
(see :mod:`repro.core.kernel`). A layout pins the dictionary version it
was compiled against; one compiled before an in-place dictionary edit is
stale and is refused, not served (see :class:`CompiledLayout`).
"""

from __future__ import annotations

import os
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy
except ImportError:  # pragma: no cover
    numpy = None


def numpy_backend():
    """The numpy module when importable and not disabled, else None.

    Setting ``REPRO_KERNEL_NO_NUMPY=1`` forces the pure ``array``/bisect
    path even with numpy installed — the CI leg that proves the optional
    extra really is optional runs the whole suite this way.
    """
    if numpy is None or os.environ.get("REPRO_KERNEL_NO_NUMPY"):
        return None
    return numpy


def _as_array(values) -> array:
    return array("q", values)


def _array_state(arr: array) -> bytes:
    return arr.tobytes()


def _array_from_state(blob: bytes) -> array:
    arr = array("q")
    arr.frombytes(blob)
    return arr


class TreeColumns:
    """The delay-balanced tree as flat parallel node columns.

    ``left``/``right`` hold child node ids (``-1`` for absent children),
    ``low``/``high`` the interval endpoints as index tuples, ``beta`` the
    split codes (None on leaves), and ``boxes`` each node's canonical box
    decomposition pre-resolved to per-coordinate closed index ranges.
    ``beta_values`` (decoded value tuples) is derived at bind time.
    """

    __slots__ = (
        "root",
        "width",
        "left",
        "right",
        "low",
        "high",
        "beta",
        "boxes",
        "beta_values",
    )

    def __init__(self, root, width, left, right, low, high, beta, boxes):
        self.root = root
        self.width = width
        self.left = left
        self.right = right
        self.low = low
        self.high = high
        self.beta = beta
        self.boxes = boxes
        self.beta_values: List[Optional[Tuple]] = []

    def to_state(self) -> Dict:
        n = len(self.left)
        flat_low = _as_array(
            [index for point in self.low for index in point]
        )
        flat_high = _as_array(
            [index for point in self.high for index in point]
        )
        betas = [
            (node_id, point)
            for node_id, point in enumerate(self.beta)
            if point is not None
        ]
        return {
            "root": self.root,
            "width": self.width,
            "count": n,
            "left": _array_state(_as_array(self.left)),
            "right": _array_state(_as_array(self.right)),
            "low": _array_state(flat_low),
            "high": _array_state(flat_high),
            "beta": betas,
            "boxes": self.boxes,
        }

    @classmethod
    def from_state(cls, state: Dict) -> "TreeColumns":
        width = int(state["width"])
        count = int(state["count"])
        flat_low = _array_from_state(state["low"])
        flat_high = _array_from_state(state["high"])

        def unflatten(flat):
            return [
                tuple(flat[i * width : (i + 1) * width])
                for i in range(count)
            ]

        beta: List[Optional[Tuple]] = [None] * count
        for node_id, point in state["beta"]:
            beta[int(node_id)] = tuple(point)
        boxes = [
            tuple(tuple(tuple(pair) for pair in box) for box in node_boxes)
            for node_boxes in state["boxes"]
        ]
        return cls(
            int(state["root"]),
            width,
            list(_array_from_state(state["left"])),
            list(_array_from_state(state["right"])),
            unflatten(flat_low),
            unflatten(flat_high),
            beta,
            boxes,
        )


class DictColumns:
    """Heavy-dictionary buckets as per-access sorted node-id runs.

    One bucket per access tuple: a sorted list of node ids and a parallel
    ``bytes`` of stored bits. A probe is one :func:`bisect_left` into the
    id run — absence is the paper's ⊥ (light pair).
    """

    __slots__ = ("buckets",)

    _EMPTY: Tuple[List[int], bytes] = ([], b"")

    def __init__(self, buckets: Dict[Tuple, Tuple[List[int], bytes]]):
        self.buckets = buckets

    def bucket(self, access: Tuple) -> Tuple[List[int], bytes]:
        return self.buckets.get(access, self._EMPTY)

    def to_state(self) -> List[Tuple]:
        return sorted(
            (access, _array_state(_as_array(ids)), bits)
            for access, (ids, bits) in self.buckets.items()
        )

    @classmethod
    def from_state(cls, state: Sequence[Tuple]) -> "DictColumns":
        return cls(
            {
                tuple(access): (
                    list(_array_from_state(ids)),
                    bytes(bits),
                )
                for access, ids, bits in state
            }
        )


class AtomColumns:
    """One atom's free trie levels, flattened CSR-style.

    ``vals[d]`` is the concatenation of every level-``d`` node run (global
    domain indexes, sorted within each parent's contiguous slice);
    ``kid_lo[d]``/``kid_hi[d]`` give entry ``i``'s child slice in level
    ``d+1``. ``roots`` maps each full bound-value prefix to its level-0
    slice — for atoms with no free variables the slice is empty and the
    key's presence alone is the membership fact. Runs are plain int lists
    in memory (serialized as packed ``int64`` bytes); ``np_vals`` holds
    the optional numpy views bound for bulk intersections.
    """

    __slots__ = (
        "coords",
        "bound_positions",
        "width",
        "roots",
        "vals",
        "kid_lo",
        "kid_hi",
        "np_vals",
    )

    def __init__(self, coords, bound_positions, roots, vals, kid_lo, kid_hi):
        self.coords = tuple(coords)
        self.bound_positions = tuple(bound_positions)
        self.width = len(self.coords)
        self.roots = roots
        self.vals = vals
        self.kid_lo = kid_lo
        self.kid_hi = kid_hi
        self.np_vals: Optional[List] = None

    def root_range(self, access: Tuple) -> Optional[Tuple[int, int]]:
        """The level-0 slice under the access tuple, or None if absent."""
        key = tuple(access[i] for i in self.bound_positions)
        return self.roots.get(key)

    def bind_numpy(self, np_module) -> None:
        if np_module is None:
            self.np_vals = None
            return
        self.np_vals = [
            np_module.asarray(run, dtype=np_module.int64)
            for run in self.vals
        ]

    def to_state(self) -> Dict:
        return {
            "coords": self.coords,
            "bound_positions": self.bound_positions,
            "roots": sorted(
                (prefix, lo, hi) for prefix, (lo, hi) in self.roots.items()
            ),
            "vals": [_array_state(_as_array(run)) for run in self.vals],
            "kid_lo": [
                _array_state(_as_array(run)) for run in self.kid_lo
            ],
            "kid_hi": [
                _array_state(_as_array(run)) for run in self.kid_hi
            ],
        }

    @classmethod
    def from_state(cls, state: Dict) -> "AtomColumns":
        return cls(
            tuple(state["coords"]),
            tuple(state["bound_positions"]),
            {
                tuple(prefix): (int(lo), int(hi))
                for prefix, lo, hi in state["roots"]
            },
            [list(_array_from_state(blob)) for blob in state["vals"]],
            [list(_array_from_state(blob)) for blob in state["kid_lo"]],
            [list(_array_from_state(blob)) for blob in state["kid_hi"]],
        )


class CompiledLayout:
    """The compiled columnar bundle one representation's kernel walks.

    Owns the tree/dictionary/atom columns plus the runtime bindings
    (tuple space, per-coordinate decoded value tuples, optional numpy
    views) attached by :meth:`bind`. ``dict_version`` pins the
    :class:`~repro.core.dictionary.HeavyDictionary` version the layout
    was compiled against; any later in-place dictionary edit makes the
    layout stale and the representation refuses to enumerate until
    :meth:`~repro.core.structure.CompressedRepresentation.compile_layout`
    runs again.
    """

    __slots__ = (
        "tree",
        "dictionary",
        "atoms",
        "dict_version",
        "width",
        "space",
        "domain_values",
        "join_atoms",
        "participants",
        "np",
    )

    def __init__(self, tree, dictionary, atoms, dict_version):
        self.tree = tree
        self.dictionary = dictionary
        self.atoms = atoms
        self.dict_version = dict_version
        self.width = tree.width
        self.space = None
        self.domain_values: Tuple[Tuple, ...] = ()
        self.join_atoms: Tuple[AtomColumns, ...] = ()
        self.participants: Tuple[Tuple[Tuple[int, int], ...], ...] = ()
        self.np = None

    # ------------------------------------------------------------------
    # runtime binding (not serialized; pure function of the context)
    # ------------------------------------------------------------------
    def bind(self, ctx) -> None:
        """Attach the tuple space, decoded values, and numpy views.

        Also precomputes the static join-participation schedule: which
        atoms constrain which coordinate, and at which trie level. Free
        coordinates within an atom are strictly increasing (the trie
        column order follows the global free order), so the schedule is
        a pure function of the layout, not of any particular access.
        """
        self.space = ctx.space
        self.domain_values = tuple(
            domain.values for domain in ctx.space.domains
        )
        self.tree.beta_values = [
            ctx.space.values(point) if point is not None else None
            for point in self.tree.beta
        ]
        self.join_atoms = tuple(
            atom for atom in self.atoms if atom.width
        )
        schedule: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.width)
        ]
        for index, atom in enumerate(self.join_atoms):
            for level, coordinate in enumerate(atom.coords):
                schedule[coordinate].append((index, level))
        self.participants = tuple(tuple(s) for s in schedule)
        self.np = numpy_backend()
        for atom in self.atoms:
            atom.bind_numpy(self.np)

    # ------------------------------------------------------------------
    # kernel entry helpers
    # ------------------------------------------------------------------
    def dict_bucket(self, access: Tuple) -> Tuple[List[int], bytes]:
        return self.dictionary.bucket(access)

    def root_states(
        self, access: Tuple
    ) -> Optional[List[Tuple[int, int]]]:
        """Root ``(lo, hi)`` slices aligned with ``join_atoms``.

        None when some atom has no tuple matching the bound values — the
        exact condition under which the spec's subtrie check returns
        early.
        """
        states: List[Tuple[int, int]] = []
        for atom in self.atoms:
            root_range = atom.root_range(access)
            if root_range is None:
                return None
            if atom.width:
                states.append(root_range)
        return states

    # ------------------------------------------------------------------
    # explicit state (the snapshot boundary)
    # ------------------------------------------------------------------
    def to_state(self) -> Dict:
        return {
            "tree": self.tree.to_state(),
            "dictionary": self.dictionary.to_state(),
            "atoms": [atom.to_state() for atom in self.atoms],
        }

    @classmethod
    def from_state(cls, state: Dict) -> "CompiledLayout":
        """Rebuild a layout from :meth:`to_state`; call :meth:`bind` after.

        ``dict_version`` is NOT stored: the owner re-pins it against the
        dictionary restored alongside the layout.
        """
        return cls(
            TreeColumns.from_state(state["tree"]),
            DictColumns.from_state(state["dictionary"]),
            [AtomColumns.from_state(item) for item in state["atoms"]],
            dict_version=-1,
        )


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def _compile_tree(tree, cost_model) -> TreeColumns:
    root_id, left, right, lows, highs, betas = tree.columns()
    # The build already decomposed every node; its list is the column.
    boxes = tree.node_boxes(cost_model.tops)
    return TreeColumns(
        root_id,
        cost_model.ctx.space.width,
        list(left),
        list(right),
        lows,
        highs,
        betas,
        boxes,
    )


def _compile_dictionary(dictionary) -> DictColumns:
    grouped: Dict[Tuple, List[Tuple[int, int]]] = {}
    for (node_id, access), bit in dictionary.items():
        grouped.setdefault(access, []).append((node_id, bit))
    buckets: Dict[Tuple, Tuple[List[int], bytes]] = {}
    for access, pairs in grouped.items():
        pairs.sort()
        buckets[access] = (
            [node_id for node_id, _ in pairs],
            bytes(bit for _, bit in pairs),
        )
    return DictColumns(buckets)


def _compile_atom(binding, space) -> AtomColumns:
    bound_depth = len(binding.bound_vars)
    coords = binding.free_coordinates
    width = len(coords)
    # All full bound prefixes, in sorted order (trie keys are sorted).
    level_nodes = [((), binding.trie.root)]
    for _ in range(bound_depth):
        next_nodes = []
        for prefix, node in level_nodes:
            for key in node.keys:
                next_nodes.append((prefix + (key,), node.children[key]))
        level_nodes = next_nodes
    roots: Dict[Tuple, Tuple[int, int]] = {}
    vals: List[List[int]] = [[] for _ in range(width)]
    kid_lo: List[List[int]] = [[] for _ in range(max(width - 1, 0))]
    kid_hi: List[List[int]] = [[] for _ in range(max(width - 1, 0))]
    if width == 0:
        for prefix, _node in level_nodes:
            roots[prefix] = (0, 0)
        return AtomColumns(
            coords, binding.bound_access_positions, roots, vals, kid_lo, kid_hi
        )
    domain = space.domains[coords[0]]
    current: List = []
    for prefix, node in level_nodes:
        lo = len(vals[0])
        for key in node.keys:
            vals[0].append(domain.index_of(key))
            current.append(node.children[key])
        roots[prefix] = (lo, len(vals[0]))
    for level in range(1, width):
        domain = space.domains[coords[level]]
        next_nodes: List = []
        run = vals[level]
        lo_run = kid_lo[level - 1]
        hi_run = kid_hi[level - 1]
        for parent in current:
            lo = len(run)
            for key in parent.keys:
                run.append(domain.index_of(key))
                next_nodes.append(parent.children[key])
            lo_run.append(lo)
            hi_run.append(len(run))
        current = next_nodes
    return AtomColumns(
        coords, binding.bound_access_positions, roots, vals, kid_lo, kid_hi
    )


def compile_layout(ctx, tree, dictionary, cost_model) -> CompiledLayout:
    """Compile one representation's structures into a bound layout.

    Deterministic and side-effect free on its inputs; the result is bound
    to ``ctx`` and pinned to the dictionary's current version.
    """
    layout = CompiledLayout(
        _compile_tree(tree, cost_model),
        _compile_dictionary(dictionary),
        [_compile_atom(binding, ctx.space) for binding in ctx.atoms],
        dict_version=dictionary.version,
    )
    layout.bind(ctx)
    return layout
