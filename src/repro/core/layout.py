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
  keyed by bound prefix, compiled straight from the relation's rows;
* :class:`JoinColumns` — every atom's columns plus the join-participation
  schedule: the ``|D|`` term in the kernel's form, a pure function of
  ``(view, database)`` compiled once per
  :class:`~repro.core.context.ViewContext`, never per ``τ``;
* :class:`CompiledLayout` — the bundle the bulk enumerator in
  :mod:`repro.core.kernel` walks: one structure's tree and dictionary
  columns over its context's join columns, held by reference.

Everything is stored in *index space* (integer positions into the per
coordinate domains, see :mod:`repro.core.domain`), so the hot loops touch
only integers; a structure's own runs serialize as packed ``int64`` bytes
(via :mod:`array`) and everything lives in memory as plain lists —
C-speed ``bisect`` probes without per-access boxing.

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

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.intervals import box_decomposition


def numpy_backend():
    # The kernel has no numpy path. benchmarks/e2e still imports this
    # name and insists on None; it goes when a `benchmark` issue lets go.
    return None


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
    ``beta_values`` (decoded value tuples) is derived when a layout takes
    the columns.
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
    key's presence alone is the membership fact. Runs are plain int
    lists, never written after compilation.
    """

    __slots__ = (
        "coords",
        "bound_positions",
        "width",
        "roots",
        "vals",
        "kid_lo",
        "kid_hi",
    )

    def __init__(self, coords, bound_positions, roots, vals, kid_lo, kid_hi):
        self.coords = tuple(coords)
        self.bound_positions = tuple(bound_positions)
        self.width = len(self.coords)
        self.roots = roots
        self.vals = vals
        self.kid_lo = kid_lo
        self.kid_hi = kid_hi

    def root_range(self, access: Tuple) -> Optional[Tuple[int, int]]:
        """The level-0 slice under the access tuple, or None if absent."""
        key = tuple(access[i] for i in self.bound_positions)
        return self.roots.get(key)


class JoinColumns:
    """The ``|D|`` term as the kernel reads it, one per view context.

    ``atoms`` holds every atom's columns in atom order, ``join_atoms``
    those with a free variable, and ``participants`` the static
    join-participation schedule: per coordinate, which join atoms
    constrain it and at which trie level. Free coordinates within an
    atom are strictly increasing (the trie column order follows the
    global free order), so the schedule depends on no particular access.
    ``domain_values`` are the per-coordinate decoded value tuples.
    Nothing here depends on ``τ`` and nothing is written after
    construction: every layout over the context holds these very
    objects (:meth:`~repro.core.context.ViewContext.columns`).
    """

    __slots__ = ("space", "domain_values", "atoms", "join_atoms", "participants")

    def __init__(self, space, atoms: Sequence[AtomColumns]):
        self.space = space
        self.domain_values: Tuple[Tuple, ...] = tuple(
            domain.values for domain in space.domains
        )
        self.atoms: Tuple[AtomColumns, ...] = tuple(atoms)
        self.join_atoms: Tuple[AtomColumns, ...] = tuple(
            atom for atom in self.atoms if atom.width
        )
        schedule: List[List[Tuple[int, int]]] = [[] for _ in range(space.width)]
        for index, atom in enumerate(self.join_atoms):
            for level, coordinate in enumerate(atom.coords):
                schedule[coordinate].append((index, level))
        self.participants: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            tuple(s) for s in schedule
        )


class CompiledLayout:
    """The compiled columnar bundle one representation's kernel walks.

    Owns one structure's tree and dictionary columns; the tuple space,
    decoded values, atom columns and join schedule are its context's
    :class:`JoinColumns`, held field by field so the kernel's loops read
    them off the layout. ``dict_version`` pins the
    :class:`~repro.core.dictionary.HeavyDictionary` version the layout
    was compiled against; any later in-place dictionary edit makes the
    layout stale and the representation refuses to enumerate until
    :meth:`~repro.core.structure.CompressedRepresentation.compile_layout`
    runs again.
    """

    __slots__ = (
        "tree",
        "dictionary",
        "dict_version",
        "width",
        "space",
        "domain_values",
        "atoms",
        "join_atoms",
        "participants",
    )

    def __init__(self, tree, dictionary, columns: JoinColumns, dict_version):
        self.tree = tree
        self.dictionary = dictionary
        self.dict_version = dict_version
        self.width = tree.width
        self.space = space = columns.space
        self.domain_values = columns.domain_values
        self.atoms = columns.atoms
        self.join_atoms = columns.join_atoms
        self.participants = columns.participants
        tree.beta_values = [
            space.values(point) if point is not None else None
            for point in tree.beta
        ]

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
        """What a structure owns: its tree and dictionary columns.

        The join columns are the context's, rebuilt or adopted with it.
        """
        return {
            "tree": self.tree.to_state(),
            "dictionary": self.dictionary.to_state(),
        }

    @classmethod
    def from_state(
        cls, state: Dict, columns: JoinColumns, dict_version: int
    ) -> "CompiledLayout":
        """Rebuild a layout from :meth:`to_state` over ``columns``.

        ``dict_version`` is NOT stored: the owner re-pins it against the
        dictionary restored alongside the layout. Blobs written before
        join columns moved to the context also carry an ``"atoms"``
        section; it is ignored.
        """
        return cls(
            TreeColumns.from_state(state["tree"]),
            DictColumns.from_state(state["dictionary"]),
            columns,
            dict_version,
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
    """One atom's columns, from its relation's rows in one sorted pass.

    Keys are the rows rearranged bound columns first, free columns (as
    domain indexes, which order like the values) after, distinct and
    sorted; a key opens a new run entry at every free level from the
    first position where it departs from its predecessor. A level's
    child slices are contiguous in key order, so each ends where the
    next begins.
    """
    bound_depth = len(binding.bound_vars)
    coords = binding.free_coordinates
    width = len(coords)
    rows = binding.relation.rows
    columns = [[row[p] for row in rows] for p in binding.column_order]
    for level, coordinate in enumerate(coords, start=bound_depth):
        index_of = space.domains[coordinate].index_of
        columns[level] = list(map(index_of, columns[level]))
    keys = sorted(set(zip(*columns)))
    vals: List[List[int]] = [[] for _ in range(width)]
    kid_lo: List[List[int]] = [[] for _ in range(max(width - 1, 0))]
    top: List[int] = vals[0] if width else []  # stays empty at width 0
    # Each bound prefix and the start of its slice of ``top``; an atom
    # with no bound variable has the one root whatever its rows.
    prefixes: List[Tuple] = [] if bound_depth else [()]
    starts: List[int] = [] if bound_depth else [0]
    previous = None
    for key in keys:
        departs = 0
        if previous is not None:
            while key[departs] == previous[departs]:
                departs += 1
        previous = key
        if departs < bound_depth:
            prefixes.append(key[:bound_depth])
            starts.append(len(top))
            departs = bound_depth
        for level in range(departs - bound_depth, width):
            if level + 1 < width:
                kid_lo[level].append(len(vals[level + 1]))
            vals[level].append(key[bound_depth + level])
    kid_hi = [
        (run + [len(vals[level + 1])])[1:] for level, run in enumerate(kid_lo)
    ]
    if width:
        slices = zip(starts, starts[1:] + [len(top)])
        roots = dict(zip(prefixes, slices))
    else:
        roots = dict.fromkeys(prefixes, (0, 0))  # presence is the fact
    return AtomColumns(
        coords, binding.bound_access_positions, roots, vals, kid_lo, kid_hi
    )


def compile_join_columns(ctx) -> JoinColumns:
    """Compile a context's atoms into the kernel's join columns."""
    return JoinColumns(
        ctx.space,
        [_compile_atom(binding, ctx.space) for binding in ctx.atoms],
    )


def compile_layout(ctx, tree, dictionary, cost_model) -> CompiledLayout:
    """Compile one representation's ``(T, D)`` over its context's columns.

    Deterministic and side-effect free on its inputs; the result is
    pinned to the dictionary's current version.
    """
    return CompiledLayout(
        _compile_tree(tree, cost_model),
        _compile_dictionary(dictionary),
        ctx.columns(),
        dict_version=dictionary.version,
    )


def one_leaf_layout(ctx) -> CompiledLayout:
    """Theorem 1's structure for any ``τ`` above ``T(root)``, directly.

    One node spanning the tuple space and an empty dictionary: every
    request finds ⊥ at the root and is one worst-case-optimal join per
    box of the whole space — Section 2.3's lazy evaluation, linear space
    and all delay. Nothing is costed or materialised to get there; an
    empty tuple space is the empty tree.
    """
    space = ctx.space
    if space.is_empty():
        tree = TreeColumns(-1, space.width, [], [], [], [], [], [])
    else:
        low, high = space.bottom(), space.top()
        boxes = tuple(box_decomposition(low, high, high))
        tree = TreeColumns(0, space.width, [-1], [-1], [low], [high], [None], [boxes])
    return CompiledLayout(tree, DictColumns({}), ctx.columns(), dict_version=0)
