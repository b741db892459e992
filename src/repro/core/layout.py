"""Array-backed columnar layouts for the enumeration kernel.

The Theorem 1 structures are pointer-chasing by nature: tree nodes link to
children and dictionary buckets hash ``(node, access)`` pairs. This
module *compiles* them — once, at representation-build time — into
flat, array-backed sorted runs, and lays the base relations out the
same way:

* :class:`TreeColumns` — the delay-balanced tree as parallel columns
  (child ids with ``-1`` sentinels, interval endpoints, β codes) plus the
  per-node box decompositions resolved ahead of time;
* :class:`DictColumns` — the heavy dictionary as one flat sorted
  ``node id`` run per access tuple, laid end to end, probed with
  :func:`bisect.bisect_left` within the access's slice;
* :class:`AtomColumns` — one atom's sorted index: its free levels
  flattened CSR-style (one sorted value-index run per parent,
  contiguous child-offset ranges, a prefix count per entry), keyed by
  bound prefix, compiled straight from the relation's rows — what the
  kernel joins on and what a build counts and joins on;
* :class:`JoinColumns` — every atom's columns plus the join-participation
  schedule: the ``|D|`` term in the kernel's form, a pure function of
  ``(view, database)`` compiled once per
  :class:`~repro.core.context.ViewContext`, never per ``τ``;
* :class:`CompiledLayout` — the bundle the bulk enumerator in
  :mod:`repro.core.kernel` walks: one structure's tree and dictionary
  columns over its context's join columns, held by reference.

Everything is stored in *index space* (integer positions into the per
coordinate domains, see :mod:`repro.core.domain`), so the hot loops touch
only integers; a structure's own columns serialize as packed arrays of
the narrowest fixed-width typecode that holds them (via :mod:`array`,
item size and byte order recorded beside the bytes) and everything lives
in memory as plain lists — C-speed ``bisect`` probes without per-access
boxing. The columns are the one stored and the one resident form of
``(T, D)``: the build writes :class:`TreeColumns` and
:class:`DictColumns` itself, and nothing edits them afterwards — the
Theorem 2 refinement (Algorithm 4) takes a new layout with new bits, as
a cut takes a new layout at a higher ``τ``. The tree exists beside the
columns only as a view materialised when someone asks
(:attr:`~repro.core.structure.CompressedRepresentation.tree`).

The kernel is the one enumerator of the static structures: answers,
order, and measured delay statistics are bit-identical to the recursive
transcription of Algorithm 2 kept as the executable spec in
``tests/reference_walk.py`` — the kernel counts that walk's logical steps
itself when a :class:`~repro.joins.generic_join.JoinCounter` is attached
(see :mod:`repro.core.kernel`).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, repeat
from math import prod
from operator import add, floordiv, gt, itemgetter, mod, ne
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.domain import TupleSpace
from repro.core.intervals import box_decomposition
from repro.exceptions import SnapshotError


def numpy_backend():
    # The kernel has no numpy path. benchmarks/e2e still imports this
    # name and insists on None; it goes when a `benchmark` issue lets go.
    return None


#: Signed fixed-width typecodes of a packed int column, narrowest first.
_INT_TYPECODES = ("b", "h", "i", "q")


def _pack(values: Iterable[int]) -> Tuple[str, int, bytes]:
    """``(typecode, item size, bytes)``: the narrowest array holding them."""
    values = list(values)
    low, high = (min(values), max(values)) if values else (0, 0)
    for code in _INT_TYPECODES:
        itemsize = array(code).itemsize
        bound = 1 << (8 * itemsize - 1)
        if -bound <= low and high < bound:
            return code, itemsize, array(code, values).tobytes()
    raise OverflowError(f"column value outside 64 bits: {low}..{high}")


def _require(ok: bool, complaint: str) -> None:
    if not ok:
        raise SnapshotError(f"malformed {complaint}")


def _unpack(where: str, packed, swap: bool, typecodes=_INT_TYPECODES) -> array:
    """The array behind a :func:`_pack` triple, or a typed refusal."""
    code, itemsize, blob = packed
    _require(
        code in typecodes and array(code).itemsize == itemsize,
        f"{where}: unknown typecode {code!r} of item size {itemsize!r}",
    )
    _require(
        isinstance(blob, bytes) and len(blob) % itemsize == 0,
        f"{where}: not a whole number of {itemsize}-byte items",
    )
    values = array(code, blob)
    if swap:
        values.byteswap()
    return values


def _points(where: str, flat: List[int], width: int, count: int) -> List[Tuple]:
    """``count`` index tuples of ``width`` out of one flat run."""
    _require(
        len(flat) == count * width,
        f"{where}: {len(flat)} values for {count} points of width {width}",
    )
    if not width:
        return [()] * count
    return list(zip(*[iter(flat)] * width))


@dataclass(eq=False, slots=True)
class TreeColumns:
    """The delay-balanced tree as flat parallel node columns.

    ``left``/``right`` hold child node ids (``-1`` for absent children),
    ``low``/``high`` the interval endpoints as index tuples, ``beta`` the
    split codes (None on leaves), ``cost`` each node's ``T(I)`` (an
    ``array('d')``: what the object view of a node needs beyond the
    walk's columns; None on a layout nothing was costed for) and
    ``boxes`` each node's canonical box decomposition pre-resolved to
    per-coordinate closed index ranges. ``beta_values`` (decoded value
    tuples) is derived when a layout takes the columns.
    """

    root: int
    width: int
    left: List[int]
    right: List[int]
    low: List[Tuple[int, ...]]
    high: List[Tuple[int, ...]]
    beta: List[Optional[Tuple[int, ...]]]
    cost: Optional[array]
    boxes: List[Tuple]
    beta_values: List[Optional[Tuple]] = field(default_factory=list)

    def to_state(self) -> Dict:
        """Packed columns; the boxes as they are (pickle keeps tuples)."""
        flat = chain.from_iterable
        return {
            "root": self.root,
            "width": self.width,
            "count": len(self.left),
            "left": _pack(self.left),
            "right": _pack(self.right),
            "low": _pack(flat(self.low)),
            "high": _pack(flat(self.high)),
            "leaf": bytes(point is None for point in self.beta),
            "beta": _pack(flat(p for p in self.beta if p is not None)),
            "cost": ("d", self.cost.itemsize, self.cost.tobytes()),
            "boxes": self.boxes,
        }

    @classmethod
    def from_state(cls, state: Dict, swap: bool) -> "TreeColumns":
        """Unpack :meth:`to_state` output, checking what the kernel relies on.

        Every column is one entry per node; a child id is ``-1`` or lies
        strictly between its parent's id and the node count (the builder
        numbers nodes in creation order, so links only point forward and
        a walk terminates); the root is node 0 of a non-empty tree.
        """

        where = "tree columns"

        def ints(name: str) -> List[int]:
            return _unpack(f"{where} ({name})", state[name], swap).tolist()

        width, count, leaf = state["width"], state["count"], state["leaf"]
        left, right, boxes = ints("left"), ints("right"), state["boxes"]
        cost = _unpack(f"{where} (cost)", state["cost"], swap, ("d",))
        _require(
            isinstance(leaf, bytes) and leaf.count(0) + leaf.count(1) == count,
            f"{where} (leaf): not a 0/1 mask of {count} nodes",
        )
        _require(
            isinstance(boxes, list)
            and len(left) == len(right) == len(cost) == len(boxes) == count,
            f"{where}: not {count} entries in every column",
        )
        for name, column in (("left", left), ("right", right)):
            forward = sum(map(gt, column, range(count)))
            _require(
                forward + column.count(-1) == count
                and max(column, default=-1) < count,
                f"{where} ({name}): child id out of range",
            )
        _require(
            state["root"] == (0 if count else -1),
            f"{where} (root): {state['root']!r} of {count} nodes",
        )
        split = iter(
            _points(f"{where} (beta)", ints("beta"), width, leaf.count(0))
        )
        return cls(
            state["root"],
            width,
            left,
            right,
            _points(f"{where} (low)", ints("low"), width, count),
            _points(f"{where} (high)", ints("high"), width, count),
            [None if is_leaf else next(split) for is_leaf in leaf],
            cost,
            boxes,
        )


@dataclass(eq=False, slots=True)
class DictColumns:
    """Heavy-dictionary entries as one flat run, access after access.

    ``nodes`` (ids) and ``bits`` (stored bits, one byte each) hold every
    access's entries end to end, accesses in sorted order and ids
    ascending within each; ``index`` maps an access to its ``(lo, hi)``
    slice, in the same order. A probe is one :func:`bisect_left` into
    ``nodes[lo:hi]`` — absence is the paper's ⊥ (light pair). The same
    arrays are what a snapshot stores.

    ``costs`` holds each stored pair's ``T_{v_b}(I(w))``, an
    ``array('d')`` parallel to ``nodes`` — resident on a freshly built or
    cut structure (what :func:`cut_layout` filters on), never stored, and
    None on anything decoded, upgraded or recompiled.
    """

    index: Dict[Tuple, Tuple[int, int]]
    nodes: List[int]
    bits: bytes
    costs: Optional[array] = None

    def __len__(self) -> int:
        return len(self.bits)

    def get(self, node_id: int, access: Tuple) -> Optional[int]:
        """The stored bit, or None (the paper's ⊥) when the pair is light.

        The kernel's probe: one bisect into the access's slice.
        """
        lo, hi = self.index.get(access, (0, 0))
        at = bisect_left(self.nodes, node_id, lo, hi)
        return self.bits[at] if at < hi and self.nodes[at] == node_id else None

    def items(self) -> List[Tuple[Tuple[int, Tuple], int]]:
        """Every ``((node id, access), bit)``, in column order."""
        index = self.index.items()
        owners = chain.from_iterable(repeat(a, hi - lo) for a, (lo, hi) in index)
        return list(zip(zip(self.nodes, owners), self.bits))

    def to_state(self) -> Dict:
        """The arrays as they are, and the index as accesses and offsets."""
        return {
            "access": list(self.index),
            "offsets": _pack(chain([0], (hi for _, hi in self.index.values()))),
            "nodes": _pack(self.nodes),
            "bits": self.bits,
        }

    @classmethod
    def from_state(
        cls, state: Dict, swap: bool, node_count: int
    ) -> "DictColumns":
        """Unpack and validate :meth:`to_state` output (codec v3 / v4)."""
        where = "dictionary columns"
        accesses, bits = state["access"], state["bits"]
        offsets = _unpack(f"{where} (offsets)", state["offsets"], swap).tolist()
        nodes = _unpack(f"{where} (nodes)", state["nodes"], swap).tolist()
        _require(
            isinstance(accesses, list)
            and len(offsets) == len(accesses) + 1
            and offsets == sorted(offsets)
            and (offsets[0], offsets[-1]) == (0, len(nodes)),
            f"{where} (offsets): not an ascending slice of the "
            f"{len(nodes)} node ids per access",
        )
        _require(
            isinstance(bits, bytes) and len(bits) == len(nodes),
            f"{where} (bits): not {len(nodes)} bytes",
        )
        _require(
            not nodes or 0 <= min(nodes) <= max(nodes) < node_count,
            f"{where} (nodes): node id out of range",
        )
        index = dict(zip(accesses, zip(offsets, offsets[1:])))
        _require(
            len(index) == len(accesses),
            f"{where} (access): repeated access tuple",
        )
        return cls(index, nodes, bits)


class AtomColumns:
    """One atom's sorted index over its relation, flattened CSR-style.

    ``vals[d]`` is the concatenation of every level-``d`` node run (global
    domain indexes, sorted within each parent's contiguous slice);
    ``kid_lo[d]``/``kid_hi[d]`` give entry ``i``'s child slice in level
    ``d+1``. ``roots`` maps each full bound-value prefix to its level-0
    slice. ``counts[d][i]`` is the number of keys sorted before entry
    ``i`` (one more item closes the level with the total), so a slice
    ``[lo, hi)`` of any level counts the keys below it in O(1) — the
    count oracle of Lemma 3 and Proposition 13. An atom with no free
    variable has one level of its own: one entry per root, no values, so
    that a root's presence is the membership fact and its slice still
    counts. Runs are plain int lists, never written after compilation.
    """

    __slots__ = (
        "coords",
        "bound_positions",
        "width",
        "roots",
        "vals",
        "kid_lo",
        "kid_hi",
        "counts",
    )

    def __init__(
        self, coords, bound_positions, roots, vals, kid_lo, kid_hi, counts
    ):
        self.coords = tuple(coords)
        self.bound_positions = tuple(bound_positions)
        self.width = len(self.coords)
        self.roots = roots
        self.vals = vals
        self.kid_lo = kid_lo
        self.kid_hi = kid_hi
        self.counts = counts

    def root_range(self, access: Tuple) -> Optional[Tuple[int, int]]:
        """The level-0 slice under the access tuple, or None if absent."""
        key = tuple(access[i] for i in self.bound_positions)
        return self.roots.get(key)

    def root_ranges(self, accesses: Sequence[Tuple]) -> List[Optional[Tuple[int, int]]]:
        """:meth:`root_range` of every access tuple, in one pass."""
        columns = [map(itemgetter(i), accesses) for i in self.bound_positions]
        keys = zip(*columns) if columns else repeat((), len(accesses))
        return list(map(self.roots.get, keys))


class JoinColumns:
    """The ``|D|`` term as the kernel reads it, one per view context.

    ``atoms`` holds every atom's columns in atom order, ``join_atoms``
    those with a free variable, and ``participants`` the static
    join-participation schedule: per coordinate, which join atoms
    constrain it and at which level. Free coordinates within an
    atom are strictly increasing (the column order follows the
    global free order), so the schedule depends on no particular access.
    ``domain_values`` decode each coordinate's indexes (the domains'
    value tuples). Nothing here depends on ``τ`` and
    nothing is written after construction: every layout over the context
    holds these very objects
    (:meth:`~repro.core.context.ViewContext.columns`).
    """

    __slots__ = ("space", "domain_values", "atoms", "join_atoms", "participants")

    def __init__(self, space, atoms: Sequence[AtomColumns]):
        self.space = space
        self.domain_values: Tuple[Sequence, ...] = tuple(
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

    @property
    def width(self) -> int:
        return self.space.width

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


class CompiledLayout:
    """The compiled columnar bundle one representation's kernel walks.

    Owns one structure's tree and dictionary columns; the tuple space,
    decoded values, atom columns and join schedule are its context's
    :class:`JoinColumns`, held field by field so the kernel's loops read
    them off the layout. Never edited: a structure with other columns
    (a cut, Algorithm 4's refined bag) has another layout.
    """

    __slots__ = (
        "tree",
        "dictionary",
        "width",
        "space",
        "domain_values",
        "atoms",
        "join_atoms",
        "participants",
    )

    def __init__(self, tree, dictionary, columns: JoinColumns):
        self.tree = tree
        self.dictionary = dictionary
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

    root_states = JoinColumns.root_states  # a kernel entry helper

    # ------------------------------------------------------------------
    # explicit state (the snapshot boundary)
    # ------------------------------------------------------------------
    def to_state(self) -> Dict:
        """What a structure owns — its tree and dictionary columns, once.

        The join columns are the context's, rebuilt or adopted with it.
        Item sizes ride with each array and the byte order here, so the
        bytes mean the same on whatever machine reads them.
        """
        return {
            "byteorder": sys.byteorder,
            "tree": self.tree.to_state(),
            "dictionary": self.dictionary.to_state(),
        }

    @classmethod
    def from_state(cls, state: Dict, columns: JoinColumns) -> "CompiledLayout":
        """A layout over ``columns`` from :meth:`to_state` output (codec v3).

        Every shape the kernel relies on is checked; a section that
        fails raises :class:`~repro.exceptions.SnapshotError` naming it.
        """
        try:
            order = state["byteorder"]
            _require(
                order in ("little", "big"),
                f"columns (byteorder): unknown byte order {order!r}",
            )
            swap = order != sys.byteorder
            tree = TreeColumns.from_state(state["tree"], swap)
            dictionary = DictColumns.from_state(
                state["dictionary"], swap, len(tree.left)
            )
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise SnapshotError(f"malformed columns: {error!r}") from error
        _require(
            tree.width == columns.space.width,
            f"tree columns (width): {tree.width!r}, the view has "
            f"{columns.space.width} free variables",
        )
        return cls(tree, dictionary, columns)


def upgrade_legacy_state(state: Dict, tops: Sequence[int]) -> Dict:
    """A codec v1 / v2 compressed state's ``(T, D)`` as a ``"columns"`` section.

    Those states carry the tree as node records ``(low, high, level,
    cost, beta, left, right)`` and the dictionary as ``(node, access,
    bit)`` triples, and v2 also a ``"layout"`` of 64-bit columns, one
    array per dictionary bucket (plus, at one age, an ``"atoms"``
    section, ignored). The records give the costs — and, in v1,
    everything: links, endpoints, β points, boxes by decomposition. What
    comes back is read by the one decoder, :meth:`CompiledLayout.from_state`.
    """
    flat = chain.from_iterable
    records = state["tree"]["nodes"]
    cost = array("d", [record[3] for record in records])
    layout = state.get("layout")
    if layout is None:
        low = [tuple(record[0]) for record in records]
        high = [tuple(record[1]) for record in records]
        tree = TreeColumns(
            0 if records else -1,
            len(tops),
            [-1 if r[5] is None else r[5] for r in records],
            [-1 if r[6] is None else r[6] for r in records],
            low,
            high,
            [None if r[4] is None else tuple(r[4]) for r in records],
            cost,
            [tuple(box_decomposition(*ends, tops)) for ends in zip(low, high)],
        ).to_state()
        dictionary = compile_dictionary(
            ((node_id, tuple(access)), bit)
            for node_id, access, bit in state["dictionary"]
        ).to_state()
    else:
        tree = dict(layout["tree"], cost=("d", cost.itemsize, cost.tobytes()))
        for name in ("left", "right", "low", "high"):
            tree[name] = ("q", 8, tree[name])
        splits = dict(tree["beta"])
        tree["leaf"] = bytes(node not in splits for node in range(tree["count"]))
        tree["beta"] = _pack(flat(splits[node] for node in sorted(splits)))
        buckets = layout["dictionary"]
        sizes = (len(ids) // 8 for _, ids, _ in buckets)
        dictionary = {
            "access": [tuple(access) for access, _, _ in buckets],
            "offsets": _pack(accumulate(sizes, initial=0)),
            "nodes": ("q", 8, b"".join(ids for _, ids, _ in buckets)),
            "bits": b"".join(bits for _, _, bits in buckets),
        }
    return {"byteorder": sys.byteorder, "tree": tree, "dictionary": dictionary}


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def compile_dictionary(entries) -> DictColumns:
    """Lay ``((node id, access), bit)`` entries out flat, per access.

    Accesses in sorted order, ids sorted within each (a legacy state's
    may arrive unsorted). Entries are grouped into plain
    runs, not a tuple each; nothing here has a cost to lay out.
    """
    runs = defaultdict(lambda: ([], bytearray()))
    for (node_id, access), bit in entries:
        ids, run_bits = runs[access]
        ids.append(node_id)
        run_bits.append(bit)
    index, nodes, bits = {}, [], bytearray()
    for access in sorted(runs):
        ids, run_bits = runs.pop(access)
        if any(map(gt, ids, ids[1:])):
            ids, run_bits = zip(*sorted(zip(ids, run_bits)))
        index[access] = (len(nodes), len(nodes) + len(ids))
        nodes += ids
        bits += bytes(run_bits)
    return DictColumns(index, nodes, bytes(bits))


def _row_keys(rows, positions, domains) -> List[int]:
    """``rows``' values at ``positions`` as sorted mixed-radix integers.

    Digit ``j`` of a key is the value's index in ``domains[j]``, in base
    ``len(domains[j])``: keys order as the index tuples do, and indexes
    order like the values. Each column maps its values straight to
    their digit's weight (index times the sizes of the domains after
    it), and the columns are added: C-level ``map`` passes, no Python
    statement per row. A row with no key column has the key 0.
    """
    scale, weighted = 1, []
    for position, domain in zip(reversed(positions), reversed(domains)):
        weights = dict(zip(domain.values, count(0, scale)))
        weighted.append(map(weights.__getitem__, map(itemgetter(position), rows)))
        scale *= len(domain)
    keys = weighted.pop() if weighted else repeat(0, len(rows))
    for column in weighted:
        keys = map(add, keys, column)
    return sorted(keys)


def _compile_rows(keys, domains, coords, bound_positions=()) -> AtomColumns:
    """Columns over sorted row keys (:func:`_row_keys` over ``domains``).

    A key's first digits, one per bound position, are its bound prefix
    (a key of ``roots``, decoded to values); the rest are one level per
    coordinate of ``coords``. Repeats are kept — each is counted, only
    the first stored. A level is read off the distinct keys of the level
    below divided by its radix: the remainders are its values, the first
    of each run of equal quotients opens a parent's child slice, and the
    distinct quotients are the parents. A stored key's count is its
    first position among all keys, lifted a level at a time through the
    first child of every entry; at width 0 the entries are the roots.
    No Python statement runs per key.
    """
    total, depth, width = len(keys), len(bound_positions), len(coords)
    firsts = list(map(ne, keys, chain((-1,), keys)))
    unique = list(compress(keys, firsts))
    counts: List[Sequence[int]] = [range(total + 1)]
    if len(unique) < total:
        counts[0] = [*compress(range(total), firsts), total]
    vals, kid_lo = [[]] * width, [[]] * max(width - 1, 0)  # every slot is set
    starts: Sequence[int] = range(len(unique))
    for level in reversed(range(width)):
        radix = repeat(len(domains[depth + level]))
        vals[level] = list(map(mod, unique, radix))
        unique = list(map(floordiv, unique, radix))
        opens = list(map(ne, unique, chain((-1,), unique)))
        starts = list(compress(range(len(unique)), opens))
        unique = list(compress(unique, opens))
        if level:
            kid_lo[level - 1] = starts
            counts.insert(0, [*map(counts[0].__getitem__, starts), total])
    entries = len(vals[0]) if width else len(unique)
    digits = []
    for domain in reversed(domains[:depth]):
        radix = repeat(len(domain))
        digits.insert(0, map(domain.values.__getitem__, map(mod, unique, radix)))
        unique = list(map(floordiv, unique, radix))
    prefixes = zip(*digits) if digits else repeat((), len(unique))
    roots = dict(zip(prefixes, zip(starts, chain(starts[1:], (entries,)))))
    kid_hi = [(run + [len(vals[level + 1])])[1:] for level, run in enumerate(kid_lo)]
    return AtomColumns(coords, bound_positions, roots, vals, kid_lo, kid_hi, counts)


class RowKeys(dict):
    """Each atom's rows as sorted join keys, folded at most once.

    ``keys[binding]`` is ``(sorted keys, bound domains, free domains,
    radix)``: the keys are :func:`_row_keys` over the atom's column
    order — bound digits through the context's bound domains, then free
    digits — and ``radix`` is the product of the free domains' sizes.
    The atom's other instances are read off the same integers: its bound
    projection is ``key // radix`` (already in order), its free part
    ``key % radix``. Made for one compile and dropped with it: the
    integers are never kept on the context.
    """

    __slots__ = ("ctx",)

    def __init__(self, ctx):
        super().__init__()
        self.ctx = ctx

    def __missing__(self, binding) -> Tuple[List[int], List, List, int]:
        ctx = self.ctx
        bound = [ctx.bound_domains[var] for var in binding.bound_vars]
        free = [ctx.free_domains[c] for c in binding.free_coordinates]
        keys = _row_keys(binding.relation.rows, binding.column_order, bound + free)
        self[binding] = folded = (keys, bound, free, prod(map(len, free)))
        return folded


def _compile_atom(binding, keys: RowKeys, free_only: bool = False) -> AtomColumns:
    """One atom's columns: bound columns first, then its free ones.

    The bound-first keys are whole rows (the atom is natural), so every
    count is of distinct tuples — ``|R_F ⋉ v_b ⋉ B|``. ``free_only``
    drops the bound columns: one root, and the keys are the rows' free
    parts with their repeats, so a count is ``|R_F ⋉ B|`` over every
    ``v_b`` at once.
    """
    rows, bound, free, radix = keys[binding]
    if free_only:
        parts = sorted(map(mod, rows, repeat(radix)))
        return _compile_rows(parts, free, binding.free_coordinates)
    positions = binding.bound_access_positions
    return _compile_rows(rows, bound + free, binding.free_coordinates, positions)


def _bound_atom(binding, keys: RowKeys) -> AtomColumns:
    """One atom's bound projection over ``V_b``: its keys' bound prefixes."""
    rows, bound, _, radix = keys[binding]
    prefixes = list(map(floordiv, rows, repeat(radix)))
    return _compile_rows(prefixes, bound, binding.bound_access_positions)


def _extends(before, after) -> bool:
    """Whether ``after``'s values start with all of ``before``'s: every
    index into ``before`` names the same value in ``after``."""
    values = before.values
    return after is before or after.values[: len(values)] == values


def compile_join_columns(ctx, previous, keys: RowKeys) -> JoinColumns:
    """Compile a context's atoms into the kernel's join columns.

    ``previous`` is an earlier context over the same view. An atom over
    the very same relation takes over its columns there — if they were
    compiled — when each of its free-coordinate domains still starts
    with its old values (:func:`_extends`): a value appended at the top
    of a domain moves no index the columns hold. Nothing else in them
    depends on the domains: ``vals`` are indexes, ``kid_lo`` /
    ``kid_hi`` / ``counts`` positions within the columns, and ``roots``
    are keyed by bound values.
    """
    kept = getattr(previous, "_columns", None)

    def columns(binding) -> AtomColumns:
        if (
            kept is not None
            and previous.atoms[binding.label].relation is binding.relation
            and all(
                _extends(previous.free_domains[c], ctx.free_domains[c])
                for c in binding.free_coordinates
            )
        ):
            return kept.atoms[binding.label]
        return _compile_atom(binding, keys)

    return JoinColumns(ctx.space, [columns(binding) for binding in ctx.atoms])


def compile_build_columns(ctx, keys: RowKeys) -> Tuple[Tuple, JoinColumns]:
    """What a build counts and joins on beside the join columns.

    Per atom, what ``T(B)`` counts on when no ``v_b`` is fixed: the
    free-columns-only instance of an atom with a bound variable (an atom
    with none has its join columns for that — its keys are whole rows,
    each once). And the atoms' bound projections as join columns over
    ``V_b`` — what Proposition 13's candidate join walks: one instance
    per atom with a bound variable, over the bound variables' domains in
    the bound order; the kernel decodes its rows to access tuples. Both
    are read off ``keys``, the join columns' own sorted integers.
    """
    counted = tuple(
        _compile_atom(binding, keys, free_only=True) if binding.bound_vars else atom
        for binding, atom in zip(ctx.atoms, ctx.columns().atoms)
    )
    space = TupleSpace([ctx.bound_domains[var] for var in ctx.bound_order])
    bound = [_bound_atom(binding, keys) for binding in ctx.atoms if binding.bound_vars]
    return counted, JoinColumns(space, bound)


def compile_layout(ctx, tree: TreeColumns, dictionary: DictColumns) -> CompiledLayout:
    """One representation's ``(T, D)`` over its context's columns.

    Both are already columns (the build writes them). Deterministic and
    side-effect free on its inputs.
    """
    return CompiledLayout(tree, dictionary, ctx.columns())


def cut_layout(
    layout: CompiledLayout, thresholds: Sequence[float], columns: JoinColumns
) -> Tuple[CompiledLayout, int]:
    """``layout``'s ``(T, D)`` cut at a higher ``τ``, and the cut's depth.

    ``thresholds[ℓ]`` is the higher ``τ``'s ``τ_ℓ`` at every level of
    ``layout``'s tree. Algorithm 1's split point and the cost ``T`` never
    see ``τ``, and costs never grow toward the leaves (Lemma 2), so the
    tree at the higher ``τ`` is this one, stopped earlier: a node is kept
    when its parent is kept and still splits — ``cost ≥ τ_ℓ`` — and the
    kept nodes are renumbered in id order (ids are pre-order, so parents
    come first). Endpoints, β points and boxes are shared by reference.
    A dictionary entry is kept when its node is and its cost still
    exceeds ``τ_ℓ``. One forward pass each; nothing is costed or joined.
    """
    tree, dictionary = layout.tree, layout.dictionary
    # New ids, and one slot past the old ones: a child id of -1 reads -1.
    renumber = [-1] * (len(tree.left) + 1)
    levels = [0] * len(tree.left)
    limits = [float("inf")] * len(tree.left)  # τ_ℓ at kept nodes only
    kept, links = [], []  # old ids; per kept node (left, right, β) at τ
    for node, cost in enumerate(tree.cost):
        if node and renumber[node] < 0:
            continue  # below a node that stops at this τ
        renumber[node] = len(kept)
        kept.append(node)
        limits[node] = thresholds[levels[node]]
        link = (tree.left[node], tree.right[node], tree.beta[node])
        if link[2] is None or cost < limits[node]:
            link = (-1, -1, None)
        links.append(link)
        for child in link[:2]:
            if child >= 0:
                renumber[child] = 0  # reached: numbered in its turn
                levels[child] = levels[node] + 1
    cut_tree = TreeColumns(
        0 if kept else -1,
        tree.width,
        [renumber[left] for left, _, _ in links],
        [renumber[right] for _, right, _ in links],
        *([column[node] for node in kept] for column in (tree.low, tree.high)),
        [beta for _, _, beta in links],
        array("d", [tree.cost[node] for node in kept]),
        [tree.boxes[node] for node in kept],
    )
    # One pass over the flat entries: kept ids are renumbered in order,
    # so each access's run stays sorted, its slice shifted by the count
    # of entries kept before it.
    keep = list(map(gt, dictionary.costs, map(limits.__getitem__, dictionary.nodes)))
    index, end = {}, 0
    for access, (lo, hi) in dictionary.index.items():
        start, end = end, end + sum(keep[lo:hi])
        if start < end:
            index[access] = (start, end)
    cut = DictColumns(
        index,
        [renumber[node] for node in compress(dictionary.nodes, keep)],
        bytes(compress(dictionary.bits, keep)),
        array("d", compress(dictionary.costs, keep)),
    )
    depth = max((levels[node] for node in kept), default=0)
    return CompiledLayout(cut_tree, cut, columns), depth


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
        tree = TreeColumns(-1, space.width, [], [], [], [], [], None, [])
    else:
        low, high = space.bottom(), space.top()
        boxes = tuple(box_decomposition(low, high, high))
        tree = TreeColumns(
            0, space.width, [-1], [-1], [low], [high], [None], None, [boxes]
        )
    return CompiledLayout(tree, DictColumns({}, [], b""), ctx.columns())
