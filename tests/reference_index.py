"""The value-space index and join — the spec the index-space ones replaced.

``src/`` has one index and one join: each atom's sorted columns, compiled
once per view context (:meth:`repro.core.context.ViewContext.columns`),
and the kernel's join over them (:func:`repro.core.kernel.join_rows`).
Every reader builds on those two — the Theorem 1 build and walk, the
lazy and materialised baselines of Section 2.3, and Proposition 4's bags.
This module is what they are held to, moved here unchanged when the last
reader left it:

* :class:`TrieIndex` / :class:`TrieNode` — a sorted trie over a column
  permutation of one relation, with subtree counts: membership, prefix
  and range counts (the ``|R_F ⋉ B|`` statistics of Section 4) and the
  ordered candidate streams of the join;
* :func:`generic_join` — the worst-case-optimal join in the NPRR /
  generic-join family over such tries, in lexicographic order of its
  variable order, counting one :class:`~repro.joins.generic_join.JoinCounter`
  step per candidate probed (the unit the kernel reproduces stamp for
  stamp), and :func:`join_is_nonempty`, its early-exit probe;
* :func:`spec_materialize_bag` / :func:`spec_build_index` — Proposition
  4's bags as that join materialised them: tries over the projected
  relations, one join per bag, the bucket index built from the
  semijoin-reduced rows. :func:`reference_bags` builds
  :class:`~repro.core.constant_delay.ConnexConstantDelayStructure` with
  them for one ``with`` block, so the structure can be compared with
  itself — index, counts, space, order — as ``reference_walk()`` does for
  Algorithm 2.

* :func:`_compile_rows` — one atom's :class:`~repro.core.layout.AtomColumns`
  as ``src/`` compiled them until the integer-key compile replaced it:
  Python tuples sorted, then one statement per key to open run entries,
  child slices and prefix counts. :func:`spec_atom_columns` gives an
  atom's three instances through it — join, free-only count and bound
  projection — with the arguments their callers passed, for the compile
  in :mod:`repro.core.layout` to equal slot for slot.

* :func:`spec_index_cells` — the index's cell count as ``src/`` read it
  off the rows until it read it off the compiled levels: per atom, the
  edges of a trie over its column order and of one over its free
  columns (:func:`_trie_edges`, one ``set`` of prefix tuples per depth).

``tests/reference_build.py`` (the build's spec) and
``tests/reference_walk.py`` (Algorithm 2's) build their tries and join
with what is here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple
from unittest import mock

from repro.core import constant_delay
from repro.core.domain import TupleSpace
from repro.core.layout import AtomColumns
from repro.database.relation import Relation
from repro.exceptions import QueryError, SchemaError
from repro.joins.generic_join import JoinCounter
from repro.query.atoms import Variable


# ----------------------------------------------------------------------
# the sorted trie with subtree counts
# ----------------------------------------------------------------------
class TrieNode:
    """A node of a :class:`TrieIndex`.

    Attributes
    ----------
    children:
        Mapping from child key value to child node.
    keys:
        Child key values in ascending order.
    count:
        Number of relation tuples in the subtree rooted here.
    cumulative:
        ``cumulative[i]`` is the total count of the first ``i`` children in
        key order, so a contiguous key range sums in O(1) after bisecting.
    """

    __slots__ = ("children", "keys", "count", "cumulative")

    def __init__(self):
        self.children = {}
        self.keys = []
        self.count = 0
        self.cumulative = []

    def _finalize(self) -> None:
        """Sort keys and build cumulative counts (called once after load)."""
        self.keys = sorted(self.children)
        running = 0
        cumulative = [0]
        for key in self.keys:
            child = self.children[key]
            child._finalize()
            running += child.count
            cumulative.append(running)
        self.cumulative = cumulative

    def range_count(self, low, high) -> int:
        """Total subtree count of children with key in the closed range."""
        lo_idx = bisect_left(self.keys, low)
        hi_idx = bisect_right(self.keys, high)
        if hi_idx <= lo_idx:
            return 0
        return self.cumulative[hi_idx] - self.cumulative[lo_idx]

    def keys_in_range(self, low, high) -> Sequence:
        """Child keys within the closed range, in ascending order."""
        lo_idx = bisect_left(self.keys, low)
        hi_idx = bisect_right(self.keys, high)
        return self.keys[lo_idx:hi_idx]

    def cells(self) -> int:
        """Logical space of the subtree: one cell per trie edge."""
        total = len(self.keys)
        for child in self.children.values():
            total += child.cells()
        return total


class TrieIndex:
    """A sorted trie over a permutation of a relation's columns.

    Parameters
    ----------
    relation:
        The indexed relation.
    column_order:
        Permutation (or sub-permutation) of column positions; tuples are
        inserted with their values rearranged into this order.
    dedupe:
        With the default True, a strict subset of the columns indexes the
        *projection* onto those columns (distinct keys). With False, every
        relation tuple contributes one unit of count to its key's path —
        the multiplicity-preserving mode used for the ``|R_F ⋉ B|``
        statistics of Section 4, which count full tuples grouped by their
        free-variable part.

    The trie is static: built once from a relation and never mutated. A
    trie over an empty relation has no key at all, not even the empty
    prefix.
    """

    __slots__ = ("relation", "column_order", "root", "depth", "dedupe")

    def __init__(
        self,
        relation: Relation,
        column_order: Sequence[int],
        dedupe: bool = True,
    ):
        for p in column_order:
            if not 0 <= p < relation.arity:
                raise SchemaError(
                    f"index on {relation.name!r}: column {p} out of range"
                )
        if len(set(column_order)) != len(column_order):
            raise SchemaError(
                f"index on {relation.name!r}: duplicate column in "
                f"order {column_order!r}"
            )
        self.relation = relation
        self.column_order = tuple(column_order)
        self.depth = len(self.column_order)
        self.dedupe = dedupe
        self.root = TrieNode()
        if dedupe:
            keys = {
                tuple(row[p] for p in self.column_order)
                for row in relation.rows
            }
        else:
            keys = [
                tuple(row[p] for p in self.column_order)
                for row in relation.rows
            ]
        self._load(keys)

    def _load(self, keys) -> None:
        for key in keys:
            node = self.root
            node.count += 1
            for value in key:
                child = node.children.get(value)
                if child is None:
                    child = TrieNode()
                    node.children[value] = child
                node = child
                node.count += 1
        self.root._finalize()

    def descend(self, prefix: Sequence) -> Optional[TrieNode]:
        """The node reached by following ``prefix``, or None if absent."""
        node = self.root
        if not node.count:
            return None  # an empty relation: not even the empty prefix
        for value in prefix:
            node = node.children.get(value)
            if node is None:
                return None
        return node

    def contains(self, key: Sequence) -> bool:
        """Membership of a full key (length may be shorter: prefix test)."""
        return self.descend(key) is not None

    def count_prefix(self, prefix: Sequence) -> int:
        """Number of indexed tuples extending ``prefix``."""
        node = self.descend(prefix)
        return 0 if node is None else node.count

    def count_prefix_range(self, prefix: Sequence, low, high) -> int:
        """Number of tuples extending ``prefix`` whose next value is in [low, high]."""
        node = self.descend(prefix)
        if node is None:
            return 0
        return node.range_count(low, high)

    def iter_keys(self, prefix: Sequence) -> Iterator:
        """Sorted child values below ``prefix`` (empty if prefix absent)."""
        node = self.descend(prefix)
        if node is None:
            return iter(())
        return iter(node.keys)

    def cells(self) -> int:
        """Logical space of the whole index in cells (trie edges)."""
        return self.root.cells()


# ----------------------------------------------------------------------
# the generic join over tries
# ----------------------------------------------------------------------
def _check_subsequence(
    atom_vars: Sequence[Variable], order: Sequence[Variable]
) -> None:
    positions = {v: i for i, v in enumerate(order)}
    last = -1
    for v in atom_vars:
        if v not in positions:
            raise QueryError(f"join atom variable {v!r} missing from order")
        if positions[v] <= last:
            raise QueryError(
                f"join atom variables {list(atom_vars)!r} are not a "
                f"subsequence of the order {list(order)!r}"
            )
        last = positions[v]


def generic_join(
    atoms: Sequence[Tuple[TrieNode, Sequence[Variable]]],
    order: Sequence[Variable],
    ranges: Optional[Mapping[Variable, Tuple[object, object]]] = None,
    domains: Optional[Mapping[Variable, Sequence]] = None,
    counter: Optional[JoinCounter] = None,
) -> Iterator[Tuple]:
    """Enumerate the natural join of the given tries in lexicographic order.

    The join enumerates the variables of ``order`` left to right. At each
    level the *participating* atoms are those whose next un-consumed
    variable is the current one; the candidates are the sorted child keys
    of the smallest participating trie node, filtered by membership in the
    others. Optional per-variable closed ranges restrict candidates, which
    is how f-box restrictions (Section 4.1) are pushed into the join.

    Parameters
    ----------
    atoms:
        ``(trie_node, variables)`` pairs. The variable list names the trie's
        remaining levels, and must be a subsequence of ``order``.
    order:
        Global variable order; output tuples align with it.
    ranges:
        Optional closed value ranges ``var -> (low, high)`` restricting the
        join to an f-box.
    domains:
        Sorted value sequences used for variables that no atom constrains
        (only needed in that degenerate case).
    counter:
        Optional step counter incremented once per candidate probed.
    """
    order = tuple(order)
    states: List[Tuple[TrieNode, Tuple[Variable, ...]]] = []
    for node, atom_vars in atoms:
        atom_vars = tuple(atom_vars)
        _check_subsequence(atom_vars, order)
        states.append((node, atom_vars))
    ranges = dict(ranges or {})
    domains = domains or {}
    yield from _join_level(states, order, 0, ranges, domains, counter, [])


def _join_level(
    states: List[Tuple[TrieNode, Tuple[Variable, ...]]],
    order: Tuple[Variable, ...],
    level: int,
    ranges: Mapping[Variable, Tuple[object, object]],
    domains: Mapping[Variable, Sequence],
    counter: Optional[JoinCounter],
    prefix: List,
) -> Iterator[Tuple]:
    if level == len(order):
        yield tuple(prefix)
        return
    var = order[level]
    participating = [
        i for i, (node, vs) in enumerate(states) if vs and vs[0] == var
    ]
    bound = ranges.get(var)
    if participating:
        if bound is None:
            smallest = min(
                participating, key=lambda i: len(states[i][0].keys)
            )
            candidates = states[smallest][0].keys
        else:
            # Pick the atom with the fewest candidates *inside the range*:
            # T(v_b, B) bounds the work through the smallest in-range
            # factor, so selecting by total key count would break the
            # O(T) evaluation guarantee of Proposition 6.
            candidates = min(
                (
                    states[i][0].keys_in_range(bound[0], bound[1])
                    for i in participating
                ),
                key=len,
            )
    else:
        domain = domains.get(var)
        if domain is None:
            raise QueryError(
                f"variable {var!r} is unconstrained and has no domain"
            )
        if bound is None:
            candidates = domain
        else:
            lo = bisect_left(domain, bound[0])
            hi = bisect_right(domain, bound[1])
            candidates = domain[lo:hi]
    for value in candidates:
        if counter is not None:
            counter.steps += 1
        children = []
        ok = True
        for i in participating:
            child = states[i][0].children.get(value)
            if child is None:
                ok = False
                break
            children.append((i, child))
        if not ok:
            continue
        next_states = list(states)
        for i, child in children:
            next_states[i] = (child, states[i][1][1:])
        prefix.append(value)
        yield from _join_level(
            next_states, order, level + 1, ranges, domains, counter, prefix
        )
        prefix.pop()


def join_is_nonempty(
    atoms: Sequence[Tuple[TrieNode, Sequence[Variable]]],
    order: Sequence[Variable],
    ranges: Optional[Mapping[Variable, Tuple[object, object]]] = None,
    domains: Optional[Mapping[Variable, Sequence]] = None,
    counter: Optional[JoinCounter] = None,
) -> bool:
    """True iff the join has at least one result (early-exit probe)."""
    iterator = generic_join(atoms, order, ranges, domains, counter)
    return next(iterator, None) is not None


# ----------------------------------------------------------------------
# Proposition 4's bags, materialised in value space
# ----------------------------------------------------------------------
def spec_materialize_bag(self, node):
    """One bag's rows by :func:`generic_join` over tries of its projections.

    ``self`` is the :class:`~repro.core.constant_delay.ConnexConstantDelayStructure`
    being built. The rows are a set over the bag's bound then free
    variables (head order within each); the index stays empty until
    :func:`spec_build_index` fills it from the semijoin-reduced rows.
    """
    decomposition = self.decomposition
    bag_vars = decomposition.bags[node]
    rank = {v: i for i, v in enumerate(self.view.head)}
    bound_vars = tuple(sorted(decomposition.bag_bound(node), key=rank.__getitem__))
    free_vars = tuple(sorted(decomposition.bag_free(node), key=rank.__getitem__))
    order = bound_vars + free_vars
    atoms = []
    domains: Dict[Variable, set] = {}
    for label in self.hypergraph.edges_intersecting(bag_vars):
        atom = self.view.atoms[label]
        members = [v for v in order if v in self.hypergraph.edge(label)]
        positions = [atom.variable_positions(v)[0] for v in members]
        projected = self.db[atom.relation].project(
            positions, name=f"{atom.relation}__bag_{node}_{label}"
        )
        atoms.append((TrieIndex(projected, range(projected.arity)).root, members))
        for position, var in zip(positions, members):
            domains.setdefault(var, set()).update(
                self.db[atom.relation].column_values(position)
            )
    sorted_domains = {v: tuple(sorted(vals)) for v, vals in domains.items()}
    rows = set(generic_join(atoms, order, domains=sorted_domains))
    return constant_delay._Bag(
        node=node,
        bound_vars=bound_vars,
        free_vars=free_vars,
        rows=rows,
        index={},
    )


def spec_build_index(self, bag) -> Dict[Tuple, List[Tuple]]:
    """A bag's buckets, bound key → sorted free rows, from its rows."""
    n_bound = len(bag.bound_vars)
    index: Dict[Tuple, List[Tuple]] = {}
    for row in bag.rows:
        index.setdefault(row[:n_bound], []).append(row[n_bound:])
    for values in index.values():
        values.sort()
    return index


@contextmanager
def reference_bags():
    """Build Proposition 4's bags from the value-space spec for one block.

    Patches ``ConnexConstantDelayStructure``'s two bag steps — the
    materialisation and the post-reduction index — with the functions
    above; the semijoin pass, the count index and the walk are the
    structure's own. Not thread-safe and not re-entrant.
    """
    structure = constant_delay.ConnexConstantDelayStructure
    with ExitStack() as stack:
        for name, replacement in (
            ("_materialize_bag", spec_materialize_bag),
            ("_build_index", spec_build_index),
        ):
            stack.enter_context(mock.patch.object(structure, name, replacement))
        yield


# ----------------------------------------------------------------------
# the atom compile
# ----------------------------------------------------------------------
def _compile_rows(rows, positions, coords, space, bound_positions=()) -> AtomColumns:
    """Columns over ``positions`` of ``rows``, in one sorted pass.

    A key is a row's values at ``positions``: one per bound position
    first (the bound prefix, a key of ``roots``), then one level per
    coordinate of ``coords``, as an index into that coordinate's domain
    in ``space`` (indexes order like the values). Keys are sorted,
    repeats kept — each is counted, only the first stored — and a key
    opens a new run entry at every level from the first position where
    it departs from its predecessor. A level's child slices are
    contiguous in key order, so each ends where the next begins. Rows
    with no key column have the empty key, once each.
    """
    width, bound_depth = len(coords), len(bound_positions)
    columns = [[row[p] for row in rows] for p in positions]
    for level, coordinate in enumerate(coords, start=bound_depth):
        index_of = space.domains[coordinate].index_of
        columns[level] = list(map(index_of, columns[level]))
    keys = sorted(zip(*columns)) if columns else [()] * len(rows)
    vals: List[List[int]] = [[] for _ in range(width)]
    kid_lo: List[List[int]] = [[] for _ in range(max(width - 1, 0))]
    starts: Dict[Tuple, int] = {}  # each bound prefix's first level-0 entry
    previous = None
    for key in keys:
        if key == previous:
            continue
        departs = 0
        if previous is not None:
            while key[departs] == previous[departs]:
                departs += 1
        if previous is None or departs < bound_depth:
            starts[key[:bound_depth]] = len(vals[0]) if width else len(starts)
            departs = bound_depth
        previous = key
        for level in range(departs - bound_depth, width):
            if level + 1 < width:
                kid_lo[level].append(len(vals[level + 1]))
            vals[level].append(key[bound_depth + level])
    # Prefix counts: a stored key's position among all keys (each key's
    # own when none repeats), lifted a level at a time through the first
    # child of every entry. At width 0 the entries are the roots.
    total = len(keys)
    stored = len(vals[-1]) if width else len(starts)
    counts: List[Sequence[int]] = [range(total + 1)]
    if stored < total:
        counts[0] = [
            position
            for position, key in enumerate(keys)
            if not position or key != keys[position - 1]
        ] + [total]
    for run in reversed(kid_lo):
        counts.insert(0, [counts[0][child] for child in run] + [total])
    firsts = list(starts.values())
    entries = len(vals[0]) if width else len(starts)
    roots = dict(zip(starts, zip(firsts, firsts[1:] + [entries])))
    kid_hi = [(run + [len(vals[level + 1])])[1:] for level, run in enumerate(kid_lo)]
    return AtomColumns(coords, bound_positions, roots, vals, kid_lo, kid_hi, counts)


def spec_atom_columns(ctx, binding) -> Tuple[AtomColumns, ...]:
    """``binding``'s join, count and bound instances, compiled by the spec.

    The count instance of an atom with no bound variable is its join
    instance; such an atom has no bound instance (None).
    """
    rows, depth = binding.relation.rows, len(binding.bound_vars)
    coords, bound = binding.free_coordinates, binding.bound_access_positions
    join = _compile_rows(rows, binding.column_order, coords, ctx.space, bound)
    if not depth:
        return join, join, None
    count = _compile_rows(rows, binding.column_order[depth:], coords, ctx.space)
    space = TupleSpace([ctx.bound_domains[var] for var in ctx.bound_order])
    return join, count, _compile_rows(rows, binding.column_order[:depth], bound, space)


# ----------------------------------------------------------------------
# the index's cell count
# ----------------------------------------------------------------------
def _trie_edges(rows, positions: Sequence[int]) -> int:
    """Edges of a trie over ``positions``: its distinct non-empty prefixes."""
    columns = [[row[p] for row in rows] for p in positions]
    return sum(len(set(zip(*columns[:depth]))) for depth in range(1, len(columns) + 1))


def spec_index_cells(ctx) -> int:
    """:meth:`~repro.core.context.ViewContext.index_cells`, off the rows.

    One cell per edge of a trie over each atom's column order and of one
    over its free columns — an atom without a bound variable counted
    twice.
    """
    return sum(
        _trie_edges(binding.relation.rows, binding.column_order)
        + _trie_edges(
            binding.relation.rows, binding.column_order[len(binding.bound_vars) :]
        )
        for binding in ctx.atoms
    )
