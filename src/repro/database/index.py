"""Sorted tries with subtree counts: the value-space reference index.

A :class:`TrieIndex` is built over one relation and a column order; each
node keeps its child keys sorted, a subtree count and cumulative counts,
so a trie answers membership (descend a key, O(arity) dictionary hops),
counting (``|R_F ⋉ v_b ⋉ B|`` by descending a unit prefix and summing
one value range's subtree counts with two bisects) and ordered iteration
(the lexicographic candidate streams of
:func:`~repro.joins.generic_join.generic_join`).

It is the index the value-space algorithms read: the lazy and
materialised baselines, the Proposition 4 bags of
:mod:`repro.core.constant_delay`, and the executable specs of the build
and of Algorithm 2 under ``tests/``. The Theorem 1 path itself counts
and joins on the context's index-space columns
(:mod:`repro.core.layout`) and builds no trie.

The trie is static: it is built once from a relation and never mutated,
matching the paper's preprocessing-then-query model. A trie over an
empty relation has no key at all, not even the empty prefix.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Optional, Sequence

from repro.database.relation import Relation
from repro.exceptions import SchemaError


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

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
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
