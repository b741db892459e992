"""In-memory relational substrate.

This package provides the storage layer everything else builds on:

* :class:`~repro.database.relation.Relation` — an immutable set of tuples
  with schema-free positional columns plus the relational-algebra pieces the
  paper needs (projection, selection by constants, semijoin restriction).
* :class:`~repro.database.index.TrieIndex` — a sorted trie over a column
  permutation with subtree counts: O(1) membership, O(log) prefix/range
  *counting* (the `|R_F ⋉ B|` statistics of Section 4), and ordered candidate
  iteration for the worst-case-optimal join — the value-space reference
  index (the baselines, the Proposition 4 bags and the executable specs;
  the compressed representation reads its context's columns instead).
* :class:`~repro.database.catalog.Database` — a named collection of relations
  with the per-variable active domains induced by a query.
"""

from repro.database.relation import Relation
from repro.database.index import TrieIndex, TrieNode
from repro.database.catalog import Database
from repro.database.statistics import RelationStatistics, collect_statistics

__all__ = [
    "Relation",
    "TrieIndex",
    "TrieNode",
    "Database",
    "RelationStatistics",
    "collect_statistics",
]
