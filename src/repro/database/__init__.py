"""In-memory relational substrate.

This package provides the storage layer everything else builds on:

* :class:`~repro.database.relation.Relation` — an immutable set of tuples
  with schema-free positional columns plus the relational-algebra pieces the
  paper needs (projection, selection by constants, semijoin restriction).
* :class:`~repro.database.catalog.Database` — a named collection of relations
  with the per-variable active domains induced by a query.

The indexes over the relations are compiled per view, not per relation:
one sorted index per atom (:meth:`repro.core.context.ViewContext.columns`).
"""

from repro.database.relation import Relation
from repro.database.catalog import Database
from repro.database.statistics import RelationStatistics, collect_statistics

__all__ = [
    "Relation",
    "Database",
    "RelationStatistics",
    "collect_statistics",
]
