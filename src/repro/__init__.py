"""repro — compressed representations of conjunctive query results.

A faithful, production-quality implementation of Deep & Koutris,
*Compressed Representations of Conjunctive Query Results* (PODS 2018):
tunable data structures that compress the output of a conjunctive query
for a given access pattern, trading space for enumeration delay.

Quickstart
----------
>>> from repro import parse_view, CompressedRepresentation
>>> from repro.workloads import triangle_database
>>> view = parse_view("Delta^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)")
>>> db = triangle_database(nodes=50, edges=300, seed=1)
>>> cr = CompressedRepresentation(view, db, tau=8)
>>> answers = cr.answer((3, 7))   # all z completing the edge (x=3, y=7)

Main entry points
-----------------
* :class:`~repro.core.structure.CompressedRepresentation` — Theorem 1.
* :class:`~repro.core.decomposed.DecomposedRepresentation` — Theorem 2.
* :class:`~repro.core.constant_delay.FullyBoundStructure` /
  :class:`~repro.core.constant_delay.ConnexConstantDelayStructure` —
  Propositions 1 and 4.
* :class:`~repro.factorized.FactorizedRepresentation` — Proposition 2.
* :class:`~repro.baselines.MaterializedView` / :class:`~repro.baselines.LazyView`
  — the two extremal baselines.
* :func:`~repro.optimizer.min_delay_cover` / :func:`~repro.optimizer.min_space_cover`
  — Section 6 parameter optimization.
* :class:`~repro.engine.server.ViewServer` — the serving engine: cached
  representations, budget-driven τ selection, batched access requests.
* :class:`~repro.setintersection.SetIntersectionIndex` — the Cohen-Porat
  special case.
"""

from repro.database import Database, Relation
from repro.query import (
    AdornedView,
    Atom,
    ConjunctiveQuery,
    Constant,
    Variable,
    normalize_view,
    parse_query,
    parse_view,
)
from repro.core import (
    CompressedRepresentation,
    ConnexConstantDelayStructure,
    DecomposedRepresentation,
    DynamicRepresentation,
    FullyBoundStructure,
    ProjectedRepresentation,
    SnapshotStore,
    database_fingerprint,
    decode_snapshot,
    encode_snapshot,
    load_snapshot,
    save_snapshot,
)
from repro.engine import (
    AccessRequest,
    AnswerCursor,
    AsyncServingReport,
    AsyncViewServer,
    BatchResult,
    CacheStats,
    DeltaRecord,
    ReplicaServer,
    RepresentationCache,
    RoutingTable,
    ServingReport,
    ShardedViewServer,
    ViewServer,
    infer_shard_key,
    partition_database,
    ship_deltas,
)
from repro.engine.parallel import ParallelBuilder
from repro.factorized import FactorizedRepresentation
from repro.baselines import LazyView, MaterializedView
from repro.optimizer import min_delay_cover, min_space_cover, plan_decomposition
from repro.setintersection import SetIntersectionIndex
from repro.hypergraph import (
    DelayAssignment,
    Hypergraph,
    connex_fhw,
    delta_height,
    delta_width,
    fhw,
    fractional_edge_cover,
    hypergraph_of_view,
    slack,
)
from repro.measure import SpaceReport, measure_enumeration, sweep_tau

__version__ = "1.0.0"

__all__ = [
    "Database",
    "Relation",
    "AdornedView",
    "Atom",
    "ConjunctiveQuery",
    "Constant",
    "Variable",
    "normalize_view",
    "parse_query",
    "parse_view",
    "CompressedRepresentation",
    "ProjectedRepresentation",
    "DynamicRepresentation",
    "DecomposedRepresentation",
    "FullyBoundStructure",
    "ConnexConstantDelayStructure",
    "AccessRequest",
    "AnswerCursor",
    "ViewServer",
    "ShardedViewServer",
    "ReplicaServer",
    "RoutingTable",
    "AsyncViewServer",
    "AsyncServingReport",
    "infer_shard_key",
    "partition_database",
    "RepresentationCache",
    "CacheStats",
    "DeltaRecord",
    "ship_deltas",
    "BatchResult",
    "ServingReport",
    "ParallelBuilder",
    "SnapshotStore",
    "database_fingerprint",
    "encode_snapshot",
    "decode_snapshot",
    "save_snapshot",
    "load_snapshot",
    "FactorizedRepresentation",
    "MaterializedView",
    "LazyView",
    "min_delay_cover",
    "min_space_cover",
    "plan_decomposition",
    "SetIntersectionIndex",
    "Hypergraph",
    "hypergraph_of_view",
    "fractional_edge_cover",
    "slack",
    "fhw",
    "connex_fhw",
    "DelayAssignment",
    "delta_width",
    "delta_height",
    "SpaceReport",
    "measure_enumeration",
    "sweep_tau",
    "__version__",
]
