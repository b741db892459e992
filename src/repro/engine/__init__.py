"""The access-serving engine (representation cache + view servers).

The paper's structures answer *access requests*; this package turns them
into a serving layer: :class:`ViewServer` keeps built
:class:`~repro.core.structure.CompressedRepresentation` instances in a
bounded LRU :class:`RepresentationCache` (internally thread-safe, with a
single-build :meth:`~RepresentationCache.get_or_build` guarantee),
auto-selects τ from space or delay budgets via the Section 6 optimizers,
and serves deduplicated sorted batches. Serving is cursor-first: a typed
:class:`AccessRequest` opened via ``server.open`` yields a lazy
:class:`AnswerCursor` (limits, resume tokens, delay stats — see
:mod:`repro.engine.api`), and the materializing ``answer*`` calls are
wrappers over it. :class:`ShardedViewServer` hash-partitions the
bound-value space across per-shard servers (routing bound requests,
lazily heap-merging per-shard cursors for free ones), and
:class:`AsyncViewServer` multiplexes request streams over either back
end from an event loop, with thread-pool execution, backpressure,
per-batch delay accounting, and an async ``stream`` face for the
cursor API.

Every layer reports into one optional :class:`Telemetry` sink
(:mod:`repro.engine.telemetry`): counters, fixed-bucket histograms, and
traced spans that persist as versioned JSONL and merge across restarts.
τ is chosen once per registration (fixed, or from a budget); the
``delay_step_gap{view}`` histogram shows the delay it delivers.
"""

from repro.engine.api import (
    AccessRequest,
    AnswerCursor,
    ResumeToken,
    open_cursor,
)
from repro.engine.async_server import (
    AsyncBatchResult,
    AsyncServingReport,
    AsyncViewServer,
)
from repro.engine.cache import (
    CacheStats,
    RepresentationCache,
    representation_cells,
)
from repro.engine.dynamic_serving import (
    DeltaRecord,
    DynamicSnapshotStore,
    DynamicViewState,
    FrozenDynamicView,
    ship_deltas,
)
from repro.engine.replica import ReplicaServer
from repro.engine.server import (
    DEFAULT_TAU,
    BatchResult,
    Registration,
    ServingReport,
    ViewServer,
)
from repro.engine.shared_scan import (
    SharedScan,
    SharedScanStats,
    open_group,
)
from repro.engine.sharding import (
    ShardedViewServer,
    infer_shard_key,
    partition_database,
    semijoin_reduce_database,
    stable_hash,
)
from repro.engine.telemetry import (
    GAP_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    Telemetry,
    TelemetryStore,
)
from repro.engine.topology import RoutingTable, rendezvous_choice

__all__ = [
    "AccessRequest",
    "AnswerCursor",
    "ResumeToken",
    "open_cursor",
    "CacheStats",
    "RepresentationCache",
    "representation_cells",
    "DEFAULT_TAU",
    "BatchResult",
    "DeltaRecord",
    "DynamicSnapshotStore",
    "DynamicViewState",
    "FrozenDynamicView",
    "Registration",
    "ServingReport",
    "ViewServer",
    "ship_deltas",
    "SharedScan",
    "SharedScanStats",
    "open_group",
    "ReplicaServer",
    "RoutingTable",
    "ShardedViewServer",
    "infer_shard_key",
    "partition_database",
    "rendezvous_choice",
    "semijoin_reduce_database",
    "stable_hash",
    "AsyncBatchResult",
    "AsyncServingReport",
    "AsyncViewServer",
    "GAP_BUCKETS",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "Telemetry",
    "TelemetryStore",
]
