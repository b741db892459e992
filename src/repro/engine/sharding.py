"""Hash-sharded serving: partition the bound-value space across servers.

The ROADMAP's scale-out step: one :class:`~repro.engine.server.ViewServer`
per shard, each owning a slice of the database and its own bounded
:class:`~repro.engine.cache.RepresentationCache`. Sharding multiplies the
aggregate cache capacity (per-shard structures are fractions of the full
ones, so a fixed per-process cell budget holds *all* hot views instead of
thrashing) and gives the async front end independent back ends to fan
batches out to.

Partitioning
------------
A *shard key* maps relation names to column positions that all hold the
same query variable. Every listed relation is split along a
:class:`~repro.engine.topology.RoutingTable` — rendezvous placement over
:func:`~repro.engine.topology.stable_hash` — on its key column;
unlisted relations are **copied** into every shard (each shard's
``Database`` owns its relations — no aliasing, so a delta applied through
one shard can never bleed into a sibling or a replica), and
*semijoin-reduced* per registered view against the shard's slice so
per-shard structures shrink. Because a result tuple binding the shard
variable to ``v`` can only draw key-relation tuples carrying ``v``, each
result lives in exactly one shard: per-shard answers are disjoint and
their union is the full answer.

Routing
-------
Per registered view, the shard key's columns must resolve to one head
variable of the view (validated at registration — self-joins that place
different variables on a key column are rejected):

* variable **bound** → every access request pins its shard; batches are
  split and routed, each shard serving only its slice;
* variable **free** → *scatter-gather*: every shard answers the full
  batch over its slice and the sorted per-shard answer lists are merged
  (disjointness makes the merge a plain ordered union);
* view touches **no sharded relation** → its relations are replicated in
  every shard, so requests are pinned to shard 0.

The set of shards is fixed at construction for the facade's whole life.

Deltas
------
:meth:`ShardedViewServer.apply_deltas` checks a batch's rows, then
routes each to the shard owning its key value (a replicated relation's
rows go to every shard). A shard's registration is versioned by the
first effective delta that reaches it — over the shard's whole slice,
not the semijoin-reduced copy, since a delta may join with a row the
reduction dropped — so shard versions advance independently.
"""

from __future__ import annotations

import heapq
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.dynamic import check_arity
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine.api import AccessRequest, AnswerCursor, as_request
from repro.engine.cache import CacheStats
from repro.engine.epoch import Hold
from repro.engine.locking import named_lock
from repro.engine.parallel import ParallelBuilder
from repro.engine.server import (
    Drained,
    Registration,
    Serving,
    ViewServer,
    register_everywhere,
)
from repro.engine.telemetry import Telemetry
from repro.engine.topology import RoutingTable, stable_hash
from repro.exceptions import ParameterError, QueryError, SchemaError
from repro.joins.semijoin import semijoin
from repro.measure.delay import DelayStats
from repro.query.adorned import AdornedView
from repro.query.atoms import Variable
from repro.query.parser import parse_view

__all__ = [
    "ShardedViewServer",
    "infer_shard_key",
    "merge_delay_stats",
    "partition_database",
    "semijoin_reduce_database",
    "stable_hash",
]

ShardKey = Mapping[str, int]

# Routing modes resolved at registration time.
ROUTED = "routed"
SCATTER = "scatter"
PINNED = "pinned"


def infer_shard_key(view: AdornedView) -> Dict[str, int]:
    """Derive a shard key from one view: the first shardable head variable.

    Bound head variables are preferred (their requests route to a single
    shard); free head variables are the fallback (scatter-gather). A
    variable is shardable when every atom mentioning it uses a consistent
    column per relation — self-joins that move it between columns
    disqualify it.
    """
    for var in view.bound_variables + view.free_variables:
        key: Dict[str, int] = {}
        consistent = True
        found = False
        for atom in view.atoms:
            positions = atom.variable_positions(var)
            if not positions:
                continue
            found = True
            column = positions[0]
            if key.setdefault(atom.relation, column) != column:
                consistent = False
                break
        if not (found and consistent):
            continue
        # Partitioning splits *every* atom of a listed relation, so a
        # self-join whose other atom binds a different variable on the
        # key column disqualifies the candidate too.
        if all(
            atom.terms[key[atom.relation]] == var
            for atom in view.atoms
            if atom.relation in key
        ):
            return key
    raise SchemaError(
        f"view {view.name!r}: no head variable occupies a consistent "
        "column per relation; pass an explicit shard key"
    )


def _validate_shard_key(db: Database, shard_key: ShardKey) -> None:
    if not shard_key:
        raise ParameterError("shard_key must list at least one relation")
    for name, column in shard_key.items():
        relation = db[name]  # raises SchemaError for unknown relations
        if not 0 <= column < relation.arity:
            raise ParameterError(
                f"shard key column {column} out of range for relation "
                f"{name!r} of arity {relation.arity}"
            )


def partition_database(
    db: Database, shard_key: ShardKey, n_shards: int
) -> List[Database]:
    """Split ``db`` into ``n_shards`` per-shard databases.

    Listed relations are partitioned by the rendezvous placement of
    ``row[column]`` over :meth:`RoutingTable.fresh(n_shards)
    <repro.engine.topology.RoutingTable.fresh>`; all other relations
    are **copied** per shard — never shared by reference, so one shard's
    database can be mutated, swapped, or shipped without aliasing its
    siblings. Empty slices are kept (a shard may legitimately own no
    tuples of some relation). Returns one database per shard, in
    ``shard_ids`` order.
    """
    table = RoutingTable.fresh(n_shards)
    _validate_shard_key(db, shard_key)
    buckets: Dict[str, List[List[Tuple]]] = {
        name: [[] for _ in table.shard_ids] for name in shard_key
    }
    for name, column in shard_key.items():
        rows_by_shard = buckets[name]
        for row in db[name]:
            rows_by_shard[table.index_for(row[column])].append(row)
    return [
        Database(
            [
                Relation(
                    relation.name,
                    relation.arity,
                    buckets[relation.name][shard]
                    if relation.name in shard_key
                    else relation.rows,
                )
                for relation in db
            ]
        )
        for shard in range(table.n_shards)
    ]


def semijoin_reduce_database(
    db: Database, view: AdornedView, shard_key: ShardKey
) -> Database:
    """Shrink one shard's replicated relations to rows that can join its slice.

    Unpartitioned (replicated) relations carry every tuple into every
    shard, but a shard can only produce answers joining its *own* slice
    of the sharded relations — so for one view, a replicated row that
    agrees with no slice row on the variables they share is dangling and
    can be dropped. Per atom over a replicated relation, survivors are
    semijoined against every sharded atom sharing at least one variable
    (self-join occurrences union their survivor sets); the filter only
    ever keeps a superset of the rows any per-shard answer can use, so
    per-shard answers are unchanged while per-shard structures shrink.
    Relations the view never mentions are left untouched (the reduction
    is applied per *registration*, never to the shard's shared database).
    """
    sharded_atoms = [
        atom for atom in view.atoms if atom.relation in shard_key
    ]
    replicated = {
        atom.relation
        for atom in view.atoms
        if atom.relation not in shard_key
    }
    if not sharded_atoms or not replicated:
        return db
    reduced = db
    for name in sorted(replicated):
        relation = db[name]
        kept: set = set()
        filtered = False
        for atom in view.atoms:
            if atom.relation != name:
                continue
            survivors = {tuple(row) for row in relation}
            atom_vars = {
                term for term in atom.terms if isinstance(term, Variable)
            }
            for partner in sharded_atoms:
                partner_vars = {
                    term
                    for term in partner.terms
                    if isinstance(term, Variable)
                }
                if not (atom_vars & partner_vars):
                    continue
                filtered = True
                survivors = semijoin(
                    survivors,
                    atom.terms,
                    db[partner.relation],
                    partner.terms,
                )
            kept |= survivors
        if filtered and len(kept) < len(relation):
            reduced = reduced.replace(
                Relation(name, relation.arity, kept)
            )
    return reduced


def merge_delay_stats(parts: Sequence[DelayStats]) -> DelayStats:
    """Conservatively combine per-shard stats of one scattered request.

    Outputs, steps and wall totals add up; gaps take the worst shard
    (the merged enumeration interleaves shards, so no merged gap exceeds
    the worst per-shard gap plus merge overhead, which cells don't see).
    """
    merged = DelayStats()
    for stats in parts:
        merged.outputs += stats.outputs
        merged.wall_total += stats.wall_total
        merged.wall_max_gap = max(merged.wall_max_gap, stats.wall_max_gap)
        merged.wall_first = max(merged.wall_first, stats.wall_first)
        merged.step_total += stats.step_total
        merged.step_max_gap = max(merged.step_max_gap, stats.step_max_gap)
        merged.step_gaps.extend(stats.step_gaps)
    return merged


class ShardedViewServer(Serving):
    """N hash-partitioned :class:`ViewServer` back ends behind one facade.

    Implements the same two primitives as ``ViewServer`` — ``open`` and
    ``open_batch``, routed or scattered through :meth:`plan_batch`'s
    grouping — and inherits the materializing wrappers (``answer`` /
    ``answer_batch`` / ``serve_stream``) from
    :class:`~repro.engine.server.Serving`, so callers can treat both
    interchangeably. Registration (``register``), ``apply_deltas``,
    ``prebuild`` / ``demote`` and ``total_builds`` / ``cache_stats`` fan
    out to the shards; :meth:`jobs` hands the same
    per-shard groups to any other executor
    (:class:`~repro.engine.async_server.AsyncViewServer` drains them on
    its thread pool). The shards are fixed at construction.

    Parameters
    ----------
    db:
        The full database; it is partitioned once at construction.
    n_shards:
        Number of shards (>= 1). Placement is restart-stable: shard
        ``i`` of a restarted facade owns the keys it owned before.
    shard_key:
        Mapping of relation names to key column positions (required and
        non-empty). Every listed relation is partitioned; the rest are
        copied per shard. :func:`infer_shard_key` derives one from a
        representative view.
    max_entries / max_cells:
        Representation-cache bounds **per shard** — sharding multiplies
        the aggregate budget, which is exactly its point.
    snapshot_dir:
        Optional warm-start directory; each shard persists under its own
        ``shard-<id>`` subdirectory, fingerprinted with its own database
        slice (so a re-keyed partition, or another shard count, refuses
        stale snapshots shard by shard).
    build_workers:
        Size of ONE :class:`~repro.engine.parallel.ParallelBuilder`
        process pool shared by every shard, so per-shard structure
        construction uses real cores while total build parallelism stays
        bounded. ``None`` keeps builds in-process.
    telemetry:
        ``True`` creates an owned :class:`~repro.engine.telemetry.Telemetry`
        (persisted under ``snapshot_dir/telemetry`` when snapshotting); a
        ready instance is shared. Every shard server records into the
        SAME registry, so per-view counters aggregate across shards
        while the facade adds the routing-level
        ``shard_requests_total{shard,mode}``.
    """

    def __init__(
        self,
        db: Database,
        n_shards: int,
        shard_key: ShardKey,
        max_entries: Optional[int] = 8,
        max_cells: Optional[int] = None,
        snapshot_dir: Optional[Union[str, Path]] = None,
        build_workers: Optional[int] = None,
        telemetry: Union[Telemetry, bool, None] = None,
    ):
        self.shard_key: Dict[str, int] = dict(shard_key or {})
        self._max_entries = max_entries
        self._max_cells = max_cells
        self._snapshot_dir = (
            Path(snapshot_dir) if snapshot_dir is not None else None
        )
        self._telemetry, self._owns_telemetry = Telemetry.resolve(
            telemetry, self._snapshot_dir
        )
        self._table = RoutingTable.fresh(n_shards)
        self._databases: List[Database] = partition_database(
            db, self.shard_key, n_shards
        )
        self._builder: Optional[ParallelBuilder] = (
            ParallelBuilder(build_workers)
            if build_workers is not None
            else None
        )
        self._servers: List[ViewServer] = [
            self._make_shard_server(shard_id, shard_db)
            for shard_id, shard_db in zip(
                self._table.shard_ids, self._databases
            )
        ]
        # Makes a registration and an apply_deltas atomic with respect
        # to each other across shards: a delta finds a view registered
        # on every shard or on none.
        self._admin_lock = named_lock("sharding.admin")
        # Maps name -> (mode, bound position); None marks a registration
        # in flight (the name is claimed but not yet routable).
        self._routes: Dict[str, Optional[Tuple[str, Optional[int]]]] = {}
        self._routes_lock = named_lock("sharding.routes")

    def _make_shard_server(
        self, shard_id: str, shard_db: Database
    ) -> ViewServer:
        # Shard servers share the facade's Telemetry instance (never
        # construct their own): one registry aggregates per-view metrics
        # across shards, and the facade owns the flush/close lifecycle.
        return ViewServer(
            shard_db,
            max_entries=self._max_entries,
            max_cells=self._max_cells,
            snapshot_dir=(
                self._snapshot_dir / f"shard-{shard_id}"
                if self._snapshot_dir is not None
                else None
            ),
            builder=self._builder,
            telemetry=self._telemetry,
        )

    # ------------------------------------------------------------------
    # topology: the fixed shards
    # ------------------------------------------------------------------
    @property
    def topology(self) -> RoutingTable:
        """The routing table every request routes through."""
        return self._table

    @property
    def shards(self) -> List[ViewServer]:
        """The shard servers, in shard-id order."""
        return list(self._servers)

    @property
    def databases(self) -> List[Database]:
        """The shard databases, in shard-id order."""
        return list(self._databases)

    @property
    def n_shards(self) -> int:
        """How many shards the facade serves from."""
        return len(self._servers)

    @property
    def shard_ids(self) -> Tuple[str, ...]:
        """The shard identifiers, in routing order."""
        return self._table.shard_ids

    # ------------------------------------------------------------------
    # registration and routing
    # ------------------------------------------------------------------
    def _resolve_route(self, view: AdornedView) -> Tuple[str, Optional[int]]:
        """(mode, bound position) the shard key implies for one view."""
        variables = set()
        for atom in view.atoms:
            column = self.shard_key.get(atom.relation)
            if column is None:
                continue
            if column >= atom.arity:
                raise SchemaError(
                    f"view {view.name!r}: shard key column {column} out of "
                    f"range for atom {atom!r}"
                )
            term = atom.terms[column]
            if not isinstance(term, Variable):
                raise SchemaError(
                    f"view {view.name!r}: shard key column of {atom!r} "
                    f"holds constant {term!r}; shard routing needs a "
                    "variable"
                )
            variables.add(term)
        if not variables:
            return (PINNED, 0)  # no sharded relation: replicated everywhere
        if len(variables) > 1:
            raise SchemaError(
                f"view {view.name!r}: shard key columns bind distinct "
                f"variables {sorted(v.name for v in variables)}; per-shard "
                "answers would not partition the result"
            )
        (variable,) = variables
        bound = view.bound_variables
        if variable in bound:
            return (ROUTED, bound.index(variable))
        if variable in view.free_variables:
            return (SCATTER, None)
        raise SchemaError(
            f"view {view.name!r}: shard variable {variable.name!r} is "
            "projected away; per-shard answers may overlap (pick a head "
            "variable as the shard key)"
        )

    def _shard_view_database(
        self, view: AdornedView, shard_db: Database
    ) -> Optional[Database]:
        """The per-registration database override for one shard (or None)."""
        reduced = semijoin_reduce_database(shard_db, view, self.shard_key)
        return None if reduced is shard_db else reduced

    def register(
        self,
        view: Union[AdornedView, str],
        tau: Optional[float] = None,
        space_budget: Optional[float] = None,
        delay_budget: Optional[float] = None,
        name: Optional[str] = None,
        rebuild_fraction: float = 0.1,
    ) -> str:
        """Register a view on every shard; returns the serving name.

        Budget-driven τ selection runs per shard against the shard's own
        relation sizes — shards sit at their own points of the
        space/delay tradeoff, which is what a per-shard cache budget
        means. Each shard's registration evaluates against a
        slice-reduced copy of the replicated relations (answers are
        identical; structures are smaller); a shard the first delta
        versions builds over its whole slice instead, since a delta may
        join with a row the reduction dropped.
        """
        return self._register_everywhere(
            view,
            name,
            lambda server, shard_db, view: server.register(
                view,
                tau=tau,
                space_budget=space_budget,
                delay_budget=delay_budget,
                name=name,
                database=self._shard_view_database(view, shard_db),
                rebuild_fraction=rebuild_fraction,
            ),
        )

    def _register_everywhere(self, view, name, register) -> str:
        """Claim the name, register on every shard or none, publish the route.

        ``register(server, shard database, parsed view)`` registers the
        view on one shard.
        """
        if isinstance(view, str):
            view = parse_view(view)
        route = self._resolve_route(view)
        intended = name or view.name
        with self._routes_lock:
            # Claim the name first so concurrent registrations of the
            # same name fail fast instead of half-registering both.
            if intended in self._routes:
                raise SchemaError(f"view {intended!r} is already registered")
            self._routes[intended] = None
        try:
            databases = dict(zip(self._servers, self._databases))
            with self._admin_lock:
                register_everywhere(
                    intended,
                    databases,
                    lambda server: register(server, databases[server], view),
                )
        except BaseException:
            with self._routes_lock:
                del self._routes[intended]
            raise
        with self._routes_lock:
            self._routes[intended] = route
        return intended

    def apply_deltas(
        self,
        relation: str,
        inserts: Iterable[Sequence] = (),
        deletes: Iterable[Sequence] = (),
        views: Optional[Sequence[str]] = None,
    ) -> Dict[str, int]:
        """Apply one delta across the shards, tuple by owning shard.

        Rows of a *sharded* relation go only to the shard that owns
        their key value (the same rendezvous placement
        :func:`partition_database` used); rows of a replicated relation
        broadcast to every shard. Every row's arity is checked before
        any shard sees the batch, so a refused batch changes no shard.
        Returns per-view counts summed across shards — the facade-level
        effective change, matching :meth:`ViewServer.apply_deltas
        <repro.engine.server.ViewServer.apply_deltas>` semantics shard
        by shard; the first effective delta a shard receives versions
        the view there.
        """
        inserts = [tuple(row) for row in inserts]
        deletes = [tuple(row) for row in deletes]
        column = self.shard_key.get(relation)
        with self._admin_lock:
            if relation in self._databases[0]:
                check_arity(self._databases[0][relation], inserts, deletes)
            shard_inserts = [inserts] * self.n_shards
            shard_deletes = [deletes] * self.n_shards
            if column is not None:
                shard_inserts = [[] for _ in self._servers]
                shard_deletes = [[] for _ in self._servers]
                for rows, buckets in (
                    (inserts, shard_inserts),
                    (deletes, shard_deletes),
                ):
                    for row in rows:
                        owner = self._table.index_for(row[column])
                        buckets[owner].append(row)
            totals: Dict[str, int] = {}
            # Every shard sees the delta (possibly empty for it): the
            # per-shard no-op contract keeps empty calls version-stable,
            # and running them keeps validation and the result's view
            # set identical on every shard.
            for server, shard_rows, shard_gone in zip(
                self._servers, shard_inserts, shard_deletes
            ):
                applied = server.apply_deltas(
                    relation, shard_rows, shard_gone, views=views
                )
                for view_name, count in applied.items():
                    totals[view_name] = totals.get(view_name, 0) + count
            return totals

    def unregister(self, name: str) -> bool:
        """Drop a view from every shard and the route table; True if known."""
        with self._routes_lock:
            # A None route is a registration still in flight — not ours
            # to drop; concurrent unregisters see the claim gone and
            # return False instead of racing the per-shard sweep.
            if self._routes.get(name) is None:
                return False
            del self._routes[name]
        with self._admin_lock:
            for server in self._servers:
                server.unregister(name)
        return True

    def route(self, name: str) -> Tuple[str, Optional[int]]:
        """The (mode, bound position) pair a view was registered with."""
        with self._routes_lock:
            route = self._routes.get(name)
        if route is None:  # unknown, or a registration still in flight
            raise SchemaError(f"unknown view {name!r}")
        return route

    def registration(self, name: str) -> Registration:
        """Shard 0's registration — representative, not universal.

        Under a budget policy each shard optimizes τ against its own
        relation sizes, so other shards may sit at different τ; inspect
        ``server.shards[i].registration(name)`` for the full picture.
        """
        self.route(name)
        return self.shards[0].registration(name)

    def views(self) -> Tuple[str, ...]:
        """Names of every fully registered (routable) view."""
        with self._routes_lock:
            return tuple(
                name
                for name, route in self._routes.items()
                if route is not None
            )

    def shard_of(self, name: str, access: Sequence) -> Optional[int]:
        """The shard index one access pins, or ``None`` for scatter views."""
        mode, position = self.route(name)
        if mode == SCATTER:
            return None
        if mode == PINNED:
            return 0
        return self._owner(name, position, tuple(access))

    def _owner(self, name: str, position: int, access: Tuple) -> int:
        """The shard index owning one routed access.

        An access too short to hold the shard key is refused with the
        :class:`~repro.exceptions.QueryError` a :class:`ViewServer`
        raises for any wrong-arity access.
        """
        if position >= len(access):
            view = self._servers[0].registration(name).view
            expected = len(view.bound_variables)
            raise QueryError(
                f"access tuple has {len(access)} values, expected {expected}"
            )
        return self._table.index_for(access[position])

    # ------------------------------------------------------------------
    # builds
    # ------------------------------------------------------------------
    def prebuild(
        self, name: str, tau: Optional[float] = None
    ) -> List[CompressedRepresentation]:
        """Build (or warm-load) one view's structure on every shard, at once.

        Lazy serving builds each shard's structure on its first request —
        fine for routed traffic, but a scatter view's first batch pays
        every shard's build back to back. This fans the builds out: one
        thread per shard drives that shard's cached build path, and with
        a shared :class:`~repro.engine.parallel.ParallelBuilder` the
        builds land on worker *processes*, using real cores. Returns the
        per-shard structures, shard order.
        """
        self.route(name)  # unknown views fail before any build starts
        servers = self.shards
        if len(servers) == 1:
            return [servers[0].representation(name, tau)]
        with ThreadPoolExecutor(
            max_workers=len(servers), thread_name_prefix="repro-prebuild"
        ) as pool:
            futures = [
                pool.submit(server.representation, name, tau)
                for server in servers
            ]
            return [future.result() for future in futures]

    def close(self) -> None:
        """Release the shared build worker pool (serving keeps working)."""
        for server in self._servers:
            server.close()
        if self._builder is not None:
            self._builder.close()
        if self._owns_telemetry and self._telemetry is not None:
            self._telemetry.close()

    @property
    def builder(self) -> Optional[ParallelBuilder]:
        """The shared build worker pool, or ``None`` for in-process builds."""
        return self._builder

    @property
    def telemetry(self) -> Optional[Telemetry]:
        """The telemetry sink shared with every shard server (or None)."""
        return self._telemetry

    # ------------------------------------------------------------------
    # residency, fanned to shards
    # ------------------------------------------------------------------
    #: ``ViewServer.prefetch``'s name for :meth:`prebuild`.
    prefetch = prebuild

    def demote(self, name: str) -> int:
        """Evict one view from every shard's memory tier; total entries."""
        self.route(name)
        return sum(server.demote(name) for server in self._servers)

    # ------------------------------------------------------------------
    # planning: which shard serves which request
    # ------------------------------------------------------------------
    def _plan(
        self,
        name: str,
        accesses: Sequence[Tuple],
        served: bool = True,
    ) -> Tuple[str, List[List[int]]]:
        """(mode, per-shard positions into ``accesses``) for one view.

        The one routing decision: scatter views repeat every position on
        every shard, pinned views put them all on shard 0, routed views
        send each to the shard owning its bound value. The facade's
        accounting lives with it, so every executor of a plan —
        cursors, batches, :meth:`jobs` — counts each request once per
        shard it touches in ``shard_requests_total{shard,mode}`` (with
        telemetry on); ``served=False`` only plans (:meth:`plan_batch`).
        """
        mode, position = self.route(name)
        plan: List[List[int]] = [[] for _ in self._servers]
        if mode == ROUTED:
            for index, access in enumerate(accesses):
                plan[self._owner(name, position, access)].append(index)
        else:
            # Everything, on every shard (scatter) or on shard 0 (pinned).
            for positions in plan if mode == SCATTER else plan[:1]:
                positions.extend(range(len(accesses)))
        if served and self._telemetry is not None:
            for shard_id, positions in zip(self.shard_ids, plan):
                if positions:
                    self._telemetry.counter(
                        "shard_requests_total", shard=shard_id, mode=mode
                    ).inc(len(positions))
        return mode, plan

    def plan_batch(
        self, name: str, accesses: Iterable[Sequence]
    ) -> List[List[Tuple]]:
        """Per-shard sub-batches for one batch (index-aligned to shards).

        Scatter views repeat the whole batch on every shard; routed views
        split it; shards with no work get an empty list. Planning alone
        serves nothing, so it counts nothing.
        """
        batch = [tuple(access) for access in accesses]
        _, plan = self._plan(name, batch, served=False)
        return [[batch[index] for index in positions] for positions in plan]

    def _plan_requests(
        self, requests: Sequence[AccessRequest]
    ) -> Tuple[Set[int], List[Tuple[int, ViewServer, List[int]]]]:
        """:meth:`_plan` for a typed, possibly mixed-view batch being served.

        Returns ``(scatter, jobs)``: the positions of the requests that
        fan out to every shard (their per-shard answers need merging),
        and one ``(shard index, shard server, positions into requests)``
        per shard that has work.
        """
        by_view: Dict[str, List[int]] = {}
        for position, request in enumerate(requests):
            by_view.setdefault(request.view, []).append(position)
        scatter: Set[int] = set()
        plan: List[List[int]] = [[] for _ in self._servers]
        for name, positions in by_view.items():
            mode, local = self._plan(
                name, [requests[p].access for p in positions]
            )
            if mode == SCATTER:
                scatter.update(positions)
            for merged, indexes in zip(plan, local):
                merged.extend(positions[index] for index in indexes)
        return scatter, [
            (shard, server, positions)
            for shard, (server, positions) in enumerate(
                zip(self._servers, plan)
            )
            if positions
        ]

    def _count_shared(
        self, name: str, batch: Sequence[Tuple], unique: Sequence[Tuple]
    ) -> None:
        # The duplicates answer_batch deduplicated away were still
        # served: planning them counts them per shard. Without telemetry
        # there is nothing to count, and routing them again would be
        # wasted work on every skewed batch.
        if self._telemetry is not None and len(batch) > len(unique):
            duplicates = Counter(batch) - Counter(unique)
            self._plan(name, list(duplicates.elements()))

    # ------------------------------------------------------------------
    # serving: the two primitives and the job plan (Serving adds the rest)
    # ------------------------------------------------------------------
    @staticmethod
    def _gather(
        request: AccessRequest, scattered: bool, parts: List[AnswerCursor]
    ) -> AnswerCursor:
        """One request's cursor from its per-shard cursors.

        Per-shard answers of a scattered request are disjoint and
        sorted, so a lazy k-way heap merge is the full answer in
        lexicographic head order; ``parts`` stay exposed in shard order.
        """
        if not scattered:
            return parts[0]
        return AnswerCursor(request, heapq.merge(*parts), parts=parts)

    def open(
        self,
        request: Union[AccessRequest, str],
        access: Optional[Sequence] = None,
        limit: Optional[int] = None,
        start_after: Optional[Sequence] = None,
        tau: Optional[float] = None,
        measure: bool = False,
    ) -> AnswerCursor:
        """Open a streaming cursor through the routing layer.

        Routed and pinned views return the owning shard's cursor
        directly. Scatter views open one cursor per shard and merge them
        lazily with a k-way heap (per-shard answers are disjoint and
        sorted, so the merged stream is the full answer in lexicographic
        head order): with ``limit=k`` each shard enumerates at most k
        tuples. Resume tokens distribute as-is: every shard seeks past
        the token within its own slice. The per-shard sub-cursors are
        exposed as the merged cursor's ``parts`` (shard order); if one
        shard fails to open, the cursors already opened are closed.
        """
        request = as_request(
            request,
            access,
            limit=limit,
            start_after=start_after,
            tau=tau,
            measure=measure,
        )
        mode, plan = self._plan(request.view, [request.access])
        with Hold() as opened:
            for server, positions in zip(self._servers, plan):
                if positions:
                    opened.opened.append(server.open(request))
            return self._gather(request, mode == SCATTER, opened.opened)

    def open_batch(
        self, requests: Iterable[Union[AccessRequest, str]]
    ) -> List[AnswerCursor]:
        """Open cursors for a whole request batch through the routing layer.

        The batch is grouped per owning shard and each shard serves its
        group through ONE
        :meth:`ViewServer.open_batch <repro.engine.server.ViewServer.open_batch>`
        — one resolve, one pin and one walk per distinct request for
        each ``(view, τ)`` it holds; scatter requests
        ride every shard's group, and each gets a lazy k-way heap merge
        of its per-shard cursors (disjoint sorted streams, exactly as
        :meth:`open` builds them, ``parts`` exposed in shard order). The
        returned cursors align with the submitted requests; the usual
        caveat applies per shard group (duplicates of one request share
        an enumeration: one consuming thread, one fate). A shard group
        that fails to open closes the groups opened before it.
        """
        batch = [as_request(request) for request in requests]
        scatter, jobs = self._plan_requests(batch)
        parts: List[List[AnswerCursor]] = [[] for _ in batch]
        with Hold() as opened:
            for _, server, positions in jobs:
                shard_cursors = server.open_batch(
                    [batch[position] for position in positions]
                )
                opened.opened += shard_cursors
                for position, cursor in zip(positions, shard_cursors):
                    parts[position].append(cursor)
        return [
            self._gather(request, position in scatter, pieces)
            for position, (request, pieces) in enumerate(zip(batch, parts))
        ]

    @contextmanager
    def jobs(self, batch: Sequence[AccessRequest]):
        """One job per owning shard.

        :meth:`Serving.jobs <repro.engine.server.Serving.jobs>` for the
        facade: the plan :meth:`open_batch` executes with lazy cursors,
        handed to an executor that drains each shard's group wherever
        it likes. ``gather`` heap-merges a scattered request's per-shard
        rows (disjoint and sorted; each shard already honored the limit,
        so the merged stream only needs re-capping) and folds their
        stats with :func:`merge_delay_stats`, counting as outputs the
        rows it returns, not the rows the re-cap dropped.
        """
        scatter, jobs = self._plan_requests(batch)

        def gather(results: Sequence[Drained]) -> Drained:
            pieces: List[Drained] = [[] for _ in batch]
            for (_, _, positions), drained in zip(jobs, results):
                for position, pair in zip(positions, drained):
                    pieces[position].append(pair)
            gathered: Drained = []
            for position, (request, parts) in enumerate(zip(batch, pieces)):
                if position not in scatter:
                    gathered.append(parts[0])
                    continue
                merged = heapq.merge(*(rows for rows, _ in parts))
                rows = list(islice(merged, request.limit))
                measured = [stats for _, stats in parts if stats is not None]
                stats = merge_delay_stats(measured) if measured else None
                if stats is not None:
                    stats.outputs = len(rows)
                gathered.append((rows, stats))
            return gathered

        yield jobs, gather

    # ------------------------------------------------------------------
    # aggregation and introspection
    # ------------------------------------------------------------------
    def total_builds(self) -> int:
        """Structure builds across all shards."""
        return sum(server.total_builds() for server in self._servers)

    @property
    def cache_stats(self) -> CacheStats:
        """Aggregated cache statistics across the shards."""
        merged = CacheStats()
        for server in self._servers:
            merged.add(server.cache_stats)
        return merged

    @property
    def total_cache_cells(self) -> int:
        """Cells resident across every shard's cache (aggregate budget)."""
        return sum(server.cache.total_cells for server in self._servers)

    def invalidate(self, name: str) -> int:
        """Drop one view's cached structures on every shard; total dropped."""
        self.route(name)
        return sum(server.invalidate(name) for server in self._servers)
