"""The access-serving engine: registered views + cached representations.

:class:`ViewServer` is the long-lived serving layer the paper implies but
the CLI never had: register adorned views once against a database, then
answer access requests from a bounded cache of compressed representations
instead of rebuilding ``(T, D)`` per invocation.

Responsibilities
----------------
* **Registration** — one kind — resolves each view to its natural-join
  form (:func:`~repro.query.rewriting.normalize_view`) and picks τ: a fixed
  value, or automatically from a space budget
  (:func:`~repro.optimizer.min_delay_cover` — the smallest delay the
  budget affords, Proposition 11) or a delay budget
  (:func:`~repro.optimizer.min_space_cover` — the smallest space meeting
  it, Proposition 12). Budget-selected covers are reused as the
  structure's fractional edge cover, so the built instance realizes the
  optimized tradeoff point. A registration is a sequence of versions:
  version 0 is the registration's own data and carries no versioned
  state; the first effective delta to a natural-join view
  (:meth:`ViewServer.apply_deltas`) versions it
  (:mod:`repro.engine.dynamic_serving`).
* **Caching**: structures are built lazily on first request and kept in a
  :class:`~repro.engine.cache.RepresentationCache` keyed by
  ``(view name, τ)`` with LRU eviction under entry/cell bounds. What
  does not depend on τ — the tries and domains of a registration, its
  :class:`~repro.core.context.ViewContext` — is built once per
  registration and shared by every structure built or decoded for it.
* **Streaming**: :meth:`ViewServer.open` is the serving primitive — it
  returns a lazy :class:`~repro.engine.api.AnswerCursor` honoring the
  request's ``limit``/``start_after``/``measure`` knobs, so top-k and
  paginated workloads enumerate only what they consume.
* **Batched serving**: :meth:`ViewServer.open_batch` is the batch
  primitive — a request group over one view is resolved and pinned
  once, deduplicated, and each distinct request streams through the
  solo walk :meth:`ViewServer.open` rides
  (:mod:`repro.engine.shared_scan`); duplicates share that walk.
* **The back-end contract**: everything else a caller or a front end
  does with a server — the materializing ``answer`` / ``answer_batch``
  / ``serve_stream`` wrappers, ``drain`` (one unit of executor work),
  ``jobs`` (a batch's independently drainable groups and their gather),
  batch and stream result assembly — is written once over those two
  primitives, on :class:`Serving`, whose docstring is where the
  contract is listed. The sharded facade and the async front end add
  routing and an event loop to it, not second copies of it.
  Per-request delay statistics follow
  :meth:`AnswerCursor.stats <repro.engine.api.AnswerCursor.stats>`
  semantics: the closing gap (trailing steps after the last output) is
  included **only when the cursor observed exhaustion**. ``answer_batch``
  drains every cursor fully, so its stats always include it — matching
  :func:`~repro.measure.delay.measure_enumeration` — while a
  limit-stopped cursor opened directly never does.
* **Telemetry**: pass ``telemetry=`` (a
  :class:`~repro.engine.telemetry.Telemetry`, or ``True`` to persist
  under ``snapshot_dir/telemetry/``) and the server instruments itself:
  request counters, serve-latency and delay-gap histograms, cache and
  shared-scan counters. ``None`` (the default) costs nothing. τ is
  chosen once, at registration; a request's own ``tau=`` is the only
  way to serve another.
* **Concurrency**: the cache is internally synchronized and provides
  the single-build guarantee through
  :meth:`~repro.engine.cache.RepresentationCache.get_or_build` (at most
  one build per key ever runs; waiters block on the builder's event,
  then hit the cache). A separate registry lock guards the server's own
  bookkeeping — a request is resolved against it once
  (:meth:`ViewServer._resolve`: two acquisitions per warm open) — and
  enumeration runs outside all locks: built structures are immutable,
  so concurrent readers never contend.
"""

from __future__ import annotations

import hashlib
import json
import time
import weakref
from contextlib import contextmanager
from functools import partial
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.context import ViewContext
from repro.core.dynamic import DynamicRepresentation, check_arity
from repro.core.snapshot import (
    SnapshotStore,
    database_fingerprint,
    relation_fingerprints,
    view_state,
)
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.engine.api import (
    AccessRequest,
    AnswerCursor,
    as_request,
    open_cursor,
)
from repro.engine.cache import CacheStats, RepresentationCache
from repro.engine.dynamic_serving import (
    DeltaRecord,
    DynamicSnapshotStore,
    DynamicViewState,
)
from repro.engine.epoch import NO_HOLD, Hold
from repro.engine.locking import named_lock
from repro.engine.parallel import ParallelBuilder
from repro.engine.shared_scan import SharedScan
from repro.engine.telemetry import GAP_BUCKETS, LATENCY_BUCKETS, Telemetry
from repro.exceptions import ParameterError, SchemaError, SnapshotError
from repro.measure.delay import DelayStats
from repro.optimizer.min_delay import min_delay_cover
from repro.optimizer.min_space import min_space_cover
from repro.query.adorned import AdornedView
from repro.query.parser import parse_view
from repro.query.rewriting import natural_form
from repro.workloads.streams import batched

DEFAULT_TAU = 8.0

CacheKey = Tuple[str, float, int]


@dataclass(frozen=True)
class Registration:
    """One registered view: its natural-join form and resolved knobs.

    ``generation`` distinguishes re-registrations under a reused name:
    cache keys embed it, so a structure built for one generation can
    never be served (or hit by a waiter) as another generation's answer.
    """

    name: str
    view: AdornedView
    natural_view: AdornedView
    database: Database
    tau: float
    policy: str  # "fixed" | "space-budget" | "delay-budget"
    budget: Optional[float] = None
    weights: Optional[Mapping[int, float]] = None
    sizes: Mapping[int, int] = field(default_factory=dict)
    generation: int = 0
    #: The natural view's structural digest, hashed once at registration
    #: (not per cache hit): the restart-stable part of a snapshot label.
    digest: str = ""
    #: Once versioned, rebuild when buffered deltas pass this share of |D|.
    rebuild_fraction: float = 0.1

    def snapshot_label(self, tau: float) -> str:
        """The disk-tier label of this registration's build at ``tau``.

        Deliberately excludes the generation (which restarts from 1 in a
        fresh process — the whole point is surviving restarts) and
        instead pins what actually determines the built structure: the
        view's structural digest, τ, and the τ-selection policy/budget.
        The database itself is covered by the store's fingerprint.
        """
        return (
            f"{self.name}|{self.digest}|tau={tau!r}"
            f"|{self.policy}|{self.budget!r}"
        )


def register_everywhere(
    name: str, servers: Iterable, register: Callable[[object], object]
) -> None:
    """Run ``register(server)`` on every server, or leave ``name`` on none.

    All or none: a half-registered view would wedge its name —
    unservable on the servers that refused, "already registered" on the
    others when the caller retries. Whatever stops the loop
    (``BaseException`` included), the servers already done unregister
    ``name`` again before it propagates.
    """
    done = []
    try:
        for server in servers:
            register(server)
            done.append(server)
    except BaseException:
        for server in done:
            server.unregister(name)
        raise


@dataclass(frozen=True)
class BatchResult:
    """Answers and measurements for one served batch.

    ``answers`` aligns with the submitted batch; duplicate requests share
    one answer list (the whole point of batching). ``request_stats`` holds
    one :class:`~repro.measure.delay.DelayStats` per *distinct* access.
    Batch cursors are drained to exhaustion, so each entry **includes the
    closing gap** (the trailing steps after its last output) — identical
    to :func:`~repro.measure.delay.measure_enumeration` on the same
    access. This is the exhaustion case of the cursor rule
    (:meth:`AnswerCursor.stats <repro.engine.api.AnswerCursor.stats>`):
    only a limit-stopped cursor, which never observes exhaustion, omits
    the closing gap.
    """

    accesses: Tuple[Tuple, ...]
    answers: Tuple[List[Tuple], ...]
    request_stats: Mapping[Tuple, DelayStats]
    unique_count: int

    @property
    def shared_count(self) -> int:
        """Requests answered without a traversal of their own."""
        return len(self.accesses) - self.unique_count

    @property
    def outputs(self) -> int:
        """Total tuples delivered, duplicates included."""
        return sum(len(rows) for rows in self.answers)

    @property
    def max_step_gap(self) -> int:
        """Worst logical delay observed across the batch's traversals."""
        if not self.request_stats:
            return 0
        return max(s.step_max_gap for s in self.request_stats.values())


@dataclass(frozen=True)
class ServingReport:
    """Aggregate of one request stream served through the engine.

    ``builds`` and ``cache`` are deltas observed during this stream, not
    server-lifetime totals — serving a warm cache reports zero builds.
    """

    requests: int
    unique_requests: int
    shared_requests: int
    outputs: int
    batches: int
    builds: int
    wall_seconds: float
    max_step_gap: int
    cache: CacheStats

    @property
    def requests_per_second(self) -> float:
        """Serving throughput over the report's wall-clock window."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.requests / self.wall_seconds


Drained = List[Tuple[List[Tuple], Optional[DelayStats]]]


def distinct_requests(
    name: str,
    accesses: Iterable[Sequence],
    tau: Optional[float],
    measure: bool,
) -> Tuple[Tuple[Tuple, ...], List[Tuple], List[AccessRequest]]:
    """``(batch, unique, requests)`` of one ``answer_batch``-style call.

    The batch as tuples, its distinct accesses (sorted — the tree is
    laid out lexicographically, so nearby bound values touch nearby
    dictionary entries), and one request per distinct access.
    """
    batch = tuple(tuple(access) for access in accesses)
    unique = sorted(set(batch))
    return batch, unique, [
        AccessRequest(view=name, access=access, tau=tau, measure=measure)
        for access in unique
    ]


class Serving:
    """The whole back-end contract: two primitives in, every executor out.

    A back end provides ``open`` / ``open_batch`` (plus ``total_builds``
    and ``cache_stats`` for stream reports); :class:`ViewServer` and
    :class:`~repro.engine.sharding.ShardedViewServer` both do.
    Everything a front end needs on top is written here, once, so batch
    and stream accounting cannot drift between back ends or between
    the sync and the async path:

    * :meth:`answer` / :meth:`answer_batch` / :meth:`serve_stream` — the
      materializing wrappers;
    * :meth:`drain` — a request batch opened, fetched, measured and
      closed in one call: the unit of work an executor runs (and the
      one seam a test fake overrides);
    * :meth:`jobs` — the batch's independently drainable groups plus
      the gather that puts their results back in request order. A front
      end that runs work elsewhere (the async thread pool) calls
      ``jobs`` and ``drain``; it never plans, pins or merges itself;
    * :meth:`batch_result` / :meth:`stream_report` — result assembly.
    """

    def answer(self, name: str, access: Sequence) -> List[Tuple]:
        """Answer one access request fully (materializing wrapper)."""
        with self.open(name, access) as cursor:
            return cursor.fetchall()

    def drain(
        self, requests: Iterable[Union[AccessRequest, str]]
    ) -> Drained:
        """Open a batch, fetch every cursor dry, close: ``(rows, stats)`` each.

        Stats only for measured requests (``None`` otherwise). The
        cursors are drained to exhaustion or their limit here, on the
        calling thread — per ``(view, τ)`` group one resolve, one pin
        and one enumeration per distinct request.
        """
        cursors = self.open_batch(requests)
        try:
            return [
                (
                    cursor.fetchall(),
                    cursor.stats() if cursor.request.measure else None,
                )
                for cursor in cursors
            ]
        finally:
            for cursor in cursors:
                cursor.close()

    @contextmanager
    def jobs(self, batch: Sequence[AccessRequest]):
        """The batch's independently drainable groups, and their gather.

        Yields ``(jobs, gather)``. Each job is ``(shard, server,
        positions)``: ``server.drain`` of the requests at ``positions``
        is one unit of work, and an executor may run the jobs
        concurrently; ``gather(results)`` takes the per-job results, in
        job order, and returns one ``(rows, stats)`` per request, in
        request order. A plain server is one job — itself (``shard`` is
        ``None``), every position, nothing to merge.
        """
        yield [(None, self, range(len(batch)))], lambda results: results[0]

    def answer_batch(
        self,
        name: str,
        accesses: Iterable[Sequence],
        tau: Optional[float] = None,
        measure: bool = True,
    ) -> BatchResult:
        """Serve a batch of access requests, each distinct one walked once.

        A thin materializing wrapper over :meth:`drain`: the batch
        is deduplicated and its distinct accesses
        (:func:`distinct_requests`) are drained as one group (per shard,
        behind the sharded facade); every duplicate request shares the
        answer list computed by its representative. With
        ``measure=True`` per-access delay accounting matches
        :func:`~repro.measure.delay.measure_enumeration` — closing gap
        included, because the cursors are drained to exhaustion here
        (see :class:`BatchResult`); a scattered request's stats fold its
        per-shard parts. The structure is resolved once per batch, so
        cache accounting is unchanged.
        """
        batch, unique, requests = distinct_requests(
            name, accesses, tau, measure
        )
        return self.batch_result(name, batch, unique, self.drain(requests))

    def batch_result(
        self,
        name: str,
        batch: Tuple[Tuple, ...],
        unique: Sequence[Tuple],
        drained: Drained,
    ) -> BatchResult:
        """Assemble one :class:`BatchResult` from its distinct accesses.

        ``drained`` aligns with ``unique``: each distinct access's rows
        and (measured) stats. The duplicates ``batch`` holds beyond
        ``unique`` were never opened but were still served; a back end
        that counts them per shard does so here (:meth:`_count_shared`).
        """
        answers = {access: rows for access, (rows, _) in zip(unique, drained)}
        self._count_shared(name, batch, unique)
        return BatchResult(
            accesses=batch,
            answers=tuple(answers[access] for access in batch),
            request_stats={
                access: stats
                for access, (_, stats) in zip(unique, drained)
                if stats is not None
            },
            unique_count=len(unique),
        )

    def _count_shared(
        self, name: str, batch: Sequence[Tuple], unique: Sequence[Tuple]
    ) -> None:
        """Count the duplicates a batch was deduplicated by as served.

        The sharded facade overrides this to count them per shard; every
        other back end inherits the no-op.
        """

    def serve_stream(
        self,
        name: str,
        accesses: Iterable[Sequence],
        batch_size: int = 32,
        tau: Optional[float] = None,
        measure: bool = True,
    ) -> ServingReport:
        """Drain a request stream in batches and aggregate the measurements."""
        # The window opens before the first batch is served: the
        # generator is consumed inside ``finish``.
        return self.stream_report()(
            self.answer_batch(name, chunk, tau=tau, measure=measure)
            for chunk in batched(accesses, batch_size)
        )

    def stream_report(
        self,
    ) -> Callable[[Iterable[BatchResult]], ServingReport]:
        """Open a stream's measurement window; the result closes it.

        The returned ``finish(results)`` folds the stream's served
        batches into one :class:`ServingReport` whose wall clock, builds
        and cache figures are deltas since this call. ``results`` is
        consumed inside the window, so a lazy iterable that serves as it
        goes (the sync :meth:`serve_stream`) and a list gathered from
        tasks (the async one) report through the same code.
        """
        started = time.perf_counter()
        builds_before = self.total_builds()
        stats_before = self.cache_stats

        def finish(results: Iterable[BatchResult]) -> ServingReport:
            requests = unique = outputs = batches = max_gap = 0
            for result in results:
                requests += len(result.accesses)
                unique += result.unique_count
                outputs += result.outputs
                batches += 1
                max_gap = max(max_gap, result.max_step_gap)
            return ServingReport(
                requests=requests,
                unique_requests=unique,
                shared_requests=requests - unique,
                outputs=outputs,
                batches=batches,
                builds=self.total_builds() - builds_before,
                wall_seconds=time.perf_counter() - started,
                max_step_gap=max_gap,
                cache=self.cache_stats.delta(stats_before),
            )

        return finish


class ViewServer(Serving):
    """Serve access requests for registered views from a bounded cache.

    Parameters
    ----------
    db:
        The database all registered views are evaluated against.
    max_entries / max_cells:
        Bounds of the representation cache (see
        :class:`~repro.engine.cache.RepresentationCache`).
    snapshot_dir:
        Optional directory enabling the persistent warm-start tier:
        builds are snapshotted there (stamped with this database's
        fingerprint), misses consult it before building, and evictions
        demote to it. A restarted server pointed at the same directory
        and the same data decodes instead of rebuilding.
    build_workers / builder:
        Process-parallel builds: ``build_workers=N`` gives the server
        its own :class:`~repro.engine.parallel.ParallelBuilder` pool of
        N worker processes (closed by :meth:`close`); ``builder=``
        shares an existing pool (the sharded facade does this so total
        build parallelism stays bounded). Builds fall back in-process
        whenever the pool is unavailable.
    telemetry:
        ``None`` (default) disables instrumentation entirely. A
        :class:`~repro.engine.telemetry.Telemetry` instance instruments
        this server (and its cache) into that instance's registry —
        share one across servers to see the whole stack. ``True``
        creates a server-owned instance, persisting under
        ``snapshot_dir/telemetry/`` when a snapshot directory is set
        (in-memory otherwise); :meth:`close` flushes it.

    Example
    -------
    >>> from repro import ViewServer
    >>> from repro.workloads import triangle_database
    >>> server = ViewServer(triangle_database(nodes=30, edges=120, seed=1))
    >>> name = server.register(
    ...     "Delta^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)", tau=8,
    ... )
    >>> batch = server.answer_batch(name, [(3, 7), (1, 2), (3, 7)])
    >>> batch.unique_count, batch.shared_count
    (2, 1)
    """

    def __init__(
        self,
        db: Database,
        max_entries: Optional[int] = 8,
        max_cells: Optional[int] = None,
        snapshot_dir: Optional[Union[str, Path]] = None,
        build_workers: Optional[int] = None,
        builder: Optional[ParallelBuilder] = None,
        telemetry: Union[Telemetry, bool, None] = None,
    ):
        self.db = db
        store = self._dynamic_store = None
        if snapshot_dir is not None:
            store = SnapshotStore(
                snapshot_dir, fingerprint=database_fingerprint(db)
            )
            self._dynamic_store = DynamicSnapshotStore(
                Path(snapshot_dir) / "dynamic"
            )
        self._telemetry, self._owns_telemetry = Telemetry.resolve(
            telemetry, snapshot_dir
        )
        self._owns_builder = False
        if builder is None and build_workers is not None:
            builder = ParallelBuilder(build_workers)
            self._owns_builder = True
        self._builder = builder
        self._cache = RepresentationCache(
            max_entries=max_entries,
            max_cells=max_cells,
            snapshot_store=store,
            metrics=(
                self._telemetry.registry
                if self._telemetry is not None
                else None
            ),
        )
        self._views: Dict[str, Registration] = {}
        self._dynamic: Dict[str, DynamicViewState] = {}
        # Where dynamic snapshots and delta-log lines are *written*: the
        # store itself on a primary. Replicas set it to None — they read
        # the store and ingest shipped deltas but never write either.
        self._dynamic_sink = self._dynamic_store
        self._lock = named_lock("server")
        # Resolved metric handles (see :meth:`_handles`).
        self._metric_handles: Dict[Tuple, Tuple] = {}
        # The per-view half of every static structure, by registration
        # generation (see :meth:`_resolve`).
        self._contexts: Dict[int, ViewContext] = {}
        # Beside each context, the lowest-τ default-cover structure built
        # over it — weakly: a base lives as long as the cache or a cursor
        # holds it (see :meth:`_build`).
        self._bases: Dict[int, weakref.ref] = {}
        self._build_counts: Dict[CacheKey, int] = {}
        # Monotonic lifetime total: per-key counters are pruned when their
        # generation dies, but stream build-deltas need a counter that
        # never runs backwards.
        self._total_builds = 0
        self._generation = 0
        self._fingerprints: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------
    # registration and τ selection
    # ------------------------------------------------------------------
    def register(
        self,
        view: Union[AdornedView, str],
        tau: Optional[float] = None,
        space_budget: Optional[float] = None,
        delay_budget: Optional[float] = None,
        name: Optional[str] = None,
        database: Optional[Database] = None,
        rebuild_fraction: float = 0.1,
    ) -> str:
        """Register an adorned view; returns the name requests refer to.

        Exactly one of ``tau``, ``space_budget`` and ``delay_budget`` may
        be given; with none, ``DEFAULT_TAU`` is used. Budgets are in the
        optimizer's units: space in cells (relative to the relation
        sizes), delay as the τ bound of Theorem 1.

        ``database`` overrides the server's database for this
        registration only — the sharded facade registers each view
        against a per-shard semijoin-reduced copy this way. The override
        must answer the view identically to the server's own database
        (the caller's contract); everything else on the server keeps
        using ``self.db``, the deltas of :meth:`apply_deltas` included.

        A registration is a sequence of versions. It starts at version 0
        with an empty delta log and carries no versioned state; the
        first effective delta versions it (see :meth:`apply_deltas`),
        and ``rebuild_fraction`` is its amortized-rebuild knob from
        then on. With a ``snapshot_dir``, a natural-join view whose
        durable meta and delta log are in the dynamic store warm-starts
        from them: versioned at once, at the version they reached.
        """
        if isinstance(view, str):
            view = parse_view(view)
        base_db = database if database is not None else self.db
        knobs = [
            knob
            for knob in (tau, space_budget, delay_budget)
            if knob is not None
        ]
        if len(knobs) > 1:
            raise ParameterError(
                "give at most one of tau, space_budget, delay_budget"
            )
        name = name or view.name
        natural_view, eval_db = natural_form(view, base_db)
        sizes = {
            label: len(eval_db[atom.relation])
            for label, atom in enumerate(natural_view.atoms)
        }
        weights: Optional[Mapping[int, float]] = None
        if space_budget is not None:
            optimum = min_delay_cover(natural_view, sizes, space_budget)
            policy, budget = "space-budget", float(space_budget)
            tau, weights = max(1.0, optimum.tau), dict(optimum.weights)
        elif delay_budget is not None:
            optimum = min_space_cover(natural_view, sizes, delay_budget)
            policy, budget = "delay-budget", float(delay_budget)
            tau, weights = max(1.0, optimum.tau), dict(optimum.weights)
        else:
            policy, budget = "fixed", None
            tau = float(tau) if tau is not None else DEFAULT_TAU
            if tau <= 0:
                raise ParameterError(f"tau must be positive, got {tau}")
        digest = hashlib.sha256(
            repr(view_state(natural_view)).encode("utf-8")
        ).hexdigest()[:12]
        with self._lock:
            if name in self._views:
                raise SchemaError(f"view {name!r} is already registered")
            self._generation += 1
            registration = self._views[name] = Registration(
                name=name,
                view=view,
                natural_view=natural_view,
                database=eval_db,
                tau=tau,
                policy=policy,
                budget=budget,
                weights=weights,
                sizes=sizes,
                generation=self._generation,
                digest=digest,
                rebuild_fraction=float(rebuild_fraction),
            )
        try:
            durable = self._durable(registration)
            if durable is not None:
                self._install(registration, *durable)
        except BaseException:
            self.unregister(name)
            raise
        return name

    def unregister(self, name: str) -> bool:
        """Drop a registration and its cached structures; True if it existed."""
        with self._lock:
            registration = self._views.pop(name, None)
            # A versioned view's versions go with its state: nothing of
            # theirs is in the cache.
            self._dynamic.pop(name, None)
        if registration is None:
            return False
        # Scope the sweep to the popped generation: a concurrent
        # re-registration under the same name owns fresh keys that this
        # unregister must not evict. The sweep is atomic in the cache —
        # a racing build of this generation either publishes before it
        # (and is dropped here) or after (and is dropped by the orphan
        # check in :meth:`representation`).
        generation = registration.generation
        self._contexts.pop(generation, None)
        self._bases.pop(generation, None)
        self._cache.invalidate_matching(
            lambda key: key[0] == name and key[2] == generation
        )
        with self._lock:
            # Dead generations can never be queried again; drop their
            # build counters so a churning server does not leak them.
            for key in list(self._build_counts):
                if key[0] == name and key[2] == registration.generation:
                    del self._build_counts[key]
        return True

    def _lookup(
        self, name: str, tau: Optional[float] = None
    ) -> Tuple[Registration, Optional[DynamicViewState], CacheKey]:
        """``(registration, dynamic state, cache key)`` in ONE lock hold.

        Everything the registry knows about a request: SchemaError for
        an unknown view, the versioned state (``None`` for a view that
        never took a delta), and the cache key. A tau-less request resolves to
        the registration's τ, which must round-trip through the key
        exactly (:meth:`_build` reuses the optimizer's cover only when
        the key τ matches it); the generation keeps re-registrations
        under a reused name apart.
        """
        with self._lock:
            registration = self._views.get(name)
            if registration is None:
                raise SchemaError(f"unknown view {name!r}")
            return (
                registration,
                self._dynamic.get(name),
                (
                    name,
                    registration.tau if tau is None else float(tau),
                    registration.generation,
                ),
            )

    def registration(self, name: str) -> Registration:
        """The :class:`Registration` behind ``name``; SchemaError if unknown."""
        return self._lookup(name)[0]

    def views(self) -> Tuple[str, ...]:
        """Names of every currently registered view."""
        with self._lock:
            return tuple(self._views.keys())

    # ------------------------------------------------------------------
    # residency: build ahead of demand, or drop to the disk tier
    # ------------------------------------------------------------------
    def prefetch(self, name: str, tau: Optional[float] = None) -> None:
        """Build (or warm-load) the serving structure ahead of demand."""
        self.representation(name, tau)

    def resident(self, name: str, tau: Optional[float] = None) -> bool:
        """Whether ``(name, τ)`` is in memory right now.

        ``tau=None`` means the registration's τ. A never-updated view is
        resident while its structure sits in the cache; a versioned view
        always is — its current version is held by its epochs, not by
        the LRU.
        """
        _, state, key = self._lookup(name, tau)
        return state is not None or key in self._cache

    def demote(self, name: str) -> int:
        """Drop one view's resident structures, keeping their snapshots.

        Unlike :meth:`invalidate` the disk tier is preserved, so a later
        request (or :meth:`prefetch`) warm-loads instead of rebuilding.
        Returns the entries dropped — always 0 for a versioned view, whose
        versions are not cache entries. SchemaError for an unknown view.
        """
        self._lookup(name)
        return self._cache.invalidate_matching(
            lambda key: key[0] == name, drop_snapshot=False
        )

    # ------------------------------------------------------------------
    # versions: deltas on any natural-join registration
    # ------------------------------------------------------------------
    def register_dynamic(
        self,
        view: Union[AdornedView, str],
        tau: Optional[float] = None,
        name: Optional[str] = None,
        rebuild_fraction: float = 0.1,
    ) -> str:
        """:meth:`register`, then version the view at once.

        Kept only for the benchmark harness under ``benchmarks/e2e/``,
        which registers its dynamic workload's primary and replica by
        this name; ROADMAP item 1(b) deletes it. Versioning at once
        writes the version-0 dynamic snapshot a replica's registration
        warm-starts from.
        """
        name = self.register(view, tau, name=name, rebuild_fraction=rebuild_fraction)
        return self._versioned(name).name

    def _durable(
        self, registration: Registration
    ) -> Optional[Tuple[DynamicRepresentation, int]]:
        """``(representation, version)`` from the dynamic store, log replayed.

        Warm start is per relation: only a view whose *referenced*
        relations all match the stored meta's fingerprints loads, then
        replays the delta log's suffix. Anything else — no store, a view
        that is not a natural join, no meta, a changed relation,
        unreadable snapshot bytes — is ``None``.
        """
        store = self._dynamic_store
        if (
            store is None
            or not store.directory.is_dir()
            or not registration.view.is_natural_join()
        ):
            return None
        label = registration.snapshot_label(registration.tau)
        meta = store.load_meta(label)
        if meta is None:
            return None
        origin = self._origin(registration).items()
        if any(meta["relations"].get(r) != f for r, f in origin):
            return None
        try:
            dynamic = store.load(label)
        except SnapshotError:
            return None
        version = int(meta["version"])
        for record in self._read_delta_log(registration.name, label):
            if record.version > version:
                dynamic.apply_deltas(
                    record.relation, record.inserts, record.deletes
                )
                version = record.version
        return dynamic, version

    def _origin(self, registration: Registration) -> Dict[str, str]:
        """Fingerprints of the server's own relations ``registration``
        reads: what a durable version is stamped and verified with.

        Hashed once per server (its database never changes; a hash is
        ≈ 3 ms on ``dynamic_mixed``'s data, and every warm start and
        re-hydration asks).
        """
        if self._fingerprints is None:
            self._fingerprints = relation_fingerprints(self.db)
        relations = {atom.relation for atom in registration.natural_view.atoms}
        return {r: self._fingerprints[r] for r in sorted(relations)}

    def _read_delta_log(self, name: str, label: str) -> List[DeltaRecord]:
        """The delta log's complete records; its owner also repairs it.

        A primary truncates a torn final line away (a delta is durable
        once its log line is complete) and counts the recovery; replicas
        only ever skip it — the file is the primary's.
        """
        if self._dynamic_sink is None:
            return self._dynamic_store.read_log(label)
        records, torn = self._dynamic_sink.recover_log(label)
        if torn and self._telemetry is not None:
            self._telemetry.counter("delta_log_torn_total", view=name).inc()
        return records

    def _fresh(self, registration: Registration) -> DynamicRepresentation:
        """Version 0 of ``registration``, over the server's own database.

        Around the resident structure at the registration's τ when there
        is one, so nothing is built twice; else built by :meth:`_build`,
        which a replica refuses. Never over a ``database=`` override: a
        semijoin-reduced copy may lack a row that a later delta joins
        with.
        """
        key = (registration.name, registration.tau, registration.generation)
        own = registration.database is self.db
        structure = self._cache.peek(key) if own else None
        if structure is None:
            context = self._contexts.get(key[2]) if own else None
            structure = self._build(
                registration,
                registration.tau,
                context or ViewContext(registration.natural_view, self.db),
            )
        weights = registration.weights
        return DynamicRepresentation(
            registration.natural_view,
            self.db,
            registration.tau,
            registration.rebuild_fraction,
            dict(weights) if weights is not None else None,
            structure=structure,
        )

    def _install(
        self,
        registration: Registration,
        dynamic: DynamicRepresentation,
        version: int,
    ) -> DynamicViewState:
        """Publish ``registration``'s versioned state, or a racer's.

        SchemaError if the registration is gone. A new state on a
        primary is durable at once (snapshot and meta written, the log
        started over), and what the cache holds of the registration is
        dropped: the state serves it from now on.
        """
        name, generation = registration.name, registration.generation
        state = DynamicViewState(
            name=name,
            dynamic=dynamic,
            version=version,
            label=registration.snapshot_label(registration.tau),
            origin_relations=self._origin(registration),
        )
        with self._lock:
            if self._views.get(name) is not registration:
                raise SchemaError(f"unknown view {name!r}")
            current = self._dynamic.setdefault(name, state)
        if current is not state:
            return current
        self._set_dynamic_gauges(state)
        self._contexts.pop(generation, None)
        self._bases.pop(generation, None)
        self._cache.invalidate_matching(
            lambda key: key[0] == name and key[2] == generation,
            drop_snapshot=False,
        )
        if version == 0 and self._dynamic_sink is not None:
            state.save_to(self._dynamic_sink)
            self._dynamic_sink.truncate_log(state.label)
        return state

    def _versioned(self, name: str) -> DynamicViewState:
        """``name``'s versioned state; a never-updated view gets version 0
        over the server's own database (:meth:`_fresh`)."""
        registration, state, _ = self._lookup(name)
        if state is not None:
            return state
        if not registration.view.is_natural_join():
            raise ParameterError(
                f"view {name!r} takes no deltas: they address base "
                "relations by name, which normalization rewrites — "
                "register a natural-join view"
            )
        return self._install(registration, self._fresh(registration), 0)

    def apply_deltas(
        self,
        relation: str,
        inserts: Iterable[Sequence] = (),
        deletes: Iterable[Sequence] = (),
        views: Optional[Sequence[str]] = None,
    ) -> Dict[str, int]:
        """Apply one base-relation delta to the views it feeds.

        Routes through every natural-join view referencing ``relation``
        (or exactly the named ``views``); returns ``{view: effective
        changes}``. An *effective* change survives buffer annihilation —
        inserting a present row or deleting an absent one counts zero,
        and a view whose count is zero keeps its serving version and
        event log untouched (the empty-delta no-op contract). The first
        effective delta versions a never-updated view
        (:meth:`_versioned`). Effective deltas create a fresh serving
        version: new requests see the post-delta view immediately, open
        cursors drain the version they pinned, and the amortized rebuild
        boundary (``rebuild_fraction``) rewrites the dynamic snapshot.

        A batch is atomic: every row's arity is checked before any view
        changes (:class:`~repro.exceptions.SchemaError`). Raises
        :class:`~repro.exceptions.ParameterError` when a named view is
        not a registered natural-join view, or when no such view
        references ``relation`` — a silently dropped delta would read as
        applied. Views that are not natural joins keep serving the data
        they were registered over.
        """
        inserts = [tuple(row) for row in inserts]
        deletes = [tuple(row) for row in deletes]
        if self._dynamic_sink is not None:
            # Fail before anything applies: a row the event log cannot
            # encode would otherwise tear serving state (applied) from
            # durable state (never logged).
            try:
                json.dumps([inserts, deletes])
            except (TypeError, ValueError) as error:
                raise SnapshotError(
                    "delta rows must be JSON-representable to be "
                    f"durable: {error}"
                ) from error
        with self._lock:
            versioned = dict(self._dynamic)
            # natural_form hands a natural join back as the very object.
            natural = {
                name: {atom.relation for atom in r.natural_view.atoms}
                for name, r in self._views.items()
                if r.natural_view is r.view
            }
        if views is not None:
            missing = [name for name in views if name not in natural]
            if missing:
                raise ParameterError(
                    f"view(s) {missing!r} are not registered natural-join "
                    "views — register one first"
                )
        else:
            views = [name for name in natural if relation in natural[name]]
            if not views:
                raise ParameterError(
                    f"no natural-join view references relation {relation!r} "
                    "— register one over it first"
                )
        base = self.db[relation]
        check_arity(base, inserts, deletes)
        # A never-updated view serves the server's own rows: a delta
        # that changes none of them is a no-op that versions nothing.
        effective = any(row not in base for row in inserts) or any(
            row in base for row in deletes
        )
        return {
            name: self._ingest_delta(
                versioned.get(name) or self._versioned(name),
                relation,
                inserts,
                deletes,
            )
            if effective or name in versioned
            else 0
            for name in views
        }

    def _ingest_delta(
        self,
        state: DynamicViewState,
        relation: str,
        inserts: Sequence[Tuple],
        deletes: Sequence[Tuple],
        forced_version: Optional[int] = None,
    ) -> int:
        """Apply one delta to one view's state; log and count the version."""
        outcome = state.apply_delta(
            relation, inserts, deletes, forced_version
        )
        if outcome.record is None:
            return outcome.applied
        self._set_dynamic_gauges(state)
        # A shipped record (forced version) is the primary's to log.
        sink = self._dynamic_sink if forced_version is None else None
        if sink is not None:
            sink.append_log(state.label, outcome.record)
        if outcome.rebuilt:
            with self._lock:
                self._total_builds += 1
            if sink is not None:
                state.save_to(sink)
            if self._telemetry is not None:
                self._telemetry.counter(
                    "rebuild_triggered_total", view=state.name
                ).inc()
        if self._telemetry is not None and outcome.applied:
            self._telemetry.counter(
                "deltas_applied_total", view=state.name, relation=relation
            ).inc(outcome.applied)
        return outcome.applied

    def apply_delta_records(
        self, records: Iterable[DeltaRecord]
    ) -> Dict[str, int]:
        """Ingest shipped delta records, strictly in version order.

        The replica half of :func:`~repro.engine.dynamic_serving.ship_deltas`:
        already-applied versions are skipped idempotently, a version gap
        raises :class:`~repro.exceptions.SnapshotError` (re-hydrate
        instead), a never-updated view is versioned first, and nothing
        here writes snapshots or log entries. Returns effective change
        counts per view.
        """
        applied: Dict[str, int] = {}
        ordered = sorted(records, key=lambda r: (r.view, r.version))
        for record in ordered:
            count = self._ingest_delta(
                self._versioned(record.view),
                record.relation,
                record.inserts,
                record.deletes,
                forced_version=record.version,
            )
            applied[record.view] = applied.get(record.view, 0) + count
        return applied

    def _dynamic_state(self, name: str) -> DynamicViewState:
        """The versioned state behind ``name`` (typed if it has none)."""
        with self._lock:
            state = self._dynamic.get(name)
        if state is None:
            raise ParameterError(
                f"view {name!r} is not versioned: it is not registered, or "
                "has never taken a delta"
            )
        return state

    def dynamic_views(self) -> Tuple[str, ...]:
        """Names of every versioned view (one that has taken a delta)."""
        with self._lock:
            return tuple(self._dynamic.keys())

    def delta_version(self, name: str) -> int:
        """The serving version of one view (0 = as registered)."""
        state = self._lookup(name)[1]
        return 0 if state is None else state.current_version()

    def delta_records_since(
        self, name: str, version: int
    ) -> Tuple[DeltaRecord, ...]:
        """This process's delta records of ``name`` newer than ``version``."""
        state = self._lookup(name)[1]
        return () if state is None else state.records_since(version)

    def save_dynamic_snapshot(self, name: str) -> int:
        """Write ``name``'s dynamic snapshot and meta now (versioning a
        never-updated view); returns the version it captures."""
        if self._dynamic_sink is None:
            raise ParameterError(
                "dynamic snapshots need a snapshot_dir on a primary "
                "server (replicas never write them)"
            )
        return self._versioned(name).save_to(self._dynamic_sink)

    def dynamic_snapshot_version(self, name: str) -> Optional[int]:
        """The version ``name``'s durable dynamic snapshot captures.

        Read from the meta record :meth:`rehydrate_dynamic` loads;
        ``None`` without a snapshot tier, for a never-updated view, or
        with no readable meta.
        """
        state, store = self._lookup(name)[1], self._dynamic_store
        meta = None if None in (state, store) else store.load_meta(state.label)
        return None if meta is None else int(meta["version"])

    def rehydrate_dynamic(self, names: Optional[Iterable[str]] = None) -> int:
        """Reload views from snapshot + delta log; returns count.

        How a replica adopts the primary's compaction (see
        :func:`~repro.engine.dynamic_serving.ship_deltas`): instead of
        replaying records — and the rebuild a boundary among them
        triggers — swap in the representation the snapshot tier holds,
        plus the log suffix after it (version 0 over the server's own
        data when the tier holds none). Pinned versions keep draining;
        new requests serve the re-hydrated state.
        """
        targets = tuple(names) if names is not None else self.dynamic_views()
        for name in targets:
            registration, state, _ = self._lookup(name)
            dynamic, version = self._durable(registration) or (
                self._fresh(registration),
                0,
            )
            if state is None:
                self._install(registration, dynamic, version)
            else:
                state.replace(dynamic, version)
                self._set_dynamic_gauges(state)
        return len(targets)

    def _set_dynamic_gauges(self, state: DynamicViewState, retired=()) -> None:
        """Refresh the cursor-pin and live-version gauges of one view.

        Also the epochs' release callback: ``retired`` is what a release
        drained, and there is nothing to tear down — a version's memory
        goes with the epochs' reference to it.
        """
        if self._telemetry is None:
            return
        pins, versions = self._handles(
            ("dynamic", state.name),
            lambda telemetry: (
                telemetry.gauge("dynamic_cursor_pins", view=state.name),
                telemetry.gauge("dynamic_live_versions", view=state.name),
            ),
        )
        pins.set(state.pin_count())
        versions.set(len(state.live_versions()))

    # ------------------------------------------------------------------
    # cached build
    # ------------------------------------------------------------------
    def _resolve(self, name: str, tau: Optional[float], cursors: int = 0):
        """``(structure, hold)`` that ``cursors`` cursors are about to open on.

        Where a request is resolved, once: one registry-lock hold
        (:meth:`_lookup`) finds the registration, the versioned state and
        the cache key; then a versioned view pins its current serving
        version — the returned :class:`~repro.engine.epoch.Hold` owns
        one pin per cursor, and serves another τ from that version
        (:meth:`~repro.core.dynamic.FrozenDynamicView.at`) — and a
        never-updated view takes its structure from
        the cache, building it on a miss, under
        :data:`~repro.engine.epoch.NO_HOLD` (no pin, no close hook, no
        allocation). Open the cursors inside ``with hold:`` and hand
        them over with ``hold.keep``.

        At most one thread ever builds a given key: late arrivals wait on
        the builder's event and then read the freshly cached entry.

        Whatever the cache has to do on a miss — build, or decode from
        the disk tier — it does over the generation's one
        :class:`~repro.core.context.ViewContext`: tries and domains do
        not depend on τ, so they are built on the generation's first
        miss and shared by reference by every structure after. Like
        :meth:`_handles`, the memo is published lock-free with one
        atomic ``setdefault`` (concurrent first misses may each build
        one; all leave with the same one), which keeps a warm open at
        two registry-lock holds.
        """
        registration, state, key = self._lookup(name, tau)
        if state is not None:
            hold = state.epochs.hold(
                cursors, partial(self._set_dynamic_gauges, state)
            )
            # The callee tests this itself; skipping the call saves a
            # frame per open, which dynamic_mixed can see.
            if self._telemetry is not None:
                self._set_dynamic_gauges(state)
            if tau is None:
                return hold.payload, hold
            try:
                return hold.payload.at(key[1], partial(self._build, registration)), hold
            except BaseException:
                with hold:  # the pins go back before the error leaves
                    raise

        context = self._contexts.get(key[2])
        if context is None:
            context = self._contexts.setdefault(
                key[2],
                ViewContext(registration.natural_view, registration.database),
            )

        def build() -> CompressedRepresentation:
            built = self._build(registration, key[1], context)
            with self._lock:
                # Skip the per-key counter for a generation unregistered
                # mid-build, or the sweep in unregister() races back in.
                if self._views.get(name) is registration:
                    self._build_counts[key] = (
                        self._build_counts.get(key, 0) + 1
                    )
            return built

        # The label is formatted on a miss only (and only with a disk tier).
        built = self._cache.get_or_build(
            key, build, partial(registration.snapshot_label, key[1]), context
        )
        with self._lock:
            # Identity, not name: a concurrent unregister + re-register
            # under the same name is a different generation, and this
            # structure was built from the old one.
            registered = self._views.get(name) is registration
        if not registered:
            # An unregister raced the build: its invalidate ran before the
            # publish, so drop the orphan here (whichever of the two
            # cleanups runs last sees the entry). The caller still gets
            # the structure — its request predates the unregistration.
            self._cache.invalidate(key)
            self._contexts.pop(key[2], None)
        return built, NO_HOLD

    def representation(
        self, name: str, tau: Optional[float] = None
    ) -> CompressedRepresentation:
        """The cached structure for ``(name, τ)``, building it on a miss.

        A versioned view resolves to its *current* serving version (no
        pin — use :meth:`open` for drain-safe enumeration).
        """
        return self._resolve(name, tau)[0]

    def _build(
        self,
        registration: Registration,
        tau: float,
        context: ViewContext,
        base: Optional[CompressedRepresentation] = None,
    ) -> CompressedRepresentation:
        """One structure of ``registration`` at ``tau`` over ``context``.

        The one build path, for every kind of request: a ``tau`` at or
        above ``base`` is cut from it
        (:meth:`~repro.core.structure.CompressedRepresentation.cut`),
        any other is built over ``context``. A versioned view passes its
        pinned version's clean structure as ``base``; otherwise the base
        is the generation's live one — the lowest default-cover ``tau``
        built in-process over its context — and a default-cover build
        over that context becomes it. The optimizer's cover and a
        :class:`ParallelBuilder` hand-back (which carries no entry
        costs) are always built directly.
        """
        # The optimizer's cover is tied to the τ it was solved for; a
        # caller-supplied τ falls back to the context's default cover.
        weights = registration.weights if tau == registration.tau else None
        generation = registration.generation
        cuttable = (
            base is None
            and weights is None
            and self._builder is None
            and context is self._contexts.get(generation)
        )
        if cuttable:
            base = self._bases.get(generation)
            base = base() if base is not None else None
        if (
            base is not None
            and base.ctx is context
            and tau >= base.tau
            and base.cuttable
        ):
            built = base.cut(tau)
        else:
            build = self._builder.build if self._builder else CompressedRepresentation
            built = build(
                context.view, context.db, tau=tau, weights=weights, context=context
            )
            if cuttable:
                self._bases[generation] = weakref.ref(built)
        with self._lock:
            self._total_builds += 1
        self._observe_layout_compile(registration.name, built)
        return built

    def _observe_layout_compile(self, name: str, built) -> None:
        """Record what a fresh build spent compiling kernel layouts."""
        if self._telemetry is not None:
            self._telemetry.histogram(
                "layout_compile_seconds", buckets=LATENCY_BUCKETS, view=name
            ).observe(built.layout_compile_seconds)

    def build_count(self, name: str, tau: Optional[float] = None) -> int:
        """How many times ``(name, τ)`` was actually built (cache misses)."""
        key = self._lookup(name, tau)[2]
        with self._lock:
            return self._build_counts.get(key, 0)

    def total_builds(self) -> int:
        """Builds over the server's lifetime (monotonic — unregistering a
        view prunes its per-key counters but never this total)."""
        with self._lock:
            return self._total_builds

    def invalidate(self, name: str) -> int:
        """Drop all cached structures of one view; returns entries dropped.

        The key match and removal are one atomic cache operation
        (:meth:`~repro.engine.cache.RepresentationCache.invalidate_matching`),
        so builds or evictions racing this call cannot make the sweep
        iterate a stale key snapshot. SchemaError for an unknown view.
        """
        self._lookup(name)
        return self._cache.invalidate_matching(lambda key: key[0] == name)

    # ------------------------------------------------------------------
    # serving (the two primitives; Serving adds the materializing wrappers)
    # ------------------------------------------------------------------
    def open(
        self,
        request: Union[AccessRequest, str],
        access: Optional[Sequence] = None,
        limit: Optional[int] = None,
        start_after: Optional[Sequence] = None,
        tau: Optional[float] = None,
        measure: bool = False,
    ) -> AnswerCursor:
        """Open a streaming cursor over one access request — the primitive.

        Accepts a ready :class:`~repro.engine.api.AccessRequest` or the
        ``open(name, access, ...)`` shorthand. Tuples stream lazily in
        lexicographic head order; ``limit=k`` enumerates O(k) tuples,
        ``start_after=token`` re-enters mid-traversal via the
        structure's one-delay-unit seek (see
        :meth:`~repro.core.structure.CompressedRepresentation.enumerate_from`),
        and ``measure=True`` threads a
        :class:`~repro.joins.generic_join.JoinCounter` so
        :meth:`~repro.engine.api.AnswerCursor.stats` reports logical
        delay. ``answer``/``answer_batch``/``serve_stream`` are thin
        materializing wrappers over this.
        """
        started = time.perf_counter()
        request = as_request(
            request,
            access,
            limit=limit,
            start_after=start_after,
            tau=tau,
            measure=measure,
        )
        representation, hold = self._resolve(request.view, request.tau, 1)
        with hold:
            cursor = open_cursor(representation, request)
            if self._telemetry is not None:
                self._kernel_counter(request.view).inc()
                self._instrument_cursor(cursor, request, started, mode="open")
            hold.keep([cursor])
        return cursor

    def _handles(self, key: Tuple, make: Callable[[Telemetry], Tuple]) -> Tuple:
        """Metric handles resolved once per ``key``, then memoised.

        Registry lookups sort labels and verify buckets under a lock,
        which is too much work to repeat on every cursor close in the
        hot path. Races are benign — both writers cache identical
        handles.
        """
        handles = self._metric_handles.get(key)
        if handles is None:
            handles = self._metric_handles[key] = make(self._telemetry)
        return handles

    def _kernel_counter(self, view: str):
        """Resolved ``kernel_enumerations_total`` handle for ``view``.

        Every structure the server holds is walked by the columnar
        kernel, so ``path`` has the one value it always had for them.
        """
        return self._handles(
            ("kernel", view),
            lambda telemetry: (
                telemetry.counter(
                    "kernel_enumerations_total", view=view, path="columnar"
                ),
            ),
        )[0]

    def _cursor_metrics(self, view: str, mode: str) -> Tuple:
        """Resolved (requests, answers, latency, gap) metric handles."""
        return self._handles(
            ("cursor", view, mode),
            lambda telemetry: (
                telemetry.counter("requests_total", view=view, mode=mode),
                telemetry.counter("answers_total", view=view),
                telemetry.histogram(
                    "serve_seconds", buckets=LATENCY_BUCKETS, view=view
                ),
                telemetry.histogram(
                    "delay_step_gap", buckets=GAP_BUCKETS, view=view
                ),
            ),
        )

    def _instrument_cursor(
        self,
        cursor: AnswerCursor,
        request: AccessRequest,
        started: float,
        mode: str,
    ) -> None:
        # Counts at open; latency/gap observations ride the close hook,
        # which fires exactly once on close or exhaustion — after the
        # cursor's stats are final.
        requests, answers, latency, gap = self._cursor_metrics(
            request.view, mode
        )
        requests.inc()

        def finalize() -> None:
            stats = cursor.stats()
            answers.inc(stats.outputs)
            latency.observe(time.perf_counter() - started)
            if request.measure:
                gap.observe(stats.step_max_gap)

        cursor.add_close_hook(finalize)

    def _instrument_scan(
        self,
        view: str,
        scan: SharedScan,
        scan_cursors: Sequence[AnswerCursor],
        requests: Sequence[AccessRequest],
        started: float,
    ) -> None:
        # Lane/state counts are known at construction; pruning accrues
        # while the group drains, so it is read once, when the group's
        # last cursor closes.
        telemetry = self._telemetry
        initial = scan.stats()
        telemetry.counter("shared_scan_lanes_total", view=view).inc(
            initial.requests
        )
        telemetry.counter("shared_scan_states_total", view=view).inc(
            initial.states
        )
        remaining = [len(scan_cursors)]
        scan_lock = named_lock("server.shared_scan")

        def finalize_scan() -> None:
            with scan_lock:
                remaining[0] -= 1
                if remaining[0]:
                    return
            telemetry.counter("shared_scan_pruned_total", view=view).inc(
                scan.stats().pruned_states
            )

        for request, cursor in zip(requests, scan_cursors):
            self._instrument_cursor(cursor, request, started, mode="batch")
            cursor.add_close_hook(finalize_scan)

    def open_batch(
        self, requests: Iterable[Union[AccessRequest, str]]
    ) -> List[AnswerCursor]:
        """Open cursors for a whole request batch — the batch primitive.

        Requests are grouped by ``(view, τ)``; each group is resolved
        (and, for a versioned view, pinned) once and handed to one
        :class:`~repro.engine.shared_scan.SharedScan`, which
        deduplicates it: every distinct ``(access, resume point)`` pair
        is one lazily started solo enumeration — the walk :meth:`open`
        rides — and duplicate requests are lanes of the same one. The
        returned cursors align with the submitted requests and behave
        exactly like :meth:`open`'s — lazy, limit/resume/measure-aware;
        pulling one advances no other request's enumeration. Only
        duplicates of one request are tied together: pulling one
        buffers its rows for the others, an error in their enumeration
        surfaces on each of them, and they must be consumed from one
        thread, as with any generator.
        """
        started = time.perf_counter()
        batch = [as_request(request) for request in requests]
        cursors: List[Optional[AnswerCursor]] = [None] * len(batch)
        groups: Dict[Tuple[str, Optional[float]], List[int]] = {}
        for index, request in enumerate(batch):
            groups.setdefault((request.view, request.tau), []).append(index)
        # A group that fails to open closes the groups opened before it.
        with Hold() as opened:
            for (view, tau), indexes in groups.items():
                group = [batch[index] for index in indexes]
                # A versioned view's group pins the current serving version
                # once per cursor; each close hook drops its own pin, and
                # the last release retires a drained version.
                representation, hold = self._resolve(view, tau, len(group))
                with hold:
                    scan = SharedScan(representation, group)
                    scan_cursors = hold.keep(scan.cursors())
                opened.opened += scan_cursors
                for index, cursor in zip(indexes, scan_cursors):
                    cursors[index] = cursor
                if self._telemetry is not None:
                    self._kernel_counter(view).inc(len(group))
                    self._instrument_scan(
                        view, scan, scan_cursors, group, started
                    )
        return cursors

    # ------------------------------------------------------------------
    # life cycle and introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release owned resources: the build pool and owned telemetry.

        Serving keeps working afterwards (builds fall back in-process);
        shared builders and shared telemetry are the owner's to close.
        An owned telemetry instance (``telemetry=True``) gets its final
        flush here, so its persisted history covers the whole session.
        """
        if self._owns_builder and self._builder is not None:
            self._builder.close()
        if self._owns_telemetry and self._telemetry is not None:
            self._telemetry.close()

    @property
    def builder(self) -> Optional[ParallelBuilder]:
        """The process-parallel build pool, if any."""
        return self._builder

    @property
    def telemetry(self) -> Optional[Telemetry]:
        """The telemetry instance instrumenting this server, if any."""
        return self._telemetry

    @property
    def snapshot_store(self) -> Optional[SnapshotStore]:
        """The warm-start snapshot tier, if a ``snapshot_dir`` was given."""
        return self._cache.snapshot_store

    @property
    def cache(self) -> RepresentationCache:
        """The representation cache behind this server."""
        return self._cache

    @property
    def cache_stats(self) -> CacheStats:
        """A point-in-time copy of the cache's lifetime counters."""
        return self._cache.stats_snapshot()
