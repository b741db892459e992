"""The asyncio serving front end: multiplex request streams over one engine.

The compressed representations only pay off when a resident structure
amortizes over many access requests;
:class:`~repro.engine.server.ViewServer` keeps structures alive but serves
from the caller's thread. :class:`AsyncViewServer` puts an event loop in
front: builds and batch answering run on a bounded
``ThreadPoolExecutor`` (builds already carry the single-build guarantee
and enumeration is lock-free for readers, so worker threads never
contend), a bounded semaphore applies backpressure to over-eager
producers, and every served batch reports its queue and service delay.

The back end is any :class:`~repro.engine.server.Serving` — a plain
``ViewServer``, a sharded facade, a test fake — and there is one path
for all of them (``serve`` and ``answer_requests`` share it): each batch
is one task on the pool, the back end's own
:meth:`~repro.engine.server.Serving.drain`, which opens the batch with
its ``open_batch``. A sharded back end plans it per shard there and
merges a scattered request's per-shard streams lazily, exactly as on
the calling thread. This module never plans, pins or merges: what a
batch costs the back end, and what it counts, is the same whichever
executor runs it.

Read replicas and admission
---------------------------
A plain back end can be fronted by
:class:`~repro.engine.replica.ReplicaServer` instances (``replicas=``):
read batches rotate across them round-robin, while registration still
goes everywhere, so every replica serves the same views from its
shipped snapshots. Admission is one ``max_pending`` semaphore: a batch
holds one slot while it drains, and its wait for the slot counts as
queue time.

The front end never builds its back end: it wraps a ``Serving`` the
caller made (``AsyncViewServer(ViewServer(db, ...))``) and owns, so the
cache, snapshot and build-pool knobs are set in one place.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import asynccontextmanager
from dataclasses import dataclass
from functools import partial
from typing import (
    AsyncIterator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.database.catalog import Database
from repro.engine.api import AccessRequest, as_request
from repro.engine.server import (
    BatchResult,
    Registration,
    Serving,
    ServingReport,
    ViewServer,
    distinct_requests,
    register_everywhere,
)
from repro.engine.telemetry import LATENCY_BUCKETS, Telemetry
from repro.exceptions import ParameterError
from repro.query.adorned import AdornedView
from repro.query.parser import parse_view
from repro.workloads.streams import batched


@dataclass(frozen=True)
class AsyncBatchResult:
    """One served batch plus its life-cycle timing.

    ``queue_seconds`` spans submission to a worker picking the batch up
    (semaphore wait + executor queueing — the backpressure delay);
    ``service_seconds`` spans that pickup to the back end's ``drain``
    returning: the whole batch, every shard's part and the merge.
    """

    result: BatchResult
    queue_seconds: float
    service_seconds: float
    replica: Optional[int] = None  # which read replica served it, if any

    @property
    def turnaround_seconds(self) -> float:
        """Submission-to-done wall time (queue plus service)."""
        return self.queue_seconds + self.service_seconds


@dataclass(frozen=True)
class AsyncServingReport(ServingReport):
    """A :class:`~repro.engine.server.ServingReport` plus queue/service time.

    The stream figures are the back end's own
    (:meth:`~repro.engine.server.Serving.stream_report`); the
    queue/service statistics aggregate the per-batch
    :class:`AsyncBatchResult` timings.
    """

    queue_seconds_max: float
    queue_seconds_mean: float
    service_seconds_mean: float


def _timed(work):
    """``(work(), pickup time, finish time)`` — one worker-pool unit."""
    started = time.perf_counter()
    return work(), started, time.perf_counter()


def _succeeded(outcomes: List) -> List:
    """``outcomes``, or the first failure among them, in order, raised."""
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class AsyncViewServer:
    """Async facade over any :class:`~repro.engine.server.Serving` back end.

    Parameters
    ----------
    backend:
        The back end to wrap — plain, sharded, or anything else that
        implements ``Serving``. It stays the caller's: :meth:`close`
        leaves it open. A bare :class:`~repro.database.catalog.Database`
        is refused; wrap ``ViewServer(db, ...)`` instead.
    max_workers:
        Thread-pool width: how many batches (and stream pulls) drain at
        once, each one task; readers never block each other, so a
        handful suffices.
    max_pending:
        Backpressure bound: at most this many :meth:`serve` calls may be
        in flight (queued + executing). Further callers — and
        :meth:`serve_stream`'s intake — wait.
    replicas:
        Read replicas (typically
        :class:`~repro.engine.replica.ReplicaServer` instances) that
        read batches rotate across, round-robin. Only valid in front of
        a plain ``ViewServer``, whose ``drain`` a replica stands in
        for — a sharded back end already is its own fan-out layer. Replicas
        are caller-owned (``close()`` leaves them alone); registration
        through this facade reaches every replica, so they stay in sync.
    telemetry:
        A :class:`~repro.engine.telemetry.Telemetry` instance, which
        stays the caller's to close; ``None`` adopts the backend's own
        sink when it has one.
        The front end records ``async_queue_depth``,
        ``async_queue_seconds`` / ``async_service_seconds``,
        ``admission_waits_total`` and ``balancer_picks_total{replica}``
        on top of whatever the backend records.

    One event loop at a time: the internal semaphore binds to the loop
    of the first ``await``, so drive a given instance from a single
    ``asyncio.run`` (or call :meth:`reset` between loops).
    """

    def __init__(
        self,
        backend: Serving,
        max_workers: int = 4,
        max_pending: int = 32,
        replicas: Sequence[ViewServer] = (),
        telemetry: Optional[Telemetry] = None,
    ):
        if isinstance(backend, Database):
            raise ParameterError(
                "AsyncViewServer wraps a Serving back end, not a database; "
                "build the back end first: AsyncViewServer(ViewServer(db, ...))"
            )
        if max_workers < 1:
            raise ParameterError(f"max_workers must be >= 1, got {max_workers}")
        if max_pending < 1:
            raise ParameterError(f"max_pending must be >= 1, got {max_pending}")
        if telemetry is None:
            # Wrapping an instrumented backend: record into its sink so
            # front-end and engine metrics land in one registry.
            telemetry = getattr(backend, "telemetry", None)
        self._telemetry = telemetry
        if replicas and not isinstance(backend, ViewServer):
            raise ParameterError(
                "replicas balance a plain backend; a sharded backend "
                "already fans out per shard (replicate the shards "
                "themselves instead)"
            )
        self.backend: Serving = backend
        self.max_pending = max_pending
        self._replicas: Tuple[ViewServer, ...] = tuple(replicas)
        # Loop-confined rotation: mutated only on the event-loop thread
        # (executor work happens after the pick), so no lock.
        self._rr = 0
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._semaphore = asyncio.Semaphore(max_pending)

    # ------------------------------------------------------------------
    # passthrough registration
    # ------------------------------------------------------------------
    def register(
        self,
        view: Union[AdornedView, str],
        tau: Optional[float] = None,
        space_budget: Optional[float] = None,
        delay_budget: Optional[float] = None,
        name: Optional[str] = None,
    ) -> str:
        """Register a view on the backend and every replica, or on none.

        Replicas serve the same views under the same knobs (identical
        knobs -> identical snapshot labels -> hydration finds the
        primary's shipped structures); pre-registered replicas keep
        their registration. A server that refuses (say, a replica whose
        database lacks a relation) leaves the name registered nowhere
        it was not before, so the call can simply be retried.
        """
        if isinstance(view, str):
            view = parse_view(view)
        resolved = name or view.name
        register_everywhere(
            resolved,
            [self.backend]
            + [r for r in self._replicas if resolved not in r.views()],
            lambda server: server.register(
                view,
                tau=tau,
                space_budget=space_budget,
                delay_budget=delay_budget,
                name=resolved,
            ),
        )
        return resolved

    def registration(self, name: str) -> Registration:
        """The backend's registration record for one view."""
        return self.backend.registration(name)

    def views(self) -> Tuple[str, ...]:
        """Names of every registered view, from the backend."""
        return self.backend.views()

    @property
    def replicas(self) -> Tuple[ViewServer, ...]:
        """The read replicas this facade rotates read batches across."""
        return self._replicas

    @property
    def telemetry(self) -> Optional[Telemetry]:
        """The telemetry sink (owned, shared, or adopted), or ``None``."""
        return self._telemetry

    # ------------------------------------------------------------------
    # balancing and admission
    # ------------------------------------------------------------------
    def _pick_replica(self) -> Tuple[Optional[int], Optional[ViewServer]]:
        """``(index, replica)`` the next read goes to, round-robin.

        ``(None, None)`` without replicas: the back end serves itself.
        """
        if not self._replicas:
            return None, None
        replica = self._rr % len(self._replicas)
        self._rr += 1
        if self._telemetry is not None:
            self._telemetry.counter(
                "balancer_picks_total", replica=str(replica)
            ).inc()
        return replica, self._replicas[replica]

    def _queue_depth(self, delta: int) -> None:
        if self._telemetry is not None:
            self._telemetry.gauge("async_queue_depth").add(delta)

    @asynccontextmanager
    async def _admitted(self):
        """Admission for one batch: one slot of the ``max_pending`` semaphore.

        A slot that was busy when asked for counts one
        ``admission_waits_total``; the batch sits in
        ``async_queue_depth`` for the whole span.
        """
        self._queue_depth(+1)
        try:
            if self._semaphore.locked() and self._telemetry is not None:
                self._telemetry.counter("admission_waits_total").inc()
            async with self._semaphore:
                yield
        finally:
            self._queue_depth(-1)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    async def serve(
        self,
        name: str,
        accesses: Iterable[Sequence],
        tau: Optional[float] = None,
        measure: bool = True,
    ) -> AsyncBatchResult:
        """Serve one batch on the thread pool; await the merged result.

        :meth:`answer_requests`' one task over the batch's distinct
        accesses, with each cursor's stats kept and the whole assembled
        by the back end into a
        :class:`~repro.engine.server.BatchResult`, exactly as its own
        ``answer_batch`` would. The wait for an admission slot counts
        as queue time.
        """
        batch, unique, requests = distinct_requests(
            name, accesses, tau, measure
        )
        submitted = time.perf_counter()
        async with self._admitted():
            drained, started, finished, replica = await self._drain(requests)
        served = AsyncBatchResult(
            result=self.backend.batch_result(name, batch, unique, drained),
            queue_seconds=started - submitted,
            service_seconds=finished - started,
            replica=replica,
        )
        if self._telemetry is not None:
            self._telemetry.histogram(
                "async_queue_seconds", buckets=LATENCY_BUCKETS
            ).observe(served.queue_seconds)
            self._telemetry.histogram(
                "async_service_seconds", buckets=LATENCY_BUCKETS
            ).observe(served.service_seconds)
        return served

    async def answer_requests(
        self,
        requests: Iterable[Union[AccessRequest, str]],
    ) -> List[List[Tuple]]:
        """Serve a typed request batch as one task on the pool.

        The async face of ``open_batch``: the batch is NOT split into
        per-request tasks — it is the back end's one
        :meth:`~repro.engine.server.Serving.drain` on a worker, so one
        thread pays one resolve and one pin per ``(view, τ)`` (per shard,
        behind the sharded facade) for many requests. Returns the
        materialized answers aligned with the submitted requests, each
        honoring its own ``limit``/``start_after`` knobs. Holds one unit
        of the server's semaphore, like :meth:`serve`; with read
        replicas the whole batch drains on the next replica in rotation.
        """
        batch = [as_request(request) for request in requests]
        async with self._admitted():
            drained, *_ = await self._drain(batch)
        return [rows for rows, _ in drained]

    async def _drain(self, batch: List[AccessRequest]):
        """``batch`` drained on one worker by the next replica or the back end.

        Returns ``(drained, started, finished, replica)``: per request its
        ``(rows, stats)`` (stats only for measured requests), the
        worker's pickup and finish times, and the replica picked.
        """
        loop = asyncio.get_running_loop()
        replica, reader = self._pick_replica()
        drained, started, finished = await loop.run_in_executor(
            self._executor, _timed, partial((reader or self.backend).drain, batch)
        )
        return drained, started, finished, replica

    async def stream(
        self,
        request: Union[AccessRequest, str],
        access: Optional[Sequence] = None,
        chunk_size: int = 32,
        limit: Optional[int] = None,
        start_after: Optional[Sequence] = None,
        tau: Optional[float] = None,
        measure: bool = False,
    ) -> AsyncIterator[List[Tuple]]:
        """Stream one access request as bounded chunks off the worker pool.

        The async face of the cursor API: the back end's ``open`` runs
        on the thread pool, then each ``chunk_size`` page is pulled with
        :meth:`~repro.engine.api.AnswerCursor.fetchmany` — also on the
        pool, so the event loop never blocks on enumeration. Every pull
        holds one unit of the server's semaphore, which is the same
        backpressure bound batches obey: a slow consumer parks the
        cursor between chunks (nothing is enumerated ahead of demand)
        rather than buffering the answer. The underlying cursor is
        closed when the generator finishes or is closed early.
        """
        if chunk_size < 1:
            raise ParameterError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        request = as_request(
            request,
            access,
            limit=limit,
            start_after=start_after,
            tau=tau,
            measure=measure,
        )
        loop = asyncio.get_running_loop()
        _, reader = self._pick_replica()
        async with self._semaphore:
            cursor = await loop.run_in_executor(
                self._executor, (reader or self.backend).open, request
            )
        try:
            while True:
                async with self._semaphore:
                    chunk = await loop.run_in_executor(
                        self._executor, cursor.fetchmany, chunk_size
                    )
                if not chunk:
                    break
                yield chunk
        finally:
            cursor.close()

    async def serve_stream(
        self,
        name: str,
        accesses: Union[Iterable[Sequence], AsyncIterator[List[Tuple]]],
        batch_size: int = 32,
        tau: Optional[float] = None,
        measure: bool = True,
    ) -> AsyncServingReport:
        """Drain a stream, keeping up to ``max_pending`` batches in flight.

        ``accesses`` is either a plain iterable of access tuples (chunked
        into ``batch_size`` batches here) or an async iterator *of
        batches* — e.g. :func:`repro.workloads.streams.arrivals`, which
        paces batches like live traffic. Intake is backpressured: once
        ``max_pending`` batches are in flight the producer is not read
        until one completes.
        """
        finish = self.backend.stream_report()
        pending = set()
        results: List[AsyncBatchResult] = []

        async def flush(keep: int) -> None:
            nonlocal pending
            while len(pending) > keep:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                # Retrieve every completed task's outcome before raising,
                # so sibling failures in the same round are not dropped as
                # never-retrieved exceptions.
                results.extend(_succeeded([t.exception() or t.result() for t in done]))

        async def submit(chunk: List[Tuple]) -> None:
            await flush(self.max_pending - 1)
            pending.add(
                asyncio.create_task(
                    self.serve(name, chunk, tau=tau, measure=measure)
                )
            )

        try:
            if hasattr(accesses, "__aiter__"):
                async for chunk in accesses:
                    await submit([tuple(access) for access in chunk])
            else:
                for chunk in batched(accesses, batch_size):
                    await submit(chunk)
            await flush(0)
        except BaseException:
            # A failed batch must not strand its siblings: cancel and
            # drain everything still in flight before propagating.
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            raise

        queue_times = [r.queue_seconds for r in results]
        return AsyncServingReport(
            **vars(finish(r.result for r in results)),
            queue_seconds_max=max(queue_times, default=0.0),
            queue_seconds_mean=_mean(queue_times),
            service_seconds_mean=_mean([r.service_seconds for r in results]),
        )

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Re-arm the semaphore for a fresh event loop (idle servers only)."""
        self._semaphore = asyncio.Semaphore(self.max_pending)

    def close(self) -> None:
        """Shut the thread pool down (idempotent); the back end stays open."""
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncViewServer":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        # shutdown(wait=True) joins worker threads; keep that off the
        # event loop so sibling tasks are not frozen behind a slow build.
        await asyncio.get_running_loop().run_in_executor(None, self.close)
