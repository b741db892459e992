"""The six seeded workloads, each served through the engine's public API.

A workload generates its database and request list from the seed alone
(:meth:`Workload.generate`), sets the engine up cold
(:meth:`Workload.setup`), serves the fixed request list once per pass —
untraced through the calls a caller would make, or traced through the
same calls decomposed into their public layer entry points — and checks
a captured pass against ``tests/oracle.py``. The engine only ever sees
databases, views and requests: no workload name or seed crosses into it.

Sizes are chosen so a cold set-up takes about a second (it is repeated
to take a median) and a pass 0.2–1 s on two cores: the machine's speed
is sampled between passes (see ``e2e_harness.reference_seconds``), so
short passes track its drift closely and leave many passes to take a
median over.
"""

from __future__ import annotations

import asyncio
import heapq
import random
import shutil
import statistics
import tempfile
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from oracle import oracle_answer
from repro import (
    AccessRequest,
    AsyncViewServer,
    ReplicaServer,
    ShardedViewServer,
    ViewServer,
    encode_snapshot,
    infer_shard_key,
    ship_deltas,
)
from repro.database.relation import Relation
from repro.engine.api import open_cursor
from repro.engine.cache import representation_cells
from repro.engine.dynamic_serving import FrozenDynamicView
from repro.engine.shared_scan import SharedScan, SharedScanStats
from repro.engine.telemetry import Telemetry
from repro.exceptions import ReproError
from repro.workloads import (
    prefix_batch_requests,
    triangle_database,
    triangle_view,
    update_stream,
)
from repro.workloads.generators import zipf_cumulative_weights

from e2e_harness import (
    OUT_DIR,
    BenchmarkError,
    PassResult,
    Samples,
    Tracer,
    at_reference_speed,
    clock,
)

Answer = List[Tuple]
OracleIndex = Dict[Tuple, Answer]


# ----------------------------------------------------------------------
# the oracle, indexed
# ----------------------------------------------------------------------
def oracle_rows(db) -> Answer:
    """The oracle's full triangle result over ``db``.

    ``oracle_answer`` re-evaluates the whole join per call, so it is
    called once per database — for the all-free adornment, whose single
    answer is the full result — and :func:`oracle_index` groups the rows.
    """
    return oracle_answer(triangle_view("fff"), db, ())


def oracle_index(rows: Answer, pattern: str) -> OracleIndex:
    """``{access: sorted answers}`` of the triangle view under ``pattern``."""
    bound = [i for i, ch in enumerate(pattern) if ch == "b"]
    free = [i for i, ch in enumerate(pattern) if ch == "f"]
    index: OracleIndex = {}
    for row in rows:
        index.setdefault(tuple(row[i] for i in bound), []).append(
            tuple(row[i] for i in free)
        )
    for rows in index.values():
        rows.sort()
    return index


def zipf_accesses(
    index: OracleIndex, count: int, skew: float, rng: random.Random
) -> List[Tuple]:
    """``count`` Zipf-popular productive accesses, typical answers hottest.

    A Zipf stream spends a third of its requests on three keys, so which
    keys those are decides the work per request. Ranking the productive
    accesses by how far their answer size is from the median puts
    typical answers at the hot ranks and the extremes in the tail:
    popularity stays as skewed, but the work per request no longer
    depends on which keys a seed happens to sort first — the benchmark's
    acceptance spread is taken across seeds.
    """
    median = statistics.median(map(len, index.values()))
    ranked = sorted(index, key=lambda key: (abs(len(index[key]) - median), key))
    return rng.choices(
        ranked, cum_weights=zipf_cumulative_weights(len(ranked), skew), k=count
    )


def guaranteed_miss(index: OracleIndex, width: int, rng: random.Random) -> Tuple:
    """An access tuple outside the productive set (negative values)."""
    while True:
        miss = tuple(-1 - rng.randrange(1_000_000) for _ in range(width))
        if miss not in index:
            return miss


def expected_answer(index: OracleIndex, request: AccessRequest) -> Answer:
    """The oracle's answer with the request's resume point and limit applied."""
    rows = index.get(request.access, [])
    if request.start_after is not None:
        rows = [row for row in rows if row > request.start_after]
    if request.limit is not None:
        rows = rows[: request.limit]
    return rows


# ----------------------------------------------------------------------
# serving one request, untraced and traced
# ----------------------------------------------------------------------
def serve(
    opener: Callable, request: AccessRequest, chunk: Optional[int],
    samples: Samples,
) -> Answer:
    """One request as a caller issues it: open, first tuple, drain, close."""
    started = clock()
    cursor = opener(request)
    rows = cursor.fetchmany(1)
    first = clock()
    if chunk is None:
        rows += cursor.fetchall()
    else:
        page = cursor.fetchmany(chunk)
        while page:
            rows += page
            page = cursor.fetchmany(chunk)
    cursor.close()
    done = clock()
    samples.latency.append(done - started)
    samples.first_tuple.append(first - started)
    return rows


def serve_batch(
    open_batch: Callable, batch: Sequence[AccessRequest], samples: Samples
) -> List[Answer]:
    """One batch through ``open_batch``, every cursor drained and closed.

    Each request of the batch waited for the batch's return, so each is
    one latency (and first-tuple) sample of that duration.
    """
    started = clock()
    answers = []
    for cursor in open_batch(batch):
        answers.append(cursor.fetchall())
        cursor.close()
    elapsed = clock() - started
    samples.latency.extend([elapsed] * len(batch))
    samples.first_tuple.extend([elapsed] * len(batch))
    return answers


class TimedEnumeration:
    """Representation proxy that accumulates time spent inside ``core``.

    ``open_cursor`` only needs ``enumerate``/``enumerate_after``; the
    proxy wraps the iterator they return so every ``next`` on it is
    timed. :meth:`take` hands the accumulated seconds to the enclosing
    ``engine.api`` span as a child span, which is how one ``fetchall``
    splits into cursor overhead and enumeration work from the outside.
    """

    supports_resume = True

    def __init__(self, inner, measure: bool):
        self.inner = inner
        self.busy = 0.0
        if isinstance(inner, FrozenDynamicView) and not inner.kernel_ready:
            self.span = "core.dynamic.enumerate"
        elif measure or not getattr(inner, "kernel_ready", False):
            self.span = "core.structure.enumerate"
        else:
            self.span = "core.kernel.enumerate"

    def enumerate(self, access, counter=None):
        return self._timed(self.inner.enumerate(access, counter=counter))

    def enumerate_after(self, access, last, counter=None):
        return self._timed(
            self.inner.enumerate_after(access, last, counter=counter)
        )

    def _timed(self, source):
        source = iter(source)
        while True:
            started = clock()
            try:
                row = next(source)
            except StopIteration:
                self.busy += clock() - started
                return
            self.busy += clock() - started
            yield row

    def take(self) -> Tuple[str, float]:
        """``(span name, seconds)`` since the last take."""
        busy, self.busy = self.busy, 0.0
        return self.span, busy


class TraceCounts:
    """Counts taken at the span boundaries of one traced pass."""

    def __init__(self) -> None:
        self.kernel_requests = 0
        self.requests = 0
        self.max_step_gap = 0
        self.scan_stats: List = []

    def saw(self, request: AccessRequest, representation) -> None:
        self.requests += 1
        if not request.measure and getattr(
            representation, "kernel_ready", False
        ):
            self.kernel_requests += 1


def serve_traced(
    server, request: AccessRequest, chunk: Optional[int], tracer: Tracer,
    request_id: int, counts: TraceCounts,
) -> Answer:
    """``ViewServer.open`` + drain, decomposed into its public layer calls."""
    span = tracer.begin("engine.server.representation", request_id)
    representation = server.representation(request.view, request.tau)
    tracer.end(span)
    counts.saw(request, representation)
    span = tracer.begin("engine.api.open_cursor", request_id)
    timed = TimedEnumeration(representation, request.measure)
    cursor = open_cursor(timed, request)
    tracer.end(span)
    span = tracer.begin("engine.api.fetchmany", request_id)
    rows = cursor.fetchmany(1)
    tracer.end(span, timed.take())
    span = tracer.begin("engine.api.fetchall", request_id)
    if chunk is None:
        rows += cursor.fetchall()
    else:
        page = cursor.fetchmany(chunk)
        while page:
            rows += page
            page = cursor.fetchmany(chunk)
    cursor.close()
    tracer.end(span, timed.take())
    if request.measure:
        counts.max_step_gap = max(
            counts.max_step_gap, cursor.stats().step_max_gap
        )
    return rows


def serve_batch_traced(
    server, batch: Sequence[AccessRequest], tracer: Tracer, request_id: int,
    counts: TraceCounts,
) -> List[Answer]:
    """``ViewServer.open_batch`` + drain, decomposed (one view per batch)."""
    view, tau = batch[0].view, batch[0].tau
    span = tracer.begin("engine.server.representation", request_id)
    representation = server.representation(view, tau)
    tracer.end(span)
    for request in batch:
        counts.saw(request, representation)
    span = tracer.begin("engine.shared_scan.open", request_id)
    scan = SharedScan(representation, batch)
    cursors = scan.cursors()
    tracer.end(span)
    answers = []
    span = tracer.begin("engine.shared_scan.drain", request_id)
    for cursor in cursors:
        answers.append(cursor.fetchall())
        cursor.close()
    tracer.end(span)
    counts.scan_stats.append(scan.stats())
    for cursor in cursors:
        if cursor.request.measure:
            counts.max_step_gap = max(
                counts.max_step_gap, cursor.stats().step_max_gap
            )
    return answers


# ----------------------------------------------------------------------
# the workload protocol
# ----------------------------------------------------------------------
class Workload:
    """One seeded traffic mix; subclasses fill in the six hooks."""

    name = ""

    def __init__(self, seed: int, keep_probe_state: bool = False):
        self.seed = seed
        #: Traced runs keep set-up by-products the probes read.
        self.keep_probe_state = keep_probe_state
        self.scratch: Optional[Path] = None
        #: Seconds per named set-up step of the latest :meth:`setup`.
        self.steps: Dict[str, float] = {}
        #: Reference-speed seconds of every cold set-up of this run.
        self.setup_samples: List[float] = []
        #: Structure builds the latest cold set-up needed.
        self.setup_builds = 0
        self.trace_counts = TraceCounts()

    # -- life cycle ----------------------------------------------------
    def generate(self) -> None:
        """Build the database and request list from ``self.seed``."""
        raise NotImplementedError

    def setup(self) -> None:
        """Cold set-up: until the first request could be served."""
        raise NotImplementedError

    def cold_setup(self) -> None:
        """:meth:`setup`, timed into ``self.setup_samples``."""
        _, seconds, speed = at_reference_speed(self.setup)
        self.setup_samples.append(seconds * speed)
        self.steps = {step: spent * speed for step, spent in self.steps.items()}
        self.setup_builds = self.total_builds()

    def teardown(self) -> None:
        """Release servers and the scratch directory of one set-up."""
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)
            self.scratch = None

    def fresh_scratch(self) -> Path:
        """An empty directory inside the checkout for snapshot tiers."""
        root = OUT_DIR / "tmp"
        root.mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix=self.name + "-", dir=root))
        return self.scratch

    def timed_step(self, step: str, call: Callable):
        """Run one set-up step, adding its seconds to ``self.steps``."""
        started = clock()
        result = call()
        self.steps[step] = self.steps.get(step, 0.0) + clock() - started
        return result

    # -- passes --------------------------------------------------------
    def before_pass(self) -> None:
        """Untimed preparation a pass needs (default: none)."""

    def serve_pass(self, samples: Samples) -> Tuple[int, int, int]:
        """Serve the request list once: (operations, tuples, failed)."""
        raise NotImplementedError

    def serve_traced_pass(self, tracer: Tracer) -> Tuple[int, int, int]:
        """The same pass through the decomposed, span-wrapped calls."""
        raise NotImplementedError

    def cache_stats(self):
        """The serving stack's cache counters (summed over shards)."""
        return self.server.cache_stats

    def total_builds(self) -> int:
        """Structure builds so far across the serving stack."""
        return self.server.total_builds()

    def _run(self, body: Callable) -> PassResult:
        self.before_pass()
        stats_before = self.cache_stats()
        builds_before = self.total_builds()
        (operations, tuples, failed), wall, speed = at_reference_speed(body)
        cache = self.cache_stats().delta(stats_before)
        return PassResult(
            raw_wall=wall,
            speed=speed,
            operations=operations,
            tuples=tuples,
            failed=failed,
            counts={
                "operations": operations,
                "tuples": tuples,
                "cache_hits": cache.hits,
                "cache_misses": cache.misses,
                "cache_evictions": cache.evictions,
                "cache_disk_hits": cache.disk_hits,
                "cache_disk_writes": cache.disk_writes,
                "builds": self.total_builds() - builds_before,
            },
        )

    def run_pass(self, samples: Samples) -> PassResult:
        """One untraced pass; its samples are filed at reference speed."""
        result = self._run(lambda: self.serve_pass(samples))
        samples.close_pass(result.speed)
        return result

    def traced_pass(self, tracer: Tracer) -> PassResult:
        """One traced pass; spans of earlier passes are dropped."""
        tracer.reset()
        self.trace_counts = TraceCounts()
        return self._run(lambda: self.serve_traced_pass(tracer))

    # -- after the passes ----------------------------------------------
    def check(self, corrupt: bool) -> Tuple[int, int]:
        """Capture one untimed pass and compare it to the oracle.

        Returns ``(operations checked, operations that failed)``;
        ``corrupt`` damages one captured answer first, which must show
        up as a failure (the checker can fail).
        """
        raise NotImplementedError

    def resident(self) -> List:
        """Every structure resident in memory right now (all shards)."""
        raise NotImplementedError

    def space(self) -> Tuple[int, int]:
        """``(resident cells, stored bytes)`` over :meth:`resident`."""
        cells = stored = 0
        for representation in self.resident():
            cells += representation.space_report().structure_cells
            stored += len(encode_snapshot(representation))
        return cells, stored


def compare(captured: Sequence[Answer], expected: Sequence[Answer]) -> int:
    """How many captured answers differ from the oracle's."""
    return sum(1 for got, want in zip(captured, expected) if got != want)


def corrupt_one(captured: List[Answer]) -> None:
    """Damage one captured answer (``--self-check``)."""
    target = next(
        (i for i, rows in enumerate(captured) if rows), 0
    )
    captured[target] = captured[target][:-1] + [("corrupted",)]


# ----------------------------------------------------------------------
# static workloads: one plain ViewServer, singles plus optional batches
# ----------------------------------------------------------------------
class StaticWorkload(Workload):
    """Requests against one plain ``ViewServer`` whose data never changes."""

    #: ``fetchmany`` page size for drains (``None``: one ``fetchall``).
    chunk: Optional[int] = None

    def __init__(self, seed: int, keep_probe_state: bool = False):
        super().__init__(seed, keep_probe_state)
        self.db = None
        self.server: Optional[ViewServer] = None
        self.requests: List[AccessRequest] = []
        self.batches: List[List[AccessRequest]] = []
        #: ``{serving name: oracle index}`` for every view served.
        self.oracle: Dict[str, OracleIndex] = {}

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        super().teardown()

    def serve_pass(self, samples: Samples) -> Tuple[int, int, int]:
        opener, chunk = self.server.open, self.chunk
        operations = tuples = failed = 0
        for request in self.requests:
            operations += 1
            try:
                tuples += len(serve(opener, request, chunk, samples))
            except ReproError:
                failed += 1
        for batch in self.batches:
            operations += len(batch)
            try:
                answers = serve_batch(self.server.open_batch, batch, samples)
                tuples += sum(map(len, answers))
            except ReproError:
                failed += len(batch)
        return operations, tuples, failed

    def serve_traced_pass(self, tracer: Tracer) -> Tuple[int, int, int]:
        server, chunk, counts = self.server, self.chunk, self.trace_counts
        operations = tuples = failed = 0
        for request_id, request in enumerate(self.requests):
            operations += 1
            try:
                tuples += len(
                    serve_traced(
                        server, request, chunk, tracer, request_id, counts
                    )
                )
            except ReproError:
                failed += 1
        for offset, batch in enumerate(self.batches):
            operations += len(batch)
            try:
                answers = serve_batch_traced(
                    server, batch, tracer, len(self.requests) + offset, counts
                )
                tuples += sum(map(len, answers))
            except ReproError:
                failed += len(batch)
        return operations, tuples, failed

    def check(self, corrupt: bool) -> Tuple[int, int]:
        discard = Samples()
        flat = list(self.requests)
        captured: List[Answer] = []
        for request in self.requests:
            try:
                captured.append(
                    serve(self.server.open, request, self.chunk, discard)
                )
            except ReproError:
                captured.append([("raised",)])
        for batch in self.batches:
            flat += batch
            try:
                captured += serve_batch(self.server.open_batch, batch, discard)
            except ReproError:
                captured += [[("raised",)]] * len(batch)
        if corrupt:
            corrupt_one(captured)
        expected = [
            expected_answer(self.oracle[request.view], request)
            for request in flat
        ]
        return len(flat), compare(captured, expected)

    def views(self) -> List[Tuple[str, Optional[float]]]:
        """Every ``(serving name, tau)`` this workload may have built."""
        raise NotImplementedError

    def resident(self) -> List:
        return [
            self.server.representation(name, tau)
            for name, tau in self.views()
            if self.server.resident(name, tau)
        ]


class PointLookup(StaticWorkload):
    """Small answers: engine overhead and one kernel seek are the cost."""

    name = "point_lookup"
    NODES, EDGES = 120, 4000
    REQUESTS = 6000
    SPACE_BUDGET = 20000

    def generate(self) -> None:
        self.db = triangle_database(self.NODES, self.EDGES, seed=self.seed)
        self.view = triangle_view("bbf")
        index = self.oracle["lookup"] = oracle_index(
            oracle_rows(self.db), "bbf"
        )
        rng = random.Random(self.seed)
        for access in zipf_accesses(index, self.REQUESTS, 1.1, rng):
            if rng.random() < 0.1:
                access = guaranteed_miss(index, 2, rng)
            kind = rng.random()
            if kind < 0.6:
                request = AccessRequest("lookup", access)
            elif kind < 0.9:
                request = AccessRequest(
                    "lookup", access, limit=rng.choice((1, 5, 25))
                )
            else:
                # A resume page: re-enter after the middle answer (misses
                # resume after a token that was never delivered).
                rows = index.get(access)
                token = rows[len(rows) // 2] if rows else (0,)
                request = AccessRequest("lookup", access, start_after=token)
            self.requests.append(request)

    def setup(self) -> None:
        self.steps = {}
        self.server = ViewServer(self.db)
        self.timed_step(
            "register",
            lambda: self.server.register(
                self.view, space_budget=self.SPACE_BUDGET, name="lookup"
            ),
        )
        self.timed_step("prefetch", lambda: self.server.prefetch("lookup"))

    def views(self):
        return [("lookup", None)]


class ScanStream(StaticWorkload):
    """Large drains, unmeasured: run intersections in the kernel do the work."""

    name = "scan_stream"
    NODES, EDGES = 80, 1600
    TAU = 8.0
    DRAINS_PER_KEY, BATCH, FULL_DRAINS = 1, 16, 2
    chunk = 256
    measure = False

    def generate(self) -> None:
        self.db = triangle_database(self.NODES, self.EDGES, seed=self.seed)
        self.bff, self.fff = triangle_view("bff"), triangle_view("fff")
        rows = oracle_rows(self.db)
        self.oracle["bff"] = oracle_index(rows, "bff")
        self.oracle["fff"] = oracle_index(rows, "fff")
        measure = self.measure
        # Every productive key is drained exactly once, in a seeded
        # order: the `bff` view has only 80 keys, and a drawn sample of
        # them made the median drain (and first tuple) a lottery over
        # which keys a seed drew — full coverage leaves only the graph.
        # The pass is kept short (scan_measured serves it in ~0.6 s) so
        # that a run holds many passes to take medians over.
        keys = sorted(self.oracle["bff"]) * self.DRAINS_PER_KEY
        random.Random(self.seed).shuffle(keys)
        self.requests = [
            AccessRequest("bff", access, measure=measure) for access in keys
        ]
        # Two full drains are 2 % of the pass's latency samples, so p99
        # sits inside their population instead of on its edge; the
        # batch's 16 samples leave p50 among the single drains.
        self.requests += [
            AccessRequest("fff", (), measure=measure)
        ] * self.FULL_DRAINS
        self.batches = [
            prefix_batch_requests(
                self.bff, self.db, self.BATCH, seed=self.seed, skew=1.0,
                prefix_len=1, name="bff", measure=measure,
            )
        ]

    def setup(self) -> None:
        self.steps = {}
        self.server = ViewServer(self.db)

        def register() -> None:
            self.server.register(self.bff, tau=self.TAU, name="bff")
            self.server.register(self.fff, tau=self.TAU, name="fff")

        def prefetch() -> None:
            self.server.prefetch("bff")
            self.server.prefetch("fff")

        self.timed_step("register", register)
        self.timed_step("prefetch", prefetch)

    def views(self):
        return [("bff", None), ("fff", None)]


class ScanMeasured(ScanStream):
    """The same requests with ``measure=True``: the reference walk."""

    name = "scan_measured"
    measure = True


class TauChurn(StaticWorkload):
    """A τ ladder larger than the cache: evict, demote, decode from disk."""

    name = "tau_churn"
    NODES, EDGES = 60, 900
    LADDER = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    #: Hot τ per phase; fixed, so every seed churns the cache the same way.
    PHASES = (2.0, 8.0, 32.0, 4.0, 16.0, 64.0)
    PHASE_LENGTH = 200
    COLD_PER_PHASE = 6

    def generate(self) -> None:
        self.db = triangle_database(self.NODES, self.EDGES, seed=self.seed)
        self.view = triangle_view("bbf")
        index = self.oracle["churn"] = oracle_index(
            oracle_rows(self.db), "bbf"
        )
        rng = random.Random(self.seed)
        accesses = zipf_accesses(
            index, self.PHASE_LENGTH * len(self.PHASES), 1.1, rng
        )
        cold_turn = 0
        for phase, hot in enumerate(self.PHASES):
            # 3 % of a phase pins another τ. The seed places them (odd
            # offsets: never adjacent, never first); which τ comes next
            # is a fixed cycle, so the sequence of cache touches — and
            # with it every eviction and disk hit — is the same for
            # every seed, and seeds differ only in data and accesses.
            cold_at = set(
                rng.sample(range(1, self.PHASE_LENGTH, 2), self.COLD_PER_PHASE)
            )
            others = [tau for tau in self.LADDER if tau != hot]
            for offset in range(self.PHASE_LENGTH):
                tau = hot
                if offset in cold_at:
                    tau = others[cold_turn % len(others)]
                    cold_turn += 1
                access = accesses[phase * self.PHASE_LENGTH + offset]
                self.requests.append(AccessRequest("churn", access, tau=tau))

    def setup(self) -> None:
        self.steps = {}
        scratch = self.fresh_scratch()
        # The ladder is built once, on an unbounded server that writes
        # the disk tier; the serving server then starts on that tier
        # with a budget about a third of the ladder fits in.
        ladder = ViewServer(self.db, max_entries=None, snapshot_dir=scratch)
        self.timed_step(
            "register",
            lambda: ladder.register(self.view, tau=8.0, name="churn"),
        )
        built = self.timed_step(
            "prefetch",
            lambda: {
                tau: ladder.representation("churn", tau) for tau in self.LADDER
            },
        )
        self.ladder_cells = {
            tau: rep.space_report().structure_cells
            for tau, rep in built.items()
        }
        budget = representation_cells(built[2.0]) + representation_cells(
            built[8.0]
        )
        self.ladder = built if self.keep_probe_state else None
        self.ladder_builds = ladder.total_builds()
        ladder.close()
        del ladder, built
        self.server = ViewServer(
            self.db, max_entries=None, max_cells=budget, snapshot_dir=scratch
        )
        self.timed_step(
            "register",
            lambda: self.server.register(self.view, tau=8.0, name="churn"),
        )
        self.timed_step(
            "prefetch",
            lambda: self.server.prefetch("churn", self.PHASES[0]),
        )

    def total_builds(self) -> int:
        return self.ladder_builds + self.server.total_builds()

    def views(self):
        return [("churn", tau) for tau in self.LADDER]


# ----------------------------------------------------------------------
# sharded_async
# ----------------------------------------------------------------------
class ShardedAsync(Workload):
    """The full serving stack: async front end over four shards."""

    name = "sharded_async"
    NODES, EDGES = 70, 1200
    TAU = 8.0
    SHARDS = 4
    #: 48 batches a pass: the slowest is 2 % of the latency samples, so
    #: p99 is that batch's typical time, not the tail of its tail.
    REQUESTS, BATCH = 1536, 32
    TOP_K = 25

    def __init__(self, seed: int, keep_probe_state: bool = False):
        super().__init__(seed, keep_probe_state)
        self.sharded: Optional[ShardedViewServer] = None
        self.front: Optional[AsyncViewServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.oracle: Dict[str, OracleIndex] = {}

    def generate(self) -> None:
        self.db = triangle_database(self.NODES, self.EDGES, seed=self.seed)
        self.bff, self.fff = triangle_view("bff"), triangle_view("fff")
        rows = oracle_rows(self.db)
        self.oracle["bff"] = oracle_index(rows, "bff")
        self.oracle["fff"] = oracle_index(rows, "fff")
        accesses = zipf_accesses(
            self.oracle["bff"], self.REQUESTS, 1.0, random.Random(self.seed)
        )
        # Every tenth request is the scatter top-k: a fixed share, so
        # seeds do not differ in how much scatter work a pass holds.
        requests = [
            AccessRequest("fff", (), limit=self.TOP_K)
            if position % 10 == 9
            else AccessRequest("bff", access)
            for position, access in enumerate(accesses)
        ]
        self.batches = [
            requests[start : start + self.BATCH]
            for start in range(0, len(requests), self.BATCH)
        ]

    def setup(self) -> None:
        self.steps = {}
        self.sharded = ShardedViewServer(
            self.db, self.SHARDS, infer_shard_key(self.bff),
            telemetry=Telemetry(None),
        )

        def register() -> None:
            self.sharded.register(self.bff, tau=self.TAU, name="bff")
            self.sharded.register(self.fff, tau=self.TAU, name="fff")

        def prefetch() -> None:
            self.sharded.prefetch("bff")
            self.sharded.prefetch("fff")

        self.timed_step("register", register)
        self.timed_step("prefetch", prefetch)
        self.front = AsyncViewServer(self.sharded, max_workers=2, max_pending=4)
        self.loop = asyncio.new_event_loop()

    def teardown(self) -> None:
        if self.front is not None:
            self.front.close()
            self.sharded.close()
            self.loop.close()
            self.front = self.sharded = self.loop = None
        super().teardown()

    @property
    def server(self):
        return self.sharded

    async def _clients(self, samples: Samples, sink: Optional[list]):
        """Two closed-loop clients, each awaiting its batch's answers."""
        totals = [0, 0]

        async def client(batches) -> None:
            for position, batch in batches:
                started = clock()
                try:
                    answers = await self.front.answer_requests(batch)
                except ReproError:
                    totals[1] += len(batch)
                    answers = [[("raised",)]] * len(batch)
                else:
                    elapsed[position] = clock() - started
                    totals[0] += sum(map(len, answers))
                if sink is not None:
                    sink[position] = answers

        elapsed: Dict[int, float] = {}
        numbered = list(enumerate(self.batches))
        await asyncio.gather(client(numbered[0::2]), client(numbered[1::2]))
        # Filed in batch order, not completion order: sample i must be
        # the same request in every pass.
        for position, seconds in sorted(elapsed.items()):
            samples.latency.extend([seconds] * len(self.batches[position]))
            samples.first_tuple.extend([seconds] * len(self.batches[position]))
        return totals

    def serve_pass(self, samples: Samples) -> Tuple[int, int, int]:
        tuples, failed = self.loop.run_until_complete(
            self._clients(samples, None)
        )
        return sum(map(len, self.batches)), tuples, failed

    def serve_traced_pass(self, tracer: Tracer) -> Tuple[int, int, int]:
        """Plan → per-shard ``open_batch`` → merge, synchronously.

        What ``AsyncViewServer.answer_requests`` does per batch, minus
        the event loop and the worker pool (their cost is the
        ``engine.async_server`` probes' to report).
        """
        sharded, counts = self.sharded, self.trace_counts
        shards = sharded.shards
        operations = tuples = failed = 0
        self.shard_load = [0] * len(shards)
        self.routed = 0
        served_by = {
            (shard, name): server.representation(name)
            for shard, server in enumerate(shards)
            for name in ("bff", "fff")
        }
        scans_before = self._scan_counters()
        for batch_id, batch in enumerate(self.batches):
            operations += len(batch)
            try:
                span = tracer.begin("engine.sharding.plan", batch_id)
                jobs: Dict[int, List[int]] = {}
                for position, request in enumerate(batch):
                    shard = sharded.shard_of(request.view, request.access)
                    if shard is not None:
                        self.routed += 1
                    targets = range(len(shards)) if shard is None else (shard,)
                    for target in targets:
                        jobs.setdefault(target, []).append(position)
                        self.shard_load[target] += 1
                tracer.end(span)
                parts: List[List[Answer]] = [[] for _ in batch]
                for shard, positions in jobs.items():
                    group = [batch[position] for position in positions]
                    span = tracer.begin("engine.server.open_batch", batch_id)
                    cursors = shards[shard].open_batch(group)
                    tracer.end(span)
                    for request in group:
                        counts.saw(request, served_by[shard, request.view])
                    span = tracer.begin("engine.shared_scan.drain", batch_id)
                    for position, cursor in zip(positions, cursors):
                        parts[position].append(cursor.fetchall())
                        cursor.close()
                    tracer.end(span)
                span = tracer.begin("engine.sharding.merge", batch_id)
                for request, pieces in zip(batch, parts):
                    if len(pieces) == 1:
                        tuples += len(pieces[0])
                    else:
                        merged = heapq.merge(*pieces)
                        tuples += len(list(islice(merged, request.limit)))
                tracer.end(span)
            except ReproError:
                failed += len(batch)
        counts.scan_stats.append(
            SharedScanStats(
                *(
                    after - before
                    for after, before in zip(
                        self._scan_counters(), scans_before
                    )
                )
            )
        )
        return operations, tuples, failed

    def _scan_counters(self) -> Tuple[int, ...]:
        """Shared-scan totals so far, in ``SharedScanStats`` field order.

        The shard servers build their scans inside ``open_batch``; the
        shared telemetry registry is where their sharing counts surface.
        """
        registry = self.sharded.telemetry.registry
        return tuple(
            sum(
                registry.counter_value(f"shared_scan_{counter}_total", view=view)
                for view in ("bff", "fff")
            )
            for counter in (
                "lanes", "states", "subtrie_hits", "subtrie_misses", "pruned",
            )
        )

    def check(self, corrupt: bool) -> Tuple[int, int]:
        sink: List = [None] * len(self.batches)
        self.loop.run_until_complete(self._clients(Samples(), sink))
        flat = [request for batch in self.batches for request in batch]
        captured = [answer for answers in sink for answer in answers]
        if corrupt:
            corrupt_one(captured)
        expected = [
            expected_answer(self.oracle[request.view], request)
            for request in flat
        ]
        return len(flat), compare(captured, expected)

    def resident(self) -> List:
        return [
            shard.representation(name)
            for shard in self.sharded.shards
            for name in ("bff", "fff")
            if shard.resident(name)
        ]


# ----------------------------------------------------------------------
# dynamic_mixed
# ----------------------------------------------------------------------
def order_free(update: Tuple) -> Tuple:
    """``update`` without the rows it both deletes and inserts.

    About one seed in two hundred, ``update_stream`` deletes a row and
    then draws the same row again as an insert of the same delta. Its
    tracked database keeps the row (delete, then insert); the engine
    applies a delta's inserts before its deletes and drops it, and every
    later delta and answer of that stream is then off by that row. The
    row is there before and after the delta in the stream's own
    bookkeeping, so leaving it out of both lists keeps the stream, the
    engine and the oracle on one database whatever the order.
    """
    kind, relation, inserts, deletes = update
    both = set(inserts) & set(deletes)
    if not both:
        return update
    return (
        kind,
        relation,
        tuple(row for row in inserts if row not in both),
        tuple(row for row in deletes if row not in both),
    )


class DynamicMixed(Workload):
    """Writes beside reads: deltas, version freezes, replica shipping."""

    name = "dynamic_mixed"
    #: Dense on purpose: ~13 answers per access, so a seed's typical
    #: answer size is not quantised in steps of 20 %.
    NODES, EDGES = 30, 600
    TAU = 8.0
    QUERIES, UPDATES = 100, 25
    DELTA_SIZE = 4
    SHIP_EVERY = 5
    #: Rebuild once 2.5 % of the 1800 base rows are buffered: every 12th
    #: delta, two rebuilds a pass — 1.6 % of its operations, so p99 is
    #: a rebuild-boundary update and not the tail of the plain ones.
    REBUILD_FRACTION = 0.025

    def __init__(self, seed: int, keep_probe_state: bool = False):
        super().__init__(seed, keep_probe_state)
        self.primary: Optional[ViewServer] = None
        self.replica: Optional[ReplicaServer] = None
        self.ship_modes: List[str] = []

    def generate(self) -> None:
        self.db = triangle_database(self.NODES, self.EDGES, seed=self.seed)
        self.view = triangle_view("bbf")
        # update_stream flips a coin per operation; keeping its first 25
        # updates and first 100 queries, in stream order, fixes the mix
        # (throughput here is update-dominated, so a seed-dependent
        # update count would read as noise). The deltas are the
        # stream's; the query accesses are redrawn typical-first.
        accesses = iter(
            zipf_accesses(
                oracle_index(oracle_rows(self.db), "bbf"), self.QUERIES, 1.1,
                random.Random(self.seed),
            )
        )
        queries = updates = 0
        self.ops: List[Tuple] = []
        stream = update_stream(
            self.view, self.db, 2 * (self.QUERIES + self.UPDATES),
            update_fraction=0.2, seed=self.seed, skew=1.1,
            delta_size=self.DELTA_SIZE, delete_fraction=0.3,
        )
        for op in stream:
            if op[0] == "query" and queries < self.QUERIES:
                queries += 1
                self.ops.append(("query", AccessRequest("dyn", next(accesses))))
            elif op[0] == "update" and updates < self.UPDATES:
                op = order_free(op)
                if op[2] or op[3]:
                    updates += 1
                    self.ops.append(op)
        if (queries, updates) != (self.QUERIES, self.UPDATES):
            raise BenchmarkError(
                f"update_stream yielded {queries} queries and {updates} "
                "updates; the pass needs a longer stream"
            )

    def setup(self) -> None:
        self.steps = {}
        scratch = self.fresh_scratch()
        self.primary = ViewServer(self.db, snapshot_dir=scratch)
        self.timed_step(
            "register",
            lambda: self.primary.register_dynamic(
                self.view, tau=self.TAU, name="dyn",
                rebuild_fraction=self.REBUILD_FRACTION,
            ),
        )

        def hydrate() -> None:
            self.replica = ReplicaServer(self.db, snapshot_dir=scratch)
            self.replica.register_dynamic(
                self.view, tau=self.TAU, name="dyn",
                rebuild_fraction=self.REBUILD_FRACTION,
            )
            self.replica.hydrate()

        self.timed_step("hydrate", hydrate)

    def teardown(self) -> None:
        if self.primary is not None:
            self.primary.close()
            self.replica.close()
            self.primary = self.replica = None
        super().teardown()

    @property
    def server(self):
        return self.primary

    def before_pass(self) -> None:
        """Every pass applies the same deltas to the same initial state."""
        self.teardown()
        self.cold_setup()
        self.ship_modes = []

    def _ship(self) -> None:
        shipped = ship_deltas(self.primary, self.replica)
        self.ship_modes.append(shipped["dyn"][0])

    def serve_pass(
        self, samples: Samples, sink: Optional[list] = None
    ) -> Tuple[int, int, int]:
        primary = self.primary
        opener, apply_deltas = primary.open, primary.apply_deltas
        operations = tuples = failed = updates = 0
        for op in self.ops:
            operations += 1
            try:
                if op[0] == "query":
                    rows = serve(opener, op[1], None, samples)
                    tuples += len(rows)
                    if sink is not None:
                        sink.append((updates, op[1], rows))
                    continue
                started = clock()
                apply_deltas(op[1], inserts=op[2], deletes=op[3])
                elapsed = clock() - started
                samples.latency.append(elapsed)
                samples.first_tuple.append(elapsed)
                updates += 1
                if updates % self.SHIP_EVERY == 0:
                    self._ship()
            except ReproError:
                failed += 1
        return operations, tuples, failed

    def serve_traced_pass(self, tracer: Tracer) -> Tuple[int, int, int]:
        primary, counts = self.primary, self.trace_counts
        operations = tuples = failed = updates = 0
        for request_id, op in enumerate(self.ops):
            operations += 1
            try:
                if op[0] == "query":
                    tuples += len(
                        serve_traced(
                            primary, op[1], None, tracer, request_id, counts
                        )
                    )
                    continue
                span = tracer.begin(
                    "engine.dynamic_serving.apply_deltas", request_id
                )
                primary.apply_deltas(op[1], inserts=op[2], deletes=op[3])
                tracer.end(span)
                updates += 1
                if updates % self.SHIP_EVERY == 0:
                    span = tracer.begin(
                        "engine.dynamic_serving.ship_deltas", request_id
                    )
                    self._ship()
                    tracer.end(span)
            except ReproError:
                failed += 1
        return operations, tuples, failed

    def check(self, corrupt: bool) -> Tuple[int, int]:
        """Every query against the oracle at its version; replica == primary."""
        self.before_pass()
        sink: List[Tuple[int, AccessRequest, Answer]] = []
        _, _, failed = self.serve_pass(Samples(), sink)
        self._ship()
        captured = [rows for _, _, rows in sink]
        if corrupt:
            corrupt_one(captured)
        # The oracle database is tracked here, independently of the
        # engine: update_stream's deltas applied to plain row sets.
        db, version = self.db, 0
        index = oracle_index(oracle_rows(db), "bbf")
        updates = [op for op in self.ops if op[0] == "update"]
        for (at_version, request, _), rows in zip(sink, captured):
            while version < at_version:
                _, relation, inserts, deletes = updates[version]
                kept = (set(db[relation].rows) - set(deletes)) | set(inserts)
                db = db.replace(Relation(relation, db[relation].arity, kept))
                version += 1
                index = None
            if index is None:
                index = oracle_index(oracle_rows(db), "bbf")
            failed += rows != expected_answer(index, request)
        accesses = sorted({request.access for _, request, _ in sink})
        checked = len(self.ops) + len(accesses) + 1
        failed += self.primary.delta_version(
            "dyn"
        ) != self.replica.delta_version("dyn")
        failed += sum(
            self.primary.answer("dyn", access)
            != self.replica.answer("dyn", access)
            for access in accesses
        )
        return checked, failed

    def resident(self) -> List:
        return [
            server.representation("dyn")
            for server in (self.primary, self.replica)
        ]

    def space(self) -> Tuple[int, int]:
        """Cells of both serving versions; bytes of the dynamic snapshot.

        A frozen serving version is not a snapshot kind of its own: what
        the engine stores for a dynamic view is the dynamic snapshot the
        primary writes, so that file is what is weighed.
        """
        cells = sum(
            representation.space_report().structure_cells
            for representation in self.resident()
        )
        self.primary.save_dynamic_snapshot("dyn")
        stored = sum(
            path.stat().st_size
            for path in (self.scratch / "dynamic").glob("*.snap")
        )
        return cells, stored


REGISTRY = {
    cls.name: cls
    for cls in (
        PointLookup, ScanStream, ScanMeasured, ShardedAsync, DynamicMixed,
        TauChurn,
    )
}
