"""Per-layer metrics of the traced run.

Three sources, all outside-in: the set-up steps the workload timed, the
spans and counts of the last traced pass, and microbenchmarks that time
one layer's public entry point on the workload's own structures and
requests. Every metric of ``PER_LAYER`` is reported by every workload;
a layer the workload does not exercise reads 0.

The only timings not taken by this harness are
``core.structure.build_s`` — the structures' own public
``stats.build_seconds`` + ``layout_compile_seconds``, because builds
happen inside ``ViewServer.representation`` — and the
``AsyncBatchResult`` queue/service seconds the async front end reports.

Run as a script (``python3 e2e_probes.py --kernel-child``) it is the
child process of ``core.kernel.nonumpy_us_per_tuple``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from e2e_harness import (
    PER_LAYER,
    SPAN_LAYERS,
    TIME_UNITS,
    PassResult,
    Samples,
    at_reference_speed,
    bootstrap,
    clock,
    layer_budget,
    loglog_slope,
    percentile,
)

Values = Dict[str, float]
#: Productive accesses sampled per structure by the enumeration probes.
SAMPLE = 48
TIMED = {name for name, unit, _ in PER_LAYER if unit in TIME_UNITS}


def scaled(values: Values, speed: float) -> Values:
    """``values`` with every time-valued metric brought to reference speed."""
    return {
        name: value * speed if name in TIMED else value
        for name, value in values.items()
    }


def probe(function: Callable, *arguments) -> Values:
    """One microbenchmark, its times corrected for the speed around it."""
    values, _, speed = at_reference_speed(lambda: function(*arguments))
    return scaled(values, speed)


def timed(call: Callable) -> Tuple[float, object]:
    """``(seconds, result)`` of one call."""
    started = clock()
    result = call()
    return clock() - started, result


def median_us(samples: Sequence[float]) -> float:
    """Median of second-valued samples, in microseconds (0 when empty)."""
    return statistics.median(samples) * 1e6 if samples else 0.0


def distinct_accesses(requests: Iterable, view: str) -> List[Tuple]:
    """The first ``SAMPLE`` distinct accesses the workload sends to ``view``."""
    seen: Dict[Tuple, None] = {}
    for request in requests:
        if request.view == view:
            seen.setdefault(request.access)
            if len(seen) == SAMPLE:
                break
    return list(seen)


# ----------------------------------------------------------------------
# core: structure, layout, kernel, dictionary, snapshot
# ----------------------------------------------------------------------
def max_step_gap(representation, accesses: Sequence[Tuple]) -> int:
    """Largest logical delay of the reference walk over ``accesses``."""
    from repro.joins.generic_join import JoinCounter
    from repro.measure.delay import measure_enumeration

    worst = 0
    for access in accesses:
        counter = JoinCounter()
        stats = measure_enumeration(
            representation.enumerate(access, counter=counter), counter
        )
        worst = max(worst, stats.step_max_gap)
    return worst


def enumeration_probe(targets: Sequence[Tuple[object, List[Tuple]]]) -> Values:
    """Kernel against reference walk on the same structures and accesses."""
    from repro.core.kernel import kernel_enumerate
    from repro.joins.generic_join import JoinCounter

    compile_s = kernel_s = ref_s = 0.0
    kernel_tuples = ref_tuples = max_gap = 0
    seeks: List[float] = []
    for representation, accesses in targets:
        seconds, layout = timed(representation.compile_layout)
        compile_s += seconds
        max_gap = max(max_gap, max_step_gap(representation, accesses))
        for access in accesses:
            seconds, rows = timed(
                lambda: list(kernel_enumerate(layout, access))
            )
            kernel_s += seconds
            kernel_tuples += len(rows)
            seconds, walked = timed(
                lambda: list(
                    representation.enumerate(access, counter=JoinCounter())
                )
            )
            ref_s += seconds
            ref_tuples += len(walked)
            if rows:
                token = rows[len(rows) // 2]
                seconds, _ = timed(
                    lambda: next(
                        representation.enumerate_from(access, token), None
                    )
                )
                seeks.append(seconds)
    kernel_us = kernel_s * 1e6 / max(1, kernel_tuples)
    ref_us = ref_s * 1e6 / max(1, ref_tuples)
    return {
        "core.layout.compile_s": compile_s,
        "core.kernel.us_per_tuple": kernel_us,
        "core.structure.ref_us_per_tuple": ref_us,
        "core.structure.measured_slowdown": ref_us / kernel_us
        if kernel_us
        else 0.0,
        "core.structure.max_step_gap": max_gap,
        "core.kernel.seek_us": median_us(seeks),
    }


def structure_probe(representations: Sequence) -> Values:
    """Static facts and the snapshot codec, over the given structures."""
    from repro import decode_snapshot, encode_snapshot

    build_s = encode_s = decode_s = 0.0
    cells = entries = depth = stored = 0
    for representation in representations:
        build_s += (
            representation.stats.build_seconds
            + representation.layout_compile_seconds
        )
        cells += representation.space_report().structure_cells
        entries += len(representation.dictionary.items())
        depth = max(depth, representation.tree.depth())
        seconds, blob = timed(lambda: encode_snapshot(representation))
        encode_s += seconds
        stored += len(blob)
        seconds, _ = timed(lambda: decode_snapshot(blob))
        decode_s += seconds
    probe_us = 0.0
    dictionary = max(
        (r.dictionary for r in representations), key=len, default=None
    )
    if dictionary is not None and len(dictionary):
        keys = [key for key, _ in islice(dictionary.items(), 4000)]
        get = dictionary.get
        started = clock()
        for node_id, access in keys:
            get(node_id, access)
        probe_us = (clock() - started) * 1e6 / len(keys)
    return {
        "core.structure.build_s": build_s,
        "core.structure.cells": cells,
        "core.dictionary.entries": entries,
        "core.dictionary.probe_us": probe_us,
        "core.balanced_tree.depth": depth,
        "core.snapshot.encode_s": encode_s,
        "core.snapshot.decode_s": decode_s,
        "core.snapshot.bytes_per_cell": stored / max(1, cells),
    }


def core_probe(targets: Sequence[Tuple[object, List[Tuple]]]) -> Values:
    """Structure facts plus enumeration costs; layout share of the build."""
    values = structure_probe([representation for representation, _ in targets])
    values.update(enumeration_probe(targets))
    values["core.layout.share_of_build"] = values[
        "core.layout.compile_s"
    ] / max(values["core.structure.build_s"], 1e-12)
    return values


def ladder_slopes(workload) -> Values:
    """The paper's two axes over the τ ladder: cells and step gap vs τ."""
    accesses = distinct_accesses(workload.requests, "churn")
    gaps = {
        tau: max_step_gap(representation, accesses)
        for tau, representation in workload.ladder.items()
    }
    return {
        "core.structure.space_slope": loglog_slope(
            workload.ladder_cells.items()
        ),
        "core.structure.gap_slope": loglog_slope(gaps.items()),
    }


def decomposed_probe(seed: int) -> Values:
    """Theorem 2 on a length-4 path: built and drained directly.

    The engine does not serve decomposed representations yet; this is
    the baseline for when it does.
    """
    from repro import DecomposedRepresentation
    from repro.workloads import path_database, path_view, productive_accesses

    view = path_view(4)
    db = path_database(4, size=300, domain=40, seed=seed)
    build_s, decomposed = timed(lambda: DecomposedRepresentation(view, db))
    accesses = productive_accesses(view, db)[:SAMPLE]
    seconds, answers = timed(
        lambda: [list(decomposed.enumerate(access)) for access in accesses]
    )
    return {
        "core.decomposed.build_s": build_s,
        "core.decomposed.cells": decomposed.space_report().structure_cells,
        "core.decomposed.us_per_tuple": seconds
        * 1e6
        / max(1, sum(map(len, answers))),
    }


def nonumpy_kernel_probe(workload) -> Values:
    """The kernel's pure-Python fallback, in a child without numpy."""
    env = dict(os.environ, REPRO_KERNEL_NO_NUMPY="1")
    child = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()), "--kernel-child",
            str(workload.NODES), str(workload.EDGES), str(workload.seed),
            str(workload.TAU),
        ],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return {
        "core.kernel.nonumpy_us_per_tuple": json.loads(
            child.stdout.splitlines()[-1]
        )
    }


def kernel_child(nodes: int, edges: int, seed: int, tau: float) -> None:
    """Child body: one full ``fff`` drain through the kernel, printed as µs."""
    bootstrap()
    from repro import CompressedRepresentation
    from repro.core.kernel import kernel_enumerate
    from repro.core.layout import numpy_backend
    from repro.workloads import triangle_database, triangle_view

    if numpy_backend() is not None:
        raise SystemExit("kernel child: numpy backend still enabled")
    db = triangle_database(nodes, edges, seed=seed)
    representation = CompressedRepresentation(triangle_view("fff"), db, tau)
    layout = representation.compile_layout()
    seconds, rows = timed(lambda: list(kernel_enumerate(layout, ())))
    print(json.dumps(seconds * 1e6 / max(1, len(rows))))


# ----------------------------------------------------------------------
# engine: server, api, cache, shared scan
# ----------------------------------------------------------------------
def cursor_probe(server, requests: Sequence, chunk) -> Values:
    """``open`` → first tuple → drain, timed step by step, against the
    same requests enumerated directly off the structure."""
    opens: List[float] = []
    firsts: List[float] = []
    resumes: List[float] = []
    drain_s = direct_s = served_s = 0.0
    drained = 0
    for request in requests:
        started = clock()
        cursor = server.open(request)
        opened = clock()
        rows = cursor.fetchmany(1)
        first = clock()
        rest = cursor.fetchall()
        cursor.close()
        done = clock()
        opens.append(opened - started)
        firsts.append(first - opened)
        drain_s += done - first
        drained += len(rest)
        if request.start_after is not None:
            resumes.append(first - started)
        if request.limit is None and request.start_after is None:
            served_s += done - started
            representation = server.representation(request.view, request.tau)
            seconds, _ = timed(
                lambda: list(representation.enumerate(request.access))
            )
            direct_s += seconds
    if not resumes:
        # No resume pages in this mix: resume each request's own answer
        # after its middle tuple.
        for request in requests[:200]:
            rows = server.answer(request.view, request.access)
            if rows:
                token = rows[len(rows) // 2]
                started = clock()
                cursor = server.open(
                    request.view, request.access, start_after=token,
                    tau=request.tau,
                )
                cursor.fetchmany(1)
                resumes.append(clock() - started)
                cursor.close()
    return {
        "engine.server.open_us": median_us(opens),
        "engine.api.first_tuple_us": median_us(firsts),
        "engine.api.drain_us_per_tuple": drain_s * 1e6 / max(1, drained),
        "engine.api.resume_us": median_us(resumes),
        "engine.api.cursor_overhead_share": 1.0 - direct_s / served_s
        if served_s
        else 0.0,
    }


def cache_probe(workload, view, name: str, tau: float) -> Values:
    """Memory hit, disk-tier hit and demotion, on a scratch server."""
    from repro import ViewServer

    hits: List[float] = []
    resident = workload.server
    for _ in range(2000):
        started = clock()
        resident.representation(name, tau)
        hits.append(clock() - started)
    scratch = workload.scratch
    if scratch is None:
        scratch = workload.fresh_scratch()
    tiered = ViewServer(workload.db, snapshot_dir=scratch / "cache-probe")
    tiered.register(view, tau=tau, name=name)
    tiered.representation(name)
    demotes: List[float] = []
    disk_hits: List[float] = []
    for _ in range(5):
        seconds, _ = timed(lambda: tiered.demote(name))
        demotes.append(seconds)
        seconds, _ = timed(lambda: tiered.representation(name))
        disk_hits.append(seconds)
    tiered.close()
    return {
        "engine.cache.hit_us": median_us(hits),
        "engine.cache.demote_ms": statistics.median(demotes) * 1e3,
        "engine.cache.disk_hit_ms": statistics.median(disk_hits) * 1e3,
    }


def shared_scan_probe(server, batch: Sequence, scan_stats: Sequence) -> Values:
    """``open_batch`` against the same requests opened one at a time."""
    from e2e_workloads import serve

    batch_s: List[float] = []
    single_s: List[float] = []
    open_s: List[float] = []
    for _ in range(5):
        started = clock()
        cursors = server.open_batch(batch)
        open_s.append(clock() - started)
        for cursor in cursors:
            cursor.fetchall()
            cursor.close()
        batch_s.append(clock() - started)
        singles = Samples()
        for request in batch:
            serve(server.open, request, None, singles)
        single_s.append(sum(singles.latency))
    requests = sum(stats.requests for stats in scan_stats)
    hits = sum(stats.subtrie_hits for stats in scan_stats)
    misses = sum(stats.subtrie_misses for stats in scan_stats)
    return {
        "engine.shared_scan.open_batch_us_per_request": statistics.median(
            open_s
        )
        * 1e6
        / len(batch),
        "engine.shared_scan.batch_speedup": statistics.median(single_s)
        / statistics.median(batch_s),
        "engine.shared_scan.lanes_per_request": sum(
            stats.states for stats in scan_stats
        )
        / max(1, requests),
        "engine.shared_scan.subtrie_hit_rate": hits / max(1, hits + misses),
        "engine.shared_scan.pruned_states": sum(
            stats.pruned_states for stats in scan_stats
        ),
    }


def telemetry_probe(workload) -> Values:
    """The same requests with an in-memory ``Telemetry`` on and off."""
    from repro import ViewServer
    from repro.engine.telemetry import Telemetry

    from e2e_workloads import serve

    instrumented = ViewServer(workload.db, telemetry=Telemetry(None))
    instrumented.register(
        workload.view, space_budget=workload.SPACE_BUDGET, name="lookup"
    )
    instrumented.prefetch("lookup")
    requests = workload.requests[:5000]
    walls = {True: [], False: []}
    for _ in range(3):
        for on, server in ((False, workload.server), (True, instrumented)):
            discard = Samples()
            started = clock()
            for request in requests:
                serve(server.open, request, None, discard)
            walls[on].append(clock() - started)
    instrumented.close()
    off = statistics.median(walls[False])
    return {
        "engine.telemetry.overhead_share": (
            statistics.median(walls[True]) - off
        )
        / off
    }


def optimizer_probe(workload) -> Values:
    """The Section 6 cover search the space-budget registration runs."""
    from repro.optimizer import min_delay_cover

    registration = workload.server.registration("lookup")
    runs = [
        timed(
            lambda: min_delay_cover(
                registration.natural_view, registration.sizes,
                workload.SPACE_BUDGET,
            )
        )[0]
        for _ in range(5)
    ]
    return {"optimizer.cover_ms": statistics.median(runs) * 1e3}


def parallel_probe(workload) -> Values:
    """The τ ladder through two build worker processes.

    The run is pinned to one CPU; the workers are given every CPU back
    for the length of this probe, or there would be nothing parallel to
    measure.
    """
    from repro import ParallelBuilder, decode_snapshot

    can_pin = hasattr(os, "sched_setaffinity")
    pinned = os.sched_getaffinity(0) if can_pin else None
    if can_pin:
        os.sched_setaffinity(0, range(os.cpu_count()))
    try:
        with ParallelBuilder(2) as builder:
            started = clock()
            futures = [
                builder.submit(workload.view, workload.db, tau)
                for tau in workload.LADDER
            ]
            for future in futures:
                if future is not None:
                    decode_snapshot(future.result())
            seconds = clock() - started
    finally:
        if can_pin:
            os.sched_setaffinity(0, pinned)
    return {"engine.parallel.build_s": seconds}


# ----------------------------------------------------------------------
# engine: sharding, topology, async front end
# ----------------------------------------------------------------------
def sharding_probe(workload) -> Values:
    """Routing, planning and the two open modes of the sharded facade."""
    from e2e_workloads import serve

    sharded = workload.sharded
    requests = [request for batch in workload.batches for request in batch]
    routed = [request for request in requests if request.view == "bff"]
    scatter = [request for request in requests if request.view == "fff"]
    table = sharded.topology
    values = [request.access[0] for request in routed]
    started = clock()
    for value in values:
        table.shard_for(value)
    route_us = (clock() - started) * 1e6 / len(values)
    accesses = [request.access for request in routed]
    plans = [
        timed(lambda: sharded.plan_batch("bff", accesses))[0] for _ in range(5)
    ]
    opened = {"bff": Samples(), "fff": Samples()}
    for request in routed[:200] + scatter[:20]:
        serve(sharded.open, request, None, opened[request.view])
    load = workload.shard_load
    return {
        "engine.topology.route_us": route_us,
        "engine.sharding.plan_us_per_request": statistics.median(plans)
        * 1e6
        / len(accesses),
        "engine.sharding.routed_open_us": median_us(opened["bff"].latency),
        "engine.sharding.scatter_open_us": median_us(opened["fff"].latency),
        "engine.sharding.routed_share": workload.routed / len(requests),
        "engine.sharding.shard_skew": max(load) * len(load) / sum(load),
    }


def async_probe(workload) -> Values:
    """What the event loop and worker pool add to a sharded batch."""
    from e2e_workloads import serve_batch

    sharded, front, loop = workload.sharded, workload.front, workload.loop
    batches = workload.batches

    async def serve_all() -> List:
        results = []
        for batch in batches:
            accesses = [r.access for r in batch if r.view == "bff"]
            results.append(await front.serve("bff", accesses, measure=False))
        return results

    served = loop.run_until_complete(serve_all())

    async def answer_all() -> float:
        started = clock()
        for batch in batches:
            await front.answer_requests(batch)
        return clock() - started

    def drain_all() -> float:
        started = clock()
        for batch in batches:
            serve_batch(sharded.open_batch, batch, Samples())
        return clock() - started

    turnaround = statistics.median(
        loop.run_until_complete(answer_all()) for _ in range(3)
    )
    direct = statistics.median(drain_all() for _ in range(3))
    return {
        "engine.async_server.queue_ms": statistics.median(
            result.queue_seconds for result in served
        )
        * 1e3,
        "engine.async_server.service_ms": statistics.median(
            result.service_seconds for result in served
        )
        * 1e3,
        "engine.async_server.dispatch_overhead_share": 1.0
        - direct / turnaround,
    }


# ----------------------------------------------------------------------
# dynamic serving
# ----------------------------------------------------------------------
def dynamic_span_metrics(workload, spans: Sequence[list]) -> Values:
    """The serving-side figures, read off the traced pass's spans."""

    def durations(name: str) -> List[float]:
        return sorted(s[2] - s[1] for s in spans if s[0] == name)

    applied = durations("engine.dynamic_serving.apply_deltas")
    shipped = durations("engine.dynamic_serving.ship_deltas")
    by_request: Dict[int, float] = {}
    for name, start, end, parent, request_id in spans:
        if parent is None and name.startswith(("engine.server", "engine.api")):
            by_request[request_id] = by_request.get(request_id, 0.0) + end - start
    modes = workload.ship_modes
    return {
        "engine.dynamic_serving.apply_p50_ms": percentile(applied, 0.5) * 1e3,
        "engine.dynamic_serving.apply_p99_ms": percentile(applied, 0.99) * 1e3,
        "engine.dynamic_serving.query_p50_us": median_us(
            list(by_request.values())
        ),
        "engine.dynamic_serving.ship_ms": statistics.median(shipped) * 1e3
        if shipped
        else 0.0,
        "engine.dynamic_serving.ship_snapshot_share": modes.count("snapshot")
        / max(1, len(modes)),
    }


def dynamic_probe(workload) -> Values:
    """``core.dynamic`` standalone, the delta log and a warm start."""
    from repro import DynamicRepresentation, ViewServer
    from repro.engine.dynamic_serving import DeltaRecord, DynamicSnapshotStore

    updates = [op for op in workload.ops if op[0] == "update"]
    queries = [op[1].access for op in workload.ops if op[0] == "query"]
    build_s, standalone = timed(
        lambda: DynamicRepresentation(
            workload.view, workload.db, tau=workload.TAU,
            rebuild_fraction=float("inf"),
        )
    )
    applies = [
        timed(
            lambda: standalone.apply_deltas(op[1], inserts=op[2], deletes=op[3])
        )[0]
        for op in updates
    ]
    seconds, answers = timed(
        lambda: [list(standalone.enumerate(access)) for access in queries[:100]]
    )
    dirty_us = seconds * 1e6 / max(1, sum(map(len, answers)))
    rebuild_s, _ = timed(standalone.rebuild)

    store = DynamicSnapshotStore(workload.scratch / "log-probe")
    appends = [
        timed(
            lambda: store.append_log(
                "probe", DeltaRecord("dyn", op[1], version, op[2], op[3])
            )
        )[0]
        for version, op in enumerate(updates, start=1)
    ]
    # Warm start: a new server over the snapshot directory the traced
    # pass just used replays the delta log instead of building.
    def warm_start() -> None:
        restarted = ViewServer(workload.db, snapshot_dir=workload.scratch)
        restarted.register_dynamic(
            workload.view, tau=workload.TAU, name="dyn",
            rebuild_fraction=workload.REBUILD_FRACTION,
        )
        restarted.close()

    warm_s, _ = timed(warm_start)
    structure = standalone.structure
    values = structure_probe([structure])
    values["core.structure.build_s"] = build_s
    values.update(
        {
            "core.dynamic.apply_us": median_us(applies),
            "core.dynamic.rebuild_s": rebuild_s,
            "core.dynamic.dirty_us_per_tuple": dirty_us,
            "engine.dynamic_serving.log_append_us": median_us(appends),
            "engine.dynamic_serving.warm_start_s": warm_s,
        }
    )
    return values


# ----------------------------------------------------------------------
# assembling one workload's per-layer report
# ----------------------------------------------------------------------
def workload_probes(workload) -> Values:
    """The microbenchmarks that apply to this workload."""
    name = workload.name
    values: Values = {}
    if name == "point_lookup":
        representation = workload.server.representation("lookup")
        accesses = distinct_accesses(workload.requests, "lookup")
        values.update(probe(core_probe, [(representation, accesses)]))
        values.update(
            probe(cursor_probe, workload.server, workload.requests[:3000], None)
        )
        values.update(
            probe(
                cache_probe, workload, workload.view, "lookup",
                representation.tau,
            )
        )
        values.update(probe(optimizer_probe, workload))
        values.update(probe(telemetry_probe, workload))
    elif name in ("scan_stream", "scan_measured"):
        server = workload.server
        targets = [
            (
                server.representation(view),
                distinct_accesses(workload.requests, view),
            )
            for view in ("bff", "fff")
        ]
        values.update(probe(core_probe, targets))
        values.update(
            probe(cursor_probe, server, workload.requests[:100], workload.chunk)
        )
        values.update(
            probe(
                shared_scan_probe, server, workload.batches[0],
                workload.trace_counts.scan_stats,
            )
        )
        if name == "scan_stream":
            values.update(probe(decomposed_probe, workload.seed))
            values.update(probe(nonumpy_kernel_probe, workload))
    elif name == "tau_churn":
        accesses = distinct_accesses(workload.requests, "churn")
        targets = [
            (representation, accesses)
            for representation in workload.ladder.values()
        ]
        values.update(probe(core_probe, targets))
        values.update(ladder_slopes(workload))
        # Hot-τ requests only: a cold τ would time a disk hit, which is
        # the cache probe's to report.
        hot = [
            request
            for request in workload.requests[: workload.PHASE_LENGTH]
            if request.tau == workload.PHASES[0]
        ]
        workload.server.prefetch("churn", workload.PHASES[0])
        values.update(probe(cursor_probe, workload.server, hot, None))
        values.update(probe(cache_probe, workload, workload.view, "churn", 8.0))
        values.update(probe(parallel_probe, workload))
    elif name == "sharded_async":
        requests = [request for batch in workload.batches for request in batch]
        targets = [
            (shard.representation(view), distinct_accesses(requests, view))
            for shard in workload.sharded.shards
            for view in ("bff", "fff")
        ]
        values.update(probe(core_probe, targets))
        values.update(probe(sharding_probe, workload))
        values.update(probe(async_probe, workload))
        values.update(
            probe(
                shared_scan_probe, workload.sharded, workload.batches[0],
                workload.trace_counts.scan_stats,
            )
        )
    elif name == "dynamic_mixed":
        values.update(probe(dynamic_probe, workload))
    return values


def per_layer_metrics(
    workload, spans: Sequence[list], traced: PassResult,
    untraced: PassResult, generate_s: float, trace_overhead: float,
) -> Tuple[Values, Dict[str, float]]:
    """Every ``PER_LAYER`` metric of one traced run, plus its budget.

    The budget is in seconds as measured and sums to the traced pass's
    raw wall time; shares are speed-independent. Cache counters come
    from the run's last *untraced* pass: the traced pass resolves
    structures through the same cache, but call for call in the
    decomposed order, which is not the call pattern to report.
    """
    values: Values = {name: 0.0 for name, _, _ in PER_LAYER}
    wall = traced.raw_wall
    budget = layer_budget(spans, wall)
    unknown = set(budget) - set(SPAN_LAYERS) - {"bench.unattributed"}
    if unknown:
        raise KeyError(f"spans of layers without a metric: {sorted(unknown)}")
    for layer in SPAN_LAYERS:
        values[f"{layer}.self_share"] = budget.get(layer, 0.0) / wall
    counts = workload.trace_counts
    lookups = untraced.counts["cache_hits"] + untraced.counts["cache_misses"]
    values.update(
        {
            "bench.unattributed_share": budget["bench.unattributed"] / wall,
            "bench.trace_overhead_share": trace_overhead,
            "workloads.generate_s": generate_s,
            "engine.server.register_s": workload.steps.get("register", 0.0),
            "engine.replica.hydrate_s": workload.steps.get("hydrate", 0.0),
            "engine.server.builds": workload.setup_builds,
            "engine.cache.hit_rate": untraced.counts["cache_hits"]
            / max(1, lookups),
            "engine.cache.evictions": untraced.counts["cache_evictions"],
            "engine.cache.disk_hits": untraced.counts["cache_disk_hits"],
            "engine.cache.disk_writes": untraced.counts["cache_disk_writes"],
            "core.kernel.path_share": counts.kernel_requests
            / max(1, counts.requests),
        }
    )
    if workload.name == "dynamic_mixed":
        values["core.dynamic.rebuilds"] = untraced.counts["builds"]
        values["engine.dynamic_serving.dirty_share"] = (
            1.0 - values["core.kernel.path_share"]
        )
        values.update(
            scaled(dynamic_span_metrics(workload, spans), traced.speed)
        )
    values.update(workload_probes(workload))
    values["core.structure.max_step_gap"] = max(
        values["core.structure.max_step_gap"], counts.max_step_gap
    )
    return values, budget


if __name__ == "__main__":
    if len(sys.argv) == 6 and sys.argv[1] == "--kernel-child":
        kernel_child(
            int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]),
            float(sys.argv[5]),
        )
    else:
        raise SystemExit("usage: e2e_probes.py --kernel-child N E SEED TAU")
