"""Run machinery shared by every e2e workload.

Everything here is workload-agnostic: locating the checkout, the metric
tables that mirror ``BENCHMARK.json``, the closed-loop pass driver, the
in-memory span recorder of the traced run and the per-layer budget read
off it. The workloads themselves live in :mod:`e2e_workloads`, the
per-layer microbenchmarks in :mod:`e2e_probes`.

Importing this module touches nothing outside itself; :func:`bootstrap`
is what puts the engine (``src/``) and the oracle (``tests/``) on
``sys.path``, and ``run.py`` calls it before importing the workloads.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = ROOT / ".bench" / "e2e"

DEFAULT_SEED = 11
#: Never used while tuning the benchmark; a later claim must hold here too.
HELD_OUT_SEED = 40
DEFAULT_SECONDS = 10
MIN_PASSES = 5
#: p99 wants ten samples beyond it: passes go on until this many exist.
MIN_SAMPLES = 1000

clock = time.perf_counter

#: The calibration loop and the speed every time is reported at. This
#: sandbox's vCPU drifts by +-25 % over seconds (a fixed pure-Python
#: loop takes 36-70 ns per iteration from one moment to the next, CPU
#: time tracking wall time, no steal reported), so a 10 s run lands in
#: whichever regime it meets. Every timed section is therefore bracketed
#: by this loop and its seconds are scaled to what they would have been
#: had the loop run at ``REFERENCE_NS`` per iteration. The loop executes
#: no engine code, so an engine change cannot move it.
REFERENCE_ITERATIONS = 100_000
REFERENCE_NS = 45.0
#: Units whose values are seconds in some scale, hence speed-corrected.
TIME_UNITS = ("s", "ms", "us")

#: name -> the one-line reason the workload exists (``BENCHMARK.json``).
WORKLOAD_WHY = {
    "point_lookup": (
        "tiny answers: server, cache and cursor overhead plus one kernel "
        "seek are nearly all the cost, so engine-overhead work shows here"
    ),
    "scan_stream": (
        "large unmeasured drains: kernel run intersections do the work, "
        "so engine-overhead work must leave it flat"
    ),
    "scan_measured": (
        "the same requests with measure=True: the JoinCounter reference "
        "walk that batch serving takes by default, about 3x slower"
    ),
    "sharded_async": (
        "async front end over four shards with telemetry on: routing, "
        "scatter merge, shared scans; the slowest shard sets batch time"
    ),
    "dynamic_mixed": (
        "deltas beside queries with a replica shipped to: log append, "
        "version freeze, dirty path, rebuild; a read gain taxing writes "
        "shows"
    ),
    "tau_churn": (
        "a tau ladder larger than the cache: evict, demote, decode from "
        "the disk tier; p99 is a disk hit, p50 a resident hit"
    ),
}
WORKLOADS = tuple(WORKLOAD_WHY)

#: (name, unit, better) — the end-to-end metrics of ``BENCHMARK.json``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("tuples_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("first_tuple_p50_ms", "ms", "lower"),
    ("resident_cells", "count", "lower"),
    ("stored_bytes_per_cell", "B/cell", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: Layers that own spans in a traced pass; each gets a ``<layer>.self_share``.
SPAN_LAYERS = (
    "engine.server",
    "engine.api",
    "engine.shared_scan",
    "engine.sharding",
    "engine.dynamic_serving",
    "core.kernel",
    "core.structure",
    "core.dynamic",
)

#: (name, unit, better) — the per-layer metrics of ``BENCHMARK.json``.
#: Every one is printed by every traced run; a workload that does not
#: exercise a layer reports 0 for it.
PER_LAYER = (
    ("core.structure.build_s", "s", "lower"),
    ("core.structure.cells", "count", "lower"),
    ("core.structure.ref_us_per_tuple", "us", "lower"),
    ("core.structure.measured_slowdown", "ratio", "lower"),
    ("core.structure.max_step_gap", "count", "lower"),
    ("core.structure.space_slope", "slope", "lower"),
    ("core.structure.gap_slope", "slope", "lower"),
    ("core.balanced_tree.depth", "count", "lower"),
    ("core.dictionary.entries", "count", "lower"),
    ("core.dictionary.probe_us", "us", "lower"),
    ("core.layout.compile_s", "s", "lower"),
    ("core.layout.share_of_build", "ratio", "lower"),
    ("core.kernel.us_per_tuple", "us", "lower"),
    ("core.kernel.nonumpy_us_per_tuple", "us", "lower"),
    ("core.kernel.seek_us", "us", "lower"),
    ("core.kernel.path_share", "ratio", "higher"),
    ("core.snapshot.encode_s", "s", "lower"),
    ("core.snapshot.decode_s", "s", "lower"),
    ("core.snapshot.bytes_per_cell", "B/cell", "lower"),
    ("core.dynamic.apply_us", "us", "lower"),
    ("core.dynamic.rebuild_s", "s", "lower"),
    ("core.dynamic.rebuilds", "count", "lower"),
    ("core.dynamic.dirty_us_per_tuple", "us", "lower"),
    ("core.decomposed.build_s", "s", "lower"),
    ("core.decomposed.cells", "count", "lower"),
    ("core.decomposed.us_per_tuple", "us", "lower"),
    ("optimizer.cover_ms", "ms", "lower"),
    ("engine.cache.hit_us", "us", "lower"),
    ("engine.cache.hit_rate", "ratio", "higher"),
    ("engine.cache.evictions", "count", "lower"),
    ("engine.cache.disk_hits", "count", "lower"),
    ("engine.cache.disk_writes", "count", "lower"),
    ("engine.cache.disk_hit_ms", "ms", "lower"),
    ("engine.cache.demote_ms", "ms", "lower"),
    ("engine.server.register_s", "s", "lower"),
    ("engine.server.open_us", "us", "lower"),
    ("engine.server.builds", "count", "lower"),
    ("engine.api.first_tuple_us", "us", "lower"),
    ("engine.api.drain_us_per_tuple", "us", "lower"),
    ("engine.api.resume_us", "us", "lower"),
    ("engine.api.cursor_overhead_share", "ratio", "lower"),
    ("engine.shared_scan.open_batch_us_per_request", "us", "lower"),
    ("engine.shared_scan.lanes_per_request", "ratio", "lower"),
    ("engine.shared_scan.subtrie_hit_rate", "ratio", "higher"),
    ("engine.shared_scan.pruned_states", "count", "higher"),
    ("engine.shared_scan.batch_speedup", "ratio", "higher"),
    ("engine.topology.route_us", "us", "lower"),
    ("engine.sharding.plan_us_per_request", "us", "lower"),
    ("engine.sharding.routed_open_us", "us", "lower"),
    ("engine.sharding.scatter_open_us", "us", "lower"),
    ("engine.sharding.routed_share", "ratio", "higher"),
    ("engine.sharding.shard_skew", "ratio", "lower"),
    ("engine.async_server.queue_ms", "ms", "lower"),
    ("engine.async_server.service_ms", "ms", "lower"),
    ("engine.async_server.dispatch_overhead_share", "ratio", "lower"),
    ("engine.dynamic_serving.apply_p50_ms", "ms", "lower"),
    ("engine.dynamic_serving.apply_p99_ms", "ms", "lower"),
    ("engine.dynamic_serving.query_p50_us", "us", "lower"),
    ("engine.dynamic_serving.dirty_share", "ratio", "lower"),
    ("engine.dynamic_serving.log_append_us", "us", "lower"),
    ("engine.dynamic_serving.ship_ms", "ms", "lower"),
    ("engine.dynamic_serving.ship_snapshot_share", "ratio", "lower"),
    ("engine.dynamic_serving.warm_start_s", "s", "lower"),
    ("engine.replica.hydrate_s", "s", "lower"),
    ("engine.parallel.build_s", "s", "lower"),
    ("engine.telemetry.overhead_share", "ratio", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
) + tuple((f"{layer}.self_share", "ratio", "lower") for layer in SPAN_LAYERS)


class BenchmarkError(RuntimeError):
    """The run cannot produce trustworthy numbers; it fails loudly."""


def bootstrap() -> None:
    """Put the engine and the oracle on ``sys.path``.

    The benchmark serves through ``src/repro`` and checks against
    ``tests/oracle.py``; in a directory that holds only the benchmark
    there is nothing to measure, so this exits non-zero.
    """
    for sub in ("src", "tests"):
        path = ROOT / sub
        if not path.is_dir():
            raise SystemExit(
                f"e2e: {path} is missing — the benchmark needs the full "
                "checkout (engine under src/, oracle under tests/)"
            )
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def pin_to_one_cpu() -> None:
    """Pin this process, and every thread and child it starts, to one CPU.

    The sandbox's two vCPUs drift independently (alternating the
    calibration loop between them shows one 30 % slow while the other is
    not), so a calibration sample only speaks for work that ran on the
    same CPU. Under the GIL the engine's two worker threads take turns
    anyway. A no-op where the platform has no affinity call.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment() -> Dict[str, object]:
    """What the numbers were measured on (echoed with every result)."""
    from repro.core.layout import numpy_backend

    backend = numpy_backend()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None,
        "python": platform.python_version(),
        "numpy": getattr(backend, "__version__", None),
        "numpy_backend": backend is not None,
    }


# ----------------------------------------------------------------------
# machine speed
# ----------------------------------------------------------------------
def reference_seconds() -> float:
    """Seconds the fixed calibration loop takes right now."""
    started = clock()
    total = 0
    for value in range(REFERENCE_ITERATIONS):
        total += value * value
    return clock() - started


def speed_factor(*reference_samples: float) -> float:
    """Multiplier turning seconds measured now into reference-speed seconds.

    Below 1 while the machine is slower than the reference speed: the
    same work would have taken proportionally less time there.
    """
    nominal = REFERENCE_ITERATIONS * REFERENCE_NS * 1e-9
    return nominal / statistics.fmean(reference_samples)


def at_reference_speed(section):
    """Run ``section()`` bracketed by the calibration loop.

    Returns ``(result, raw seconds, speed factor)``.
    """
    before = reference_seconds()
    started = clock()
    result = section()
    seconds = clock() - started
    return result, seconds, speed_factor(before, reference_seconds())


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if len(ordered) == 0:
        raise BenchmarkError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(ordered: Sequence[float], q: float, count: int) -> float:
    """A tail percentile, refused unless >= 10 of ``count`` samples lie
    beyond it (``count``: the samples behind ``ordered``, all passes)."""
    beyond = count - math.ceil(q * count)
    if beyond < 10:
        raise BenchmarkError(
            f"p{q * 100:g} needs >= 10 samples beyond it, have {beyond} "
            f"of {count} — run longer"
        )
    return percentile(ordered, q)


def loglog_slope(points: Iterable[Tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    logs = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(logs) < 2:
        return 0.0
    mean_x = statistics.fmean(x for x, _ in logs)
    mean_y = statistics.fmean(y for _, y in logs)
    spread = sum((x - mean_x) ** 2 for x, _ in logs)
    if spread == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in logs) / spread


def quartile_spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (q3 - q1) / median of one metric's runs."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """One pass of the fixed request list: time plus exact counts."""

    #: Pass wall time as measured, and the speed factor around it.
    raw_wall: float
    speed: float
    operations: int
    tuples: int
    failed: int
    #: Counts that must repeat exactly from pass to pass.
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        """Pass wall time at reference speed."""
        return self.raw_wall * self.speed


class Samples:
    """Per-operation timings of the timed passes (seconds).

    The serving loops append to ``latency`` and ``first_tuple`` in
    request order; :meth:`close_pass` brings the pass to reference speed
    and files it. Every pass serves the same request list, so sample
    ``i`` of every pass is the same operation, and
    :meth:`per_operation` takes each operation's **median across
    passes** before any percentile is read. Pooling raw samples instead
    lets the passes that met a slow stretch of the machine own the
    tail: the pooled p99 of ten identical runs spread by 10–16 % here,
    the percentile of per-operation medians by about a third of that.
    """

    SERIES = ("latency", "first_tuple")

    def __init__(self) -> None:
        self.latency = array("d")
        self.first_tuple = array("d")
        self._passes: Dict[str, List] = {name: [] for name in self.SERIES}

    def close_pass(self, speed: float) -> None:
        """File the current pass's samples, scaled to reference speed."""
        for name in self.SERIES:
            current = getattr(self, name)
            self._passes[name].append(
                numpy.frombuffer(current, dtype="d") * speed
            )
            setattr(self, name, array("d"))

    def count(self) -> int:
        """Samples filed so far, all passes together."""
        return sum(len(filed) for filed in self._passes["latency"])

    def per_operation(self, name: str):
        """Each operation's median over the passes, sorted ascending.

        Passes in which an operation raised are shorter and left out;
        the run is already marked incorrect by then.
        """
        filed = self._passes[name]
        full = max(len(samples) for samples in filed)
        aligned = [samples for samples in filed if len(samples) == full]
        return numpy.sort(numpy.median(numpy.vstack(aligned), axis=0))


def timed_passes(
    run_pass, seconds: float, min_passes: int = MIN_PASSES,
    min_samples: int = MIN_SAMPLES,
) -> Tuple[List[PassResult], Samples]:
    """One untimed warm-up pass, then whole passes until ``seconds``
    (and at least ``min_passes`` passes and ``min_samples`` samples).

    ``seconds`` bounds the *serving* time as measured (the sum of raw
    pass walls), so a workload whose passes need untimed preparation is
    not short-changed.
    The last two passes must agree on every count, or the run fails:
    a pass that does not repeat is not a fixed workload.
    """
    run_pass(Samples())
    samples = Samples()
    passes: List[PassResult] = []
    served = 0.0
    while (
        served < seconds
        or len(passes) < min_passes
        or samples.count() < min_samples
    ):
        gc.collect()
        result = run_pass(samples)
        passes.append(result)
        served += result.raw_wall
    if passes[-1].counts != passes[-2].counts:
        raise BenchmarkError(
            "counts differ between the last two passes: "
            f"{passes[-2].counts} vs {passes[-1].counts}"
        )
    return passes, samples


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder for the traced run.

    A span is ``[name, start, end, parent, request_id]``; its layer is
    the name minus its last component (``engine.api.fetchall`` belongs
    to ``engine.api``). Spans nest through an explicit stack — the
    harness is single-threaded while tracing — and nothing is written
    until :func:`write_trace`.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def reset(self) -> None:
        """Drop every recorded span (called before each traced pass)."""
        self.spans = []
        self._stack = []

    def begin(self, name: str, request_id: Optional[int] = None) -> int:
        """Open a span under the currently open one; returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        self.spans.append([name, clock(), None, parent, request_id])
        return index

    def end(
        self, index: int, inner: Optional[Tuple[str, float]] = None
    ) -> float:
        """Close a span; returns its duration.

        ``inner`` is ``(name, seconds)``: time the span's call spent
        inside a lower layer, accumulated by a timing proxy around that
        layer's public iterator. It is recorded as a child span of that
        duration, so it leaves the parent's self time.
        """
        now = clock()
        span = self.spans[index]
        span[2] = now
        self._stack.pop()
        if inner is not None and inner[1] > 0.0:
            start = span[1]
            self.spans.append(
                [inner[0], start, start + inner[1], index, span[4]]
            )
        return now - span[1]


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name minus the call."""
    return name.rsplit(".", 1)[0]


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def layer_budget(spans: Sequence[list], wall: float) -> Dict[str, float]:
    """Per-layer self seconds plus the pass time no span covers.

    The values sum to ``wall``: ``bench.unattributed`` is harness glue
    between spans (loop overhead, list appends, the tracer itself).
    """
    budget: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = layer_of(span[0])
        budget[layer] = budget.get(layer, 0.0) + own
    budget["bench.unattributed"] = wall - sum(budget.values())
    return budget


def write_trace(workload: str, seed: int, spans: Sequence[list]) -> Path:
    """Write one traced pass's spans, times relative to the first span."""
    origin = spans[0][1]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload}.json"
    rows = [
        [
            name,
            layer_of(name),
            round(start - origin, 9),
            round(end - origin, 9),
            parent,
            request_id,
        ]
        for name, start, end, parent, request_id in spans
    ]
    document = {
        "workload": workload,
        "seed": seed,
        "unit": "s",
        "columns": ["name", "layer", "start", "end", "parent", "request_id"],
        "spans": rows,
    }
    path.write_text(json.dumps(document, separators=(",", ":")))
    return path


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def metric_payload(
    values: Dict[str, float], table: Sequence[Tuple[str, str, str]]
) -> Dict[str, Dict[str, object]]:
    """``{name: {value, unit}}`` for exactly the metrics of ``table``."""
    missing = [name for name, _, _ in table if name not in values]
    if missing:
        raise BenchmarkError(f"metrics never measured: {missing}")
    return {
        name: {"value": values[name], "unit": unit} for name, unit, _ in table
    }


def print_metrics(payload: Dict[str, Dict[str, object]]) -> None:
    """One ``name value unit`` line per metric."""
    width = max(len(name) for name in payload)
    for name, entry in payload.items():
        value = entry["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown} {entry['unit']}")
