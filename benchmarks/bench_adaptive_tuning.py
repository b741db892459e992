"""EXP-ADAPT — closed-loop τ re-tuning vs a static τ on a shifting stream.

The paper's τ is a *pre-commitment*: pick it at build time, pay its
space everywhere. A serving system can do better — the telemetry layer
already observes every request's step gaps, so the
:class:`~repro.engine.telemetry.AdaptiveTuner` can re-derive τ from the
observed delay-gap percentile against the budget while the stream runs.
This bench gates that loop on the operational failure mode the
OPERATIONS runbook opens with: an over-tight τ under a bounded cache.

* **adaptive gate (acceptance)** — two triangle views are registered at
  a deliberately tight ``τ=2`` on a server whose cache budget
  (``max_cells``) holds *one* τ=2 structure but not both, so a
  skew-shifting stream (phase 1 hot on one view, phase 2 shifting to
  the other, with the cold view still trickling) evicts and rebuilds on
  every batch. Served statically, that thrash never ends. Served with
  the tuner re-deriving τ on its cadence against the real gap budget, the
  observed p95 step gaps come in far under budget, τ is relaxed, the
  structures shrink (the paper's space/delay tradeoff, run backwards)
  until both fit, and the thrash stops. The adaptive pass pays its own
  telemetry, decisions, and ladder of re-builds inside the timed run
  and must still be >= 1.2x faster wall-clock, answers bit-identical.
* **telemetry overhead** — the same stream served twice from *warm,
  unbounded* caches (no builds in the timed window, so the ±10% noise
  of thrash timings cannot drown the signal), with and without
  telemetry, recorded as a ratio. The tax is a fixed ~10µs per cursor
  (counter bumps + two histogram observations at close), so the ratio
  is an upper bound taken on worst-case tiny requests — the OPERATIONS
  runbook quotes the absolute per-request figure. Telemetry stays
  opt-in: servers built without it skip instrumentation entirely, so
  the existing gates pay nothing.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the stream for CI; the
1.2x acceptance threshold is identical in both modes.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import pytest

from bench_reporting import bench_emit, bench_emit_table, bench_record_gate
from repro.engine import AdaptiveTuner, ViewServer
from repro.query.parser import parse_view
from repro.workloads import triangle_database, triangle_view
from repro.workloads.streams import shifting_requests

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
NODES, EDGES = (40, 260)
N_REQUESTS = 192 if SMOKE else 576
BATCH = 24
# τ=2 puts each view's structure at ~2000 cells; MAX_CELLS admits one
# such structure but not two, so the static server thrashes. From τ=4
# up, both structures fit together (~1400 cells each and shrinking).
TAU_STATIC = 2.0
MAX_CELLS = 3000
GAP_BUDGET = 64.0
# The hot view's shared-scan step gaps sit around a p95 bucket of 32
# at τ=2 on this workload; 2x headroom lets the loop call that "under
# budget" and relax, where the default 4x would deadlock it.
RELAX_HEADROOM = 2.0
# The operator's serving-τ ceiling: past τ=16 the optimizer's cover no
# longer changes on this workload (cell counts plateau), so further
# relaxation would re-build identical structures for nothing.
MAX_TAU = 16.0
# Tune every other batch: long enough that the cold view's trickle
# shows up in every interval (so it is never mistaken for idle and
# demote/rebuild-oscillated), short enough to converge inside the
# smoke stream.
TUNE_INTERVAL = 2 * BATCH
REPEATS = 2 if SMOKE else 3
MIN_SPEEDUP = 1.2

VIEW_A = triangle_view("bbf")
VIEW_B = parse_view("Rev^bbf(y, z, x) = R(x, y), S(y, z), T(z, x)")


@pytest.fixture(scope="module")
def workload():
    db = triangle_database(nodes=NODES, edges=EDGES, seed=13)
    stream = shifting_requests(
        [("A", VIEW_A), ("B", VIEW_B)],
        db,
        N_REQUESTS,
        n_phases=2,
        seed=3,
        skew=1.4,
        hot_share=0.9,
    )
    return db, stream


def _register(server: ViewServer) -> None:
    server.register(VIEW_A, tau=TAU_STATIC, name="A")
    server.register(VIEW_B, tau=TAU_STATIC, name="B")


def _drain(server: ViewServer, stream, tuner=None):
    """Serve the stream batch by batch; returns (answers, wall seconds)."""
    answers = []
    # A full collection walks the whole test process's heap (~30 ms under
    # pytest, a quarter of a drain), and whether the collector schedules
    # one inside this window depends on how many objects the drains
    # before it left alive — not on the work timed here. Every drain
    # starts from a collected heap.
    gc.collect()
    started = time.perf_counter()
    for index in range(0, len(stream), BATCH):
        chunk = stream[index : index + BATCH]
        for cursor in server.open_batch(chunk):
            with cursor:
                answers.append(cursor.fetchall())
        if tuner is not None:
            tuner.maybe_tune()
    return answers, time.perf_counter() - started


def test_adaptive_tuning_gate(workload):
    db, stream = workload
    static_times, adaptive_times = [], []
    plain_times, telemetry_times = [], []
    static_answers = adaptive_answers = None
    decisions = []
    final_tau = {}

    # Fresh servers per round: the tuner's whole point is the transient
    # (serving at a bad τ until the loop corrects it), so warm reuse
    # would measure nothing. Interleaving the variants keeps CI-runner
    # stalls from landing on one variant's block of rounds.
    gc.collect()
    for _ in range(REPEATS):
        static = ViewServer(db, max_cells=MAX_CELLS)
        _register(static)
        static_answers, seconds = _drain(static, stream)
        static_times.append(seconds)
        static.close()

        # The overhead pair runs warm and unbounded: with builds out of
        # the timed window, the serving-path tax is the only difference.
        for telemetry, bucket in ((False, plain_times), (True, telemetry_times)):
            server = ViewServer(db, telemetry=telemetry)
            _register(server)
            server.prefetch("A")
            server.prefetch("B")
            _, seconds = _drain(server, stream)
            bucket.append(seconds)
            server.close()

        adaptive = ViewServer(db, max_cells=MAX_CELLS, telemetry=True)
        _register(adaptive)
        tuner = AdaptiveTuner(
            adaptive,
            adaptive.telemetry,
            gap_budget=GAP_BUDGET,
            interval_requests=TUNE_INTERVAL,
            relax_headroom=RELAX_HEADROOM,
            max_tau=MAX_TAU,
        )
        decisions = []
        adaptive_answers, seconds = _drain(adaptive, stream, tuner)
        adaptive_times.append(seconds)
        final_tau = {name: adaptive.serving_tau(name) for name in ("A", "B")}
        adaptive.close()

    static_seconds = statistics.median(static_times)
    adaptive_seconds = statistics.median(adaptive_times)
    plain_seconds = statistics.median(plain_times)
    telemetry_seconds = statistics.median(telemetry_times)
    speedup = static_seconds / max(adaptive_seconds, 1e-9)
    overhead = telemetry_seconds / max(plain_seconds, 1e-9)

    # Re-run one adaptive pass solely to report its decision mix (the
    # timed rounds above already proved the answers identical).
    adaptive = ViewServer(db, max_cells=MAX_CELLS, telemetry=True)
    _register(adaptive)
    tuner = AdaptiveTuner(
        adaptive,
        adaptive.telemetry,
        gap_budget=GAP_BUDGET,
        interval_requests=TUNE_INTERVAL,
        relax_headroom=RELAX_HEADROOM,
        max_tau=MAX_TAU,
    )
    for index in range(0, len(stream), BATCH):
        for cursor in adaptive.open_batch(stream[index : index + BATCH]):
            with cursor:
                cursor.fetchall()
        decisions.extend(tuner.maybe_tune())
    adaptive.close()
    retunes = sum(1 for d in decisions if d.kind == "retune")

    bench_emit_table(
        [
            (
                f"static tau={TAU_STATIC:g}",
                f"{static_seconds * 1000:.1f}",
                "-",
                "-",
            ),
            (
                "warm serve, no telemetry",
                f"{plain_seconds * 1000:.1f}",
                "-",
                "-",
            ),
            (
                "warm serve, telemetry",
                f"{telemetry_seconds * 1000:.1f}",
                "-",
                f"{(overhead - 1) * 100:+.1f}% tax",
            ),
            (
                "adaptive",
                f"{adaptive_seconds * 1000:.1f}",
                f"A:{final_tau.get('A', 0):g} B:{final_tau.get('B', 0):g}",
                f"{speedup:.2f}x",
            ),
        ],
        headers=("mode", "ms", "final tau", "vs static"),
        title=(
            f"EXP-ADAPT: {len(stream)}-request skew-shifting stream "
            f"(2 views, 2 phases, |D|={db.total_tuples()}, cache cap "
            f"{MAX_CELLS} cells); adaptive re-tunes every "
            f"{TUNE_INTERVAL} requests against gap budget {GAP_BUDGET:g}"
        ),
    )
    bench_emit(
        f"closed loop: {len(decisions)} decision(s) ({retunes} retunes) "
        f"brought tau {TAU_STATIC:g} -> {final_tau}; the adaptive pass "
        f"must be >= {MIN_SPEEDUP:.1f}x the static one, answers "
        "bit-identical."
    )
    bench_record_gate(
        "adaptive-tuning",
        speedup,
        MIN_SPEEDUP,
        requests=len(stream),
        decisions=len(decisions),
        retunes=retunes,
        telemetry_overhead=round(overhead, 4),
    )
    assert adaptive_answers == static_answers
    assert retunes > 0, "the tuner never retuned; the gate measured nothing"
    assert speedup >= MIN_SPEEDUP, (
        f"adaptive tuning speedup only {speedup:.2f}x"
    )
