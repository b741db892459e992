"""The repo's end-to-end benchmark: one seeded workload per invocation.

    python3 benchmarks/e2e/run.py --workload point_lookup
    python3 benchmarks/e2e/run.py --workload all            # six, each twice
    python3 benchmarks/e2e/run.py --workload tau_churn --trace 1

``--trace 0`` (default) serves the workload as a caller would and prints
the end-to-end metrics; ``--trace 1`` re-serves it through the public
layer calls, each wrapped in a span, and prints the per-layer metrics
and the per-layer time budget. End-to-end numbers never come from a
traced run. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

See ``README.md`` beside this file for the metric glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from typing import Dict, List

import e2e_harness as harness
from e2e_harness import (
    DEFAULT_SECONDS,
    DEFAULT_SEED,
    END_TO_END,
    OUT_DIR,
    PER_LAYER,
    WORKLOADS,
    BenchmarkError,
    PassResult,
    Tracer,
    clock,
)

#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A traced run splits ``--seconds`` between untraced reference passes
#: and traced passes; the probes take the rest of the run's wall time.
TRACE_SHARE = 0.35


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-check", action="store_true",
        help="corrupt one captured answer: the run must report a failure",
    )
    return parser.parse_args(argv)


def throughput(passes: List[PassResult], attribute: str) -> float:
    """Median over passes of ``attribute`` per second of pass wall time."""
    return statistics.median(
        getattr(result, attribute) / result.wall for result in passes
    )


def cold_setups(workload, repeats: int) -> None:
    """Set the workload up cold ``repeats`` times; the last one serves."""
    for attempt in range(repeats):
        if attempt:
            workload.teardown()
            gc.collect()
        workload.cold_setup()


def end_to_end_run(workload, seconds: float):
    """Untraced passes: the metrics a user of the engine would see.

    Returns ``(metric values, the timed passes)``.
    """
    cold_setups(workload, SETUP_REPEATS)
    passes, samples = harness.timed_passes(workload.run_pass, seconds)
    latency = samples.per_operation("latency")
    first = samples.per_operation("first_tuple")
    cells, stored = workload.space()
    return {
        "setup_s": statistics.median(workload.setup_samples),
        "requests_per_s": throughput(passes, "operations"),
        "tuples_per_s": throughput(passes, "tuples"),
        "latency_p50_ms": harness.percentile(latency, 0.5) * 1e3,
        "latency_p99_ms": harness.tail_percentile(latency, 0.99, samples.count())
        * 1e3,
        "first_tuple_p50_ms": harness.percentile(first, 0.5) * 1e3,
        "resident_cells": cells,
        "stored_bytes_per_cell": stored / cells,
        "peak_rss_mb": harness.peak_rss_mb(),
    }, passes


def traced_run(workload, seconds: float, generate_s: float):
    """Reference passes, then traced passes, then the layer probes.

    Returns ``(metric values, every pass served, the budget report)``.
    """
    from e2e_probes import per_layer_metrics

    cold_setups(workload, 1)
    share = seconds * TRACE_SHARE
    untraced, _ = harness.timed_passes(
        workload.run_pass, share, min_passes=2, min_samples=0
    )
    tracer = Tracer()
    workload.traced_pass(tracer)
    traced: List[PassResult] = []
    served = 0.0
    while served < share or len(traced) < 2:
        gc.collect()
        traced.append(workload.traced_pass(tracer))
        served += traced[-1].wall
    last = traced[-1]
    for count in ("operations", "tuples"):
        if last.counts[count] != untraced[-1].counts[count]:
            raise BenchmarkError(
                f"the traced pass delivered {last.counts[count]} {count}, "
                f"the untraced pass {untraced[-1].counts[count]}"
            )
    spans = tracer.spans
    path = harness.write_trace(workload.name, workload.seed, spans)
    overhead = 1.0 - throughput(traced, "operations") / throughput(
        untraced, "operations"
    )
    values, budget = per_layer_metrics(
        workload, spans, last, untraced[-1], generate_s, overhead
    )
    print(f"trace: {len(spans)} spans of the last traced pass in {path}")
    print(f"budget of the last traced pass ({last.raw_wall:.4f} s as measured):")
    for layer, own in sorted(budget.items(), key=lambda item: -item[1]):
        print(f"  {layer:<24} {own:10.6f} s  {own / last.raw_wall:7.2%}")
    return values, untraced + traced, {
        "wall_s": last.raw_wall,
        "speed": last.speed,
        "layers_s": budget,
        "spans": len(spans),
    }


def run_one(args: argparse.Namespace) -> int:
    """One workload, traced or not; returns the process exit code."""
    harness.bootstrap()
    harness.pin_to_one_cpu()
    from e2e_workloads import REGISTRY

    workload = REGISTRY[args.workload](args.seed, keep_probe_state=bool(args.trace))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(),
    }
    print(" ".join(f"{key}={value}" for key, value in report.items()))
    try:
        started = clock()
        workload.generate()
        generate_s = clock() - started
        if args.trace:
            values, passes, report["budget"] = traced_run(
                workload, args.seconds, generate_s
            )
            table = PER_LAYER
        else:
            values, passes = end_to_end_run(workload, args.seconds)
            table = END_TO_END
        checked, mismatched = workload.check(corrupt=args.self_check)
    finally:
        workload.teardown()
    attempted = sum(result.operations for result in passes) + checked
    failed = sum(result.failed for result in passes) + mismatched
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": harness.metric_payload(values, table),
    }
    report.update(
        passes=len(passes),
        counts=passes[-1].counts,
        failed_share=failed / attempted,
        **result,
    )
    harness.print_metrics(result["metrics"])
    print(
        f"passes={len(passes)} counts={passes[-1].counts} checked={checked} "
        f"failed_share={failed / attempted:.6g}"
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (OUT_DIR / f"result-{args.workload}{suffix}.json").write_text(
        json.dumps(report, indent=1)
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, one child process each."""
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, __file__, "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            print(f"== {workload} --trace {trace}", flush=True)
            worst = max(worst, subprocess.run(command).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
