"""Noise calibration: how far the end-to-end metrics move on one commit.

    python3 benchmarks/e2e/calibrate.py --runs 5       # same seed, 5 runs
    python3 benchmarks/e2e/calibrate.py --seeds 10     # 10 consecutive seeds
    python3 benchmarks/e2e/calibrate.py --runs 5 --seeds 10 --write-baseline

``--runs`` repeats the default seed: every count (cells, tuples and
operations per pass, cache counters) must repeat exactly, and the spread
is pure run-to-run noise. ``--seeds`` varies the seed the way the
benchmark's acceptance check does: the spread of each metric is the
distance between the first and third quartile of its values as a share
of their median, and a metric's bound in ``BENCHMARK.json`` must be at
least three times the widest spread any workload shows. Each run is a
child process, so peak memory and imports start fresh.

``--write-baseline`` also makes one traced run per workload and stores
everything in ``baseline.json`` beside this file. ``--write-contract``
(with ``--seeds``) rewrites ``BENCHMARK.json`` from the harness's tables
with the bounds just measured.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Sequence

from e2e_harness import (
    DEFAULT_SECONDS,
    DEFAULT_SEED,
    END_TO_END,
    HERE,
    OUT_DIR,
    PER_LAYER,
    ROOT,
    WORKLOAD_WHY,
    WORKLOADS,
    BenchmarkError,
    quartile_spread,
)

#: The issue's regression floors; a bound is max(floor, 3 x spread), <= 0.25.
FLOORS = {
    "setup_s": 0.10,
    "requests_per_s": 0.05,
    "tuples_per_s": 0.05,
    "latency_p50_ms": 0.05,
    "latency_p99_ms": 0.10,
    "first_tuple_p50_ms": 0.05,
    "resident_cells": 0.0,
    "stored_bytes_per_cell": 0.005,
    "peak_rss_mb": 0.05,
}


def run_child(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One benchmark run in a child process; its stored report."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    child = subprocess.run(command, capture_output=True, text=True)
    print(
        f"  {workload} seed={seed} trace={trace}: "
        f"{time.perf_counter() - started:.1f} s",
        flush=True,
    )
    if child.returncode != 0:
        raise BenchmarkError(
            f"{' '.join(command)} exited {child.returncode}:\n"
            f"{child.stdout[-2000:]}\n{child.stderr[-2000:]}"
        )
    suffix = "-trace" if trace else ""
    return json.loads((OUT_DIR / f"result-{workload}{suffix}.json").read_text())


def summarize(reports: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """Median, quartiles and relative spread of each end-to-end metric."""
    return {
        name: quartile_spread(
            [report["metrics"][name]["value"] for report in reports]
        )
        for name, _, _ in END_TO_END
    }


def print_summary(title: str, summary: Dict[str, Dict[str, float]]) -> None:
    print(title)
    for name, stats in summary.items():
        print(
            f"  {name:<22} median {stats['median']:<12.6g} "
            f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
            f"spread {stats['spread']:.2%}"
        )


def write_contract(bounds: Dict[str, float]) -> Path:
    """``BENCHMARK.json`` from the harness's tables and measured bounds."""
    contract = {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOAD_WHY.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better,
             "bound": bounds[name]}
            for name, unit, better in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(contract, indent=1) + "\n")
    return path


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=0)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="calibrate only these (default: all six)",
    )
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument("--write-contract", action="store_true")
    args = parser.parse_args(argv)
    if args.write_contract and not args.seeds:
        parser.error("--write-contract needs --seeds to measure bounds from")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    baseline: Dict[str, Dict] = {}
    widest: Dict[str, float] = {name: 0.0 for name, _, _ in END_TO_END}
    for workload in workloads:
        entry: Dict[str, object] = {}
        if args.runs:
            reports = [
                run_child(workload, args.seed, args.seconds, 0)
                for _ in range(args.runs)
            ]
            counts = [report["counts"] for report in reports]
            cells = [
                report["metrics"]["resident_cells"]["value"]
                for report in reports
            ]
            if any(c != counts[0] for c in counts) or len(set(cells)) != 1:
                raise BenchmarkError(
                    f"{workload}: counts differ between runs of one seed: "
                    f"{counts} cells {cells}"
                )
            entry["same_seed"] = summarize(reports)
            entry["counts"] = counts[0]
            print_summary(
                f"{workload}: {args.runs} runs of seed {args.seed}",
                entry["same_seed"],
            )
        if args.seeds:
            reports = [
                run_child(workload, args.seed + offset, args.seconds, 0)
                for offset in range(args.seeds)
            ]
            entry["across_seeds"] = summarize(reports)
            print_summary(
                f"{workload}: seeds {args.seed}..{args.seed + args.seeds - 1}",
                entry["across_seeds"],
            )
            for name, stats in entry["across_seeds"].items():
                widest[name] = max(widest[name], stats["spread"])
        if args.write_baseline:
            traced = run_child(workload, args.seed, args.seconds, 1)
            budget = traced["budget"]
            layers = sorted(
                (
                    (layer, seconds)
                    for layer, seconds in budget["layers_s"].items()
                    if layer != "bench.unattributed"
                ),
                key=lambda item: -item[1],
            )
            entry["per_layer"] = {
                name: metric["value"]
                for name, metric in traced["metrics"].items()
            }
            entry["budget"] = {
                "traced_pass_s": budget["wall_s"],
                "largest_self_time_layers": [
                    {"layer": layer, "share": seconds / budget["wall_s"]}
                    for layer, seconds in layers[:3]
                ],
                "unattributed_share": budget["layers_s"]["bench.unattributed"]
                / budget["wall_s"],
            }
            entry["environment"] = traced["environment"]
        baseline[workload] = entry
    if args.seeds:
        print("bounds: max(floor, 3 x widest spread over workloads), <= 0.25")
        bounds = {}
        for name, spread in widest.items():
            bound = max(FLOORS[name], math.ceil(300 * spread) / 100)
            flag = "" if bound <= 0.25 else "  <-- too noisy for any bound"
            bounds[name] = min(bound, 0.25)
            print(
                f"  {name:<22} widest spread {spread:.2%}  "
                f"bound {bounds[name]:.2f}{flag}"
            )
        if args.write_contract:
            print(f"contract written to {write_contract(bounds)}")
    if args.write_baseline:
        document = {
            "seed": args.seed,
            "seconds": args.seconds,
            "runs": args.runs,
            "seeds": args.seeds,
            "workloads": baseline,
        }
        path = HERE / "baseline.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"baseline written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
