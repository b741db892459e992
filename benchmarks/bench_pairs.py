"""Alternating parent/change pairs of the end-to-end benchmark.

A performance claim in this repo is decided the way
``choosing-metrics`` §8 says: at least ten pairs of runs, parent and
change alternating which goes first, each side's median and quartiles,
and a gain only when the change wins at least nine tenths of the pairs
*and* the medians differ by more than the distance between the parent's
own quartiles. Every PR so far hand-rolled that loop in a scratch shell
script; this is the loop, once.

    python benchmarks/bench_pairs.py --parent ../parent-checkout \\
        --workload scan_stream --pairs 10 --seed 11 --out BENCH_20.json

``--workload`` is one workload, a comma list of them, or ``all`` (every
workload ``BENCHMARK.json`` declares): each runs its own pairs in turn,
over one parent checkout, and each row is merged into ``--out`` as
soon as it is summarised.

``--parent`` is a directory, or a git revision of this repository
(``HEAD~1``, a hash, a branch): the revision is checked out in a
detached ``git worktree`` under a temporary directory for the runs and
removed afterwards. ``--out`` records the parent's short commit hash
(``unknown`` for a directory that is no git checkout). The change is
the checkout this file sits in. Each run is the tree's
*own* ``benchmarks/e2e/run.py`` in a subprocess started in that tree (so
each side measures its own engine with its own harness, at the run
length the benchmark sets), and the last line of its standard output is
the result. A run that exits non-zero (``run.py`` exits 1 when an
answer was wrong), prints no result or reports ``correct: false``
stops the loop with an error naming the side, the pair, the workload
and the seed: a timing of wrong answers is no measurement. The metric
names, directions and regression bounds are read from this tree's
``BENCHMARK.json``. ``--out`` merges each ``workload@seed`` row into
a compact ``BENCH_<pr>.json`` (medians, quartiles, wins, verdict and
every run's value), so one file can hold all six workloads and a
held-out seed.

Verdicts, per metric: ``improved`` (the §8 rule), ``worse`` (the
change's median is worse than the parent's by more than the contract's
bound), ``unresolved`` (the parent's own quartile distance is wider than
the bound, so the bound cannot be checked — unless every run of the
change reads better than every run of the parent), ``inside bound``
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
RUNNER = ("benchmarks", "e2e", "run.py")
#: §8: the share of pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def compact(value: float) -> float:
    """Six significant digits: what a committed artifact needs."""
    return float(f"{value:.6g}")


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and inclusive quartiles of one side's runs."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": compact(q1), "median": compact(median), "q3": compact(q3)}


def summarise(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    """One metric over paired runs: both spreads, wins and the verdict.

    ``parent[i]`` and ``change[i]`` are the two runs of pair ``i``;
    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` is the share of
    the parent's median the metric may worsen by.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    before, after = quartiles(parent), quartiles(change)
    gain = sign * (after["median"] - before["median"])
    spread = before["q3"] - before["q1"]
    allowed = bound * abs(before["median"])
    if wins >= WIN_SHARE * len(parent) and gain > spread:
        verdict = "improved"
    elif -gain > allowed:
        verdict = "worse"
    elif spread > allowed and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        verdict = "unresolved"
    else:
        verdict = "inside bound"
    return {
        "parent": before,
        "change": after,
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "verdict": verdict,
    }


def parse_result(stdout: str) -> Dict[str, object]:
    """The result object ``run.py`` prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def summarise_pairs(
    parent_results: Sequence[Dict], change_results: Sequence[Dict], contract: Dict
) -> Dict[str, object]:
    """A ``BENCH`` row from the two sides' parsed result lines."""
    metrics = {}
    for entry in contract["end_to_end"]:
        name = entry["name"]
        sides = [
            [result["metrics"][name]["value"] for result in results]
            for results in (parent_results, change_results)
        ]
        metrics[name] = summarise(*sides, entry["better"], entry["bound"])
        metrics[name]["unit"] = entry["unit"]
        metrics[name]["runs"] = {
            side: [compact(value) for value in values]
            for side, values in zip(("parent", "change"), sides)
        }
    return {
        "pairs": len(parent_results),
        "failed": {
            side: sum(result["failed"] for result in results)
            for side, results in (
                ("parent", parent_results),
                ("change", change_results),
            )
        },
        "metrics": metrics,
    }


class RunFailed(Exception):
    """A run whose result cannot be counted: why, in one line."""


def run_once(tree: Path, workload: str, seed: int) -> Dict[str, object]:
    """One run of ``tree``'s own benchmark, at the length it sets itself.

    Raises :class:`RunFailed` unless the run exits 0 and its result says
    every answer was correct.
    """
    command = [
        sys.executable, str(tree.joinpath(*RUNNER)),
        "--workload", workload, "--seed", str(seed),
    ]
    # Each tree imports its own src/: a PYTHONPATH naming one of them
    # would put that engine on the other side's path too.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        result = parse_result(done.stdout)
    except (IndexError, ValueError):
        raise RunFailed(f"exit code {done.returncode}, no result line") from None
    if done.returncode or result.get("correct") is not True:
        raise RunFailed(
            f"exit code {done.returncode}, correct: "
            f"{json.dumps(result.get('correct'))}"
        )
    return result


def print_row(label: str, row: Dict[str, object]) -> None:
    print(f"== {label}: {row['pairs']} pairs, failed {row['failed']}")
    for name, m in row["metrics"].items():
        before, after = m["parent"], m["change"]
        print(
            f"  {name:<22} {before['median']:>11.5g} "
            f"[{before['q1']:.5g}..{before['q3']:.5g}] -> "
            f"{after['median']:>11.5g} [{after['q1']:.5g}..{after['q3']:.5g}] "
            f"{m['unit']:<7} wins {m['wins']}/{m['pairs']}  {m['verdict']}"
        )


def dump_report(report: Dict[str, object]) -> str:
    """The ``BENCH`` file: one line per metric, so a diff reads as rows."""
    rows = []
    for label, row in sorted(report["rows"].items()):
        metrics = ",\n".join(
            f"    {json.dumps(name)}: {json.dumps(metric)}"
            for name, metric in row["metrics"].items()
        )
        rows.append(
            f'  {json.dumps(label)}: {{"pairs": {row["pairs"]}, "failed": '
            f'{json.dumps(row["failed"])}, "metrics": {{\n{metrics}\n  }}}}'
        )
    body = ",\n".join(rows)
    return f'{{"parent": {json.dumps(report["parent"])}, "rows": {{\n{body}\n}}}}\n'


def head_of(tree: Path) -> str:
    done = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return done.stdout.strip() or "unknown"


@contextmanager
def parent_checkout(parent: str) -> Iterator[Tuple[Path, str]]:
    """The parent side's tree and its short commit hash.

    A directory is used as it is. Anything else is a git revision of
    this repository, checked out in a detached worktree under a
    temporary directory for as long as the block runs, then removed.
    """
    path = Path(parent)
    if path.is_dir():
        yield path.resolve(), head_of(path)
        return
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "parent"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(tree), parent],
            cwd=REPO, check=True, stdout=subprocess.DEVNULL,
        )
        try:
            yield tree, head_of(tree)
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(tree)],
                cwd=REPO, check=True,
            )


def workloads_of(spec: str, contract: Dict) -> List[str]:
    """The workloads ``--workload`` names: one, a comma list, or ``all``."""
    declared = [entry["name"] for entry in contract["workloads"]]
    names = declared if spec == "all" else spec.split(",")
    unknown = [name for name in names if name not in declared]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; declared: {declared}")
    return names


def run_pairs(trees: Dict[str, Path], workload: str, pairs: int, seed: int):
    """Each side's results over ``pairs`` alternating pairs of runs."""
    results: Dict[str, List[Dict]] = {"parent": [], "change": []}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                result = run_once(trees[side], workload, seed)
            except RunFailed as error:
                raise SystemExit(
                    f"{side} run of pair {pair + 1}/{pairs}, "
                    f"{workload}@{seed}: {error}"
                ) from None
            results[side].append(result)
            print(
                f"{workload} pair {pair + 1}/{pairs} {side}: "
                f"failed {result['failed']}",
                flush=True,
            )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="a directory or a git revision")
    parser.add_argument(
        "--workload", required=True, help="a workload, a comma list, or all"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = workloads_of(args.workload, contract)
    with parent_checkout(args.parent) as (parent, parent_head):
        trees = {"parent": parent, "change": REPO}
        for workload in workloads:
            results = run_pairs(trees, workload, args.pairs, args.seed)
            row = summarise_pairs(results["parent"], results["change"], contract)
            label = f"{workload}@{args.seed}"
            print_row(label, row)
            if args.out is not None:
                report = (
                    json.loads(args.out.read_text()) if args.out.exists() else {}
                )
                report["parent"] = parent_head
                report.setdefault("rows", {})[label] = row
                args.out.write_text(dump_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
