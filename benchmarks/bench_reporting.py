"""Reporting helpers for the benchmark harness, as a plain module.

Every bench reports the paper-shape series (space vs τ, delays, who-wins
comparisons) through :func:`bench_emit`. Emitted blocks are buffered and
printed in the terminal summary — after pytest's capture — so the tables
reliably appear in ``pytest benchmarks/ --benchmark-only`` output and can
be copied into EXPERIMENTS.md.

The helpers are deliberately ``bench_``-prefixed and live outside
``conftest.py``: the seed suite imported them via ``from conftest import
…``, which silently resolves against whichever conftest module pytest
loaded first and once broke collection of the entire test tree.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.joins.generic_join import JoinCounter
from repro.measure.delay import measure_enumeration
from repro.measure.tradeoff import format_table

_REPORT: List[str] = []


def bench_emit(text: str) -> None:
    """Buffer a report line/block for the end-of-run summary."""
    _REPORT.append(text)


def bench_emit_table(rows: Iterable[Sequence], headers: Sequence[str], title: str) -> None:
    bench_emit(format_table(rows, headers, title=title))


def bench_report_blocks() -> List[str]:
    """The buffered blocks, for the terminal-summary hook."""
    return _REPORT


def bench_probe_delays(structure, accesses):
    """(max step gap, total outputs, total steps) over an access sample."""
    worst_gap = 0
    outputs = 0
    steps = 0
    for access in accesses:
        counter = JoinCounter()
        stats = measure_enumeration(
            structure.enumerate(access, counter=counter),
            counter=counter,
            keep_gaps=False,
        )
        worst_gap = max(worst_gap, stats.step_max_gap)
        outputs += stats.outputs
        steps += stats.step_total
    return worst_gap, outputs, steps
