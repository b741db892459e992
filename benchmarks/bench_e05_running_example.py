"""EXP-E5 — the running example (Examples 4-5, 13-15, Figures 3-4).

Two parts:
* the paper's 5-tuple instance, asserting the exact Figure 3 tree, the
  Example 13 costs and the Example 15 dictionary — the "paper numbers"
  rows below print paper-vs-measured;
* a scaled random instance of Q^fffbbb with τ = √N, where Theorem 1
  promises space Õ(N²) (from N³ at τ=1) with delay Õ(√N).
"""

import math

import pytest

from bench_reporting import bench_emit_table, bench_probe_delays
from repro.core.intervals import FInterval
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.workloads.generators import random_relation
from repro.workloads.queries import running_example_database, running_example_view

UNIT_WEIGHTS = {0: 1.0, 1: 1.0, 2: 1.0}


def test_paper_instance_numbers(benchmark):
    view = running_example_view()
    db = running_example_database()

    def build():
        return CompressedRepresentation(
            view, db, tau=4.0, weights=UNIT_WEIGHTS
        )

    cr = benchmark.pedantic(build, rounds=3, iterations=1)
    space = cr.ctx.space
    root_interval = FInterval.full(space)
    t_root = cr.cost_model.interval_cost(root_interval)
    # T(v_b, I_r) as the dictionary pass stored it beside the heavy pair.
    columns = cr._layout.dictionary
    lo, hi = columns.index[(1, 1, 1)]
    t_heavy = columns.costs[lo + columns.nodes[lo:hi].index(cr.tree.root.id)]
    rows = [
        ("T(I_r)", "10.56", f"{t_root:.2f}"),
        ("T(vb,I_r)", "4.414", f"{t_heavy:.3f}"),
        ("beta(r)", "(1,1,2)", str(space.values(cr.tree.root.beta))),
        ("beta(rr)", "(1,2,2)", str(space.values(cr.tree.root.right.beta))),
        ("tree nodes", "5 (Fig.3)", str(len(cr.tree.nodes))),
        ("dict entries", "2 (Ex.15)", str(len(cr.dictionary))),
        ("D(r,vb)", "1", str(cr.dictionary.get(cr.tree.root.id, (1, 1, 1)))),
        (
            "D(rr,vb)",
            "1",
            str(cr.dictionary.get(cr.tree.root.right.id, (1, 1, 1))),
        ),
    ]
    bench_emit_table(
        rows,
        headers=("quantity", "paper", "measured"),
        title="EXP-E5 running example: paper numbers (Examples 13-15, Fig. 3)",
    )
    assert space.values(cr.tree.root.beta) == (1, 1, 2)
    assert len(cr.tree.nodes) == 5
    assert len(cr.dictionary) == 2


@pytest.fixture(scope="module")
def scaled():
    view = running_example_view()
    size, domain = 150, 8
    db = Database(
        [
            random_relation(f"R{i}", 3, size, domain, seed=20 + i)
            for i in (1, 2, 3)
        ]
    )
    accesses = [(a, b, c) for a in range(4) for b in range(4) for c in range(2)]
    return view, db, accesses


def test_scaled_tradeoff(benchmark, scaled):
    view, db, accesses = scaled
    n = 150

    def sweep():
        rows = []
        for tau in (1.0, math.sqrt(n), float(n)):
            cr = CompressedRepresentation(
                view, db, tau=tau, weights=UNIT_WEIGHTS
            )
            gap, outputs, _ = bench_probe_delays(cr, accesses)
            rows.append(
                (
                    f"{tau:.1f}",
                    cr.space_report().structure_cells,
                    gap,
                    outputs,
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    bench_emit_table(
        rows,
        headers=("tau", "cells", "max_step_gap", "outputs"),
        title=(
            "EXP-E5 running example scaled (N=150): paper Example 5 point "
            "tau=sqrt(N) -> space O~(N^2), delay O~(sqrt N)"
        ),
    )


def test_query_at_example5_point(benchmark, scaled):
    view, db, accesses = scaled
    cr = CompressedRepresentation(
        view, db, tau=math.sqrt(150), weights=UNIT_WEIGHTS
    )
    benchmark(lambda: [cr.answer(a) for a in accesses[:12]])
