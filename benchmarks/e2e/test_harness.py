"""Self-test and drift gate of the e2e benchmark harness.

    python -m pytest benchmarks/e2e -q        # < 30 s: smoke runs use --seconds 1

Checks the contract (``BENCHMARK.json`` against the tables the harness
prints from, in both directions), the span arithmetic, and three smoke
runs of the cheapest workload: a plain one, a ``--self-check`` one that
must report a failure with identical counts, and a traced one whose
trace file must be well formed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import e2e_harness as harness

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN = harness.HERE / "run.py"
SMOKE_WORKLOAD = "point_lookup"


@pytest.fixture(scope="module")
def contract():
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def smoke(*extra):
    """One ``--seconds 1`` run; (exit code, last-line JSON, stored report)."""
    child = subprocess.run(
        [sys.executable, str(RUN), "--workload", SMOKE_WORKLOAD,
         "--seconds", "1", *extra],
        capture_output=True, text=True, timeout=120,
    )
    assert child.stdout, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    suffix = "-trace" if "--trace" in extra else ""
    report = json.loads(
        (harness.OUT_DIR / f"result-{SMOKE_WORKLOAD}{suffix}.json").read_text()
    )
    return child.returncode, result, report


@pytest.fixture(scope="module")
def plain_run():
    return smoke()


def test_contract_matches_harness_tables(contract):
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["run_seconds"] == harness.DEFAULT_SECONDS
    assert [w["name"] for w in contract["workloads"]] == list(harness.WORKLOADS)
    for section, table in (
        ("end_to_end", harness.END_TO_END),
        ("per_layer", harness.PER_LAYER),
    ):
        declared = [
            (m["name"], m["unit"], m["better"]) for m in contract[section]
        ]
        assert declared == list(table), section
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in contract["end_to_end"]
    )
    for metric in contract["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric


def test_names_are_well_formed_and_unique(contract):
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in contract[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])


def test_per_layer_names_start_with_a_real_module():
    package = harness.ROOT / "src" / "repro"
    for name, _, _ in harness.PER_LAYER:
        layer = harness.layer_of(name)
        if layer == "bench":
            continue
        path = package.joinpath(*layer.split("."))
        assert path.is_dir() or path.with_suffix(".py").is_file(), name


def test_span_parents_and_self_times():
    ticks = iter(range(100))
    tracer = harness.Tracer()
    original, harness.clock = harness.clock, lambda: float(next(ticks))
    try:
        outer = tracer.begin("engine.server.open", 7)          # t=0
        inner = tracer.begin("engine.api.fetchall", 7)         # t=1
        tracer.end(inner, ("core.kernel.enumerate", 0.5))      # t=2
        tracer.end(outer)                                      # t=3
    finally:
        harness.clock = original
    spans = tracer.spans
    assert [span[3] for span in spans] == [None, 0, 1]
    assert all(span[4] == 7 for span in spans)
    assert harness.self_times(spans) == [2.0, 0.5, 0.5]
    budget = harness.layer_budget(spans, wall=4.0)
    assert budget == {
        "engine.server": 2.0,
        "engine.api": 0.5,
        "core.kernel": 0.5,
        "bench.unattributed": 1.0,
    }
    assert sum(budget.values()) == 4.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.tail_percentile(list(range(100)), 0.99, count=1000) == 98
    with pytest.raises(harness.BenchmarkError):
        harness.tail_percentile(list(range(100)), 0.99, count=999)


def test_per_operation_medians_ignore_a_slow_pass():
    samples = harness.Samples()
    for pass_latencies in ([1.0, 2.0, 9.0], [1.0, 2.0, 9.0], [5.0, 8.0, 50.0]):
        samples.latency.extend(pass_latencies)
        samples.first_tuple.extend(pass_latencies)
        samples.close_pass(speed=0.5)
    assert samples.count() == 9
    assert list(samples.per_operation("latency")) == [0.5, 1.0, 4.5]


def test_no_delta_deletes_and_inserts_the_same_row():
    harness.bootstrap()
    from e2e_workloads import DynamicMixed, order_free

    update = ("update", "S", ((1, 2), (3, 4)), ((1, 2),))
    assert order_free(update) == ("update", "S", ((3, 4),), ())
    # update_stream re-inserts a row it has just deleted in seed 155.
    workload = DynamicMixed(155)
    workload.generate()
    updates = [op for op in workload.ops if op[0] == "update"]
    assert len(updates) == DynamicMixed.UPDATES
    assert not any(set(op[2]) & set(op[3]) for op in updates)


def test_smoke_run_schema(plain_run, contract):
    code, result, report = plain_run
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == declared
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert report["seed"] == harness.DEFAULT_SEED
    assert report["environment"]["nproc"] >= 1
    assert report["failed_share"] == 0


def test_self_check_fails_with_identical_counts(plain_run):
    _, _, first = plain_run
    code, result, second = smoke("--self-check")
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert second["failed_share"] > 0
    assert second["counts"] == first["counts"]
    assert (
        second["metrics"]["resident_cells"]["value"]
        == first["metrics"]["resident_cells"]["value"]
    )


def test_traced_run_schema_and_trace_file(contract):
    code, result, report = smoke("--trace", "1")
    assert code == 0 and result["correct"] is True
    declared = {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == declared
    trace = json.loads(
        (harness.OUT_DIR / f"trace-{SMOKE_WORKLOAD}.json").read_text()
    )
    assert trace["columns"] == [
        "name", "layer", "start", "end", "parent", "request_id"
    ]
    spans = trace["spans"]
    assert len(spans) == report["budget"]["spans"] > 0
    for index, (name, layer, start, end, parent, _) in enumerate(spans):
        assert layer == harness.layer_of(name)
        assert end >= start
        assert parent is None or 0 <= parent < index
    own = harness.self_times(
        [[name, start, end, parent, rid]
         for name, _, start, end, parent, rid in spans]
    )
    assert min(own) >= -1e-9
    budget = report["budget"]
    assert sum(budget["layers_s"].values()) == pytest.approx(budget["wall_s"])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    shares = sum(
        values[f"{layer}.self_share"] for layer in harness.SPAN_LAYERS
    )
    assert shares + values["bench.unattributed_share"] == pytest.approx(1.0)
    assert values["core.kernel.path_share"] == 1.0
    assert values["engine.cache.hit_rate"] == 1.0
