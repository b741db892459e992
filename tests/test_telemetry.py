"""Telemetry: metric primitives, durable JSONL history, the delay signal.

Three contracts, in the order an operator hits them:

* the registry's metrics are exact under concurrency (counters don't
  drop increments, histograms bucket deterministically);
* the JSONL store is versioned append-only history — schema-checked on
  read, merged *across* server restarts rather than overwritten, and
  malformed lines fail with their file and line number;
* a live server's ``delay_step_gap{view}`` histogram holds exactly the
  measured requests' maximum step gaps, whichever walk produced them.

``docs/OPERATIONS.md`` documents every name asserted here; drift
between that document and the code should fail in this file.
"""

import json
import threading

import pytest

from oracle import oracle_answer
from reference_walk import reference_walk
from repro.engine import (
    GAP_BUCKETS,
    AsyncViewServer,
    MetricsRegistry,
    ReplicaServer,
    ShardedViewServer,
    Telemetry,
    TelemetryStore,
    ViewServer,
)
from repro.engine.telemetry import TELEMETRY_SCHEMA, Histogram
from repro.exceptions import ParameterError, SnapshotError, TelemetryError
from repro.workloads import request_stream, triangle_database, triangle_view

TAU = 4.0


@pytest.fixture(scope="module")
def setup():
    view = triangle_view("bbf")
    db = triangle_database(nodes=20, edges=90, seed=7)
    return view, db


# ----------------------------------------------------------------------
# metric primitives
# ----------------------------------------------------------------------
class TestMetricPrimitives:
    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", view="V")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ParameterError):
            counter.inc(-1)

    def test_labeled_metrics_are_distinct_and_label_order_free(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_total", view="V", mode="open")
        b = registry.counter("requests_total", mode="open", view="V")
        other = registry.counter("requests_total", view="V", mode="batch")
        assert a is b
        assert a is not other

    def test_histogram_buckets_values_at_their_upper_bounds(self):
        histogram = Histogram(bounds=(1, 2, 4))
        for value in (0, 1, 1.5, 2, 3, 4, 5, 100):
            histogram.observe(value)
        # counts has one +inf overflow slot past the declared bounds.
        assert histogram.counts == (2, 2, 2, 2)
        assert histogram.count == 8
        assert histogram.sum == pytest.approx(116.5)

    def test_histogram_percentile_is_a_bucket_upper_bound(self):
        histogram = Histogram(bounds=GAP_BUCKETS)
        assert histogram.percentile(0.95) == 0.0  # empty
        for _ in range(95):
            histogram.observe(3)
        assert histogram.percentile(0.95) == 4.0
        for _ in range(5):
            histogram.observe(10_000)  # overflow bucket
        assert histogram.percentile(0.5) == 4.0
        assert histogram.percentile(1.0) == float("inf")
        with pytest.raises(ParameterError):
            histogram.percentile(0.0)

    def test_histogram_bounds_must_be_ascending(self):
        with pytest.raises(ParameterError):
            Histogram(bounds=())
        with pytest.raises(ParameterError):
            Histogram(bounds=(2, 1))

    def test_redeclaring_a_histogram_with_new_buckets_is_fatal(self):
        # Silently changed boundaries would poison every future merge.
        registry = MetricsRegistry()
        registry.histogram("delay_step_gap", buckets=GAP_BUCKETS, view="V")
        registry.histogram("delay_step_gap", buckets=GAP_BUCKETS, view="V")
        with pytest.raises(TelemetryError, match="re-declared"):
            registry.histogram("delay_step_gap", buckets=(1, 2), view="V")

    def test_registry_is_exact_under_a_thread_hammer(self):
        registry = MetricsRegistry()
        threads, per_thread = 8, 2_000
        start = threading.Barrier(threads)

        def hammer(worker):
            start.wait()
            for i in range(per_thread):
                # get-or-create on every iteration: creation races and
                # increment races both have to lose.
                registry.counter("requests_total", view="V").inc()
                registry.histogram(
                    "delay_step_gap", buckets=GAP_BUCKETS, view="V"
                ).observe(1 + (worker + i) % 3)

        pool = [
            threading.Thread(target=hammer, args=(w,)) for w in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        total = threads * per_thread
        assert registry.counter_value("requests_total", view="V") == total
        histogram = registry.find_histogram("delay_step_gap", view="V")
        assert histogram.count == total
        assert sum(histogram.counts) == total

    def test_snapshot_merge_round_trips_exactly(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", view="V").inc(7)
        registry.gauge("async_queue_depth").set(3.0)
        histogram = registry.histogram(
            "delay_step_gap", buckets=GAP_BUCKETS, view="V"
        )
        histogram.observe(2)
        histogram.observe(900)
        snapshot = registry.snapshot()
        # JSON-ready: survives an actual encode/decode.
        snapshot = json.loads(json.dumps(snapshot))
        restored = MetricsRegistry()
        restored.merge_snapshot(snapshot)
        assert restored.snapshot() == snapshot


# ----------------------------------------------------------------------
# the durable store
# ----------------------------------------------------------------------
class TestTelemetryStore:
    def test_record_schema_is_pinned(self, tmp_path):
        # The on-disk contract docs/OPERATIONS.md documents: schema
        # version 1, one JSON object per line, with exactly these
        # envelope fields. Bump TELEMETRY_SCHEMA when changing any of it.
        assert TELEMETRY_SCHEMA == 1
        store = TelemetryStore(tmp_path, session="abc123")
        store.write_metrics({"counters": [], "gauges": [], "histograms": []})
        store.write_event({"op": "tuning", "view": "V"})
        assert store.path == tmp_path / "abc123.jsonl"
        lines = store.path.read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert set(first) == {"schema", "kind", "session", "seq", "ts",
                              "metrics"}
        assert first["schema"] == TELEMETRY_SCHEMA
        assert first["kind"] == "metrics"
        assert first["session"] == "abc123"
        assert first["seq"] == 1
        assert isinstance(first["ts"], float)
        assert second["kind"] == "event"
        assert second["seq"] == 2
        assert second["event"] == {"op": "tuning", "view": "V"}

    def test_load_reads_all_sessions_in_replay_order(self, tmp_path):
        a = TelemetryStore(tmp_path, session="aaa")
        b = TelemetryStore(tmp_path, session="bbb")
        a.write_event({"op": "one"})
        b.write_event({"op": "two"})
        a.write_event({"op": "three"})
        records = TelemetryStore.load(tmp_path)
        assert [r["event"]["op"] for r in records] == ["one", "two", "three"]
        keys = [(r["ts"], r["session"], r["seq"]) for r in records]
        assert keys == sorted(keys)

    def test_absent_directory_is_empty_history(self, tmp_path):
        assert TelemetryStore.load(tmp_path / "never-created") == []

    def test_malformed_lines_fail_with_file_and_line(self, tmp_path):
        store = TelemetryStore(tmp_path, session="abc")
        store.write_event({"op": "fine"})
        with store.path.open("a") as handle:
            handle.write("not json\n")
        with pytest.raises(TelemetryError, match=r"abc\.jsonl:2"):
            TelemetryStore.load(tmp_path)

    def test_killed_session_tail_is_skipped_with_a_warning(self, tmp_path):
        store = TelemetryStore(tmp_path, session="abc")
        store.write_event({"op": "fine"})
        with store.path.open("a") as handle:
            handle.write('{"kind": "event", "sche')
        before = store.path.read_bytes()
        with pytest.warns(UserWarning, match=r"abc\.jsonl: skipped a torn"):
            records = TelemetryStore.load(tmp_path)
        assert [r["event"]["op"] for r in records] == ["fine"]
        with pytest.warns(UserWarning):
            registry, events = TelemetryStore.merged_registry(tmp_path)
        assert len(events) == 1
        # Read-only: another session's file is never repaired here.
        assert store.path.read_bytes() == before

    def test_schema_version_mismatch_is_fatal(self, tmp_path):
        store = TelemetryStore(tmp_path, session="abc")
        record = store.write_event({"op": "fine"})
        bumped = dict(record, schema=TELEMETRY_SCHEMA + 1)
        with store.path.open("a") as handle:
            handle.write(json.dumps(bumped) + "\n")
        with pytest.raises(TelemetryError, match="schema"):
            TelemetryStore.load(tmp_path)

    def test_merge_sums_counters_and_buckets_across_sessions(self, tmp_path):
        for count in (3, 4):
            telemetry = Telemetry(tmp_path)
            telemetry.counter("requests_total", view="V").inc(count)
            histogram = telemetry.histogram(
                "delay_step_gap", buckets=GAP_BUCKETS, view="V"
            )
            for _ in range(count):
                histogram.observe(2)
            telemetry.gauge("async_queue_depth").set(float(count))
            telemetry.close()
        registry, events = TelemetryStore.merged_registry(tmp_path)
        assert registry.counter_value("requests_total", view="V") == 7
        merged = registry.find_histogram("delay_step_gap", view="V")
        assert merged.count == 7
        # Gauges are levels, not totals: the last session's value wins.
        assert registry.gauge("async_queue_depth").value == 4.0
        assert events == []

    def test_within_a_session_only_the_latest_snapshot_counts(self, tmp_path):
        # Snapshots are cumulative: replaying every flush of one session
        # would double-count. Two flushes, the counter at 2 then 5 —
        # the merge must see 5, not 7.
        telemetry = Telemetry(tmp_path)
        counter = telemetry.counter("requests_total", view="V")
        counter.inc(2)
        telemetry.flush()
        counter.inc(3)
        telemetry.flush()
        registry, _ = TelemetryStore.merged_registry(tmp_path)
        assert registry.counter_value("requests_total", view="V") == 5

    def test_events_persist_immediately_and_replay_in_order(self, tmp_path):
        telemetry = Telemetry(tmp_path)
        telemetry.event("tuning", view="V", kind="retune")
        # No flush/close: events must already be durable.
        _, events = TelemetryStore.merged_registry(tmp_path)
        assert [e["event"]["op"] for e in events] == ["tuning"]
        assert telemetry.registry.counter_value("events_total", op="tuning") == 1


# ----------------------------------------------------------------------
# instrumented serving, and history that survives a restart
# ----------------------------------------------------------------------
class TestInstrumentedServing:
    def test_every_layer_reports_into_one_shared_sink(self, setup, tmp_path):
        view, db = setup
        telemetry = Telemetry()
        front = AsyncViewServer(
            ShardedViewServer(
                db, n_shards=2, shard_key={"R": 0, "T": 1},
                telemetry=telemetry,
            ),
            max_workers=2,
            telemetry=telemetry,
        )
        try:
            name = front.backend.register(view, tau=TAU)
            accesses = request_stream(view, db, 12, seed=1)
            import asyncio

            served = asyncio.run(front.serve(name, accesses))
            assert served.result.outputs >= 0
        finally:
            front.close()
        registry = telemetry.registry
        routing = [
            entry
            for entry in registry.snapshot()["counters"]
            if entry["name"] == "shard_requests_total"
        ]
        assert routing, "the sharded facade never counted its routing"
        assert {e["labels"]["mode"] for e in routing} == {"routed"}
        assert sum(e["value"] for e in routing) == 12
        # The per-shard ViewServers underneath counted the distinct
        # cursors they opened (duplicates share a lane — see
        # answer_batch), in the same shared registry.
        opened = registry.counter_value(
            "requests_total", view=name, mode="open"
        ) + registry.counter_value("requests_total", view=name, mode="batch")
        assert opened == len(set(accesses))
        assert registry.find_histogram("async_queue_seconds") is not None
        assert registry.find_histogram("async_service_seconds") is not None
        assert registry.gauge("async_queue_depth").value == 0.0

    def test_replica_hydrations_and_refusals_are_counted(
        self, setup, tmp_path
    ):
        view, db = setup
        primary = ViewServer(db, snapshot_dir=tmp_path)
        name = primary.register(view, tau=TAU)
        primary.representation(name)
        primary.cache.demote_all()
        primary.close()

        telemetry = Telemetry()
        replica = ReplicaServer(db, snapshot_dir=tmp_path, telemetry=telemetry)
        try:
            replica.register(view, tau=TAU)
            assert replica.hydrate() == 1
            assert (
                telemetry.registry.counter_value(
                    "replica_hydrations_total", view=name
                )
                == 1
            )
            # An unshipped view refuses — and the refusal is counted.
            replica.register(view, tau=2 * TAU, name="unshipped")
            with pytest.raises(SnapshotError, match="refuses to build"):
                replica.representation("unshipped")
            assert (
                telemetry.registry.counter_value(
                    "replica_refusals_total", view="unshipped"
                )
                == 1
            )
        finally:
            replica.close()

    def test_history_survives_a_server_restart(self, setup, tmp_path):
        # The acceptance scenario: serve, shut down, start a new server
        # over the same directory, serve again — replay sees the union.
        view, db = setup
        accesses = request_stream(view, db, 5, seed=2)
        for _ in range(2):
            telemetry = Telemetry(tmp_path / "telemetry")
            server = ViewServer(db, snapshot_dir=tmp_path, telemetry=telemetry)
            name = server.register(view, tau=TAU)
            for access in accesses:
                assert server.answer(name, access) == oracle_answer(
                    view, db, access
                )
            server.close()
            telemetry.close()  # final flush of this session's snapshot
        telemetry_dir = tmp_path / "telemetry"
        sessions = sorted(telemetry_dir.glob("*.jsonl"))
        assert len(sessions) == 2, "each restart starts a new session file"
        registry, _ = TelemetryStore.merged_registry(telemetry_dir)
        assert (
            registry.counter_value("requests_total", view=name, mode="open")
            == 10
        )
        assert registry.counter_value("answers_total", view=name) > 0
        assert registry.find_histogram("serve_seconds", view=name).count == 10


# ----------------------------------------------------------------------
# the delay signal
# ----------------------------------------------------------------------
class TestDelayHistogram:
    def test_kernel_and_reference_traffic_fill_the_same_histogram(
        self, setup
    ):
        # Measured requests ride the kernel, which counts the reference
        # walk's steps itself: the delay histogram — the paper's delay,
        # as served — must not depend on the path, and must hold every
        # measured request's maximum step gap, batched or opened alone.
        view, db = setup
        accesses = request_stream(view, db, 24, seed=5)

        def run():
            telemetry = Telemetry()
            server = ViewServer(db, telemetry=telemetry)
            try:
                name = server.register(view, tau=1.0)
                expected = Histogram(GAP_BUCKETS)
                cursor_gaps = []
                for round_ in range(4):
                    batch = accesses[round_ * 6 : round_ * 6 + 6]
                    result = server.answer_batch(name, batch)
                    for stats in result.request_stats.values():
                        expected.observe(stats.step_max_gap)
                    for access in batch[:2]:
                        cursor = server.open(name, access, measure=True)
                        cursor.fetchall()
                        cursor_gaps.append(cursor.stats().step_max_gap)
                        expected.observe(cursor_gaps[-1])
                registry = server.telemetry.registry
                gaps = registry.find_histogram("delay_step_gap", view=name)
                paths = {
                    path: registry.counter_value(
                        "kernel_enumerations_total", view=name, path=path
                    )
                    for path in ("columnar", "fallback")
                }
                return gaps, expected, cursor_gaps, paths
            finally:
                server.close()
                telemetry.close()

        kernel_gaps, kernel_expected, kernel_cursors, kernel_paths = run()
        with reference_walk():
            ref_gaps, _, ref_cursors, ref_paths = run()
        # The server counts what it serves by the one path it has; the
        # fixture swaps the walk under it and is not a second series.
        assert kernel_paths == ref_paths
        assert kernel_paths["columnar"] > 0 and kernel_paths["fallback"] == 0
        assert kernel_gaps.count > 0
        assert (kernel_gaps.counts, kernel_gaps.sum) == (
            ref_gaps.counts,
            ref_gaps.sum,
        )
        assert kernel_cursors == ref_cursors and max(kernel_cursors) > 0
        # Every measured request landed in its bucket, and nothing else.
        assert (kernel_gaps.counts, kernel_gaps.sum, kernel_gaps.count) == (
            kernel_expected.counts,
            kernel_expected.sum,
            kernel_expected.count,
        )
