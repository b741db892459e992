"""CSV loading/saving and the command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.database.relation import Relation
from repro.engine.telemetry import TelemetryStore
from repro.exceptions import SchemaError
from repro.io import load_database, load_relation_csv, save_relation_csv


@pytest.fixture
def triangle_dir(tmp_path):
    (tmp_path / "R.csv").write_text("1,2\n2,3\n1,3\n")
    (tmp_path / "S.csv").write_text("2,3\n3,1\n")
    (tmp_path / "T.csv").write_text("3,1\n1,2\n3,2\n")
    return tmp_path


class TestIO:
    def test_load_relation(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("1,2\n3,4\n")
        relation = load_relation_csv(path)
        assert relation.name == "R"
        assert set(relation) == {(1, 2), (3, 4)}

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("a,b\n1,2\n")
        relation = load_relation_csv(path, has_header=True)
        assert set(relation) == {(1, 2)}

    def test_string_values(self, tmp_path):
        path = tmp_path / "People.csv"
        path.write_text("ann,7\nbob,9\n")
        relation = load_relation_csv(path)
        assert ("ann", 7) in relation

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(SchemaError):
            load_relation_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_relation_csv(path)

    def test_roundtrip(self, tmp_path):
        relation = Relation("R", 2, [(3, 4), (1, 2)])
        path = tmp_path / "out.csv"
        save_relation_csv(relation, path)
        again = load_relation_csv(path, name="R")
        assert again == relation

    def test_load_database(self, triangle_dir):
        db = load_database(triangle_dir)
        assert {r.name for r in db} == {"R", "S", "T"}
        assert len(db["R"]) == 3

    def test_missing_directory_contents(self, tmp_path):
        with pytest.raises(SchemaError):
            load_database(tmp_path)


class TestCLI:
    VIEW = "Delta^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)"

    def test_answer_command(self, triangle_dir, capsys):
        code = main(
            [
                "answer",
                "--view",
                self.VIEW,
                "--data",
                str(triangle_dir),
                "--tau",
                "4",
                "--access",
                "1,2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "built:" in output
        assert "answer(1, 2): 1 tuples" in output
        assert "(3,)" in output

    def test_sweep_command(self, triangle_dir, capsys):
        code = main(
            [
                "sweep",
                "--view",
                self.VIEW,
                "--data",
                str(triangle_dir),
                "--taus",
                "2,16",
                "--access",
                "1,2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "frontier" in output
        assert "16.0" in output

    def test_sweep_requires_access(self, triangle_dir, capsys):
        code = main(
            ["sweep", "--view", self.VIEW, "--data", str(triangle_dir)]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["answer", "sweep"])
    def test_every_subcommand_reports_errors_the_same_way(
        self, command, triangle_dir, tmp_path, capsys
    ):
        # One "<subcommand>: <error>" line and exit code 2 — these two
        # used to dump a QueryError / SchemaError traceback.
        extra = ["--access", "1,2"]
        bad_view = [command, "--view", "nonsense", "--data", str(triangle_dir)]
        bad_data = [
            command, "--view", self.VIEW, "--data", str(tmp_path / "absent"),
        ]
        for argv in (bad_view, bad_data):
            assert main(argv + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith(f"{command}: ")

    def test_serve_command(self, triangle_dir, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text("1,2\n3,1\n1,2\n# comment\n\n9,9\n")
        code = main(
            [
                "serve",
                "--view",
                self.VIEW,
                "--data",
                str(triangle_dir),
                "--requests",
                str(requests),
                "--tau",
                "4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "registered 'Delta': tau=4.000 (fixed)" in output
        # 4 requests, one duplicate shared, comment/blank lines skipped.
        assert "served 4 requests" in output
        assert "3 traversals (1 shared)" in output
        assert "1 builds" in output

    def test_serve_command_with_space_budget(self, triangle_dir, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text("1,2\n")
        code = main(
            [
                "serve",
                "--view",
                self.VIEW,
                "--data",
                str(triangle_dir),
                "--requests",
                str(requests),
                "--space-budget",
                "40",
            ]
        )
        assert code == 0
        assert "(space-budget)" in capsys.readouterr().out

    def test_serve_sharded(self, triangle_dir, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text("1,2\n3,1\n1,2\n9,9\n")
        code = main(
            [
                "serve",
                "--view",
                self.VIEW,
                "--data",
                str(triangle_dir),
                "--requests",
                str(requests),
                "--tau",
                "4",
                "--shards",
                "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "sharding: 2 shards over ['R', 'T'] (routed" in output
        assert "served 4 requests" in output

    def test_serve_async_sharded(self, triangle_dir, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text("1,2\n3,1\n1,2\n9,9\n")
        code = main(
            [
                "serve",
                "--view",
                self.VIEW,
                "--data",
                str(triangle_dir),
                "--requests",
                str(requests),
                "--tau",
                "4",
                "--async",
                "--shards",
                "2",
                "--shard-key",
                "R:0,T:1",
                "--workers",
                "2",
                "--batch-size",
                "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "sharding: 2 shards" in output
        assert "served 4 requests in 2 batches" in output
        assert "async: queue max" in output

    def test_serve_rejects_orphan_scale_flags(
        self, triangle_dir, tmp_path, capsys
    ):
        requests = tmp_path / "requests.txt"
        requests.write_text("1,2\n")
        base = [
            "serve",
            "--view",
            self.VIEW,
            "--data",
            str(triangle_dir),
            "--requests",
            str(requests),
        ]
        # --shard-key without --shards would be silently ignored otherwise.
        assert main(base + ["--shard-key", "R:0"]) == 2
        assert "--shards" in capsys.readouterr().err
        # --shards 0 is a typo, not a request for an unsharded server.
        assert main(base + ["--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err
        # A relation listed twice is a conflicting spec, not last-wins.
        assert main(base + ["--shards", "2", "--shard-key", "R:0,R:1"]) == 2
        assert "twice" in capsys.readouterr().err
        # --workers / --max-pending only act through the async front end.
        assert main(base + ["--workers", "2"]) == 2
        assert "--async" in capsys.readouterr().err
        assert main(base + ["--max-pending", "4"]) == 2
        assert "--async" in capsys.readouterr().err

    def test_serve_rejects_bad_shard_key(self, triangle_dir, tmp_path, capsys):
        requests = tmp_path / "requests.txt"
        requests.write_text("1,2\n")
        code = main(
            [
                "serve",
                "--view",
                self.VIEW,
                "--data",
                str(triangle_dir),
                "--requests",
                str(requests),
                "--shards",
                "2",
                "--shard-key",
                "bogus",
            ]
        )
        assert code == 2
        assert "shard key" in capsys.readouterr().err

    def test_serve_requires_requests(self, triangle_dir, tmp_path, capsys):
        empty = tmp_path / "requests.txt"
        empty.write_text("# nothing here\n")
        code = main(
            [
                "serve",
                "--view",
                self.VIEW,
                "--data",
                str(triangle_dir),
                "--requests",
                str(empty),
            ]
        )
        assert code == 2


class TestSnapshotCLI:
    VIEW = "Delta^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)"

    def test_serve_warm_starts_from_snapshot_dir(
        self, triangle_dir, tmp_path, capsys
    ):
        requests = tmp_path / "requests.txt"
        requests.write_text("1,2\n3,1\n")
        snapshots = tmp_path / "snaps"
        argv = [
            "serve",
            "--view",
            self.VIEW,
            "--data",
            str(triangle_dir),
            "--requests",
            str(requests),
            "--snapshot-dir",
            str(snapshots),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "1 builds" in cold
        assert "0 warm loads, 1 writes" in cold
        # The "restarted" invocation decodes instead of rebuilding.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 builds" in warm
        assert "1 warm loads, 0 writes" in warm

    def test_snapshot_save_inspect_load_flow(
        self, triangle_dir, tmp_path, capsys
    ):
        out = tmp_path / "delta.snap"
        code = main(
            [
                "snapshot",
                "save",
                "--view",
                self.VIEW,
                "--data",
                str(triangle_dir),
                "--tau",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert f"saved {out}" in capsys.readouterr().out

        assert (
            main(["snapshot", "inspect", "--file", str(out)]) == 0
        )
        inspected = capsys.readouterr().out
        assert "kind:           compressed" in inspected
        assert "complete" in inspected

        code = main(
            [
                "snapshot",
                "load",
                "--file",
                str(out),
                "--data",
                str(triangle_dir),
                "--access",
                "1,2",
            ]
        )
        assert code == 0
        loaded = capsys.readouterr().out
        assert "fingerprint verified" in loaded
        assert "answer(1, 2)" in loaded

    def test_snapshot_load_refuses_changed_data(
        self, triangle_dir, tmp_path, capsys
    ):
        out = tmp_path / "delta.snap"
        assert (
            main(
                [
                    "snapshot",
                    "save",
                    "--view",
                    self.VIEW,
                    "--data",
                    str(triangle_dir),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        (triangle_dir / "R.csv").write_text("1,2\n2,3\n1,3\n9,9\n")
        code = main(
            [
                "snapshot",
                "load",
                "--file",
                str(out),
                "--data",
                str(triangle_dir),
            ]
        )
        assert code == 2
        assert "different database" in capsys.readouterr().err

    def test_snapshot_inspect_rejects_non_snapshots(self, tmp_path, capsys):
        junk = tmp_path / "junk.snap"
        junk.write_bytes(b"definitely not a snapshot")
        assert main(["snapshot", "inspect", "--file", str(junk)]) == 2
        assert "magic" in capsys.readouterr().err


class TestReplicaCLI:
    VIEW = "Delta^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)"

    def _serve(self, triangle_dir, tmp_path, *extra):
        requests = tmp_path / "requests.txt"
        requests.write_text("1,2\n3,1\n1,2\n")
        return main(
            [
                "serve",
                "--view",
                self.VIEW,
                "--data",
                str(triangle_dir),
                "--requests",
                str(requests),
                "--tau",
                "4",
                *extra,
            ]
        )

    def test_serve_with_replicas(self, triangle_dir, tmp_path, capsys):
        snapdir = tmp_path / "snaps"
        code = self._serve(
            triangle_dir,
            tmp_path,
            "--async",
            "--replicas",
            "2",
            "--snapshot-dir",
            str(snapdir),
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "replicas: 2 hydrated from snapshots" in output
        assert "served 3 requests" in output

    def test_replicas_require_async(self, triangle_dir, tmp_path, capsys):
        snapdir = tmp_path / "snaps"
        code = self._serve(
            triangle_dir,
            tmp_path,
            "--replicas",
            "2",
            "--snapshot-dir",
            str(snapdir),
        )
        assert code == 2
        assert "add --async" in capsys.readouterr().err

    def test_replicas_require_a_snapshot_dir(
        self, triangle_dir, tmp_path, capsys
    ):
        code = self._serve(
            triangle_dir, tmp_path, "--async", "--replicas", "2"
        )
        assert code == 2
        assert "--snapshot-dir" in capsys.readouterr().err

    def test_replicas_reject_a_sharded_backend(
        self, triangle_dir, tmp_path, capsys
    ):
        snapdir = tmp_path / "snaps"
        code = self._serve(
            triangle_dir,
            tmp_path,
            "--async",
            "--replicas",
            "2",
            "--shards",
            "2",
            "--snapshot-dir",
            str(snapdir),
        )
        assert code == 2
        assert "sharded backend already fans out" in capsys.readouterr().err

    def test_the_retired_dynamic_flag_is_unknown(
        self, triangle_dir, tmp_path, capsys
    ):
        # Any natural-join view takes deltas: there is no second
        # registration kind to ask for.
        with pytest.raises(SystemExit) as exit_info:
            self._serve(triangle_dir, tmp_path, "--dynamic")
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def _update(self, triangle_dir, snapdir, *rows):
        return main(
            [
                "update",
                "apply",
                "--view",
                self.VIEW,
                "--data",
                str(triangle_dir),
                "--snapshot-dir",
                str(snapdir),
                "--tau",
                "4",
                "--relation",
                "T",
                *rows,
            ]
        )

    def test_update_then_serve_warm_starts_from_the_log(
        self, triangle_dir, tmp_path, capsys
    ):
        snapdir = tmp_path / "snaps"
        # A plain serve writes no versioned state for a never-updated view.
        assert self._serve(
            triangle_dir, tmp_path, "--snapshot-dir", str(snapdir)
        ) == 0
        assert "versions:" not in capsys.readouterr().out
        assert not (snapdir / "dynamic").exists()
        # Access (1, 2) has one answer, z = 3, through T(3, 1).
        assert self._update(triangle_dir, snapdir, "--delete", "3,1") == 0
        assert "delta version 0 -> 1" in capsys.readouterr().out
        assert self._update(triangle_dir, snapdir, "--delete", "3,1") == 0
        assert "applied 0 row(s)" in capsys.readouterr().out
        assert self._serve(
            triangle_dir, tmp_path, "--snapshot-dir", str(snapdir),
            "--limit", "10",
        ) == 0
        output = capsys.readouterr().out
        assert "versions: serving delta version 1" in output
        assert "cursor(1, 2): 0 tuples in 1 page(s), exhausted" in output


class TestMetricsCLI:
    VIEW = "Delta^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)"

    def _serve(self, triangle_dir, tmp_path, *extra):
        requests = tmp_path / "requests.txt"
        requests.write_text("1,2\n3,1\n1,2\n")
        return main(
            [
                "serve",
                "--view",
                self.VIEW,
                "--data",
                str(triangle_dir),
                "--requests",
                str(requests),
                "--telemetry-dir",
                str(tmp_path / "telemetry"),
                *extra,
            ]
        )

    def test_metrics_show_replays_history_across_restarts(
        self, triangle_dir, tmp_path, capsys
    ):
        # The acceptance scenario end to end: two serve invocations
        # (a restart), then `metrics show` replays the merged history.
        # A third session is history an older tree left behind: closed-
        # loop tuning decisions, as a counter and an event. Nothing
        # writes those any more, but they still merge and print.
        telemetry_dir = tmp_path / "telemetry"
        for _ in range(2):
            assert self._serve(triangle_dir, tmp_path) == 0
        old = TelemetryStore(telemetry_dir, session="old-tree")
        old.write_event(
            {"op": "tuning", "kind": "retune", "view": "Delta",
             "tau_before": 2.0, "tau_after": 4.0}
        )
        old.write_metrics(
            {
                "counters": [
                    {"name": "tuning_decisions_total",
                     "labels": {"kind": "retune"}, "value": 3},
                    {"name": "requests_total",
                     "labels": {"mode": "batch", "view": "Delta"},
                     "value": 5},
                ],
                "gauges": [],
                "histograms": [],
            }
        )
        assert len(list(telemetry_dir.glob("*.jsonl"))) == 3
        capsys.readouterr()
        assert main(
            ["metrics", "show", "--telemetry-dir", str(telemetry_dir),
             "--events", "5"]
        ) == 0
        output = capsys.readouterr().out
        # 3 requests per run, duplicate deduplicated: 2 distinct batch
        # cursors each run, summed across both sessions, plus the old
        # session's 5.
        assert "requests_total{mode=batch,view=Delta} = 9" in output
        assert "delay_step_gap{view=Delta}" in output
        assert "cache_misses_total = 2" in output
        assert "tuning_decisions_total{kind=retune} = 3" in output
        assert "tuning: kind=retune tau_after=4.0 tau_before=2.0" in output
        out = tmp_path / "metrics.json"
        assert main(
            ["metrics", "export", "--telemetry-dir", str(telemetry_dir),
             "--out", str(out)]
        ) == 0
        document = json.loads(out.read_text())
        counters = {
            (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
            for e in document["metrics"]["counters"]
        }
        assert counters[("tuning_decisions_total", (("kind", "retune"),))] == 3
        assert [e["op"] for e in document["events"]] == ["tuning"]

    def test_metrics_export_writes_one_json_document(
        self, triangle_dir, tmp_path, capsys
    ):
        assert self._serve(triangle_dir, tmp_path) == 0
        out = tmp_path / "metrics.json"
        code = main(
            [
                "metrics",
                "export",
                "--telemetry-dir",
                str(tmp_path / "telemetry"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["schema"] == 1
        names = {e["name"] for e in document["metrics"]["counters"]}
        assert "requests_total" in names

    def test_metrics_show_requires_an_existing_directory(
        self, tmp_path, capsys
    ):
        code = main(
            ["metrics", "show", "--telemetry-dir", str(tmp_path / "nope")]
        )
        assert code == 2
        assert "no telemetry directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [("--adapt",), ("--gap-budget", "8"), ("--adapt", "--gap-budget", "8")],
    )
    def test_the_retired_tuner_flags_are_unknown(
        self, triangle_dir, tmp_path, capsys, flags
    ):
        # τ is chosen once, at registration: there is no closed loop to
        # switch on, so argparse refuses its flags like any other typo.
        with pytest.raises(SystemExit) as exit_info:
            self._serve(triangle_dir, tmp_path, *flags)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
