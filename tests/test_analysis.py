"""The static-analysis suite: rule corpus, framework contract, live tree.

Each rule gets a known-bad / known-good fixture corpus proving it fires
on the bug shape it was built from and stays quiet on the idioms the
codebase actually uses. The framework tests pin the baseline/suppression
contract (strict both ways), and the live-tree test is the same gate CI
runs: ``python -m repro.analysis src/repro`` must be clean against the
committed baseline.
"""

from __future__ import annotations

import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import (
    Analyzer,
    Baseline,
    ModuleInfo,
    RULES,
    active_rules,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.findings import Finding, is_suppressed, parse_suppressions
from repro.analysis.metrics_inventory import (
    check_drift,
    code_metrics,
    describe,
    documented_metrics,
)

REPO = Path(__file__).resolve().parent.parent


def run_rule(rule_id, source, tmp_path, filename="module.py"):
    """Run one rule over a source snippet; returns its findings."""
    path = tmp_path / filename
    path.write_text(dedent(source), encoding="utf-8")
    (rule,) = active_rules([rule_id])
    return list(rule.check(ModuleInfo.parse(path)))


class TestRegistry:
    def test_at_least_five_rules_ship(self):
        assert len(active_rules()) >= 5

    def test_the_named_rules_exist(self):
        active_rules()  # force registration
        assert {
            "lock-discipline",
            "restart-stability",
            "exception-hygiene",
            "shared-aliasing",
            "parity-surface",
        } <= set(RULES)

    def test_unknown_rule_id_is_loud(self):
        with pytest.raises(ValueError, match="unknown rule ids"):
            active_rules(["no-such-rule"])


BAD_LOCK = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}

        def put(self, k, v):
            with self._lock:
                self._items[k] = v

        def peek(self):
            return self._items  # unguarded read of a guarded attribute
"""

GOOD_LOCK = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}
            self.config = {"mode": "fast"}

        def put(self, k, v):
            with self._lock:
                self._items[k] = v
                self._publish(k)

        def get(self, k):
            with self._lock:
                return self._items.get(k)

        def mode(self):
            # config is write-once (__init__ only): reads cannot race,
            # even though get_mode_locked touches it under the lock.
            return self.config["mode"]

        def get_mode_locked(self):
            return (self.config["mode"], len(self._items))

        def _publish(self, k):
            # private helper, only ever called under the lock: the
            # fixpoint qualifies it, so its unguarded access is fine.
            self._items[k] = self._items.get(k)

        def describe(self):
            # calling a sibling method unguarded is fine; methods never
            # rebind per-instance.
            return self.size()

        def size(self):
            with self._lock:
                return len(self._items)
"""


class TestLockDiscipline:
    def test_fires_on_the_unguarded_read(self, tmp_path):
        findings = run_rule("lock-discipline", BAD_LOCK, tmp_path)
        assert len(findings) == 1
        (finding,) = findings
        assert finding.scope == "Store.peek"
        assert finding.key == "Store.peek:_items"
        assert "_lock" in finding.message

    def test_quiet_on_the_disciplined_idioms(self, tmp_path):
        assert run_rule("lock-discipline", GOOD_LOCK, tmp_path) == []

    def test_wrong_lock_is_flagged(self, tmp_path):
        source = """
            import threading

            class Two:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self._n = 0

                def bump(self):
                    with self._a:
                        self._n += 1

                def read(self):
                    with self._b:
                        return self._n
            """
        findings = run_rule("lock-discipline", source, tmp_path)
        assert [f.key for f in findings] == ["Two.read:_n"]
        assert "under _b only" in findings[0].message

    def test_locked_suffix_helper_is_exempt(self, tmp_path):
        source = """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, k, v):
                    with self._lock:
                        self._items[k] = v

                def evict_locked(self):
                    # caller-holds-the-lock convention
                    self._items.clear()
            """
        assert run_rule("lock-discipline", source, tmp_path) == []

    def test_a_borrowed_lock_guards_too(self, tmp_path):
        # Epochs (engine/epoch.py) takes its owner's lock as a
        # constructor argument; state written under it is guarded.
        source = """
            class Borrower:
                def __init__(self, lock):
                    self._lock = lock
                    self._live = {}

                def publish(self, version, payload):
                    with self._lock:
                        self._live[version] = payload

                def get(self, version):
                    with self._lock:
                        return self._live.get(version)

                def peek(self, version):
                    return self._live.get(version)
            """
        findings = run_rule("lock-discipline", source, tmp_path)
        assert [f.key for f in findings] == ["Borrower.peek:_live"]

    def test_inline_allow_suppresses(self, tmp_path):
        allow = "# analysis: allow[lock-discipline] benign race"
        source = BAD_LOCK.replace(
            "return self._items  # unguarded read of a guarded attribute",
            f"return self._items  {allow}",
        )
        path = tmp_path / "module.py"
        path.write_text(dedent(source), encoding="utf-8")
        analyzer = Analyzer(rules=active_rules(["lock-discipline"]))
        report = analyzer.run([path])
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.ok


class TestRestartStability:
    def test_hash_in_topology_module_fires(self, tmp_path):
        source = """
            def route(value, n):
                return hash(value) % n
            """
        findings = run_rule(
            "restart-stability", source, tmp_path, filename="topology.py"
        )
        assert [f.key for f in findings] == ["route:hash:1"]

    def test_id_and_set_iteration_fire(self, tmp_path):
        source = """
            def snapshot_order(shards):
                tag = id(shards)
                out = []
                for shard in set(shards):
                    out.append((tag, shard))
                return out
            """
        findings = run_rule(
            "restart-stability", source, tmp_path, filename="snapshot_codec.py"
        )
        kinds = sorted(f.key for f in findings)
        assert kinds == [
            "snapshot_order:id:1",
            "snapshot_order:set-iteration:1",
        ]

    def test_other_modules_are_out_of_scope(self, tmp_path):
        source = """
            def anywhere(value):
                return hash(value)
            """
        assert (
            run_rule(
                "restart-stability", source, tmp_path, filename="engine.py"
            )
            == []
        )

    def test_dunder_hash_is_exempt(self, tmp_path):
        source = """
            class Key:
                def __hash__(self):
                    return hash(("Key", 1))
            """
        assert (
            run_rule(
                "restart-stability", source, tmp_path, filename="topology.py"
            )
            == []
        )


class TestExceptionHygiene:
    def test_bare_except_fires(self, tmp_path):
        source = """
            def load(path):
                try:
                    return open(path).read()
                except:
                    return None
            """
        findings = run_rule("exception-hygiene", source, tmp_path)
        assert len(findings) == 1
        assert "bare" in findings[0].message.lower()

    def test_swallowing_broad_except_fires(self, tmp_path):
        source = """
            def decode(blob):
                try:
                    return eval(blob)
                except Exception:
                    return None

            def decode2(blob):
                try:
                    return eval(blob)
                except (ValueError, BaseException):
                    return None
            """
        findings = run_rule("exception-hygiene", source, tmp_path)
        assert len(findings) == 2

    def test_reraising_broad_except_is_fine(self, tmp_path):
        source = """
            def guarded(blob):
                try:
                    return eval(blob)
                except Exception as exc:
                    raise RuntimeError("decode failed") from exc
            """
        assert run_rule("exception-hygiene", source, tmp_path) == []

    def test_narrow_except_is_fine(self, tmp_path):
        source = """
            def narrow(blob):
                try:
                    return int(blob)
                except (ValueError, TypeError):
                    return 0
            """
        assert run_rule("exception-hygiene", source, tmp_path) == []


class TestSharedAliasing:
    def test_state_method_leaking_mutable_attr_fires(self, tmp_path):
        source = """
            class Table:
                def __init__(self):
                    self._rows = []

                def to_state(self):
                    return {"rows": self._rows}
            """
        findings = run_rule("shared-aliasing", source, tmp_path)
        assert [f.key for f in findings] == ["Table.to_state:_rows"]

    def test_copied_state_is_fine(self, tmp_path):
        source = """
            class Table:
                def __init__(self):
                    self._rows = []

                def to_state(self):
                    return {"rows": list(self._rows)}
            """
        assert run_rule("shared-aliasing", source, tmp_path) == []

    def test_partition_broadcasting_one_object_fires(self, tmp_path):
        # The PR 6 bug shape: the same database object stored into
        # every shard's slot.
        source = """
            def partition_database(db, shards):
                out = {}
                for shard in shards:
                    out[shard] = db
                return out
            """
        findings = run_rule("shared-aliasing", source, tmp_path)
        assert len(findings) == 1
        assert "db" in findings[0].message

    def test_scattering_loop_values_is_fine(self, tmp_path):
        # Per-iteration loop targets are a fresh object each pass —
        # exactly how the real partition_database distributes rows.
        source = """
            def partition_rows(rows, key, n):
                out = {i: [] for i in range(n)}
                for row in rows:
                    out[key(row) % n].append(row)
                return out
            """
        assert run_rule("shared-aliasing", source, tmp_path) == []


KERNEL_CLASS_OK = """
    def kernel_enumerate(layout, access):
        yield ()

    class Repr:
        def enumerate(self, access, counter=None):
            if self.layout is not None:
                yield from kernel_enumerate(self.layout, access)
            else:
                yield from self._eval(access, counter)

        def enumerate_from(self, access, start_values, counter=None):
            if self.layout is not None:
                yield from kernel_enumerate(self.layout, access)
            else:
                yield from self._eval(access, counter)

        def enumerate_after(self, access, last, counter=None):
            yield from self.enumerate_from(access, last, counter=counter)
"""


class TestParitySurface:
    def test_the_dual_route_shape_is_clean(self, tmp_path):
        assert run_rule("parity-surface", KERNEL_CLASS_OK, tmp_path) == []

    def test_signature_drift_fires(self, tmp_path):
        source = """
            class Repr:
                def enumerate_from(self, access, start, counter=None):
                    yield from self._eval(access)
            """
        findings = run_rule("parity-surface", source, tmp_path)
        assert [f.key for f in findings] == [
            "Repr.enumerate_from:signature"
        ]

    def test_non_kernel_class_only_checks_signatures(self, tmp_path):
        # The decomposed/dynamic wrappers: no kernel_* calls (a
        # kernel_ready property does not count), so no route demands.
        source = """
            class Wrapper:
                @property
                def kernel_ready(self):
                    return all(b.kernel_ready for b in self._bags)

                def enumerate_from(self, access, start_values, counter=None):
                    yield from self._walk(access)
            """
        assert run_rule("parity-surface", source, tmp_path) == []


class TestSuppressionsAndBaseline:
    def test_parse_suppressions_forms(self):
        source = (
            "a = 1  # analysis: allow[lock-discipline] reason\n"
            "b = 2  # analysis: allow[a-rule, b-rule] reason\n"
            "c = 3  # analysis: allow everything here\n"
            "d = 4\n"
        )
        waived = parse_suppressions(source)
        assert waived[1] == {"lock-discipline"}
        assert waived[2] == {"a-rule", "b-rule"}
        assert waived[3] == {"*"}
        assert 4 not in waived

    def test_is_suppressed_matches_rule_and_wildcard(self):
        finding = Finding(
            rule="lock-discipline",
            path=Path("x.py"),
            line=3,
            scope="s",
            key="k",
            message="m",
        )
        assert is_suppressed(finding, {3: {"lock-discipline"}})
        assert is_suppressed(finding, {3: {"*"}})
        assert not is_suppressed(finding, {3: {"other-rule"}})
        assert not is_suppressed(finding, {4: {"lock-discipline"}})

    def test_baseline_round_trip_and_staleness(self, tmp_path):
        baseline_file = tmp_path / "baseline.txt"
        baseline_file.write_text(
            "# justification\nrule-a\tmod.py\tScope:key\n", encoding="utf-8"
        )
        baseline = Baseline.load(baseline_file)
        hit = Finding(
            rule="rule-a",
            path=Path("mod.py"),
            line=1,
            scope="Scope",
            key="Scope:key",
            message="m",
        )
        assert baseline.contains(hit)
        assert baseline.stale([hit]) == []
        assert baseline.stale([]) == [("rule-a", "mod.py", "Scope:key")]

    def test_malformed_baseline_is_loud(self, tmp_path):
        bad = tmp_path / "baseline.txt"
        bad.write_text("rule-a only-two-fields\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed baseline line"):
            Baseline.load(bad)

    def test_stale_baseline_entry_fails_the_run(self, tmp_path):
        source = "x = 1\n"
        (tmp_path / "clean.py").write_text(source, encoding="utf-8")
        baseline = Baseline(entries={("lock-discipline", "clean.py", "gone")})
        report = Analyzer(
            rules=active_rules(), baseline=baseline
        ).run([tmp_path])
        assert report.findings == []
        assert report.stale_baseline == [
            ("lock-discipline", "clean.py", "gone")
        ]
        assert not report.ok

    def test_baselined_finding_passes_but_is_counted(self, tmp_path):
        path = tmp_path / "store.py"
        path.write_text(dedent(BAD_LOCK), encoding="utf-8")
        baseline = Baseline(
            entries={("lock-discipline", "store.py", "Store.peek:_items")}
        )
        report = Analyzer(
            rules=active_rules(["lock-discipline"]), baseline=baseline
        ).run([path])
        assert report.ok
        assert len(report.baselined) == 1


class TestCli:
    def test_exit_one_on_findings_and_zero_with_baseline(
        self, tmp_path, capsys
    ):
        path = tmp_path / "store.py"
        path.write_text(dedent(BAD_LOCK), encoding="utf-8")
        baseline = tmp_path / "baseline.txt"
        assert analysis_main([str(path), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "lint-deep FAILED" in out
        assert "[lock-discipline]" in out
        baseline.write_text(
            "lock-discipline\tstore.py\tStore.peek:_items\n",
            encoding="utf-8",
        )
        assert analysis_main([str(path), "--baseline", str(baseline)]) == 0
        assert "lint-deep ok" in capsys.readouterr().out

    def test_update_baseline_writes_current_findings(self, tmp_path, capsys):
        path = tmp_path / "store.py"
        path.write_text(dedent(BAD_LOCK), encoding="utf-8")
        baseline = tmp_path / "baseline.txt"
        assert (
            analysis_main(
                [str(path), "--baseline", str(baseline), "--update-baseline"]
            )
            == 0
        )
        assert (
            "lock-discipline\tstore.py\tStore.peek:_items"
            in baseline.read_text()
        )
        assert analysis_main([str(path), "--baseline", str(baseline)]) == 0

    def test_json_output_shape(self, tmp_path, capsys):
        path = tmp_path / "store.py"
        path.write_text(dedent(BAD_LOCK), encoding="utf-8")
        analysis_main(
            [str(path), "--baseline", str(tmp_path / "nope.txt"), "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files_scanned"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "lock-discipline"
        assert finding["key"] == "Store.peek:_items"

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "lock-discipline",
            "restart-stability",
            "exception-hygiene",
            "shared-aliasing",
            "parity-surface",
        ):
            assert rule_id in out


class TestLiveTree:
    def test_src_repro_is_clean_against_the_committed_baseline(self):
        # The exact gate `make lint-deep` runs in CI.
        analyzer = Analyzer(
            rules=active_rules(),
            baseline=Baseline.load(REPO / "analysis-baseline.txt"),
        )
        report = analyzer.run([REPO / "src" / "repro"])
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.ok, f"live-tree findings:\n{rendered}"

    def test_committed_baseline_stays_small_and_justified(self):
        text = (REPO / "analysis-baseline.txt").read_text(encoding="utf-8")
        entries = [
            line
            for line in text.splitlines()
            if line.strip() and not line.startswith("#")
        ]
        assert 0 < len(entries) <= 5
        assert "#" in text, "baseline entries need justification comments"


class TestMetricsInventory:
    def test_literal_and_fstring_extraction(self, tmp_path):
        path = tmp_path / "emitter.py"
        path.write_text(
            dedent(
                """
                def setup(telemetry, kind):
                    telemetry.counter("requests_total", view="v").inc()
                    telemetry.counter(f"cache_{kind}_total").inc()
                    telemetry.gauge("depth").set(1)
                    telemetry.histogram(name_variable)  # dynamic: skipped
                """
            ),
            encoding="utf-8",
        )
        uses = code_metrics([path])
        by_name = {(u.kind, u.name): u for u in uses}
        assert ("counter", "requests_total") in by_name
        assert by_name[("counter", "cache_*_total")].pattern
        assert ("gauge", "depth") in by_name
        assert len(uses) == 3

    def test_doc_table_parsing(self, tmp_path):
        doc = tmp_path / "OPERATIONS.md"
        doc.write_text(
            dedent(
                """
                ## Metric inventory

                ### Counters

                | Name | Labels |
                | --- | --- |
                | `requests_total` | `view` |
                | `cache_hits_total` | — |

                ### Gauges

                | Name | Labels |
                | --- | --- |
                | `depth` | — |

                ## Another section

                | `not_a_metric` | — |
                """
            ),
            encoding="utf-8",
        )
        documented = documented_metrics(doc)
        assert documented["counter"] == {"requests_total", "cache_hits_total"}
        assert documented["gauge"] == {"depth"}
        assert documented["histogram"] == set()

    def test_drift_both_directions(self, tmp_path):
        path = tmp_path / "emitter.py"
        path.write_text(
            't.counter("undocumented_total")\n', encoding="utf-8"
        )
        uses = code_metrics([path])
        documented = {
            "counter": {"ghost_total"},
            "gauge": set(),
            "histogram": set(),
        }
        drift = check_drift(uses, documented)
        assert not drift.ok
        assert [u.name for u in drift.undocumented] == ["undocumented_total"]
        assert drift.unemitted == [("counter", "ghost_total")]
        report = describe(drift)
        assert "undocumented_total" in report
        assert "ghost_total" in report

    def test_pattern_covers_documented_family(self, tmp_path):
        path = tmp_path / "emitter.py"
        path.write_text(
            'def f(t, k):\n    t.counter(f"cache_{k}_total")\n',
            encoding="utf-8",
        )
        uses = code_metrics([path])
        documented = {
            "counter": {"cache_hits_total", "cache_misses_total"},
            "gauge": set(),
            "histogram": set(),
        }
        assert check_drift(uses, documented).ok

    def test_live_inventory_is_in_sync(self):
        # The exact gate `make docs-check` runs in CI.
        uses = code_metrics([REPO / "src" / "repro"])
        documented = documented_metrics(REPO / "docs" / "OPERATIONS.md")
        drift = check_drift(uses, documented)
        assert drift.ok, describe(drift)
