"""The CI pipeline is data: validate the workflow, Makefile, and size gate.

actionlint is not vendored, so this is the repo's own schema check: the
workflow must parse, expose the pipeline stages as distinct jobs
(lint → collect → test matrix / lock-order → bench-smoke), and run the
same make targets contributors run. A drifted Makefile or a renamed
target fails here, not on the first broken push. Performance has one
contract, the end-to-end benchmark (``BENCHMARK.json``); CI runs its
harness self-test and no timing gate.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import bench_pairs
from bench_pairs import dump_report, parse_result, summarise, summarise_pairs
from check_size import (
    BUILD_SPEC,
    INDEX_SPEC,
    MAIN,
    SPEC,
    file_sloc,
    main as size_main,
    package_sloc,
    sloc,
)

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
MAKEFILE = REPO / "Makefile"


@pytest.fixture(scope="module")
def workflow():
    data = yaml.safe_load(WORKFLOW.read_text())
    assert isinstance(data, dict)
    return data


@pytest.fixture(scope="module")
def make_targets():
    targets = set()
    for line in MAKEFILE.read_text().splitlines():
        match = re.match(r"^([A-Za-z][\w-]*):", line)
        if match:
            targets.add(match.group(1))
    return targets


class TestWorkflowSchema:
    def test_triggers_on_push_and_pull_request(self, workflow):
        # YAML 1.1 parses the bare key `on` as boolean True.
        triggers = workflow.get("on", workflow.get(True))
        assert triggers is not None, "workflow has no `on:` block"
        assert "push" in triggers
        assert "pull_request" in triggers

    def test_has_the_five_distinct_jobs(self, workflow):
        jobs = workflow["jobs"]
        assert set(jobs) == {
            "lint",
            "collect",
            "test",
            "lock-order",
            "bench-smoke",
        }
        collect_lines = [
            step.get("run", "") for step in jobs["collect"]["steps"]
        ]
        assert any("make collect" in line for line in collect_lines)
        test_lines = [step.get("run", "") for step in jobs["test"]["steps"]]
        assert any("make test" in line for line in test_lines)

    def test_every_job_is_runnable(self, workflow):
        for name, job in workflow["jobs"].items():
            assert "runs-on" in job, f"job {name} has no runner"
            steps = job.get("steps")
            assert steps, f"job {name} has no steps"
            for step in steps:
                assert "uses" in step or "run" in step, (
                    f"job {name} has a step with neither uses nor run"
                )

    def test_pipeline_ordering(self, workflow):
        jobs = workflow["jobs"]
        assert jobs["collect"]["needs"] == "lint"
        assert jobs["test"]["needs"] == "collect"
        # The instrumented leg branches off collect in parallel with the
        # matrix — it re-runs hammer tests, not the whole suite.
        assert jobs["lock-order"]["needs"] == "collect"
        assert jobs["bench-smoke"]["needs"] == "test"

    def test_python_version_matrix(self, workflow):
        matrix = workflow["jobs"]["test"]["strategy"]["matrix"]
        versions = [str(v) for v in matrix["python-version"]]
        assert versions == ["3.10", "3.11", "3.12"]

    def test_lint_job_runs_make_lint(self, workflow):
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["lint"]["steps"]
        ]
        assert any("make lint" in line for line in run_lines)
        assert any("ruff" in line for line in run_lines)

    def test_bench_smoke_job_self_tests_the_e2e_harness(self, workflow):
        # The end-to-end benchmark is what performance claims are judged
        # by; its harness self-test keeps the contract and tables honest.
        # It is the job's only make step: no step fails on a timing ratio.
        make_lines = [
            step["run"]
            for step in workflow["jobs"]["bench-smoke"]["steps"]
            if "make " in step.get("run", "")
        ]
        assert make_lines == ["make test-e2e-harness"]

    def test_the_kernel_has_no_numpy_knob_anywhere(self, workflow):
        # The kernel's numpy fork went with its environment switch, its
        # extra and the matrix leg that ran the suite twice over it: the
        # test job is the Python matrix and nothing else, and no shipped
        # file still names the switch.
        job = workflow["jobs"]["test"]
        assert set(job["strategy"]["matrix"]) == {"python-version"}
        test_steps = [
            step for step in job["steps"] if "make test" in step.get("run", "")
        ]
        assert test_steps, "test job never runs make test"
        assert "env" not in test_steps[0]
        shipped = [REPO / "Makefile", REPO / "pyproject.toml"]
        for root in (REPO / "src", REPO / ".github"):
            shipped += [path for path in root.rglob("*") if path.is_file()]
        named = [
            str(path.relative_to(REPO))
            for path in shipped
            if path.suffix != ".pyc"
            and "REPRO_KERNEL_NO_NUMPY" in path.read_text(errors="ignore")
        ]
        assert named == []

    def test_lint_job_runs_the_docs_link_check(self, workflow):
        # Broken relative links in README/docs fail the cheapest job,
        # before any test matrix spins up.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["lint"]["steps"]
        ]
        assert any("make docs-check" in line for line in run_lines)

    def test_lint_job_runs_the_deep_static_analysis(self, workflow):
        # The repo-specific rules (lock discipline, restart stability,
        # exception hygiene, shared aliasing, parity surface) gate the
        # same cheap job as ruff.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["lint"]["steps"]
        ]
        assert any("make lint-deep" in line for line in run_lines)

    def test_lock_order_job_runs_the_instrumented_leg(self, workflow):
        # The dynamic deadlock detector: hammer tests re-run with every
        # engine lock wrapped, failing on acquisition-graph cycles.
        run_lines = [
            step.get("run", "")
            for step in workflow["jobs"]["lock-order"]["steps"]
        ]
        assert any("make test-lock-order" in line for line in run_lines)

    def test_workflow_cancels_superseded_runs(self, workflow):
        # A push to the same ref must cancel the stale run instead of
        # queueing behind it.
        concurrency = workflow.get("concurrency")
        assert isinstance(concurrency, dict), "no top-level concurrency block"
        group = str(concurrency.get("group", ""))
        assert "github.ref" in group
        # Main pushes group by run id so every main commit keeps its
        # verdict instead of being cancelled by the next merge.
        assert "github.run_id" in group
        assert concurrency.get("cancel-in-progress") is True

    def test_every_job_has_a_timeout(self, workflow):
        # A hung benchmark or a wedged pip must not hold a runner for the
        # default six hours.
        for name, job in workflow["jobs"].items():
            minutes = job.get("timeout-minutes")
            assert isinstance(minutes, int) and 0 < minutes <= 60, (
                f"job {name} has no sane timeout-minutes"
            )

    def test_every_setup_python_step_caches_pip(self, workflow):
        for name, job in workflow["jobs"].items():
            setups = [
                step
                for step in job["steps"]
                if "setup-python" in step.get("uses", "")
            ]
            assert setups, f"job {name} never sets up python"
            for step in setups:
                config = step.get("with", {})
                assert config.get("cache") == "pip", (
                    f"job {name}: setup-python step without pip caching"
                )
                assert config.get("cache-dependency-path") == (
                    "requirements-dev.txt"
                ), f"job {name}: pip cache not keyed on requirements-dev.txt"


class TestMakefileContract:
    def test_targets_the_workflow_relies_on_exist(self, make_targets):
        assert {
            "lint",
            "collect",
            "test",
        } <= make_targets

    def test_targets_the_new_gates_rely_on_exist(self, make_targets):
        assert {
            "docs-check",
            "lint-deep",
            "test-lock-order",
            "bench-e2e",
            "test-e2e-harness",
            "bench-pairs",
            "fuzz",
        } <= make_targets

    def test_bench_e2e_runs_the_declared_benchmark(self):
        # `make bench-e2e` must run the command BENCHMARK.json declares,
        # one workload via WORKLOAD= or all of them by default.
        text = MAKEFILE.read_text()
        target = text[text.index("bench-e2e:"):]
        target = target[: target.index("\n\n")]
        assert "benchmarks/e2e/run.py" in target
        assert "--workload $(or $(WORKLOAD),all)" in target

    def test_bench_pairs_runs_the_pair_loop(self):
        text = MAKEFILE.read_text()
        target = text[text.index("bench-pairs:"):]
        target = target[: target.index("\n\n")]
        assert "benchmarks/bench_pairs.py" in target
        assert "--parent $(PARENT)" in target
        assert "--pairs $(or $(PAIRS),10)" in target

    def test_bench_pairs_takes_every_workload_or_a_comma_list(self):
        # "No metric worse on any workload" is one command: WORKLOAD=all
        # (the default) or a comma list, every row merged into OUT.
        text = MAKEFILE.read_text()
        target = text[text.index("bench-pairs:"):]
        target = target[: target.index("\n\n")]
        assert "--workload $(or $(WORKLOAD),all)" in target
        contract = json.loads((REPO / "BENCHMARK.json").read_text())
        declared = [entry["name"] for entry in contract["workloads"]]
        assert len(declared) == 6
        assert bench_pairs.workloads_of("all", contract) == declared
        assert bench_pairs.workloads_of("tau_churn,point_lookup", contract) == [
            "tau_churn",
            "point_lookup",
        ]
        with pytest.raises(SystemExit, match="nonesuch"):
            bench_pairs.workloads_of("point_lookup,nonesuch", contract)

    def test_e2e_harness_self_test_has_a_target(self):
        text = MAKEFILE.read_text()
        target = text[text.index("test-e2e-harness:"):]
        target = target[: target.index("\n\n")]
        assert "pytest benchmarks/e2e" in target

    def test_docs_check_runs_the_link_checker(self):
        text = MAKEFILE.read_text()
        target = text[text.index("docs-check:"):]
        target = target[: target.index("\n\n")]
        assert "check_docs_links.py" in target

    def test_docs_check_runs_the_metric_inventory_checker(self):
        # Metric-name drift between code and docs/OPERATIONS.md fails
        # the same gate as broken links.
        text = MAKEFILE.read_text()
        target = text[text.index("docs-check:"):]
        target = target[: target.index("\n\n")]
        assert "check_metric_docs.py" in target

    def test_lint_deep_runs_the_analysis_module(self):
        text = MAKEFILE.read_text()
        target = text[text.index("lint-deep:"):]
        target = target[: target.index("\n\n")]
        assert "-m repro.analysis" in target
        assert "src/repro" in target

    def test_lock_order_target_gates_on_the_env_flag(self):
        # REPRO_LOCK_ORDER=1 is what arms the conftest fixture; the
        # target must set it and include the concurrency hammer files
        # plus the detector's own suite.
        text = MAKEFILE.read_text()
        target = text[text.index("test-lock-order:"):]
        target = target[: target.index("\n\n")]
        assert "REPRO_LOCK_ORDER=1" in target
        for hammer in (
            "test_engine.py",
            "test_async_engine.py",
            "test_sharding.py",
            "test_elastic.py",
            "test_parallel_builds.py",
            "test_telemetry.py",
            "test_dynamic_serving.py",
            "test_epoch.py",
            "test_pin_leaks.py",
            "test_lock_order.py",
            "test_serving_contract.py",
            "test_engine_machine.py",
        ):
            assert hammer in target
        # And names no file that is gone.
        named = re.findall(r"tests/\S+\.py", target)
        assert named and all((REPO / path).is_file() for path in named)

    def test_fuzz_runs_the_engine_machine_under_its_profile(self):
        # The long run of the differential machine: same file as tier-1,
        # the conftest's "fuzz" budget; src/ has no knob for it.
        text = MAKEFILE.read_text()
        target = text[text.index("\nfuzz:"):]
        target = target[: target.index("\n\n")]
        assert "tests/test_engine_machine.py" in target
        assert "--hypothesis-profile=fuzz" in target
        conftest = (REPO / "tests" / "conftest.py").read_text()
        assert 'register_profile(\n    "fuzz"' in conftest

    def test_benchmarks_paths_exist_and_no_ratio_gate_is_left(self):
        # Every benchmarks/... path the Makefile or the workflow names is
        # a real file or directory, and no benchmark outside e2e/ reads
        # the old smoke switch or records a per-gate speedup file.
        named = {
            match.rstrip(".,)")
            for path in (MAKEFILE, WORKFLOW)
            for match in re.findall(r"benchmarks/[\w./-]*", path.read_text())
        }
        assert "benchmarks/e2e/run.py" in named
        assert [path for path in sorted(named) if not (REPO / path).exists()] == []
        gates = [
            str(path.relative_to(REPO))
            for path in sorted((REPO / "benchmarks").glob("*.py"))
            if re.search(r"REPRO_BENCH_SMOKE|\bgate-\S*\.json", path.read_text())
        ]
        assert gates == []

    def test_size_target_runs_the_sloc_counter(self):
        text = MAKEFILE.read_text()
        target = text[text.index("\nsize:"):]
        target = target[: target.index("\n\n")]
        assert "check_size.py" in target

    def test_ruff_is_configured(self):
        pyproject = (REPO / "pyproject.toml").read_text()
        assert "[tool.ruff]" in pyproject
        assert "[tool.ruff.format]" in pyproject


#: `make size`'s figure for src/repro/engine after PR 21. The engine is
#: plumbing around ``open_cursor``; a PR that grows it raises this number
#: on purpose, in the same diff, or finds something to delete. PR 19
#: spent +7 here (4,344 → 4,351: one ``context=`` passed from
#: ``ViewServer._resolve`` through the cache's warm load and the
#: ``ParallelBuilder``, and a label formatted on a miss only) on the
#: ``tau_churn`` row: ``latency_p99_ms`` 16.8 → 4.2 ms, 1.5k → 5.6k
#: req/s — a disk-tier hit decodes (T, D) onto the registration's one
#: shared ``ViewContext`` instead of rebuilding six tries. PR 21:
#: 4,351 → 4,293 (−58: ``shared_scan.py`` lost the merged-descent fork,
#: ``server.py`` two counters) — a batch is the solo walk once per
#: distinct request. PR 23: 4,293 → 4,286 (−7: ``SharedScan.kernel_path``
#: and the server's ``path`` ternary — the kernel reads dirty versions
#: too, so there is no second path to label). Then, when τ became a
#: cut: 4,286 → 4,296 (+10:
#: ``ViewServer._build`` keeps a weak reference to each generation's
#: lowest-τ default-cover structure and cuts higher τ from it, +9; the
#: shared scan's last lane drops the state's lanes, +1, so a closed batch
#: cursor frees its structure without a collection), bought by the
#: ``tau_churn`` ``setup_s`` row: 0.157 → 0.080 s (ten of ten pairs;
#: 0.157 → 0.081 s on held-out seed 40, ``BENCH_26.json``). Then, when
#: replicas began adopting the primary's snapshot at a rebuild boundary:
#: 4,296 → 4,298 (+2: ``ViewServer.dynamic_snapshot_version``, +4; the
#: one-rule ``ship_deltas`` is as long as the two-branch one, plus 3 for
#: a primary restarted since the replica's version, whose missing
#: records used to leave the replica behind silently; against the two
#: fields of ``DeltaOutcome`` nothing read, −5). Then, when the serving
#: options only tests set became constants: 4,298 → 4,171 (−127:
#: ``async_server.py`` −67 — the back end it built from a database and
#: the five knobs it passed through, the least-pending bookkeeping, the
#: per-tenant gates; ``cache.py`` −30, the cost eviction policy;
#: ``sharding.py`` −10 and ``topology.py`` −10, ``hash_fn`` and
#: ``semijoin_reduce``; ``telemetry.py`` −4, ``Telemetry.replay``, the
#: ring sizes and the tuner's own percentile walk; ``server.py``,
#: ``replica.py`` and ``__init__.py`` −2 each, ``cache_policy`` and
#: ``build_seconds_of``). No gain claimed. Then, when live resharding
#: went and the shards became fixed at construction: 4,171 → 3,836
#: (−335: ``sharding.py`` −213 — ``split_shard`` and its report, the
#: topology epochs, version pins and retired-shard folds; ``topology.py``
#: −110 — the split tree, the version, the serialized form and
#: ``assignment_of``; ``server.py`` −15, ``Registration.replay`` and
#: ``register_dynamic(database=)``; ``__init__.py`` −2; ``api.py`` +5, a
#: typed ``limit``). No gain claimed. Then, when the closed-loop τ tuner
#: went and τ became the registration's alone: 3,836 → 3,578 (−258:
#: ``telemetry.py`` −201 — ``AdaptiveTuner``, ``TuningDecision``, the
#: percentile helper folded into ``Histogram.percentile`` and an unused
#: ``threading`` import; ``server.py`` −31 — ``serving_tau``, ``retune``,
#: the override map and the ``requests_served`` count; ``sharding.py``
#: −22 — the same surface, its lock and fan-outs; ``__init__.py`` −4).
#: No gain claimed. Then, when a registration became one kind — a
#: sequence of versions the first delta starts: 3,578 → 3,572 (−6:
#: ``replica.py`` −17, its dynamic refusal and ``rehydrate_dynamic``;
#: ``sharding.py`` −17, ``register_dynamic`` and ``dynamic_views``;
#: ``dynamic_serving.py`` −15, ``check_tau`` and the state's view, τ and
#: rebuild knob; ``server.py`` +43, versioning a never-updated view
#: around its resident structure, any τ from a version, the atomic
#: batch check and a per-server fingerprint memo, net of
#: ``_build_dynamic`` and ``_dynamic_source``). No gain claimed.
#: Then 3,572 → 3,568 (−4): ``async_server.py``'s two gathers of job
#: outcomes share one rule, ``_succeeded`` (every outcome retrieved,
#: the first failure in order raised), and the fan-out gathers with
#: ``return_exceptions``. Then 3,568 → 3,564 (−4): ``telemetry.py`` −6
#: (``Telemetry(session=)``, which only tests set); ``replica.py`` +2
#: (its ``_drop`` override: a replica's invalidations keep the shared
#: snapshot files). Then 3,564 → 3,453 (−111), when every server began
#: to build in its own process: ``parallel.py`` −49 (``build``, the
#: fallback counters, ``is_broken`` and the weights hand-off; what is
#: left is ``submit`` / ``close`` for the benchmark's parallel-build
#: probe); ``server.py`` −19 (``build_workers`` / ``builder``, the
#: builder term of ``_build``'s cut test and its hand-back, the owned
#: telemetry); ``sharding.py`` −17 (the shared pool); ``telemetry.py``
#: −11 (``Telemetry.resolve``); ``cache.py`` −9
#: (``RepresentationCache.invalidate``); ``async_server.py`` −4 and
#: ``__init__.py`` −2. No gain claimed. Then 3,453 → 3,369 (−84), when
#: the async front end began to drain each batch once, through the back
#: end's own ``open_batch``: ``sharding.py`` −60 (``jobs`` and its eager
#: gather, the per-shard stats fold, the typed batch's planner folded
#: into ``open_batch``); ``async_server.py`` −18 (the multi-job fan-out and
#: ``AsyncBatchResult.shards``); ``server.py`` −4 (``Serving.jobs``);
#: ``__init__.py`` −2. No gain claimed. Then 3,369 → 3,430 (+61), when
#: rows began to leave the kernel in runs: ``api.py`` +45 (the unmeasured
#: bulk pull, one ``islice`` accounted once per pull; an error from the
#: source ending the cursor's serving life — its close hooks fire, later
#: pulls raise it again, ``AnswerCursor.error``; ``fetchmany`` checking
#: its size as ``AccessRequest.limit`` is checked; the timing fields
#: kept for measured cursors only); ``shared_scan.py`` +16 (a one-lane
#: unmeasured state is a solo cursor over its enumeration:
#: ``_ScanState.solo`` / ``settle``). It moved the ``scan_stream``
#: ``tuples_per_s`` row (``BENCH_43.json``). Then 3,430 → 3,445 (+15),
#: when a measured pull began to time its rows in one loop: ``api.py``
#: +19 (``_timed``, the per-row gap bookkeeping in locals written back
#: once per pull, net of ``_observe_output`` and the measured half of
#: ``_observe_exhaustion``); ``parallel.py`` −4 (``build_snapshot_blob``'s
#: ``weights_items``, which only a test set); ``shared_scan.py`` ±0 (a
#: one-lane measured state is a solo cursor too). It moved the
#: ``scan_measured`` ``requests_per_s`` row (``BENCH_45.json``).
ENGINE_SLOC_CEILING = 3445

#: `make size`'s figure for src/repro/__main__.py after PR 18: the CLI
#: wires a back end, an async front and its error reporting once each;
#: what is left is argparse declarations and input checks. PR 24's
#: per-section lines of ``snapshot inspect`` fit under it (1,029).
#: Then 1,029 → 985 (−44): ``serve`` lost ``--cache-policy``,
#: ``--balancer`` and ``--per-request`` with the unbatched baseline it
#: ran, each a flag whose code path the engine no longer has. Then
#: 985 → 850 (−135): the ``topology show`` / ``topology split`` verbs
#: went with live resharding. Then 850 → 790 (−60): ``serve --adapt``
#: and ``--gap-budget`` went with the closed-loop τ tuner, with the loop
#: they drove and their four refusals. Then 790 → 763 (−27): ``serve
#: --dynamic`` went with the second registration kind, with its three
#: refusals; ``update apply`` registers with ``register``. Then
#: 763 → 749 (−14): ``serve --build-workers`` went with the process
#: build fork, with its range check. Then 749 → 732 (−17): the
#: ``widths`` verb went; ``benchmarks/bench_f2_widths.py`` still reports
#: the width exponents.
MAIN_SLOC_CEILING = 732

#: `make size`'s total for src/repro after PR 24. A per-package ceiling
#: reads code *moved* out of the package as a reduction; the total cannot
#: be met that way — and code moved out of ``src/`` altogether (the
#: executable spec) is printed on its own line, not passed off as deleted.
#: PR 19: 13,320 → 13,369 (+49: the engine's +7 above, +42 in ``core`` —
#: the context's memos, the adoption check, the codec's ``context=``),
#: bought by the same ``tau_churn`` row. PR 20: 13,369 → 13,408 (+39, all
#: in ``core/kernel.py`` — the per-lane prefix finger, +59 — less the
#: ``point_matches`` / ``contains_point`` it replaced in ``core/layout.py``,
#: −20), bought by the ``scan_stream`` row: ``tuples_per_s`` 123.5k →
#: 213.2k (+73 %, ten of ten alternating pairs; 128.6k → 218.9k on
#: held-out seed 40), ``latency_p99_ms`` 68.1 → 35.5 ms,
#: ``core.kernel.us_per_tuple`` 7.1–8.0 → 4.3–4.4 µs — each distinct unit
#: prefix is descended once per walk, not once per box and β point. The
#: engine's and the CLI's ceilings did not move. PR 21: 13,408 → 13,142
#: (−266: the merged descent — the kernel's shared walk, the two
#: representations' grouped entry points, the subtrie cache, the
#: capability flag — −200 in ``core``, −58 in the engine, −8 in
#: ``analysis``); no gain claimed, every e2e row inside its bound
#: (``BENCH_21.json``). PR 22: 13,142 → 13,104 (−38, all in ``core``: the
#: f-box classes, the per-model decomposition cache and the second
#: costing of every node went to ``tests/reference_build.py``, 420 SLOC on
#: its own ``make size`` line; the index-space decomposition, the
#: ``CostWalk`` finger and the boxes handed from tree to dictionary to
#: layout came in), bought by ``setup_s``: ``scan_stream`` 1.18 → 0.44 s
#: (claimed, ten of ten pairs; 1.27 → 0.44 on held-out seed 40), every
#: other workload's set-up shorter too, ``dynamic_mixed`` 321 → 391
#: req/s with p99 54.9 → 36.9 ms unclaimed (``BENCH_22.json``). PR 23:
#: 13,104 → 13,044 (−60: −27 in ``core`` — the kernel's numpy fork, the
#: atom columns' codec and per-layout binding, the lazy-join branch of
#: ``FrozenDynamicView``, against the context's memos (columns, both
#: tries) and the one-leaf layout — −26 in ``analysis``, the
#: dirty-fallback clause of ``parity-surface``, −7 in the engine); no gain
#: claimed, every e2e row inside its bound (``BENCH_23.json``). PR 24:
#: 13,044 → 13,147 (+103, all in ``core``; the CLI −1, the engine 0).
#: What came in: codec v3's packed columns and their decode-side shape
#: checks (``core/layout.py`` +110, of which the v1 / v2 read path —
#: ``upgrade_legacy_state`` and its call — is 44 and the typed
#: refusals of malformed sections most of the rest), ``payload_sections``
#: behind ``snapshot inspect`` and the memo-less pickler
#: (``core/snapshot.py`` +26), the ``tree`` / ``dictionary`` views and
#: the shared-database hand-over of a dynamic state (``core/structure.py``
#: +21). What went: the object forms' ``to_state`` / ``from_state`` and
#: the decompose-on-demand fallback of a restored tree
#: (``core/balanced_tree.py`` −47, ``core/dictionary.py`` −6). Bought by
#: ``stored_bytes_per_cell``: ``scan_stream`` 83.1 → 29.0 B/cell
#: (claimed; every run of a seed the same value), lower on all six
#: workloads, and a disk-tier hit that decodes columns instead of
#: rebuilding two object graphs (``BENCH_24.json``). Then, when the build
#: moved onto the context's columns: 13,147 → 13,145 (−2; the engine and
#: the CLI 0; ``BENCH_25.json``). What went: the context's tries,
#: subtries, β membership and value ranges (``core/context.py`` −38), the
#: value-space output join (``core/structure.py`` −10), the value-space
#: candidate join (``core/dictionary.py`` −4), ``TupleSpace.indexes``
#: (``core/domain.py`` −8). What came in: the prefix-count columns, the
#: free-columns count instances and the bound projections of the
#: candidate join (``core/layout.py`` +42), the kernel's build entry
#: ``join_rows`` (+5), the index-space ``CostWalk`` (+6), the empty-trie
#: rule of ``TrieIndex.descend`` (+2) and the value-space tries the
#: baselines now build for themselves (+3). The trie helpers the specs
#: read moved to ``tests/reference_build.py`` (410 → 481 on its ``make
#: size`` line; ``tests/reference_walk.py`` 135 → 142). No gain claimed.
#: Then, when τ became a cut: 13,145 → 13,235 (+90: the engine's +10
#: above, +80 in ``core``
#: — ``CompressedRepresentation.cut`` and ``layout.cut_layout``, the
#: one linear pass that derives the structure at a higher τ from a built
#: one's columns; the per-entry costs the dictionary pass keeps and the
#: compiler lays out beside the bits; ``level_threshold``, the one τ_ℓ
#: formula the build, the dictionary and a cut share), bought by the
#: ``tau_churn`` ``setup_s`` row: 0.157 → 0.080 s, ten of ten pairs
#: (0.157 → 0.081 s on held-out seed 40; ``core.structure.build_s`` on
#: the traced run 0.140–0.146 → 0.060–0.062 s; ``BENCH_26.json``).
#: Then, when the value-space index and join left ``src/``: 13,235 →
#: 12,966 (−269; the engine and the CLI 0). Moved, not deleted: the trie
#: (``database/index.py``, −109) and the generic join with its helpers
#: (``joins/generic_join.py`` 115 → 7, −108; ``JoinCounter`` stays), now
#: ``tests/reference_index.py`` on its own ``make size`` line with the
#: value-space Proposition 4 bag builder beside them. Deleted outright,
#: −52: the baselines' own joins (``baselines/`` −23: the lazy view is
#: the one-leaf layout, the materialised one the build's output
#: function), Proposition 4's bag tries and re-sort
#: (``core/constant_delay.py`` −22: a bag is ``MaterializedView`` of the
#: induced view ``decomposed.bag_view`` builds for Theorem 2 too, which
#: leaves ``core/decomposed.py`` −1), the
#: build's private output loop (``core/structure.py`` −10, against
#: ``core/dictionary.py`` +13 for ``materialize_outputs``, which both
#: ends call) and the re-exports (−9). No gain claimed.
#: Then, when the speedup-ratio gates left ``benchmarks/``: 12,966 →
#: 12,915 (−51; the engine and the CLI 0). ``workloads/streams.py`` lost
#: ``shifting_requests``, the skew-shifting stream only the
#: adaptive-tuning gate drew. No gain claimed.
#: Then, when replicas began adopting the primary's snapshot at a
#: rebuild boundary: 12,915 → 12,919 (+4; the engine +2 above, the CLI
#: 0). ``Relation.with_changes`` (``database/relation.py`` +4) builds a
#: dirty version's merged relation from the row sets, the way ``union``
#: and ``rename`` do, instead of re-checking every row's arity through
#: the constructor (``core/dynamic.py`` −2); no gain of its own is
#: claimed for it. The change it rode with moved the ``dynamic_mixed``
#: ``requests_per_s`` row 1,007 → 1,525 req/s (ten of ten pairs; 941 →
#: 1,444 on held-out seed 40, ``BENCH_29.json``).
#: Then, when the serving options only tests set became constants:
#: 12,919 → 12,700 (−219: the engine −127 and the CLI −44 above;
#: ``workloads/streams.py`` −48, ``hotkey_stream``, whose one caller
#: outside the tests was the resharding gate). No gain claimed.
#: Then, when live resharding went: 12,700 → 12,230 (−470: the engine
#: −335 and the CLI −135 above). No gain claimed.
#: Then, when a dirty version's context began deriving from its
#: predecessor's: 12,230 → 12,229 (−1, all in ``core``). The derivation
#: added ``core/context.py`` +12 (``ViewContext._domain`` and the
#: ``previous=`` hand-over, net of ``adopt_cover`` −2 and
#: ``_occurrence_values``, now ``Database.active_domain``) and
#: ``core/layout.py`` +6 (``compile_join_columns`` takes columns over);
#: ``core/dynamic.py`` −19 paid for them (one ``_buffer`` for the two
#: mirrored buffer edits, ``insert`` / ``delete`` through
#: ``apply_deltas``, ``current_database`` through ``Database.replace``).
#: It moved the ``dynamic_mixed`` ``requests_per_s`` row (``BENCH_32.json``).
#: Then, when the heavy dictionary became one flat form and codec v4
#: stored a compressed state's view and database as one ``source``
#: section: 12,229 → 12,229 (±0, all in ``core``). ``core/snapshot.py``
#: +6 (``source_section`` / ``source_states``, one ``_loads`` for the
#: two unpickles), ``core/context.py`` +5 (``ViewContext.source``),
#: ``core/structure.py`` +1 (adoption by equal bytes, else by equal
#: states), paid by ``core/layout.py`` −11 (no per-bucket slicing on
#: decode, no entry recount, no concatenation loop in ``to_state``,
#: ``_dict_columns`` folded into ``_compile_dictionary``, ``cut_layout``
#: one ``compress`` over the flat costs) and ``core/dictionary.py`` −1.
#: It moved the ``tau_churn`` ``latency_p99_ms`` row (``BENCH_33.json``).
#: Then, when the closed-loop τ tuner went: 12,229 → 11,911 (−318: the
#: engine −258 and the CLI −60 above). No gain claimed.
#: Then, when the build's dictionary pass became one array step per tree
#: level: 11,911 → 11,985 (+74, all in ``core``). ``core/dictionary.py``
#: +82 (``_AccessCosts``, ``_level``, ``_powers``, ``_box_sums`` and the
#: level loop, net of the per-(candidate, node) loop and
#: ``HeavyDictionary.costs``); ``core/cost.py`` −9 (``read_level``, the
#: one level rule the walk and the pass share, and ``CostModel.factors``,
#: against the restricted walk the pass replaced: ``walk(access)``,
#: ``access_cost``, ``is_heavy``, ``CostWalk.boxes_cost``);
#: ``core/layout.py`` +1 (``AtomColumns.root_ranges`` against the cost
#: threading through ``compile_dictionary``). It moved the
#: ``dynamic_mixed`` ``requests_per_s`` row (``BENCH_35.json``).
#: Then, when the tree pass became level-synchronous over arrays:
#: 11,985 → 12,063 (+78, all in ``core``). ``core/balanced_tree.py`` +81
#: (``build_tree_columns`` and its pre-order column assembly — boxes and
#: β points made in id order, which a drain reads faster — net of the
#: recursive ``make`` and ``DelayBalancedTree.columns``, which moved to
#: the spec as ``spec_tree_columns``); ``core/cost.py`` +52 (the array
#: decomposition ``decompose`` / ``Boxes``, and ``BoxCosts`` — the
#: dictionary's evaluator, moved here and shared — net of ``CostWalk``
#: and its plan); ``core/splitting.py`` +17 (Algorithm 1 over a level's
#: arrays, net of ``split_boxes``); ``core/dictionary.py`` −70 (its
#: evaluator moved to ``cost.py``); ``core/structure.py`` +1 and
#: ``core/layout.py`` −3 (``compile_layout`` takes the tree's columns).
#: It moved the ``scan_stream`` ``setup_s`` row (``BENCH_36.json``).
#: Then, with one registration kind: 12,063 → 12,059 (−4): the engine
#: −6 and the CLI −27 above; ``core/dynamic.py`` +26 (``check_arity``,
#: one batch checked before any buffer changes;
#: ``FrozenDynamicView.at``, a version at any τ; the constructor's
#: ``structure=``, adopting a resident structure) and
#: ``core/structure.py`` +3 (``cuttable``).
#: Then, when the build's joins and emptiness bits became array steps:
#: 12,059 → 12,128 (+69). ``core/dictionary.py`` +76 (``array_join``
#: and its ``_expand``, ``Output``, ``decode``, ``nonempty_bits`` and
#: ``_spans``, net of the per-candidate ``join_rows`` loop, the
#: per-pair bisect loop and ``output_nonempty_in`` / ``_nonempty``,
#: which moved to the spec); ``core/cost.py`` +4 (``run_keys`` and
#: ``root_slices``, split out of ``_level`` and ``BoxCosts`` so the
#: join shares them); ``core/layout.py`` −5 (``in_index_space``, which
#: only the build's kernel joins read); ``core/structure.py`` −2; the
#: engine −4 above (``_succeeded``, one outcome rule for both async
#: gathers). It moved the ``point_lookup`` ``setup_s`` row
#: (``BENCH_38.json``).
#: Then, when a built structure stopped being edited: 12,128 → 12,073
#: (−55). ``core/structure.py`` −21 (``_fresh_layout``, the
#: ``_dictionary`` cache and ``compile_layout``'s write-back, net of
#: ``with_bits``); ``core/dictionary.py`` −19 (``HeavyDictionary``; the
#: spec keeps its own container, +10 in ``tests/reference_build.py``);
#: ``core/decomposed.py`` −12 (Algorithm 4 over the columns);
#: ``core/layout.py`` −6 (``dict_version``, ``recompile_dictionary``,
#: net of ``DictColumns.get`` / ``__len__`` / ``items``);
#: ``core/cost.py`` +8 (``live_accesses``: one root-slice resolution
#: per build, two liveness rules); ``core/__init__.py`` −1; the engine
#: −4 above. No gain claimed.
#: Then, when every server began to build in its own process:
#: 12,073 → 11,948 (−125): the engine −111 and the CLI −14 above. No
#: gain claimed.
#: Then, when the atom compile began to fold rows into sorted integer
#: keys: 11,948 → 11,962 (+14). ``core/context.py`` +12
#: (``bound_columns``, memoised beside ``count_columns``, and
#: ``_build_columns``, which compiles both off the join columns' keys);
#: ``core/layout.py`` +2 (``_row_keys``, ``RowKeys`` and ``_bound_atom``,
#: net of ``compile_count_columns`` and ``compile_bound_columns``; the
#: tuple-sorting ``_compile_rows`` moved to ``tests/reference_index.py``).
#: It moved the ``point_lookup`` ``setup_s`` row (``BENCH_41.json``).
#: Then, when a batch began to drain once through the back end's
#: ``open_batch`` and the index's cells began to be read off the
#: compiled columns: 11,962 → 11,870 (−92): the engine −84 and the CLI
#: −17 above; ``core/context.py`` +9 (``_index_cells``: level lengths,
#: the roots' distinct bound prefixes and the free levels' distinct
#: parent paths, against ``_trie_edges``, which moved to
#: ``tests/reference_index.py`` as the spec). No gain claimed.
#: Then, when rows began to leave the kernel in runs: 11,870 → 11,934
#: (+64): the engine +61 above; ``core/representation.py`` +17
#: (``_runs`` / ``_layout_runs``, every kernel-backed entry point's one
#: generator of runs, and the resume's token drop at the run level);
#: ``core/kernel.py`` +10 (``Rows`` / ``flatten``, net of
#: ``kernel_enumerate_from``); ``core/dynamic.py`` −16 and
#: ``core/structure.py`` −7 (the per-row ``yield from`` wrappers and
#: ``_read_dirty``, now ``_layout_runs``); ``baselines/lazy.py`` −1. It
#: moved the ``scan_stream`` ``tuples_per_s`` row (``BENCH_43.json``).
#: Then, when a relation began to memoise its derived facts and a
#: derived context began to keep the columns of an atom whose domains
#: only grew at the top: 11,934 → 11,989 (+55). ``database/relation.py``
#: +28 (``canonical``, the rows' one ``repr`` order and bytes;
#: ``column_values`` memoised as a ``frozenset``; ``_hold`` / ``_of``,
#: the one place rows and an empty memo are set, and ``__reduce__``,
#: which leaves the memo behind); ``database/catalog.py`` −2;
#: ``core/snapshot.py`` ±0 (the state and the fingerprints read the
#: memo); ``core/layout.py`` +6 (``_extends``, the prefix rule);
#: ``core/context.py`` +23 (``AtomBinding.over`` and ``_checked``, a
#: binding's view-only parts shared over the same view; ``_validate``;
#: each variable's occurrences, computed once per view). It moved the
#: ``dynamic_mixed`` ``requests_per_s`` row (``BENCH_44.json``).
#: Then, when a measured pull began to time its rows in one loop:
#: 11,989 → 12,001 (+12): the engine +15 above; ``query/conjunctive.py``
#: −3 (``is_full`` and the natural-join verdict computed once, in
#: slots). It moved the ``scan_measured`` ``requests_per_s`` row
#: (``BENCH_45.json``).
SRC_SLOC_CEILING = 12001


class TestSizeGate:
    def test_engine_stays_under_its_ceiling(self):
        engine = package_sloc(REPO / "src" / "repro" / "engine")
        assert sum(engine.values()) <= ENGINE_SLOC_CEILING, engine

    def test_the_cli_stays_under_its_ceiling_and_on_its_own_line(
        self, capsys
    ):
        main = file_sloc(REPO / "src" / "repro" / MAIN)
        assert main <= MAIN_SLOC_CEILING, main
        assert size_main([str(REPO)]) == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert lines[lines.index([str(main), MAIN]) - 1][1] == "src/repro/*.py"

    def test_the_whole_package_stays_under_its_ceiling(self):
        total = sum(package_sloc(REPO / "src" / "repro").values())
        assert total <= SRC_SLOC_CEILING, total

    def test_the_spec_moved_out_of_src_is_printed_on_its_own_line(
        self, capsys
    ):
        assert size_main([str(REPO)]) == 0
        total, *moved = capsys.readouterr().out.splitlines()[-4:]
        assert total.split() == [
            str(sum(package_sloc(REPO / "src" / "repro").values())),
            "total",
        ]
        for line, spec in zip(moved, (SPEC, BUILD_SPEC, INDEX_SPEC), strict=True):
            assert line.split()[:2] == [
                str(sloc((REPO / spec).read_text())),
                spec,
            ]

    def test_the_object_form_of_the_build_stays_out_of_src(self):
        # One build path: src/ neither constructs nor names the f-box
        # classes or the per-model decomposition cache that moved to
        # tests/reference_build.py (docstrings and comments included).
        gone = ("FBox", "ScalarInterval", "_decomposition_cache", "boxes_of")
        hits = [
            (str(path.relative_to(REPO)), name)
            for path in sorted((REPO / "src" / "repro").rglob("*.py"))
            for name in gone
            if name in path.read_text(encoding="utf-8")
        ]
        assert not hits
        spec = (REPO / BUILD_SPEC).read_text(encoding="utf-8")
        assert all(name in spec for name in gone)

    def test_docstrings_comments_and_blanks_are_free(self):
        source = '''"""Module docstring."""

# a comment
def f(x):
    """Docstring,
    two lines."""
    return (
        x  # trailing comments ride a code line
    )
'''
        assert sloc(source) == 4


class TestFrontEndLayering:
    """The async front end executes the back end's plan; it never plans.

    The layering as a test, not a comment: ``engine/async_server.py``
    knows :class:`~repro.engine.server.Serving` (``drain``, once per
    batch) and nothing about the sharded facade behind it.
    """

    TREE = ast.parse(
        (REPO / "src" / "repro" / "engine" / "async_server.py").read_text()
    )

    def test_it_imports_nothing_from_the_sharded_facade(self):
        imported = [
            node.module if isinstance(node, ast.ImportFrom) else alias.name
            for node in ast.walk(self.TREE)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        assert imported, "the walk found no imports at all"
        assert not [m for m in imported if m and "sharding" in m]

    def test_it_never_asks_whether_the_back_end_is_sharded(self):
        names = {
            node.id for node in ast.walk(self.TREE) if isinstance(node, ast.Name)
        } | {
            node.attr
            for node in ast.walk(self.TREE)
            if isinstance(node, ast.Attribute)
        }
        assert "drain" in names
        assert not names & {
            "ShardedViewServer",
            "is_sharded",
            "jobs",
            "pin_version",
            "release_version",
            "shard_server",
            "plan_requests",
        }

    def test_it_asks_the_back_end_only_to_drain_open_and_assemble(self):
        # Every attribute read off the back end (or the replica standing
        # in for it): one batch is one drain; nothing plans, merges or
        # folds stats here.
        def back_end(node):
            if isinstance(node, ast.BoolOp):
                return any(map(back_end, node.values))
            return isinstance(node, ast.Attribute) and node.attr == "backend"

        asked = {
            node.attr
            for node in ast.walk(self.TREE)
            if isinstance(node, ast.Attribute) and back_end(node.value)
        }
        assert "drain" in asked
        assert asked <= {
            "drain",
            "open",
            "batch_result",
            "stream_report",
            "registration",
            "views",
        }, asked


class TestOneStaticEnumerator:
    """The kernel knob is gone from the library and from the CLI."""

    def test_src_mentions_no_kernel_mode_knob(self):
        knob = re.compile(r"REPRO_KERNEL_MODE|set_kernel_mode|kernel_enabled")
        mentions = [
            str(path.relative_to(REPO))
            for path in sorted((REPO / "src").rglob("*.py"))
            if knob.search(path.read_text(encoding="utf-8"))
        ]
        assert mentions == []

    @staticmethod
    def _serve_help() -> str:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert "--requests" in proc.stdout
        return proc.stdout

    def test_serve_offers_no_kernel_flag(self):
        assert "--kernel" not in self._serve_help()

    def test_serve_offers_none_of_the_retired_serving_flags(self):
        # One eviction policy, one balancer, no unbatched strawman: the
        # flags that chose between them are gone with the code paths.
        text = self._serve_help()
        for flag in (
            "--cache-policy", "--balancer", "--per-request", "--build-workers"
        ):
            assert flag not in text

    def test_the_cli_offers_no_topology_verb(self):
        # The shards are fixed at construction: there is no routing
        # table to show or split offline.
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        usage = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert usage.returncode == 0, usage.stderr
        assert "serve" in usage.stdout and "topology" not in usage.stdout
        gone = subprocess.run(
            [sys.executable, "-m", "repro", "topology", "show"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert gone.returncode == 2
        assert "invalid choice: 'topology'" in gone.stderr


class TestFixedShards:
    """Live resharding is gone, by name: the shards never change.

    The names are spelled in halves so that this file passes its own
    check.
    """

    GONE = re.compile(
        "|".join(
            head + tail
            for head, tail in (
                ("split_", "shard"),
                ("Split", "Report"),
                ("version_", "pins"),
                ("sharding.", "topology"),
                ("shard_splits_", "total"),
                ("assignment_", "of"),
                ("def ", "replay"),
            )
        )
    )

    def test_src_names_no_split_machinery(self):
        files = sorted((REPO / "src").rglob("*.py"))
        assert len(files) > 80, "the walk found too few files"
        mentions = [
            str(path.relative_to(REPO))
            for path in files
            if self.GONE.search(path.read_text(encoding="utf-8"))
        ]
        assert mentions == []


class TestOneWalkPerRequest:
    """The merged descent is gone, by name: a batch is the solo walk.

    The names are spelled in halves so that this file passes its own
    check.
    """

    GONE = re.compile(
        "|".join(
            head + tail
            for head, tail in (
                ("shared_", "enumerate"),
                ("supports_", "shared_scan"),
                ("subtries_", "shared"),
                ("Subtrie", "Cache"),
                ("Kernel", "Slot"),
            )
        )
    )

    def test_nothing_names_the_merged_descent_or_its_capability(self):
        files = [REPO / "README.md"]
        for root, pattern in (("src", "*.py"), ("tests", "*.py"), ("docs", "*.md")):
            files += sorted((REPO / root).rglob(pattern))
        assert len(files) > 100, "the walk found too few files"
        mentions = [
            str(path.relative_to(REPO))
            for path in files
            if self.GONE.search(path.read_text(encoding="utf-8"))
        ]
        assert mentions == []

    def test_the_kernel_defines_one_tree_walk(self):
        tree = ast.parse(
            (REPO / "src" / "repro" / "core" / "kernel.py").read_text()
        )
        walks = [
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(
                isinstance(sub, ast.Attribute) and sub.attr == "tree"
                for sub in ast.walk(node)
            )
        ]
        assert walks == ["_walk"]

    def test_a_cursor_times_its_rows_in_one_loop(self):
        """One measured accounting path: the pull's timing loop.

        In ``engine/api.py`` exactly one function folds a step gap into
        its maximum inside a loop — the measured pull, ``_timed`` — and
        the measure state (``_stats``, ``_last_time``, ``_last_steps``,
        ``_started``) is set at open, kept by ``_timed`` and read by
        ``stats()``, nowhere else: the per-row ``__next__`` and the
        exhaustion and output bookkeeping read none of it.
        """
        tree = ast.parse(
            (REPO / "src" / "repro" / "engine" / "api.py").read_text()
        )
        functions = [
            node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        ]

        def stores_a_step_max(loop):
            return any(
                isinstance(getattr(sub, "ctx", None), ast.Store)
                and getattr(sub, "id", getattr(sub, "attr", "")).startswith(
                    "step_max"
                )
                for sub in ast.walk(loop)
            )

        per_row = [
            function.name
            for function in functions
            if any(
                stores_a_step_max(loop)
                for loop in ast.walk(function)
                if isinstance(loop, (ast.For, ast.While))
            )
        ]
        assert per_row == ["_timed"]
        state = {"_stats", "_last_time", "_last_steps", "_started"}
        readers = {
            function.name
            for function in functions
            if any(
                isinstance(sub, ast.Attribute) and sub.attr in state
                for sub in ast.walk(function)
            )
        }
        assert readers == {"__init__", "_timed", "stats"}
        names = {function.name for function in functions}
        assert "__next__" in names and "_observe_exhaustion" in names


class TestOneIndexPerAtom:
    """``src/`` counts and joins on the context's columns, and only there.

    The value-space trie and the generic join over it are the tests'
    spec (``tests/reference_index.py``): no module under ``src/repro``
    imports the one or names the other.
    """

    SRC = REPO / "src" / "repro"
    MODULES = sorted(
        path.relative_to(REPO / "src" / "repro").as_posix()
        for path in SRC.rglob("*.py")
    )
    GONE = {"TrieIndex", "TrieNode", "generic_join", "join_is_nonempty"}

    def test_the_walk_sees_every_module(self):
        assert len(self.MODULES) > 80
        assert "core/kernel.py" in self.MODULES
        assert "baselines/lazy.py" in self.MODULES
        assert not (self.SRC / "database" / "index.py").exists()

    @pytest.mark.parametrize(
        "module",
        MODULES,
        # core/ modules keep the bare names the pin was first keyed by.
        ids=lambda m: m[len("core/") : -len(".py")] if m.startswith("core/") else m,
    )
    def test_no_trie_and_no_value_space_join(self, module):
        tree = ast.parse((self.SRC / module).read_text(encoding="utf-8"))
        imported = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        } | {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        assert "repro.database.index" not in imported
        names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {
            n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
        }
        names |= {
            n.name
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))
        }
        assert not self.GONE & names


class TestTheServingPathIsNumpyFree:
    """numpy serves the cover LPs and the build's array passes only.

    ``pyproject.toml`` promises that the columnar kernel uses no numpy:
    plain int lists and ``bisect``. Held as imports, by AST: no module
    under ``repro.engine``, nor the kernel, the layouts or the snapshot
    codec imports it, and inside ``repro.core`` only the build's passes
    do — the tree pass, Algorithm 1, the evaluator of ``T`` and the
    dictionary pass, whose arrays are locals of the build.
    """

    SRC = REPO / "src" / "repro"

    @staticmethod
    def imports_numpy(path: Path) -> bool:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        ] + [
            node.module or ""
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        ]
        return any(module.split(".")[0] == "numpy" for module in modules)

    def test_the_check_sees_an_import(self, tmp_path):
        for line in ("import numpy as np", "from numpy.linalg import norm"):
            (tmp_path / "m.py").write_text(f"def f():\n    {line}\n")
            assert self.imports_numpy(tmp_path / "m.py")

    def test_no_serving_module_imports_numpy(self):
        serving = sorted((self.SRC / "engine").rglob("*.py"))
        assert len(serving) > 10, "the walk found too few engine modules"
        serving += [
            self.SRC / "core" / name
            for name in ("kernel.py", "layout.py", "snapshot.py")
        ]
        imports = [p for p in serving if self.imports_numpy(p)]
        assert [str(p.relative_to(self.SRC)) for p in imports] == []

    def test_in_core_only_the_build_passes_use_numpy(self):
        # The tree pass, Algorithm 1, the one evaluator of T they and
        # the dictionary pass share, and the dictionary pass.
        core = sorted((self.SRC / "core").glob("*.py"))
        assert len(core) > 10
        assert [p.name for p in core if self.imports_numpy(p)] == [
            "balanced_tree.py",
            "cost.py",
            "dictionary.py",
            "splitting.py",
        ]


class TestOneBuildPath:
    """A server builds in its own process, where a higher τ is a cut.

    A structure handed back from a worker process is a decoded blob with
    no entry costs, so it can never be the base a higher τ is cut from
    (Theorem 1). Held by AST: no ``repro.engine`` module other than
    ``parallel.py`` — the pool the benchmark's parallel-build probe
    times — imports or names ``ParallelBuilder``, ``ProcessPoolExecutor``,
    ``concurrent.futures.process`` or the ``parallel`` module, and
    ``ViewServer._build`` makes one build call.
    """

    ENGINE = REPO / "src" / "repro" / "engine"
    FORBIDDEN = {
        "ParallelBuilder",
        "ProcessPoolExecutor",
        "concurrent.futures.process",
        "repro.engine.parallel",
    }

    @classmethod
    def process_build_names(cls, path: Path) -> list:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names.add(module)
                for alias in node.names:
                    names |= {alias.name, f"{module}.{alias.name}"}
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        return sorted(names & cls.FORBIDDEN)

    def test_the_check_sees_an_import_and_a_name(self, tmp_path):
        for line in (
            "from repro.engine.parallel import ParallelBuilder",
            "from repro.engine import parallel",
            "from concurrent.futures import ProcessPoolExecutor",
            "from concurrent.futures.process import BrokenProcessPool",
            "import concurrent.futures.process",
            "pool = concurrent.futures.ProcessPoolExecutor(2)",
        ):
            (tmp_path / "m.py").write_text(f"def f():\n    {line}\n")
            assert self.process_build_names(tmp_path / "m.py"), line

    def test_only_parallel_py_reaches_a_process_pool(self):
        modules = sorted(self.ENGINE.rglob("*.py"))
        assert len(modules) > 10, "the walk found too few engine modules"
        found = {
            path.name: self.process_build_names(path)
            for path in modules
            if path.name != "parallel.py"
        }
        assert {name: hit for name, hit in found.items() if hit} == {}

    def test_build_makes_one_build_call(self):
        tree = ast.parse((self.ENGINE / "server.py").read_text("utf-8"))
        build = next(
            method
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "ViewServer"
            for method in cls.body
            if isinstance(method, ast.FunctionDef) and method.name == "_build"
        )
        calls = [
            ast.unparse(node.func)
            for node in ast.walk(build)
            if isinstance(node, ast.Call)
        ]
        assert calls.count("CompressedRepresentation") == 1, calls
        assert not [call for call in calls if call.endswith(".build")]


class TestPairSummariser:
    """`benchmarks/bench_pairs.py`: the §8 verdict, from canned results."""

    CONTRACT = {
        "workloads": [{"name": "scan_stream"}, {"name": "point_lookup"}],
        "end_to_end": [
            {"name": "tuples_per_s", "unit": "1/s", "better": "higher",
             "bound": 0.25},
            {"name": "latency_p99_ms", "unit": "ms", "better": "lower",
             "bound": 0.25},
            {"name": "resident_cells", "unit": "count", "better": "lower",
             "bound": 0.08},
        ]
    }

    @staticmethod
    def _stdout(tuples, p99, cells=25479, failed=0):
        """What one `run.py` prints: chatter, then the result line."""
        result = {
            "correct": failed == 0,
            "attempted": 3430,
            "failed": failed,
            "metrics": {
                "tuples_per_s": {"value": tuples, "unit": "1/s"},
                "latency_p99_ms": {"value": p99, "unit": "ms"},
                "resident_cells": {"value": cells, "unit": "count"},
            },
        }
        return f"workload=scan_stream seed=11\npasses=21\n{json.dumps(result)}\n"

    def test_the_last_stdout_line_is_the_result(self):
        parsed = parse_result(self._stdout(1.5e5, 60.0))
        assert parsed["metrics"]["tuples_per_s"]["value"] == 1.5e5

    def test_a_row_of_ten_pairs(self):
        parent = [
            parse_result(self._stdout(130e3 + 1e3 * i, 60.0 + i % 3))
            for i in range(10)
        ]
        change = [
            parse_result(self._stdout(200e3 + 1e3 * i, 61.0 - i % 3, failed=i == 4))
            for i in range(10)
        ]
        row = summarise_pairs(parent, change, self.CONTRACT)
        assert row["pairs"] == 10
        assert row["failed"] == {"parent": 0, "change": 1}
        tuples = row["metrics"]["tuples_per_s"]
        assert tuples["verdict"] == "improved"
        assert (tuples["wins"], tuples["losses"]) == (10, 0)
        assert tuples["parent"] == {"q1": 132250.0, "median": 134500.0, "q3": 136750.0}
        assert tuples["runs"]["change"][0] == 200e3
        # p99 moved by less than the parent's own spread: no claim.
        assert row["metrics"]["latency_p99_ms"]["verdict"] == "inside bound"
        # A count that repeats exactly ties every pair: neither side wins.
        cells = row["metrics"]["resident_cells"]
        assert (cells["wins"], cells["losses"]) == (0, 0)
        assert cells["verdict"] == "inside bound"

    def test_verdicts(self):
        ten = list(range(10))
        higher = [100.0 + i for i in ten]
        # Nine of ten wins and a median gap above the parent's quartile
        # distance (4.5 here) is a gain; eight wins is not.
        nine = [v + 10 for v in higher[:9]] + [higher[9] - 1]
        assert summarise(higher, nine, "higher", 0.25)["verdict"] == "improved"
        eight = [v + 10 for v in higher[:8]] + [v - 1 for v in higher[8:]]
        assert summarise(higher, eight, "higher", 0.25)["verdict"] == "inside bound"
        # Ten wins by less than the parent's spread: not a gain either.
        assert (
            summarise(higher, [v + 1 for v in higher], "higher", 0.25)["verdict"]
            == "inside bound"
        )
        # "lower is better" flips the sign of a win.
        lower = summarise(higher, [v - 10 for v in higher], "lower", 0.25)
        assert (lower["verdict"], lower["wins"]) == ("improved", 10)
        # Worse than the parent by more than the bound.
        assert (
            summarise(higher, [v * 0.7 for v in higher], "higher", 0.25)["verdict"]
            == "worse"
        )
        # A parent noisier than the bound can only be left unresolved...
        noisy = [100.0, 10.0, 190.0, 20.0, 180.0, 30.0, 170.0, 40.0, 160.0, 50.0]
        flat = [100.0] * 10
        assert summarise(noisy, flat, "higher", 0.05)["verdict"] == "unresolved"
        # ...winning every pair is not enough, every run of the change
        # reading better than every run of the parent is.
        assert (
            summarise(noisy, [v + 1 for v in noisy], "higher", 0.05)["verdict"]
            == "unresolved"
        )
        clear = [191.0 + i for i in ten]
        assert summarise(noisy, clear, "higher", 0.05)["verdict"] == "inside bound"

    def test_the_report_round_trips_one_line_per_metric(self):
        parent = [parse_result(self._stdout(130e3 + i, 60.0)) for i in range(3)]
        change = [parse_result(self._stdout(200e3 + i, 40.0)) for i in range(3)]
        row = summarise_pairs(parent, change, self.CONTRACT)
        report = {"parent": "abc1234", "rows": {"scan_stream@11": row}}
        text = dump_report(report)
        assert json.loads(text) == report
        assert len(text.splitlines()) == 2 + len(self.CONTRACT["end_to_end"]) + 2

    def test_the_committed_bench_file_covers_every_workload(self):
        contract = json.loads((REPO / "BENCHMARK.json").read_text())
        report = json.loads((REPO / "BENCH_20.json").read_text())
        rows = report["rows"]
        workloads = [entry["name"] for entry in contract["workloads"]]
        assert {f"{name}@11" for name in workloads} <= set(rows)
        assert "scan_stream@40" in rows  # the held-out seed
        for label, row in rows.items():
            assert row["failed"] == {"parent": 0, "change": 0}, label
            assert set(row["metrics"]) == {
                entry["name"] for entry in contract["end_to_end"]
            }
            assert not any(
                metric["verdict"] == "worse" for metric in row["metrics"].values()
            ), label
        claimed = rows["scan_stream@11"]
        assert claimed["pairs"] >= 10
        assert claimed["metrics"]["tuples_per_s"]["verdict"] == "improved"


class TestPairsParent:
    """`bench_pairs --parent`: a directory, or a git revision it checks
    out itself and records the hash of."""

    @staticmethod
    def git(repo, *args):
        done = subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, stdout=subprocess.PIPE, text=True,
        )
        return done.stdout.strip()

    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        """A one-commit repository standing in for this one."""
        repo = tmp_path / "repo"
        repo.mkdir()
        (repo / "BENCHMARK.json").write_text(
            json.dumps(TestPairSummariser.CONTRACT)
        )
        self.git(repo, "init", "-q")
        self.git(repo, "add", "BENCHMARK.json")
        self.git(repo, "commit", "-q", "-m", "contract")
        monkeypatch.setattr(bench_pairs, "REPO", repo)
        return repo

    def test_a_revision_is_checked_out_measured_and_removed(
        self, repo, tmp_path, monkeypatch
    ):
        seen = []

        def run_once(tree, workload, seed):
            seen.append(tree)
            assert (tree / "BENCHMARK.json").is_file()
            return parse_result(TestPairSummariser._stdout(1.5e5, 60.0))

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        out = tmp_path / "BENCH.json"
        argv = ["--parent", "HEAD", "--workload", "scan_stream", "--pairs", "2"]
        assert bench_pairs.main(argv + ["--out", str(out)]) == 0
        parents = {tree for tree in seen if tree != repo}
        assert len(parents) == 1 and len(seen) == 4
        # The worktree is gone, from disk and from git's list.
        assert not any(tree.exists() for tree in parents)
        assert self.git(repo, "worktree", "list").count("\n") == 0
        head = self.git(repo, "rev-parse", "--short", "HEAD")
        assert json.loads(out.read_text())["parent"] == head

    def test_all_runs_each_workloads_pairs_and_merges_every_row(
        self, repo, tmp_path, monkeypatch
    ):
        seen = []

        def run_once(tree, workload, seed):
            seen.append(workload)
            return parse_result(TestPairSummariser._stdout(1.5e5, 60.0))

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        out, plain = tmp_path / "BENCH.json", tmp_path / "plain"
        plain.mkdir()
        argv = ["--parent", str(plain), "--workload", "all", "--pairs", "2"]
        assert bench_pairs.main(argv + ["--out", str(out)]) == 0
        assert seen == ["scan_stream"] * 4 + ["point_lookup"] * 4
        rows = json.loads(out.read_text())["rows"]
        assert set(rows) == {"scan_stream@11", "point_lookup@11"}

    def test_a_directory_is_taken_as_it_is(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        with bench_pairs.parent_checkout(str(plain)) as (tree, head):
            assert tree == plain.resolve()
            assert head == "unknown"
        assert plain.is_dir()


class TestFailedRuns:
    """A run that exits non-zero or reports wrong answers stops the loop,
    naming the side, the pair, the workload and the seed — over stub
    trees whose ``run.py`` prints a canned result and exits."""

    @staticmethod
    def stub_tree(root: Path, correct: bool = True, code: int = 0) -> Path:
        result = parse_result(TestPairSummariser._stdout(1.5e5, 60.0))
        result["correct"] = correct
        runner = root / "benchmarks" / "e2e" / "run.py"
        runner.parent.mkdir(parents=True)
        runner.write_text(
            "import sys\n"
            "print('workload and seed chatter')\n"
            f"print({json.dumps(json.dumps(result))})\n"
            f"sys.exit({code})\n"
        )
        (root / "BENCHMARK.json").write_text(json.dumps(TestPairSummariser.CONTRACT))
        return root

    def run(self, tmp_path, monkeypatch, parent, change):
        monkeypatch.setattr(
            bench_pairs, "REPO", self.stub_tree(tmp_path / "change", **change)
        )
        parent = self.stub_tree(tmp_path / "parent", **parent)
        argv = ["--parent", str(parent), "--workload", "scan_stream", "--pairs", "2"]
        return bench_pairs.main(argv + ["--seed", "7"])

    def test_clean_runs_pass(self, tmp_path, monkeypatch):
        assert self.run(tmp_path, monkeypatch, {}, {}) == 0

    @pytest.mark.parametrize(
        "parent, change, complaint",
        [
            ({}, {"correct": False, "code": 1}, "change run of pair 1/2, "
             "scan_stream@7: exit code 1, correct: false"),
            ({}, {"correct": False}, "change run of pair 1/2, "
             "scan_stream@7: exit code 0, correct: false"),
            ({"code": 1}, {}, "parent run of pair 1/2, "
             "scan_stream@7: exit code 1, correct: true"),
        ],
    )
    def test_a_failed_or_wrong_run_stops_the_loop(
        self, tmp_path, monkeypatch, parent, change, complaint
    ):
        with pytest.raises(SystemExit) as stopped:
            self.run(tmp_path, monkeypatch, parent, change)
        assert str(stopped.value) == complaint

    def test_a_run_with_no_result_line_stops_the_loop(self, tmp_path, monkeypatch):
        change = self.stub_tree(tmp_path / "change")
        (change / "benchmarks" / "e2e" / "run.py").write_text("raise SystemExit(2)\n")
        with pytest.raises(SystemExit, match="change run of pair 1/1, "
                           "scan_stream@11: exit code 2, no result line"):
            monkeypatch.setattr(bench_pairs, "REPO", change)
            bench_pairs.main([
                "--parent", str(self.stub_tree(tmp_path / "parent")),
                "--workload", "scan_stream", "--pairs", "1",
            ])
