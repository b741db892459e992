"""Collection must stay clean — the conftest-collision class of bug.

The seed suite failed at *collection*: test modules did ``from conftest
import …`` and pytest resolved that against ``benchmarks/conftest.py``,
so every module errored before a single test ran. This test invokes
collection in a fresh subprocess from the repo root — exactly what the
tier-1 command does — and fails loudly if any collection error returns.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _collect(*extra_args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "--collect-only",
            "-q",
            "-p",
            "no:cacheprovider",
            *extra_args,
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_tier1_collection_has_no_errors():
    result = _collect()
    assert result.returncode == 0, (
        f"collection failed (exit {result.returncode}):\n"
        f"{result.stdout}\n{result.stderr}"
    )
    assert _no_error_markers(result.stdout), result.stdout
    # The seed suite had 457 tests; collection must never shrink below it.
    summary = result.stdout.strip().splitlines()[-1]
    collected = int(summary.split()[0])
    assert collected >= 457, summary


def _no_error_markers(stdout: str) -> bool:
    """No pytest error report in the output (test *ids* may contain 'error').

    Collection failures surface as ``ERROR`` lines and an ``N errors``
    summary; both are checked, neither matches a test id.
    """
    if "ERROR" in stdout:
        return False
    summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    return "error" not in summary


def test_benchmark_collection_has_no_errors():
    result = _collect("benchmarks/")
    assert result.returncode == 0, (
        f"benchmark collection failed (exit {result.returncode}):\n"
        f"{result.stdout}\n{result.stderr}"
    )
    assert _no_error_markers(result.stdout), result.stdout
    # The paper-shape printers are gone: the harness's self-test is all
    # that benchmarks/ collects.
    tests = [line for line in result.stdout.splitlines() if "::" in line]
    assert tests, result.stdout
    assert all(line.startswith("benchmarks/e2e/") for line in tests), tests
