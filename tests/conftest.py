"""Shared fixtures for the test suite.

The independent hash-join oracle lives in :mod:`oracle` (``tests/oracle.py``)
— a plain importable module, so test imports never depend on conftest
loading order (see the module docstring there for the history).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.database.catalog import Database
from repro.database.relation import Relation

#: ``make fuzz``: the engine differential machine's long run. Selected
#: with ``--hypothesis-profile=fuzz``; a test's own ``settings`` pins
#: still win over a profile, so the machine reads its budget from here.
settings.register_profile(
    "fuzz", max_examples=2000, stateful_step_count=50, deadline=None
)

if os.environ.get("REPRO_LOCK_ORDER") == "1":
    # Lock-order leg (make test-lock-order): every lock the engine
    # creates during this session is an instrumented wrapper reporting
    # into one shared acquisition graph; at session end, any cycle in
    # that graph — a latent deadlock, whether or not the timing ever
    # lined up — fails the run. Name-level granularity: see
    # repro/analysis/lockorder.py for what is (and isn't) detectable.
    from repro.analysis import lockorder
    from repro.engine import locking

    @pytest.fixture(autouse=True, scope="session")
    def _lock_order_tracking():
        graph = lockorder.LockGraph()
        previous = locking.set_lock_factory(
            lockorder.tracking_factory(graph)
        )
        try:
            yield graph
        finally:
            locking.set_lock_factory(previous)
        cycles = graph.cycles()
        assert not cycles, graph.describe(cycles)


@pytest.fixture
def tiny_db() -> Database:
    """A small hand-checkable database over binary relations R, S, T."""
    return Database(
        [
            Relation("R", 2, [(1, 2), (1, 3), (2, 3), (3, 1), (4, 4)]),
            Relation("S", 2, [(2, 3), (3, 1), (3, 4), (1, 1), (4, 4)]),
            Relation("T", 2, [(3, 1), (1, 2), (4, 3), (1, 1), (4, 4)]),
        ]
    )
