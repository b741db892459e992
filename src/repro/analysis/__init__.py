"""Project-specific static analysis for the serving engine.

The engine's guarantees — constant-delay enumeration bit-identical to
the executable spec, restart-stable routing, thread-exact telemetry
— rest on invariants that tests only sample. This package enforces the
mechanically-checkable classes those invariants reduce to, each
grounded in a real past bug (see each rule module's docstring):

``lock-discipline``
    attributes guarded by ``with self._lock`` anywhere must be guarded
    everywhere (the cache ``keys()``-snapshot race).
``restart-stability``
    no ``hash()``/``id()``/set-order dependence in topology, snapshot,
    or telemetry modules (the ``hash(None)`` routing bug).
``exception-hygiene``
    no bare/overbroad handlers swallowing ``MemoryError`` /
    ``KeyboardInterrupt`` (the snapshot codec's unpickling catch).
``shared-aliasing``
    mutable containers copied across snapshot/shard boundaries (the
    ``partition_database`` shared-reference hazard).
``parity-surface``
    every ``enumerate*`` entry point keeps the canonical signature.

Run it as ``python -m repro.analysis src/repro`` (or ``make
lint-deep``): exits nonzero on any finding that is neither waived
inline (``# analysis: allow[rule-id] reason``) nor grandfathered in the
committed ``analysis-baseline.txt``. The dynamic complement — the
runtime lock-order detector — lives in
:mod:`repro.analysis.lockorder`.
"""

from repro.analysis.findings import Baseline, Finding
from repro.analysis.framework import (
    RULES,
    Analyzer,
    ModuleInfo,
    Report,
    Rule,
    active_rules,
    register,
)

__all__ = [
    "Analyzer",
    "Baseline",
    "Finding",
    "ModuleInfo",
    "Report",
    "Rule",
    "RULES",
    "active_rules",
    "register",
]
