"""The logical step counter every measured enumeration threads through.

:class:`JoinCounter` counts candidate probes; tests and the delay
measurements use it as a machine-independent proxy for running time (the
uniform-cost RAM model of Section 2.1). The joins that count with it are
the columnar kernel's (:mod:`repro.core.kernel`) — the only join in
``src/``. The value-space generic join this module was named for, and
the trie it ran on, are the executable spec under ``tests/``
(``tests/reference_index.py``), where the counter's unit was defined: one
step per candidate value probed. The module keeps its name because that
is where the counter has always been imported from — by the kernel, the
cursors, the measurement code and the benchmarks.
"""

from __future__ import annotations


class JoinCounter:
    """Counts logical work: one step per candidate value probed."""

    __slots__ = ("steps",)

    def __init__(self):
        self.steps = 0

    def reset(self) -> None:
        self.steps = 0
