"""Full materialization baseline: all space, no delay (Section 2.3).

The output is what a Theorem 1 build materialises before it builds
anything (:func:`~repro.core.dictionary.materialize_outputs`): the
kernel's join over the whole free space, once per candidate of
Proposition 13's bound join, read off the context's columns as values.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional, Sequence, Tuple

from repro.core.context import ViewContext
from repro.core.dictionary import bound_candidates, materialize_outputs
from repro.core.representation import Representation
from repro.database.catalog import Database
from repro.joins.generic_join import JoinCounter
from repro.measure.space import SpaceReport
from repro.query.adorned import AdornedView
from repro.query.rewriting import natural_form


class MaterializedView(Representation):
    """Materialize ``Q(D)`` with a hash index keyed by the bound variables.

    Space is ``Θ(|Q(D)|)`` — up to the AGM bound ``|D|^{ρ*}`` — and every
    access request is answered with constant delay by walking the bucket of
    its key. ``index`` maps each bound valuation with an answer to its
    free tuples, sorted, so enumeration is lexicographic like the
    compressed representation's.
    """

    def __init__(self, view: AdornedView, db: Database):
        started = time.perf_counter()
        self.view, self.db = natural_form(view, db)
        self.ctx = ViewContext(self.view, self.db)
        self.index, self._size = materialize_outputs(
            self.ctx.columns(), bound_candidates(self.ctx)
        )
        self.build_seconds = time.perf_counter() - started

    def enumerate(
        self, access: Sequence, counter: Optional[JoinCounter] = None
    ) -> Iterator[Tuple]:
        """Walk the materialized bucket; lexicographic, O(1) delay."""
        access = self._check_access(access)
        for row in self.index.get(access, ()):
            if counter is not None:
                counter.steps += 1
            yield row

    def output_size(self) -> int:
        """|Q(D)| — the number of materialized result tuples."""
        return self._size

    def space_report(self) -> SpaceReport:
        return SpaceReport(
            base_tuples=self.db.total_tuples(),
            materialized_tuples=self._size,
            index_cells=len(self.index),
        )
