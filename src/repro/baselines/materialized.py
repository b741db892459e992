"""Full materialization baseline: all space, no delay (Section 2.3)."""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.context import ViewContext
from repro.core.representation import Representation
from repro.database.catalog import Database
from repro.database.index import TrieIndex
from repro.joins.generic_join import JoinCounter, generic_join
from repro.measure.space import SpaceReport
from repro.query.adorned import AdornedView
from repro.query.rewriting import natural_form


class MaterializedView(Representation):
    """Materialize ``Q(D)`` with a hash index keyed by the bound variables.

    Space is ``Θ(|Q(D)|)`` — up to the AGM bound ``|D|^{ρ*}`` — and every
    access request is answered with constant delay by walking the bucket of
    its key. Result tuples are stored sorted, so enumeration is
    lexicographic like the compressed representation's.
    """

    def __init__(self, view: AdornedView, db: Database):
        started = time.perf_counter()
        self.view, self.db = natural_form(view, db)
        ctx = ViewContext(self.view, self.db)
        self.ctx = ctx
        order = ctx.bound_order + ctx.free_order
        # A variable-less atom joins on no level: whether its trie holds
        # the empty key is all it says, and without it the join is empty.
        roots = [
            TrieIndex(binding.relation, binding.column_order).descend(())
            for binding in ctx.atoms
        ]
        atoms = [
            (root, binding.bound_vars + binding.free_vars)
            for root, binding in zip(roots, ctx.atoms)
        ]
        n_bound = len(ctx.bound_order)
        self._index: Dict[Tuple, List[Tuple]] = {}
        self._size = 0
        for row in () if None in roots else generic_join(atoms, order):
            self._index.setdefault(row[:n_bound], []).append(row[n_bound:])
            self._size += 1
        self.build_seconds = time.perf_counter() - started

    def enumerate(
        self, access: Sequence, counter: Optional[JoinCounter] = None
    ) -> Iterator[Tuple]:
        """Walk the materialized bucket; lexicographic, O(1) delay."""
        access = self._check_access(access)
        for row in self._index.get(access, ()):
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
            index_cells=len(self._index),
        )
