"""Lazy evaluation baseline: no space, all delay (Section 2.3)."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.core.context import ViewContext
from repro.core.representation import Representation
from repro.database.catalog import Database
from repro.joins.generic_join import JoinCounter, generic_join
from repro.measure.space import SpaceReport
from repro.query.adorned import AdornedView
from repro.query.rewriting import natural_form


class LazyView(Representation):
    """Evaluate every access request from scratch over linear indexes.

    Space stays ``O(|D|)`` (the tries), but each request costs a full
    worst-case-optimal join over the sub-instance — up to
    ``Π_F |R_F(v_b)|^{u_F}`` before the first tuple appears.
    """

    def __init__(self, view: AdornedView, db: Database):
        self.view, self.db = natural_form(view, db)
        self.ctx = ViewContext(self.view, self.db)

    def enumerate(
        self, access: Sequence, counter: Optional[JoinCounter] = None
    ) -> Iterator[Tuple]:
        """Run the join ``⋈_F R_F(v_b)`` in lexicographic free order."""
        access = self._check_access(access)
        subtries = self.ctx.subtries(access)
        if any(node is None for node in subtries):
            return
        atoms = [
            (node, binding.free_vars)
            for binding, node in zip(self.ctx.atoms, subtries)
        ]
        yield from generic_join(
            atoms,
            self.ctx.free_order,
            domains=self.ctx.free_value_domains,
            counter=counter,
        )

    def space_report(self) -> SpaceReport:
        return SpaceReport(
            base_tuples=self.db.total_tuples(),
            index_cells=self.ctx.index_cells(),
        )
