"""Lazy evaluation baseline: no space, all delay (Section 2.3).

Lazy evaluation is Theorem 1's structure once τ exceeds ``T(root)``: one
tree node spanning the tuple space and an empty dictionary
(:func:`~repro.core.layout.one_leaf_layout`), walked by the kernel — the
very structure a dirty dynamic version is read as.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.core.context import ViewContext
from repro.core.kernel import flatten
from repro.core.layout import one_leaf_layout
from repro.core.representation import Representation
from repro.database.catalog import Database
from repro.joins.generic_join import JoinCounter
from repro.measure.space import SpaceReport
from repro.query.adorned import AdornedView
from repro.query.rewriting import natural_form


class LazyView(Representation):
    """Evaluate every access request from scratch over linear indexes.

    Space stays ``O(|D|)`` (the context's one sorted index per atom,
    bound columns first), but each request costs a full worst-case-optimal
    join over the sub-instance — up to ``Π_F |R_F(v_b)|^{u_F}`` before the
    first tuple appears. A measured request counts the kernel's steps:
    the one dictionary probe at the root, then the join's.
    """

    def __init__(self, view: AdornedView, db: Database):
        self.view, self.db = natural_form(view, db)
        self.ctx = ViewContext(self.view, self.db)
        self._layout = one_leaf_layout(self.ctx)

    def enumerate(
        self, access: Sequence, counter: Optional[JoinCounter] = None
    ) -> Iterator[Tuple]:
        """Run the join ``⋈_F R_F(v_b)`` in lexicographic free order."""
        return flatten(self._layout_runs(self._layout, access, None, counter))

    def space_report(self) -> SpaceReport:
        return SpaceReport(
            base_tuples=self.db.total_tuples(),
            index_cells=self.ctx.index_cells(),
        )
