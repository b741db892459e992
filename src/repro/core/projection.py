"""Projected adorned views — the Section 3.2 extension.

The paper's structures handle *full* CQs; for projections it suggests
"forcing a variable ordering": put the projected-away variables last in
the free order, then enumerate *distinct prefixes* by seeking past each
prefix's block. That is exactly what :class:`ProjectedRepresentation`
does on top of :meth:`CompressedRepresentation.enumerate_from`:

* build the Theorem 1 structure for the full view with head order
  (bound vars, output free vars, projected vars);
* to answer a request, find the first result, emit its prefix, and seek
  to the successor of (prefix, ⊤, ..., ⊤) — the next distinct prefix.

Each distinct output tuple costs one seek, so the delay budget of the
underlying structure carries over per *distinct* answer, and duplicates
never surface (the §8 challenge of duplicate elimination is absorbed by
the lexicographic order).
"""

from __future__ import annotations

import time
from typing import Iterator, Optional, Sequence, Tuple

from repro.core.representation import Representation
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.exceptions import QueryError
from repro.joins.generic_join import JoinCounter
from repro.measure.space import SpaceReport
from repro.query.adorned import AdornedView
from repro.query.atoms import Variable
from repro.query.conjunctive import ConjunctiveQuery


class ProjectedRepresentation(Representation):
    """Compressed representation of a CQ with projections.

    Parameters
    ----------
    view:
        A full adorned view over the query *body* (every body variable
        in the head). The projection is expressed by ``projected``.
    db:
        The input database.
    tau:
        Delay knob of the underlying Theorem 1 structure.
    projected:
        Free head variables to project away. Access requests still bind
        the bound variables; answers enumerate the *distinct* remaining
        free-variable tuples in lexicographic order.
    weights / alpha:
        Optional cover overrides, forwarded to the inner structure.
    """

    def __init__(
        self,
        view: AdornedView,
        db: Database,
        tau: float,
        projected: Sequence[Variable],
        weights=None,
        alpha=None,
    ):
        started = time.perf_counter()
        projected = tuple(projected)
        free = view.free_variables
        for var in projected:
            if var not in free:
                raise QueryError(
                    f"projected variable {var!r} is not a free head variable"
                )
        if len(set(projected)) != len(projected):
            raise QueryError("duplicate projected variable")
        self.output_variables: Tuple[Variable, ...] = tuple(
            v for v in free if v not in projected
        )
        self.projected_variables = projected
        # Reorder the head: bound vars, output free vars, projected last.
        new_head = (
            view.bound_variables + self.output_variables + projected
        )
        pattern = "b" * len(view.bound_variables) + "f" * (
            len(self.output_variables) + len(projected)
        )
        reordered = AdornedView(
            ConjunctiveQuery(view.query.name, new_head, view.query.atoms),
            pattern,
        )
        self.inner = CompressedRepresentation(
            reordered, db, tau=tau, weights=weights, alpha=alpha
        )
        self.build_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    def enumerate(
        self, access: Sequence, counter: Optional[JoinCounter] = None
    ) -> Iterator[Tuple]:
        """Distinct projected answers in lexicographic order.

        Each output costs O(one seek) of the inner structure — the delay
        guarantee of Theorem 1 per *distinct* tuple.
        """
        k = len(self.output_variables)
        space = self.inner.ctx.space
        if space.is_empty() and space.width > 0:
            return
        current = self.inner.enumerate(access, counter=counter)
        if not self.projected_variables:
            # Degenerate: nothing projected, results already distinct.
            yield from current
            return
        while True:
            row = next(current, None)
            if row is None:
                return
            prefix = row[:k]
            yield prefix
            if k == 0:
                return  # boolean-style projection: one answer at most
            # Seek to the first tuple after the block (prefix, ⊤, ..., ⊤).
            block_top = self._block_top(prefix)
            if block_top is None:
                return
            nxt = space.successor(block_top)
            if nxt is None:
                return
            current = self.inner.enumerate_from(
                access, space.values(nxt), counter=counter
            )

    def _block_top(self, prefix: Tuple) -> Optional[Tuple[int, ...]]:
        """Index tuple (prefix, ⊤, ..., ⊤), or None if prefix is invalid."""
        space = self.inner.ctx.space
        indexes = []
        for coordinate, value in enumerate(prefix):
            index = space.domains[coordinate].index_of(value)
            if index is None:
                return None
            indexes.append(index)
        for coordinate in range(len(prefix), space.width):
            indexes.append(space.domains[coordinate].top)
        return tuple(indexes)

    def count_distinct(self, access: Sequence) -> int:
        total = 0
        for _ in self.enumerate(access):
            total += 1
        return total

    def space_report(self) -> SpaceReport:
        return self.inner.space_report()
