"""Lazy evaluation baseline: no space, all delay (Section 2.3)."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.core.context import ViewContext
from repro.core.representation import Representation
from repro.database.catalog import Database
from repro.database.index import TrieIndex
from repro.joins.generic_join import JoinCounter, generic_join
from repro.measure.space import SpaceReport
from repro.query.adorned import AdornedView
from repro.query.rewriting import natural_form


class LazyView(Representation):
    """Evaluate every access request from scratch over linear indexes.

    Space stays ``O(|D|)`` (one value-space trie per atom, bound columns
    first), but each request costs a full worst-case-optimal join over
    the sub-instance — up to ``Π_F |R_F(v_b)|^{u_F}`` before the first
    tuple appears.
    """

    def __init__(self, view: AdornedView, db: Database):
        self.view, self.db = natural_form(view, db)
        self.ctx = ViewContext(self.view, self.db)
        self._tries = [
            TrieIndex(binding.relation, binding.column_order)
            for binding in self.ctx.atoms
        ]

    def enumerate(
        self, access: Sequence, counter: Optional[JoinCounter] = None
    ) -> Iterator[Tuple]:
        """Run the join ``⋈_F R_F(v_b)`` in lexicographic free order."""
        access = self._check_access(access)
        atoms = []
        for binding, trie in zip(self.ctx.atoms, self._tries):
            node = trie.descend(
                tuple(access[i] for i in binding.bound_access_positions)
            )
            if node is None:
                return  # some relation has no tuple matching the bound values
            atoms.append((node, binding.free_vars))
        yield from generic_join(atoms, self.ctx.free_order, counter=counter)

    def space_report(self) -> SpaceReport:
        return SpaceReport(
            base_tuples=self.db.total_tuples(),
            index_cells=self.ctx.index_cells(),
        )
