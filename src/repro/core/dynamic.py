"""Updates to base relations — an engineering answer to the §8 problem.

The paper leaves efficient maintenance under updates open (and [8] shows
it is hard in general). This module takes the honest engineering route,
split into a write side and a read side:

* :class:`DynamicRepresentation` — the **write side**. Updates are
  buffered as per-relation insert/delete sets, one at a time
  (:meth:`~DynamicRepresentation.insert` /
  :meth:`~DynamicRepresentation.delete`) or as one batched delta
  (:meth:`~DynamicRepresentation.apply_deltas` — the entry point the
  serving layer routes through; see :mod:`repro.engine.dynamic_serving`).
  Once the buffered churn exceeds ``rebuild_fraction·|D|`` the structure
  is rebuilt, amortizing the `Õ(Π|R_F|^{u_F})` preprocessing over Ω(|D|)
  updates.
* :class:`FrozenDynamicView` — the **read side**, and the only class
  that knows how a dynamic view is read: an immutable point-in-time view
  of the state, the compressed structure while the buffers were clean,
  the τ = ∞ structure — one leaf, no dictionary entry — over base ∪ Δ
  while dirty.
  :meth:`DynamicRepresentation.freeze` returns the current one
  (memoised until the next effective update), and every query method of
  the representation delegates to it.

This gives correctness always, the Theorem 1 guarantees between update
bursts, and a bounded amortized rebuild cost — the standard deferred
maintenance pattern for static indexes. Who materialises what, and when,
is written down once in ``docs/ARCHITECTURE.md#dirty-path``.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from repro.core.context import ViewContext
from repro.core.kernel import kernel_enumerate, kernel_enumerate_from
from repro.core.layout import CompiledLayout, one_leaf_layout
from repro.core.representation import Representation
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.exceptions import ParameterError, SchemaError, SnapshotError
from repro.joins.generic_join import JoinCounter
from repro.measure.space import SpaceReport
from repro.query.adorned import AdornedView
from repro.query.rewriting import natural_form


def check_arity(relation: Relation, inserts: Sequence, deletes: Sequence) -> None:
    """Refuse a delta batch with a row of the wrong arity, as a whole.

    Run before anything is buffered, so a batch is applied entirely or
    not at all (:class:`~repro.exceptions.SchemaError`).
    """
    for rows, verb in ((inserts, "insert into"), (deletes, "delete from")):
        for row in rows:
            if len(row) != relation.arity:
                raise SchemaError(
                    f"{verb} {relation.name!r}: row {tuple(row)!r} has arity "
                    f"{len(row)}, expected {relation.arity}"
                )


class FrozenDynamicView(Representation):
    """An immutable point-in-time read side of a dynamic view.

    Exactly one backing is set: ``structure`` (the buffers were clean —
    full Theorem 1 guarantees at the view's τ) or ``database`` (the
    buffers were dirty — the captured post-delta database, read as
    Theorem 1's structure is once τ exceeds ``T(root)``: one tree node,
    an empty dictionary, every request a worst-case-optimal join over
    the linear index; Section 2.3's end of the trade-off, no delay bound
    below the join's). Both are walked by the columnar kernel. Deltas
    applied after the freeze never reach this object, which is what
    lets cursors drain a retired version untouched.

    A dirty version records what it is — the captured database — and
    derives how to read it (its context's domains and join columns, the
    one-leaf layout over them) on its **first read**, once; a version
    nobody reads builds nothing. It is handed ``previous``, the newest
    context built before it, and its own context derives from that one:
    the domains and atom columns a delta left alone are taken over by
    identity, so a read compiles only the atoms the deltas touched.
    """

    #: Both backings seek in one delay unit of their own (both orders
    #: are lexicographic in the free values, so tokens stay valid across
    #: a delta and across a rebuild).
    supports_resume = True

    #: Every enumeration rides the columnar kernel.
    kernel_ready = True

    def __init__(
        self,
        view: AdornedView,
        structure: Optional[CompressedRepresentation] = None,
        database: Optional[Database] = None,
        previous: Optional[ViewContext] = None,
    ):
        if (structure is None) == (database is None):
            raise ValueError(
                "a frozen dynamic view wraps exactly one of structure "
                "and database"
            )
        self.view = view
        self._structure = structure
        self._database = database
        self._lock = threading.Lock()
        self._layout: Optional[CompiledLayout] = None
        # The newest context built by this version's time: the handed
        # one until a first read replaces it with its own.
        self._context = structure.ctx if structure is not None else previous
        # The clean structure served at other τ, by τ (see ``at``).
        self._derived: Dict[float, Representation] = {}

    def at(self, tau: float, derive) -> Representation:
        """This version served at ``tau``.

        A dirty version already is the τ = ∞ structure, so it serves
        every τ as it is, and so does a clean one at its own τ; a clean
        one at another τ is ``derive(tau, context, structure)`` — the
        structure at ``tau`` over its context, given it as the base to
        cut from — once per τ for the version's life.
        """
        if not tau > 0:
            raise ParameterError(f"tau must be positive, got {tau}")
        if self._structure is None or tau == self._structure.tau:
            return self
        with self._lock:
            derived = self._derived.get(tau)
            if derived is None:
                structure = self._structure
                derived = derive(tau, structure.ctx, structure)
                self._derived[tau] = derived
            return derived

    def _one_leaf(self) -> CompiledLayout:
        """The dirty backing's layout, built by the first read to ask."""
        with self._lock:
            if self._layout is None:
                view, database = natural_form(self.view, self._database)
                context = ViewContext(view, database, previous=self._context)
                self._layout = one_leaf_layout(context)
                self._context = context
            return self._layout

    def _read_dirty(
        self,
        layout: CompiledLayout,
        access: Sequence,
        start_values: Optional[Sequence],
        counter: Optional[JoinCounter],
    ) -> Iterator[Tuple]:
        """A dirty version's walk; its checks run at the first pull, as
        a clean version's do."""
        access = self._check_access(access)
        if start_values is None:
            yield from kernel_enumerate(layout, access, counter)
            return
        start = layout.space.ceil_point(start_values)
        if start is not None:  # else: beyond the top of the tuple space
            yield from kernel_enumerate_from(layout, access, start, counter)

    def enumerate(
        self, access: Sequence, counter: Optional[JoinCounter] = None
    ) -> Iterator[Tuple]:
        """Enumerate the frozen version's answers in lexicographic order."""
        if self._structure is not None:
            return self._structure.enumerate(access, counter=counter)
        return self._read_dirty(self._one_leaf(), access, None, counter)

    def enumerate_from(
        self,
        access: Sequence,
        start_values: Sequence,
        counter: Optional[JoinCounter] = None,
    ) -> Iterator[Tuple]:
        """Enumerate answers with free tuple lexicographically >= start.

        The backing's one-delay-unit seek: boxes of the tuple space
        below the start point are never joined, clean or dirty.
        """
        if self._structure is not None:
            return self._structure.enumerate_from(
                access, start_values, counter=counter
            )
        return self._read_dirty(
            self._one_leaf(), access, tuple(start_values), counter
        )

    def space_report(self) -> SpaceReport:
        """Space of the frozen backing (cache accounting reads this).

        Counted from the captured rows — never builds a dirty version's
        context.
        """
        if self._structure is not None:
            return self._structure.space_report()
        _, database = natural_form(self.view, self._database)
        return SpaceReport(
            materialized_tuples=sum(len(relation) for relation in database)
        )


class DynamicRepresentation(Representation):
    """A compressed representation that tolerates base-table updates.

    Parameters
    ----------
    view, db, tau:
        As for :class:`CompressedRepresentation` (plus optional
        ``weights``/``alpha`` pass-through).
    rebuild_fraction:
        Rebuild once buffered updates exceed this fraction of |D|
        (default 0.1). ``float('inf')`` disables automatic rebuilds.
    structure:
        The natural-join ``view``'s structure over ``db`` at ``tau``,
        when one exists (built, cut or decoded): adopted, not rebuilt.
        ``weights`` is still the cover a rebuild solves with.
    """

    #: As the read side's (:class:`FrozenDynamicView`).
    supports_resume = True
    kernel_ready = True

    def __init__(
        self,
        view: AdornedView,
        db: Database,
        tau: float,
        rebuild_fraction: float = 0.1,
        weights=None,
        alpha=None,
        structure: Optional[CompressedRepresentation] = None,
    ):
        self.view = view
        self.tau = float(tau)
        self.rebuild_fraction = rebuild_fraction
        self._weights = weights
        self._alpha = alpha
        if structure is None:
            self._build(db)
        else:
            self._adopt(db, structure)
        self.rebuilds = 0

    def _build(
        self, db: Database, previous: Optional[ViewContext] = None
    ) -> None:
        """Make ``db`` the base: build its structure, empty the buffers.

        ``previous`` is the newest context on a rebuild: the new one
        derives from it — its cover and the columns of every relation
        unchanged since it — instead of solving and compiling again.
        """
        view, natural_db = natural_form(self.view, db)
        self._adopt(
            db,
            CompressedRepresentation(
                view,
                natural_db,
                tau=self.tau,
                weights=self._weights,
                alpha=self._alpha,
                context=ViewContext(view, natural_db, previous=previous),
            ),
        )

    def _adopt(self, db: Database, structure: CompressedRepresentation) -> None:
        """Make ``db`` the base and ``structure`` its clean read side."""
        self._db = db
        self._structure = structure
        self._inserts: Dict[str, Set[Tuple]] = {}
        self._deletes: Dict[str, Set[Tuple]] = {}
        self._pending = 0
        self._frozen = FrozenDynamicView(self.view, structure=self._structure)
        # Relations changed since the last freeze: a fresh freeze is due.
        self._touched: Set[str] = set()

    # ------------------------------------------------------------------
    # update API
    # ------------------------------------------------------------------
    @property
    def is_dirty(self) -> bool:
        """True when buffered updates put reads on the one-leaf structure."""
        return self._pending > 0

    @property
    def pending_updates(self) -> int:
        return self._pending

    @property
    def structure(self) -> CompressedRepresentation:
        """The inner compressed structure serving the clean path.

        Replaced wholesale by :meth:`rebuild`; a caller holding the old
        object (a frozen serving version) keeps a consistent pre-rebuild
        view — buffered updates never mutate a built structure.
        """
        return self._structure

    def insert(self, relation_name: str, row: Sequence) -> None:
        """Buffer a tuple insertion (idempotent against existing rows)."""
        self.apply_deltas(relation_name, inserts=[row])

    def delete(self, relation_name: str, row: Sequence) -> None:
        """Buffer a tuple deletion (no-op for absent rows)."""
        self.apply_deltas(relation_name, deletes=[row])

    def apply_deltas(
        self,
        relation_name: str,
        inserts: Sequence[Sequence] = (),
        deletes: Sequence[Sequence] = (),
    ) -> int:
        """Buffer one batched delta; returns the *effective* change count.

        Inserts of rows already present and deletes of absent rows are
        no-ops; a delete of a row sitting in the insert buffer annihilates
        the buffered insert (and vice versa) rather than growing both
        buffers. The amortized-rebuild check runs once, after the whole
        batch, so a delta either leaves the buffers dirty or folds them
        into one rebuild — never several mid-batch rebuilds. A return of
        0 means the delta changed nothing: same logical database, same
        buffers, same pending count.
        """
        inserts = [tuple(row) for row in inserts]
        deletes = [tuple(row) for row in deletes]
        check_arity(self._db[relation_name], inserts, deletes)
        applied = sum(self._buffer(relation_name, row, True) for row in inserts)
        applied += sum(self._buffer(relation_name, row, False) for row in deletes)
        if applied:
            self._maybe_rebuild()
        return applied

    def _buffer(self, relation_name: str, row: Sequence, insert: bool) -> int:
        """One row into the insert (or delete) buffer: 1 if it took effect.

        A row waiting in the other buffer is annihilated instead; an
        insert of a present row or a delete of an absent one is a no-op.
        Either edit makes the last freeze stale.
        """
        relation = self._db[relation_name]
        into, other = self._inserts, self._deletes
        if not insert:
            into, other = other, into
        if row in other.get(relation_name, ()):
            other[relation_name].discard(row)
        elif (row in relation) != insert and row not in into.get(
            relation_name, ()
        ):
            into.setdefault(relation_name, set()).add(row)
        else:
            return 0
        self._pending += 1
        self._touched.add(relation_name)
        return 1

    def base_database(self) -> Database:
        """The database the current compressed structure was built from."""
        return self._db

    def current_database(self) -> Database:
        """The logical database: base plus buffered updates. A pure read.

        It is the last freeze's database with a fresh
        :class:`~repro.database.relation.Relation` for each relation
        changed since — the base's rows plus its buffers, the buffered
        rows' arity having been checked on the way in. Every other
        relation is the very object the last version holds (relations
        are immutable), which is what lets a version's context take over
        its predecessor's columns by identity.
        """
        database = self._frozen._database or self._db  # a clean one has none
        for name in self._touched:
            database = database.replace(
                self._db[name].with_changes(
                    self._inserts.get(name, ()), self._deletes.get(name, ())
                )
            )
        return database

    def rebuild(self) -> None:
        """Apply buffered updates and rebuild the compressed structure."""
        self._build(self.current_database(), self._frozen._context)
        self.rebuilds += 1

    def _maybe_rebuild(self) -> None:
        threshold = self.rebuild_fraction * max(1, self._db.total_tuples())
        if self._pending > threshold:
            self.rebuild()

    # ------------------------------------------------------------------
    # explicit state (the snapshot boundary)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict:
        """Plain-data state: base database, buffered churn, inner structure.

        The update buffers are part of the state: a restored instance
        resumes exactly where the original stood — same pending count,
        same dirty/clean answering mode, same distance to the next
        amortized rebuild. The inner structure's database is usually the
        base database itself (``natural_form`` returns a natural-join
        view's database as given): it is then stored once, here, and the
        inner state points at it.
        """
        from repro.core.snapshot import database_state, view_state

        return {
            "view": view_state(self.view),
            "db": database_state(self._db),
            "tau": self.tau,
            "rebuild_fraction": self.rebuild_fraction,
            "weights": (
                sorted(dict(self._weights).items())
                if self._weights is not None
                else None
            ),
            "alpha": self._alpha,
            "structure": self._structure.snapshot_state(self._db),
            "inserts": sorted(
                (name, sorted(rows, key=repr))
                for name, rows in self._inserts.items()
            ),
            "deletes": sorted(
                (name, sorted(rows, key=repr))
                for name, rows in self._deletes.items()
            ),
            "pending": self._pending,
            "rebuilds": self.rebuilds,
        }

    @classmethod
    def from_snapshot_state(cls, state: Dict) -> "DynamicRepresentation":
        from repro.core.snapshot import database_from_state, view_from_state

        try:
            self = object.__new__(cls)
            self.view = view_from_state(state["view"])
            self.tau = float(state["tau"])
            self.rebuild_fraction = state["rebuild_fraction"]
            weights = state["weights"]
            self._weights = dict(weights) if weights is not None else None
            self._alpha = state["alpha"]
            self._db = database_from_state(state["db"])
            self._structure = CompressedRepresentation.from_snapshot_state(
                state["structure"], enclosing_db=self._db
            )
            self._inserts = {
                name: {tuple(row) for row in rows}
                for name, rows in state["inserts"]
            }
            self._deletes = {
                name: {tuple(row) for row in rows}
                for name, rows in state["deletes"]
            }
            self._pending = int(state["pending"])
            self._frozen = FrozenDynamicView(self.view, structure=self._structure)
            self._touched = set(self._inserts) | set(self._deletes)
            self.rebuilds = int(state["rebuilds"])
            return self
        except SnapshotError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotError(
                f"malformed dynamic-representation state: {error}"
            ) from error

    # ------------------------------------------------------------------
    # query API (all of it is the current freeze's)
    # ------------------------------------------------------------------
    def freeze(self) -> FrozenDynamicView:
        """The immutable read side of the state now.

        Clean buffers freeze to the compressed structure (Theorem 1
        guarantees); dirty buffers capture the updated database eagerly —
        the buffers mutate next — and leave its index to the first read,
        handing it the newest context built so far to derive from.
        Memoised until the next *effective* update or :meth:`rebuild`.
        """
        if self._touched:
            self._frozen = FrozenDynamicView(
                self.view,
                database=self.current_database(),
                previous=self._frozen._context,
            )
            self._touched = set()
        return self._frozen

    def enumerate(
        self, access: Sequence, counter: Optional[JoinCounter] = None
    ) -> Iterator[Tuple]:
        """Answer an access request against the *current* logical state."""
        return self.freeze().enumerate(access, counter=counter)

    def enumerate_from(
        self,
        access: Sequence,
        start_values: Sequence,
        counter: Optional[JoinCounter] = None,
    ) -> Iterator[Tuple]:
        """Enumerate answers with free tuple lexicographically >= start."""
        return self.freeze().enumerate_from(
            access, start_values, counter=counter
        )

    def space_report(self) -> SpaceReport:
        report = self._structure.space_report()
        buffered = sum(len(s) for s in self._inserts.values()) + sum(
            len(s) for s in self._deletes.values()
        )
        return report + SpaceReport(materialized_tuples=buffered)
