"""The read contract every answer source shares, written once.

The paper promises a reader one thing: enumerate ``Q^η[v_b]`` in order
from one structure (Theorem 1; Theorem 2 / Proposition 4 for the
decomposed and δ = 0 points). :class:`Representation` is that promise as
a base class — the arity check on the access tuple, the materialising
conveniences and the resume entry are derived here from a subclass's
``enumerate`` (and ``enumerate_from``), and the capability flags the
engine probes default to "no". See ``docs/ARCHITECTURE.md#read-contract``.

``open_cursor`` / ``SharedScan`` keep duck-typing their inputs
(``getattr(rep, "supports_resume", False)``): this base is what the
library's own classes inherit, not a requirement on what those two public
entry points accept. Where the engine holds a structure it built itself
it reads the flags as plain attributes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.kernel import flatten, kernel_runs
from repro.exceptions import QueryError
from repro.joins.generic_join import JoinCounter
from repro.query.adorned import BOUND


def resume_strictly_after(runs, last: Tuple) -> Iterator[Iterable[Tuple]]:
    """Turn ``enumerate_from``'s runs (``>= start``, a generator) into
    runs ``> last``.

    Enumerations never repeat a tuple, so only the leading row can equal
    the resume point: it is dropped from the first run that has a row,
    and every later run passes through whole. Closing this generator
    closes ``runs``.
    """
    try:
        for run in runs:
            rows = iter(run)
            for first in rows:
                if first != last:
                    yield (first,)
                yield rows
                yield from runs
                return
    finally:
        runs.close()


def bound_atom_checks(view, db) -> List[Tuple]:
    """``(relation, access positions)`` per atom over bound variables only.

    Such an atom constrains the access tuple itself, not the answer: one
    O(1) membership probe per request (the root bag of a connex
    decomposition; every atom of an all-bound view).
    """
    position = {var: i for i, var in enumerate(view.bound_variables)}
    return [
        (db[atom.relation], tuple(position[term] for term in atom.terms))
        for atom in view.atoms
        if all(term in position for term in atom.terms)
    ]


def bound_atoms_hold(
    checks: Sequence[Tuple], access: Tuple, counter: Optional[JoinCounter] = None
) -> bool:
    """Whether ``access`` passes every check (one counted step per probe)."""
    for relation, positions in checks:
        if counter is not None:
            counter.steps += 1
        if tuple(access[p] for p in positions) not in relation:
            return False
    return True


class Representation:
    """An answer source for one adorned view (``self.view``).

    Subclasses implement ``enumerate(access, counter=None)`` and, when
    they set ``supports_resume``, ``enumerate_from(access, start_values,
    counter=None)``; everything else is derived.
    """

    #: ``enumerate_from`` / ``enumerate_after`` seek instead of rescanning
    #: (the cursor layer, :mod:`repro.engine.api`, keys off this flag).
    supports_resume = False
    #: Enumerations route through the columnar kernel.
    kernel_ready = False
    #: Seconds spent compiling kernel layouts (0.0: none compiled).
    layout_compile_seconds = 0.0

    def _check_access(self, access: Sequence) -> Tuple:
        """``access`` as a tuple, refused unless it binds every bound variable."""
        access = tuple(access)
        expected = self.view.pattern.count(BOUND)
        if len(access) != expected:
            raise QueryError(
                f"access tuple has {len(access)} values, expected {expected}"
            )
        return access

    def _runs(self, access, start_values, counter):
        """``enumerate_from``'s rows as a generator of runs: here one run,
        the whole stream.

        The kernel-backed classes hand out their walk's own runs
        (:meth:`_layout_runs`), ``start_values=None`` meaning
        ``enumerate``'s.
        """
        yield self.enumerate_from(access, start_values, counter=counter)

    def _layout_runs(self, layout, access, start_values, counter):
        """The kernel's runs over ``layout``; the checks run at the first pull."""
        access = self._check_access(access)
        start = None
        if start_values is not None:
            start = layout.space.ceil_point(start_values)
            if start is None:
                return  # start lies beyond the top of the tuple space
        yield from kernel_runs(layout, access, start, counter)

    def answer(self, access: Sequence) -> List[Tuple]:
        """The full answer of one access request, as a list."""
        return list(self.enumerate(access))

    def exists(self, access: Sequence) -> bool:
        """Whether the access request has any answer (early exit)."""
        return next(self.enumerate(access), None) is not None

    def enumerate_after(
        self,
        access: Sequence,
        last: Sequence,
        counter: Optional[JoinCounter] = None,
    ) -> Iterator[Tuple]:
        """Enumerate answers strictly after ``last`` — the resume entry.

        ``last`` is a resume token: a free-variable tuple previously
        delivered (or any value tuple — a point past the end of the
        answer yields nothing). Pagination is
        ``enumerate(a) == page_k ++ enumerate_after(a, last_of(page_k))``
        for every prefix length.
        """
        last = tuple(last)
        return flatten(
            resume_strictly_after(self._runs(access, last, counter), last)
        )
