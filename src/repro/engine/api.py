"""The typed request/cursor protocol: streaming access to served views.

The paper's central contract is *enumeration* — answers stream one tuple
at a time with delay ``delay(Q, τ)`` — and the core layer honors it
(:meth:`~repro.core.structure.CompressedRepresentation.enumerate` is a
lazy generator). This module carries that contract up through the
serving stack instead of collapsing answers into lists:

* :class:`AccessRequest` names a registered view, fixes the bound
  tuple, and optionally caps the answer (``limit``), resumes a prior
  enumeration (``start_after``), or asks for delay measurement
  (``measure``).
* :class:`AnswerCursor` is the lazy iterator a server's ``open`` returns:
  tuples arrive in the representation's enumeration order (lexicographic
  head order for :class:`~repro.core.structure.CompressedRepresentation`
  and the sharded merge over it), and nothing beyond what the caller
  pulls is ever enumerated — ``limit=k`` touches O(k) tuples, which is
  the compressed representation's headline advantage for top-k and
  paginated workloads.

Resume tokens
-------------
A resume token is simply the last *delivered* free-variable value tuple
(:meth:`AnswerCursor.resume_token`). Feeding it back as ``start_after``
re-enters the enumeration strictly after that tuple without rescanning
the prefix: representations exposing ``enumerate_from`` (all three —
``supports_resume`` marks them) seek in one delay unit; anything else
degrades to a skip-scan that drops the prefix up to and including the
token (and yields nothing if the token never appears — a past-end or
foreign token is an empty page, never an error). "Foreign" means a
well-typed token that was never delivered: a seek places it among the
answers by comparing values, so a token of the wrong width, or holding
a value the coordinate's domain cannot be ordered against (a string
among ints, ``None``), is a :class:`~repro.exceptions.QueryError` from
the first fetch — the same on static, clean and dirty dynamic, and
sharded back ends.

Delay statistics under ``limit``
--------------------------------
:meth:`AnswerCursor.stats` mirrors
:func:`~repro.measure.delay.measure_enumeration`: per-output wall/step
gaps, plus the closing gap *only when the underlying enumeration was
actually exhausted*. A cursor stopped by its ``limit`` never observes
exhaustion, so its stats cover exactly the tuples delivered. Each gap
is read as its row arrives, but one pull reads all of its rows' gaps
in one loop, whatever its size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ParameterError
from repro.joins.generic_join import JoinCounter
from repro.measure.delay import DelayStats

#: A resume token: the last delivered free-variable value tuple.
ResumeToken = Tuple


@dataclass(frozen=True)
class AccessRequest:
    """One typed access request against a registered view.

    Parameters
    ----------
    view:
        The registered serving name.
    access:
        The bound-variable value tuple (empty for fully-free views).
    limit:
        Maximum tuples the cursor delivers; ``None`` means all.
        ``limit=0`` is a legal empty page (useful to probe a token).
    start_after:
        Resume token — deliver only tuples strictly after this one in
        enumeration order. ``None`` starts from the beginning.
    tau:
        Optional τ override, as for ``answer_batch``.
    measure:
        Thread a :class:`~repro.joins.generic_join.JoinCounter` through
        the enumeration and record per-output delay statistics.
    """

    view: str
    access: Tuple = ()
    limit: Optional[int] = None
    start_after: Optional[Tuple] = None
    tau: Optional[float] = None
    measure: bool = False

    def __post_init__(self):
        object.__setattr__(self, "access", tuple(self.access))
        if self.start_after is not None:
            object.__setattr__(self, "start_after", tuple(self.start_after))
        limit = self.limit
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int) or limit < 0
        ):
            raise ParameterError(
                f"limit must be None or an int >= 0, got {limit!r}"
            )

    def page_after(
        self, token: Optional[Sequence], limit: Optional[int] = None
    ) -> "AccessRequest":
        """The next-page request: same view/access, resumed after ``token``.

        ``limit=None`` keeps this request's limit (the page size).
        """
        return replace(
            self,
            start_after=tuple(token) if token is not None else None,
            limit=self.limit if limit is None else limit,
        )


def as_request(
    request: Union[AccessRequest, str],
    access: Optional[Sequence] = None,
    limit: Optional[int] = None,
    start_after: Optional[Sequence] = None,
    tau: Optional[float] = None,
    measure: bool = False,
) -> AccessRequest:
    """Normalize ``open``'s two calling conventions into one request.

    Servers accept either a ready-made :class:`AccessRequest` or the
    positional ``open(name, access, ...)`` shorthand.
    """
    if isinstance(request, AccessRequest):
        return request
    return AccessRequest(
        view=request,
        access=access if access is not None else (),
        limit=limit,
        start_after=start_after,
        tau=tau,
        measure=measure,
    )


class AnswerCursor:
    """Lazy iterator over one access request's answer stream.

    Produced by a server's ``open``; also usable directly over any
    representation via :func:`open_cursor`. Iteration is pull-driven:
    tuples are enumerated only as the caller consumes them, the
    ``limit`` stops pulling once reached, and :meth:`close` releases
    the underlying generators early. Sharded cursors expose their
    per-shard sub-cursors as :attr:`parts` (shard order), whose
    individual :meth:`stats` bound the per-shard enumeration work.
    """

    def __init__(
        self,
        request: AccessRequest,
        source: Iterator[Tuple],
        counter: Optional[JoinCounter] = None,
        parts: Sequence["AnswerCursor"] = (),
        gap_tracker=None,
    ):
        self.request = request
        self.parts: Tuple["AnswerCursor", ...] = tuple(parts)
        self._source = iter(source)
        self._counter = counter
        # A shared scan buffers a duplicate request's rows ahead of
        # delivery, so this cursor's own delivery-relative step deltas
        # would misattribute the gap;
        # the scan tracks per-state gaps at emission time instead and
        # hands them over through this object (``step_max_gap`` attr).
        self._gap_tracker = gap_tracker
        self._outputs = 0
        self._last: Optional[Tuple] = None
        self._error: Optional[Exception] = None
        self._finished = False
        self._exhausted = False
        self._closed = False
        self._close_hooks: List = []
        self._hooks_fired = False
        if request.measure:  # the timing bookkeeping only a measure reads
            self._stats = DelayStats()
            self._started = self._last_time = time.perf_counter()
            self._last_steps = counter.steps if counter is not None else 0

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def __iter__(self) -> "AnswerCursor":
        return self

    def __next__(self) -> Tuple:
        if self._closed or self._finished:
            if self._error is not None and not self._closed:
                raise self._error  # a failed stream is never a short one
            raise StopIteration
        if self.request.measure:  # a one-row pull: one timing loop
            for row in self._pull(1):
                return row
            raise StopIteration
        limit = self.request.limit
        if limit is not None and self._outputs >= limit:
            self._finish()
            raise StopIteration
        try:
            row = next(self._source)
        except StopIteration:
            self._observe_exhaustion()
            raise
        except Exception as error:
            self._fail(error)
            raise
        self._outputs += 1
        self._last = row
        return row

    def _finish(self) -> None:
        # A limit-stop ends this cursor's serving life as surely as
        # exhaustion does; holders of resources (version pins) must
        # hear about it even if the caller never calls close().
        self._finished = True
        self._fire_close_hooks()

    def _fail(self, error: Exception) -> None:
        # So does an error from the source: the walk behind it is dead,
        # and a caller that drops the cursor must not keep its pin.
        self._error = error
        self._finish()

    def _observe_exhaustion(self) -> None:
        # A measured pull folds the closing gap in before it gets here,
        # so a hook reading stats() — the telemetry layer does — sees
        # the final figures.
        self._finished = True
        self._exhausted = True
        self._fire_close_hooks()

    # ------------------------------------------------------------------
    # batched pulls
    # ------------------------------------------------------------------
    def fetchmany(self, size: int) -> List[Tuple]:
        """Up to ``size`` further tuples (empty list at the end)."""
        if type(size) is not int or size < 0:  # the common case: one test
            if isinstance(size, bool) or not isinstance(size, int) or size < 0:
                raise ParameterError(
                    f"fetchmany size must be an int >= 0, got {size!r}"
                )
        return self._pull(size)

    def fetchall(self) -> List[Tuple]:
        """Every remaining tuple (materializing — the wrapper path)."""
        return self._pull(None)

    def _pull(self, size: Optional[int]) -> List[Tuple]:
        """Up to ``size`` rows (None: all), as per-row iteration delivers.

        The rows come from the source in one ``islice``, capped by the
        limit left (a measured pull times each one as it arrives,
        :meth:`_timed`), and are accounted for once: the outputs, the
        resume token, and exhaustion or the limit-stop, each at the very
        pull where row-by-row iteration would have met it.
        """
        request = self.request
        if self._finished or self._closed or size == 0:
            return list(islice(self, size))
        want = size
        limit = request.limit
        if limit is not None:
            left = limit - self._outputs
            if size is None or left < size:
                want = left
        try:
            if request.measure:
                rows = self._timed(want)
            else:
                rows = list(islice(self._source, want))
        except Exception as error:
            self._fail(error)
            raise
        taken = len(rows)
        if taken:
            self._outputs += taken
            self._last = rows[-1]
        if want is None or taken < want:
            self._observe_exhaustion()
        elif want != size:  # the limit cut this pull: it is reached
            self._finish()
        return rows

    def _timed(self, want: Optional[int]) -> List[Tuple]:
        """A measured pull's rows, each gap taken as its row arrives.

        :func:`~repro.measure.delay.measure_enumeration`'s loop over up
        to ``want`` rows (None: all), its bookkeeping kept in locals and
        written back once; a pull that ends short of ``want`` met
        exhaustion and folds in the closing gap. Rows taken before the
        source raised count as delivered, as per-row iteration would
        have delivered them.
        """
        stats = self._stats
        counter = self._counter or JoinCounter()  # none: steps stay 0
        clock = time.perf_counter
        fresh = not self._outputs
        last_time, last_steps = self._last_time, self._last_steps
        wall_max, step_max = stats.wall_max_gap, stats.step_max_gap
        rows: List[Tuple] = []
        try:
            for row in islice(self._source, want):
                now = clock()
                gap, last_time = now - last_time, now
                if fresh:
                    stats.wall_first, fresh = gap, False
                if gap > wall_max:
                    wall_max = gap
                steps = counter.steps
                if steps - last_steps > step_max:
                    step_max = steps - last_steps
                last_steps = steps
                rows.append(row)
            if want is None or len(rows) < want:  # ran dry: the closing gap
                now = clock()
                gap, last_time = now - last_time, now
                if fresh:
                    stats.wall_first = gap
                if gap > wall_max:
                    wall_max = gap
                steps = counter.steps
                if steps - last_steps > step_max:
                    step_max = steps - last_steps
                last_steps = steps
        except BaseException:
            if rows:
                self._outputs += len(rows)
                self._last = rows[-1]
            raise
        finally:
            stats.wall_max_gap, stats.step_max_gap = wall_max, step_max
            self._last_time, self._last_steps = last_time, last_steps
        return rows

    # ------------------------------------------------------------------
    # cursor state
    # ------------------------------------------------------------------
    @property
    def delivered(self) -> int:
        """Tuples this cursor has yielded so far."""
        return self._outputs

    @property
    def exhausted(self) -> bool:
        """True once the underlying enumeration ran dry (not limit-stop)."""
        return self._exhausted

    @property
    def error(self) -> Optional[Exception]:
        """The error the source raised, if one ended this cursor."""
        return self._error

    def resume_token(self) -> Optional[ResumeToken]:
        """Token resuming strictly after the last delivered tuple.

        Before the first delivery this is the request's own
        ``start_after`` (so an empty page round-trips its token);
        ``None`` means "from the start".
        """
        if self._last is not None:
            return self._last
        return self.request.start_after

    def stats(self) -> DelayStats:
        """Delay statistics over the tuples delivered so far.

        With ``measure=True`` the shape matches
        :func:`~repro.measure.delay.measure_enumeration`; the closing
        gap is included only if the enumeration was exhausted. A merged
        (sharded) cursor reports its own wall/output figures and folds
        the per-shard step counters together.
        """
        if self.request.measure:
            stats = replace(self._stats, step_gaps=list(self._stats.step_gaps))
        else:
            stats = DelayStats()
        stats.outputs = self._outputs
        if self._gap_tracker is not None:
            # Emission-time gaps from the shared scan: identical to what
            # a solo traversal of this state would have observed.
            stats.step_max_gap = self._gap_tracker.step_max_gap
        if self._counter is not None:
            stats.step_total = self._counter.steps
        elif self.parts:
            part_stats = [part.stats() for part in self.parts]
            stats.step_total = sum(p.step_total for p in part_stats)
            stats.step_max_gap = max(
                [stats.step_max_gap] + [p.step_max_gap for p in part_stats]
            )
        if self.request.measure:
            stats.wall_total = self._last_time - self._started
        return stats

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------
    def add_close_hook(self, hook) -> None:
        """Run ``hook()`` once when this cursor's serving life ends.

        The end of life is whichever comes first of :meth:`close`,
        exhaustion, a limit-stop, or an error raised by the source — the
        hooks fire before that error propagates, and later pulls raise it
        again — exactly when the serving layer can release per-cursor
        resources (a dynamic view hangs its serving version pin here). A
        hook added after that point runs immediately; each hook runs at
        most once.
        """
        if self._hooks_fired:
            hook()
            return
        self._close_hooks.append(hook)

    def _fire_close_hooks(self) -> None:
        if self._hooks_fired:
            return
        self._hooks_fired = True
        hooks, self._close_hooks = self._close_hooks, []
        for hook in hooks:
            hook()

    def close(self) -> None:
        """Release the underlying enumeration(s); idempotent."""
        if self._closed:
            return
        self._closed = True
        self._finished = True
        closer = getattr(self._source, "close", None)
        if closer is not None:
            closer()
        for part in self.parts:
            part.close()
        self._fire_close_hooks()

    def __enter__(self) -> "AnswerCursor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ----------------------------------------------------------------------
# building cursors over representations
# ----------------------------------------------------------------------
def open_cursor(representation, request: AccessRequest) -> AnswerCursor:
    """A cursor over one representation, honoring the whole request.

    Works for any object with ``enumerate(access, counter=)`` —
    resumption uses ``enumerate_from`` when the class advertises
    ``supports_resume``, and degrades to a skip-scan otherwise.
    """
    counter = JoinCounter() if request.measure else None
    source = resume_enumeration(
        representation, request.access, request.start_after, counter
    )
    return AnswerCursor(request, source, counter=counter)


def resume_enumeration(
    representation,
    access: Sequence,
    start_after: Optional[Sequence],
    counter: Optional[JoinCounter] = None,
) -> Iterator[Tuple]:
    """The (possibly resumed) enumeration behind one cursor.

    ``start_after=None`` is a plain ``enumerate``. With a token, a
    resume-capable representation seeks via ``enumerate_after``
    (strictly after the token, one-delay-unit re-entry); others are
    skip-scanned past the token.
    """
    if start_after is None:
        return representation.enumerate(access, counter=counter)
    token = tuple(start_after)
    if getattr(representation, "supports_resume", False):
        return representation.enumerate_after(access, token, counter=counter)
    return _skip_scan(
        representation.enumerate(access, counter=counter), token
    )


def _skip_scan(iterator: Iterator[Tuple], token: Tuple):
    """Degraded resumption: drop everything up to and including the token.

    If the token never appears (past-end, or forged), nothing is
    yielded — a documented empty page, not an error.
    """
    iterator = iter(iterator)
    for row in iterator:
        if row == token:
            break
    yield from iterator
