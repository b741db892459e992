"""Batch execution over one structure: one walk per distinct request.

``answer_batch`` has always shared work between *identical* requests;
this module is where a batch of
:class:`~repro.engine.api.AccessRequest`\\ s over one representation does.
The batch is grouped into **states** — distinct ``(access, resume point)``
pairs — and each state is one solo enumeration
(:func:`~repro.engine.api.resume_enumeration`, the very walk ``open``
rides), started by the first pull of any request on it. Each request is
a **lane** into its state: its own lazy
:class:`~repro.engine.api.AnswerCursor` honoring its own ``limit`` /
``start_after`` / ``measure`` knobs, fed through its own buffer — unless
it is its state's only lane: then nobody shares the walk, and the
cursor reads the enumeration itself (a *solo* state, as ``open``'s
cursor does, bulk pulls and all, measured or not). What a batch shares is
therefore the enumeration — a request asked five times is walked
once — and, one layer up in ``ViewServer.open_batch``, the resolve and
the version pin, paid once per group instead of once per request.
Theorem 1's delay bound is per request and stays per request: a state's
stream, steps and gaps are exactly its solo cursor's.

Demand-driven, state by state
-----------------------------
Nothing is enumerated ahead of demand, and nothing on behalf of another
state: pulling a cursor advances its own state's enumeration by what it
takes (parked in the buffers of the state's other live lanes) and
touches no other state. When every lane of a state is finished (limit
reached, closed, or dropped) its generator is closed on the spot, and
counted in ``pruned_states`` unless it had already run dry. An error
raised by a state's enumeration surfaces on that state's cursors — all
of them, never as a silently short answer — and on no other's. Cursors
of different states are as independent as cursors from ``open``; only
duplicates of one request share anything, so drive those from one
thread.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.api import (
    AccessRequest,
    AnswerCursor,
    resume_enumeration,
)
from repro.joins.generic_join import JoinCounter


@dataclass(frozen=True)
class SharedScanStats:
    """Sharing achieved by one scan (how much work the batch saved).

    ``requests`` is the group size; ``states`` the distinct
    ``(access, resume point)`` enumerations it needs — the gap is pure
    deduplication. ``pruned_states`` counts states whose generator was
    closed before it ran dry (every lane limit-stopped or closed early):
    the rest of their walk never happened.
    """

    requests: int
    states: int
    # Always 0: no per-atom trie descent is shared between states any
    # more. The fields keep their positions because benchmarks/e2e
    # builds this class positionally; they go with a `benchmark` issue.
    subtrie_hits: int
    subtrie_misses: int
    pruned_states: int = 0

    @property
    def shared_requests(self) -> int:
        """Requests served without an enumeration of their own."""
        return self.requests - self.states


# How a state's enumeration ended (``_ScanState.end``; an exception
# instance is the third way).
_DRY = object()
_PRUNED = object()


class _ScanState:
    """One distinct ``(access, resume point)`` of a group: one enumeration.

    ``source`` is that enumeration, made on the first pull (a solo
    state's, :meth:`solo`, when its cursor is made); ``end`` is ``None``
    while it may still be pulled, then why it never will be again:
    ``_DRY`` (ran to its end), ``_PRUNED`` (closed when its last lane
    went) or the exception it raised.

    ``step_max_gap``/``last_steps`` track a shared state's logical delay
    at *emission* time — exactly the gap sequence a solo cursor observes.
    A duplicate's delivery can lag arbitrarily behind (its rows park in
    its buffer while a peer pulls), so measuring there would
    misattribute the gaps; duplicates report their state's.
    """

    __slots__ = (
        "representation",
        "access",
        "token",
        "counter",
        "lanes",
        "source",
        "end",
        "last_steps",
        "step_max_gap",
    )

    def __init__(self, representation, access: Tuple, token: Optional[Tuple]):
        self.representation = representation
        self.access = access
        self.token = token
        self.counter: Optional[JoinCounter] = None
        self.lanes: List[_Lane] = []
        self.source: Optional[Iterator[Tuple]] = None
        self.end = None
        self.last_steps = 0
        self.step_max_gap = 0

    def advance(self) -> bool:
        """Pull one row into the live lanes' buffers.

        Returns False once the enumeration has ended (and never touches
        it again); re-raises the error it ended with, if any.
        """
        if self.end is not None:
            if isinstance(self.end, Exception):
                raise self.end
            return False
        try:
            if self.source is None:
                self.source = resume_enumeration(
                    self.representation, self.access, self.token, self.counter
                )
            row = next(self.source, _DRY)
        except Exception as error:
            self.end = error
            raise
        if self.counter is not None:
            # On the final pull this is the closing gap,
            # measure_enumeration-style: the trailing steps since the
            # last output are part of the delay. A pruned state never
            # observes it, exactly like a limit-stopped solo cursor.
            gap = self.counter.steps - self.last_steps
            self.step_max_gap = max(self.step_max_gap, gap)
            self.last_steps = self.counter.steps
        if row is _DRY:
            self.end = _DRY
            return False
        for lane in self.lanes:
            if lane.alive:
                lane.buffer.append(row)
        return True

    def solo(self, request: AccessRequest) -> AnswerCursor:
        """The cursor of a state with one lane.

        It reads the state's enumeration itself, with no lane buffer in
        between (and so takes bulk pulls), and counts on the state's
        counter when measured; its lane stays in ``lanes`` until the
        cursor's serving life ends, which tells the state how its
        enumeration ended.
        """
        self.source = resume_enumeration(
            self.representation, self.access, self.token, self.counter
        )
        cursor = AnswerCursor(request, self.source, counter=self.counter)
        cursor.add_close_hook(partial(self.settle, cursor))
        return cursor

    def settle(self, cursor: AnswerCursor) -> None:
        """The solo cursor is done: how it ended, then its lane goes.

        Ended short of the end (closed or limit-stopped), the state is
        pruned and its enumeration closed, as with any last lane.
        """
        if cursor.error is not None:
            self.end = cursor.error
        elif cursor.exhausted:
            self.end = _DRY
        self.lanes[0].close()

    def release(self) -> None:
        """A lane went: close the enumeration once no lane wants rows.

        The last lane out also drops the lanes: a state and its lanes
        point at each other, and the cycle would keep the structure
        alive after its cursors closed, until the next collection.
        """
        if not any(lane.alive for lane in self.lanes):
            self.lanes = []
            if self.end is None:
                self.end = _PRUNED
                close = getattr(self.source, "close", None)
                if close is not None:
                    close()


class _Lane:
    """One request's cursor source: its state's rows, up to its limit.

    An iterator with a ``close`` (what :class:`AnswerCursor` asks of a
    source) rather than a generator, so that closing a cursor that was
    never pulled still lets go of the state.
    """

    __slots__ = ("state", "remaining", "buffer", "alive")

    def __init__(self, state: _ScanState, limit: Optional[int]):
        self.state = state
        self.remaining = limit  # rows still wanted (None: all of them)
        self.buffer: Deque[Tuple] = deque()
        # A limit-0 cursor never pulls: its lane wants no rows.
        self.alive = limit != 0

    def __iter__(self) -> "_Lane":
        return self

    def __next__(self) -> Tuple:
        if not (self.alive and (self.buffer or self.state.advance())):
            self.close()
            raise StopIteration
        row = self.buffer.popleft()
        if self.remaining is not None:
            self.remaining -= 1
            if not self.remaining:
                # Let go BEFORE handing over the final row: a cursor at
                # its limit never pulls its source again (its own limit
                # check short-circuits), so the state would stay open,
                # buffering for a lane nobody reads, until a close().
                self.close()
        return row

    def close(self) -> None:
        self.alive = False
        self.buffer.clear()
        self.state.release()


class SharedScan:
    """One request group over one structure, deduplicated into states.

    Build it with the resolved representation and the group's requests
    (all over the same view and τ — the server's ``open_batch`` does the
    grouping), then take :meth:`cursors`; the list aligns with the
    requests. :meth:`stats` reports the sharing after (or during)
    consumption.
    """

    def __init__(self, representation, requests: Sequence[AccessRequest]):
        self.representation = representation
        self.requests: Tuple[AccessRequest, ...] = tuple(requests)
        self._states: Dict[Tuple, _ScanState] = {}
        self._lanes: List[_Lane] = []
        for request in self.requests:
            key = (request.access, request.start_after)
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _ScanState(representation, *key)
            if request.measure and state.counter is None:
                state.counter = JoinCounter()
            lane = _Lane(state, request.limit)
            state.lanes.append(lane)
            self._lanes.append(lane)

    def cursors(self) -> List[AnswerCursor]:
        """One lazy cursor per request, aligned with the group order.

        Duplicate requests get distinct cursors over one shared state
        (and, under ``measure``, share that state's step counter and
        gaps — the same attribution ``answer_batch`` has always reported
        for duplicates). A state with one lane has nobody to buffer for:
        its cursor reads the state's enumeration directly.
        """
        return [
            lane.state.solo(request)
            if len(lane.state.lanes) == 1
            else AnswerCursor(
                request,
                lane,
                counter=lane.state.counter if request.measure else None,
                gap_tracker=lane.state if request.measure else None,
            )
            for request, lane in zip(self.requests, self._lanes)
        ]

    def stats(self) -> SharedScanStats:
        """This scan's sharing so far (final once every cursor closed)."""
        return SharedScanStats(
            requests=len(self.requests),
            states=len(self._states),
            subtrie_hits=0,
            subtrie_misses=0,
            pruned_states=sum(
                state.end is _PRUNED for state in self._states.values()
            ),
        )


def open_group(
    representation, requests: Sequence[AccessRequest]
) -> List[AnswerCursor]:
    """Cursors for one request group over one representation.

    The module-level convenience mirroring
    :func:`~repro.engine.api.open_cursor`: callers holding a bare
    representation (no server) get the same deduplicated batch
    execution ``ViewServer.open_batch`` provides.
    """
    return SharedScan(representation, requests).cursors()
