"""Shared-scan batch execution: many cursors fed by one traversal.

``answer_batch`` has always shared work between *identical* requests; this
module shares it between *related* ones. A batch of
:class:`~repro.engine.api.AccessRequest`\\ s over one representation is
grouped into **states** — distinct ``(access, resume point)`` pairs — and
the whole group rides a single merged descent
(:meth:`~repro.core.structure.CompressedRepresentation.shared_enumerate`):
one tree walk visits each node once for however many states still descend
through it, per-atom trie descents are deduplicated across prefix-sharing
accesses, and every emitted tuple is routed into the per-cursor buffers
of the requests that asked for it. The cursor layer already isolates
consumption from enumeration, so the swap is invisible to callers: each
request still gets its own lazy :class:`~repro.engine.api.AnswerCursor`
honoring its own ``limit`` / ``start_after`` / ``measure`` knobs.

Demand-driven pumping
---------------------
Nothing is enumerated ahead of demand: pulling any cursor advances the
shared scan just far enough to produce that cursor's next tuple, parking
everything emitted for the others in their buffers. When every cursor of
a state is finished (limit reached, closed, or dropped), the state's
flag in the scan's ``alive`` list flips and the merged descent prunes it
at the next node boundary — a subtree only dead states wanted is never
visited. A scan (and the cursors it feeds) is single-consumer state, like
any generator: drive one scan from one thread.

Representations without ``supports_shared_scan`` degrade to a sequential
per-state pump over :func:`~repro.engine.api.resume_enumeration` — same
cursor protocol, still deduplicating duplicate requests, just without
the merged descent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.context import SubtrieCache
from repro.engine.api import (
    AccessRequest,
    AnswerCursor,
    resume_enumeration,
)
from repro.joins.generic_join import JoinCounter


@dataclass(frozen=True)
class SharedScanStats:
    """Sharing achieved by one scan (how much work one traversal saved).

    ``requests`` is the group size; ``states`` the distinct
    ``(access, resume point)`` traversals actually descended — the gap is
    pure deduplication. ``subtrie_hits``/``subtrie_misses`` count
    per-atom trie-descent steps resolved from the scan's shared
    :class:`~repro.core.context.SubtrieCache` versus walked fresh:
    prefix-sharing accesses raise the hit side. ``pruned_states`` counts
    states deactivated *before* the scan exhausted (limit-stopped or
    closed early) — subtrees only they wanted were never visited.
    """

    requests: int
    states: int
    subtrie_hits: int
    subtrie_misses: int
    pruned_states: int = 0

    @property
    def shared_requests(self) -> int:
        """Requests served without a traversal lane of their own."""
        return self.requests - self.states

    @property
    def dedup_ratio(self) -> float:
        """Requests per traversal lane (1.0 means nothing was shared)."""
        return self.requests / self.states if self.states else 1.0


class _Lane:
    """One request's buffer between the shared scan and its cursor."""

    __slots__ = ("buffer", "alive")

    def __init__(self):
        self.buffer: Deque[Tuple] = deque()
        self.alive = True


class _ScanState:
    """One distinct ``(access, scan seek point)`` of a scan group.

    ``token`` is the seek point the scan itself honors: the request's
    resume token when the representation can seek mid-traversal, else
    ``None`` (full scan — the lane skip-scans its own token instead, so
    a tokenless request and a skip-scanned one share this state).

    ``step_max_gap``/``last_steps`` track the state's logical delay at
    *emission* time: the scan attributes each state's counter steps
    between its own consecutive outputs, which is exactly the gap
    sequence a solo traversal of the state would observe — cursor-side
    delivery can lag arbitrarily behind (rows park in buffers), so
    measuring there would misattribute the gaps.
    """

    __slots__ = (
        "index",
        "access",
        "token",
        "counter",
        "lanes",
        "last_steps",
        "step_max_gap",
    )

    def __init__(self, index: int, access: Tuple, token: Optional[Tuple]):
        self.index = index
        self.access = access
        self.token = token
        self.counter: Optional[JoinCounter] = None
        self.lanes: List[_Lane] = []
        self.last_steps = 0
        self.step_max_gap = 0


class SharedScan:
    """One shared traversal serving a group of requests over one structure.

    Build it with the resolved representation and the group's requests
    (all over the same view and τ — the server's ``open_batch`` does the
    grouping), then take :meth:`cursors`; the list aligns with the
    requests. :meth:`stats` reports the sharing after (or during)
    consumption.
    """

    def __init__(self, representation, requests: Sequence[AccessRequest]):
        self.representation = representation
        self.requests: Tuple[AccessRequest, ...] = tuple(requests)
        self._cache = SubtrieCache()
        self._finished = False
        self._pruned_states = 0
        shared = getattr(representation, "supports_shared_scan", False)
        seeks = getattr(representation, "supports_resume", False)
        self._direct = not shared
        self._states: List[_ScanState] = []
        self._lanes: List[Tuple[_ScanState, _Lane]] = []
        by_key: Dict[Tuple, _ScanState] = {}
        for request in self.requests:
            token = request.start_after
            if shared and not seeks:
                # The scan cannot seek: run the state from the start and
                # let the lane skip-scan past its own token.
                token = None
            key = (request.access, token)
            state = by_key.get(key)
            if state is None:
                state = _ScanState(len(self._states), request.access, token)
                by_key[key] = state
                self._states.append(state)
            if request.measure and state.counter is None:
                state.counter = JoinCounter()
            lane = _Lane()
            state.lanes.append(lane)
            self._lanes.append((state, lane))
        self._alive = [True] * len(self._states)
        if shared:
            self._events: Iterator[Tuple[int, Tuple]] = (
                representation.shared_enumerate(
                    [state.access for state in self._states],
                    starts=[state.token for state in self._states],
                    counters=[state.counter for state in self._states],
                    cache=self._cache,
                    alive=self._alive,
                )
            )
        else:
            self._events = self._direct_events()

    # ------------------------------------------------------------------
    # the pump
    # ------------------------------------------------------------------
    def _direct_events(self) -> Iterator[Tuple[int, Tuple]]:
        """Fallback: sequential per-state streams behind the same protocol."""
        for state in self._states:
            if not self._alive[state.index]:
                continue
            source = resume_enumeration(
                self.representation,
                state.access,
                state.token,
                state.counter,
            )
            for row in source:
                yield (state.index, row)
                if not self._alive[state.index]:
                    break

    def advance(self) -> bool:
        """Pull one event off the scan into its state's live buffers.

        Returns False once the underlying enumeration is exhausted (and
        never touches it again).
        """
        if self._finished:
            return False
        try:
            index, row = next(self._events)
        except StopIteration:
            self._finished = True
            # Closing gaps, measure_enumeration-style: states still live
            # at the end were exhausted, and their trailing steps since
            # the last output are part of the delay. Limit-pruned states
            # never observe exhaustion, exactly like a limit-stopped
            # solo cursor.
            for state in self._states:
                if state.counter is not None and self._alive[state.index]:
                    gap = state.counter.steps - state.last_steps
                    state.step_max_gap = max(state.step_max_gap, gap)
                    state.last_steps = state.counter.steps
            return False
        state = self._states[index]
        if state.counter is not None:
            gap = state.counter.steps - state.last_steps
            state.step_max_gap = max(state.step_max_gap, gap)
            state.last_steps = state.counter.steps
        for lane in state.lanes:
            if lane.alive:
                lane.buffer.append(row)
        return True

    def _release(self, state: _ScanState, lane: _Lane) -> None:
        """A lane is done; prune the state once no lane still wants rows."""
        lane.alive = False
        lane.buffer.clear()
        if not any(peer.alive for peer in state.lanes):
            if self._alive[state.index] and not self._finished:
                # Deactivated while the scan still had work: the merged
                # descent skips this state's remaining subtrees.
                self._pruned_states += 1
            self._alive[state.index] = False

    # ------------------------------------------------------------------
    # cursors over the pump
    # ------------------------------------------------------------------
    def _lane_source(
        self, state: _ScanState, lane: _Lane, request: AccessRequest
    ) -> Iterator[Tuple]:
        try:
            if request.limit == 0:
                return
            # Token handling mirrors the single-cursor paths: an in-scan
            # seek delivers >= token, so drop a leading row equal to it;
            # a skip-scan drops everything up to and including the token
            # (and everything, if the token never appears). The direct
            # fallback's resume_enumeration is already strictly-after.
            token = request.start_after
            if self._direct:
                skipping = leading = False
            else:
                skipping = token is not None and state.token is None
                leading = token is not None and state.token is not None
            delivered = 0
            while True:
                if lane.buffer:
                    row = lane.buffer.popleft()
                elif not self.advance():
                    return  # scan exhausted and nothing left buffered
                else:
                    continue
                if skipping:
                    if row == token:
                        skipping = False
                    continue
                if leading:
                    leading = False
                    if row == token:
                        continue
                delivered += 1
                if request.limit is not None and delivered >= request.limit:
                    # Release BEFORE yielding the final row: a cursor at
                    # its limit never pulls this generator again (its own
                    # limit check short-circuits), so code after the
                    # yield would only run on close() — and the scan
                    # would keep traversing and buffering for a lane
                    # nobody reads.
                    self._release(state, lane)
                    yield row
                    return
                yield row
        finally:
            self._release(state, lane)

    def cursors(self) -> List[AnswerCursor]:
        """One lazy cursor per request, aligned with the group order.

        Duplicate requests get distinct cursors over one shared state
        (and, under ``measure``, share that state's step counter — the
        same attribution ``answer_batch`` has always reported for
        duplicates).
        """
        return [
            AnswerCursor(
                request,
                self._lane_source(state, lane, request),
                counter=state.counter if request.measure else None,
                gap_tracker=state if request.measure else None,
            )
            for request, (state, lane) in zip(self.requests, self._lanes)
        ]

    @property
    def kernel_path(self) -> str:
        """Which enumeration path this group rides.

        ``columnar`` when the representation's compiled layout serves
        the group — merged descent or direct per-state streams, measured
        lanes included (the kernel counts their steps itself);
        ``fallback`` for a dirty dynamic version (or a foreign
        representation without a kernel).
        """
        ready = getattr(self.representation, "kernel_ready", False)
        return "columnar" if ready else "fallback"

    def stats(self) -> SharedScanStats:
        """This scan's sharing so far (final once every cursor closed)."""
        return SharedScanStats(
            requests=len(self.requests),
            states=len(self._states),
            subtrie_hits=self._cache.hits,
            subtrie_misses=self._cache.misses,
            pruned_states=self._pruned_states,
        )


def open_group(
    representation, requests: Sequence[AccessRequest]
) -> List[AnswerCursor]:
    """Cursors for one request group over one representation (shared scan).

    The module-level convenience mirroring
    :func:`~repro.engine.api.open_cursor`: callers holding a bare
    representation (no server) get the same one-traversal batch
    execution ``ViewServer.open_batch`` provides.
    """
    return SharedScan(representation, requests).cursors()
