"""Bulk pulls: an unmeasured fetch is the per-row stream, accounted once.

The kernel's walk hands out its rows in runs and the representations
flatten them at C level; an unmeasured ``fetchmany`` / ``fetchall``
takes its rows from that flattened stream with one ``islice`` and
accounts for them once per pull. Everything a caller can observe must
be what row-by-row iteration (``islice`` over the cursor itself, which
goes through ``__next__``) gives: the pages, ``delivered``,
``exhausted``, ``resume_token()`` and when the close hooks fire — on
every back end a cursor reads: a static structure, a clean and a dirty
dynamic version, and shared-scan states with one lane (a solo cursor
over the enumeration) or two (duplicates, fed through lane buffers).

A measured pull takes its rows the same way and times each one as it
arrives, so a measured cursor is held to more: after every pull, its
pages, state, hook timing, ``stats()`` and counter are what
``measure_enumeration`` reads over the request's spec stream
(``tests/reference_walk.py``) cut where the cursor stands — the closing
gap in only once the cursor met exhaustion.

Closing a cursor mid-stream must still close its walk: a flattened
stream is a ``chain``, and a bare ``chain`` has no ``close()``.
"""

from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from inspect import GEN_CLOSED, GEN_SUSPENDED, getgeneratorstate
from itertools import islice
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import oracle_accesses, oracle_answer
from reference_walk import _layout_runs as spec_layout_runs
from reference_walk import reference_walk
from repro.core import kernel, representation
from repro.core.dynamic import DynamicRepresentation
from repro.core.structure import CompressedRepresentation
from repro.engine.api import AccessRequest, open_cursor, resume_enumeration
from repro.engine.shared_scan import SharedScan
from repro.joins.generic_join import JoinCounter
from repro.measure.delay import measure_enumeration
from test_dirty_versions import one_leaf_spec
from repro.workloads.generators import triangle_database
from repro.workloads.queries import triangle_view

VIEW = triangle_view("bff")
TAU = 4.0


@pytest.fixture(scope="module")
def db():
    return triangle_database(16, 80, seed=21)


@pytest.fixture(scope="module")
def backends(db):
    """``name -> representation``: static, clean and dirty versions."""
    dynamic = DynamicRepresentation(
        VIEW, db, tau=TAU, rebuild_fraction=float("inf")
    )
    clean = dynamic.freeze()
    dynamic.insert("R", (0, 1))
    dynamic.insert("S", (1, 2))
    dynamic.insert("T", (2, 0))
    dirty = dynamic.freeze()
    assert clean._structure is not None and dirty._structure is None
    return {
        "static": CompressedRepresentation(VIEW, db, tau=TAU),
        "clean": clean,
        "dirty": dirty,
    }


@pytest.fixture(scope="module")
def pool(db, backends):
    """``(backend, access, full answer)`` triples, empty answers included."""
    accesses = oracle_accesses(VIEW, db, limit=5) + [(10**6,)]
    return [
        (name, access, list(rep.enumerate(access)))
        for name, rep in backends.items()
        for access in accesses
    ]


def open_kind(rep, request, kind):
    """One cursor of ``kind`` over ``rep``: the request's own stream."""
    if kind == "open":
        return open_cursor(rep, request)
    copies = 1 if kind == "solo" else 2
    return SharedScan(rep, [request] * copies).cursors()[0]


def drive(cursor, pattern, bulk):
    """Pull ``cursor`` by ``pattern``; what a caller sees after each pull.

    ``bulk`` uses the cursor's own ``fetchmany`` / ``fetchall``; else the
    same pulls go row by row through ``__next__``.
    """
    fired = []
    cursor.add_close_hook(lambda: fired.append(len(seen)))
    seen = []
    for size in pattern:
        if size == "iterate":
            page = list(cursor)
        elif size is None:
            page = cursor.fetchall() if bulk else list(cursor)
        else:
            page = cursor.fetchmany(size) if bulk else list(islice(cursor, size))
        seen.append(
            (page, cursor.delivered, cursor.exhausted, cursor.resume_token())
        )
    cursor.close()
    return seen, fired


@st.composite
def cases(draw, pool):
    backend, access, rows = draw(st.sampled_from(pool))
    # After the last row: an empty resumed stream whose one gap, the
    # closing one, is all its seek's steps.
    tokens = [None, (-1, -1), (10**6, 0)] + rows[:3] + rows[-1:] + [
        (row[0], row[1] + 1) for row in rows[:2]
    ]
    request = AccessRequest(
        "v",
        access,
        limit=draw(st.sampled_from([None, 0, 1, 2, 3, len(rows)])),
        start_after=draw(st.sampled_from(tokens)),
    )
    kind = draw(st.sampled_from(["open", "solo", "duplicate"]))
    if draw(st.booleans()):
        pattern = ["iterate"]
    else:
        pattern = draw(st.lists(st.integers(0, 4), max_size=4))
        if draw(st.booleans()):
            pattern.append(None)  # then fetchall
    return backend, request, kind, pattern


class TestBulkPullsArePerRowPulls:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_pages_state_and_hooks_match(self, backends, pool, data):
        backend, request, kind, pattern = data.draw(cases(pool))
        rep = backends[backend]
        bulk = drive(open_kind(rep, request, kind), pattern, bulk=True)
        per_row = drive(open_kind(rep, request, kind), pattern, bulk=False)
        assert bulk == per_row
        # And the pages are the request's stream, in order.
        stream = list(open_cursor(rep, request))
        pages = [row for page, *_ in bulk[0] for row in page]
        assert pages == stream[: len(pages)]

    def test_the_stream_is_the_oracle_answer(self, db, backends, pool):
        for backend, access, rows in pool:
            if backend != "dirty":
                assert rows == oracle_answer(VIEW, db, access)
            cursor = open_cursor(backends[backend], AccessRequest("v", access))
            assert cursor.fetchall() == rows
            assert cursor.exhausted


@contextmanager
def spec_walk(rep):
    """Serve ``rep`` from the spec for one ``with`` block.

    ``reference_walk()`` covers the static structure and a clean
    version; a dirty version's one-leaf walk is the spec's over the
    one-leaf ``(T, D)`` of its captured database.
    """
    with reference_walk():
        if getattr(rep, "_structure", True) is not None:
            yield
            return
        leaf = one_leaf_spec(VIEW, rep._database)
        spec = SimpleNamespace(**vars(leaf), _check_access=rep._check_access)
        with mock.patch.object(
            rep, "_layout_runs", partial(spec_layout_runs, spec)
        ):
            yield


def spec_stats(rep, request, cut):
    """``measure_enumeration`` over the request's spec stream, cut after
    ``cut`` rows (None: to exhaustion), and the rows it read."""
    counter = JoinCounter()
    rows = []
    with spec_walk(rep):
        stream = resume_enumeration(
            rep, request.access, request.start_after, counter
        )
        stats = measure_enumeration(
            (rows.append(row) or row for row in islice(stream, cut)), counter
        )
    return rows, stats


def measured_state(cursor):
    """What a measured cursor shows after a pull, wall clock aside."""
    stats = cursor.stats()
    assert 0 <= stats.wall_first <= stats.wall_max_gap <= stats.wall_total
    return (
        cursor.delivered,
        cursor.exhausted,
        cursor.resume_token(),
        (stats.outputs, stats.step_total, stats.step_max_gap),
        cursor._counter.steps,
    )


def spec_state(rep, request, delivered, exhausted):
    """``measured_state`` as the spec stream reads, cut where the cursor
    stands: at its last row, or past exhaustion once it met it."""
    rows, stats = spec_stats(rep, request, None if exhausted else delivered)
    assert len(rows) == delivered
    token = rows[-1] if rows else request.start_after
    return (
        delivered,
        exhausted,
        token,
        (stats.outputs, stats.step_total, stats.step_max_gap),
        stats.step_total,
    )


def expected_pulls(rows, request, pattern):
    """The pages, ``(delivered, exhausted)`` and close-hook pull that a
    cursor over ``rows`` gives, by the cursor's contract alone (closed
    after the last pull)."""
    seen, fired, delivered, done, exhausted = [], [], 0, False, False
    for size in pattern:
        page = []
        size = None if size == "iterate" else size
        if not done and size != 0:
            want = size
            if request.limit is not None:
                left = request.limit - delivered
                if size is None or left < size:
                    want = left
            page = rows[delivered:] if want is None else rows[
                delivered : delivered + want
            ]
            delivered += len(page)
            if want is None or len(page) < want:
                done = exhausted = True
            elif want != size:
                done = True
            if done:
                fired.append(len(seen))
        seen.append((page, delivered, exhausted))
    return seen, fired or [len(seen)]


class TestMeasuredPullsAreTheSpecStream:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_every_pull_reads_as_the_spec(self, backends, pool, data):
        backend, request, kind, pattern = data.draw(cases(pool))
        request = replace(request, measure=True)
        rep = backends[backend]
        cursor = open_kind(rep, request, kind)
        fired, seen = [], []
        cursor.add_close_hook(lambda: fired.append(len(seen)))
        for size in pattern:
            if size == "iterate":
                page = list(cursor)
            elif size is None:
                page = cursor.fetchall()
            else:
                page = cursor.fetchmany(size)
            seen.append((page, measured_state(cursor)))
        cursor.close()
        # The pages and state by the contract, over the spec's rows ...
        rows, _ = spec_stats(rep, request, None)
        pulls, hooks = expected_pulls(rows, request, pattern)
        assert [(page, state[:2]) for page, state in seen] == [
            (page, (delivered, exhausted))
            for page, delivered, exhausted in pulls
        ]
        assert fired == hooks
        # ... and after each pull, the figures measure_enumeration reads.
        for _, state in seen:
            assert state == spec_state(rep, request, *state[:2])

    def test_a_source_raising_mid_pull(self, backends, pool):
        """Rows taken before the error are delivered, measured, and the
        error ends the cursor: hooks fire once, later pulls raise it."""
        backend, access, rows = max(pool, key=lambda case: len(case[2]))
        rep = backends[backend]
        failing = FailingRepresentation(rep, after=3)
        request = AccessRequest("v", access, measure=True)
        for pull in (lambda c: c.fetchall(), lambda c: c.fetchmany(9), list):
            for kind in ("open", "solo"):
                cursor = open_kind(failing, request, kind)
                fired = []
                cursor.add_close_hook(lambda: fired.append(True))
                assert cursor.fetchmany(1) == rows[:1]
                with pytest.raises(Boom):
                    pull(cursor)
                assert fired == [True] and cursor.error is not None
                assert measured_state(cursor) == spec_state(
                    rep, request, 3, False
                )
                with pytest.raises(Boom):
                    cursor.fetchmany(1)
                assert cursor.delivered == 3 and fired == [True]


class Boom(Exception):
    pass


class FailingRepresentation:
    """``rep`` whose enumeration raises after ``after`` rows."""

    def __init__(self, rep, after):
        self.rep, self.after = rep, after

    def enumerate(self, access, counter=None):
        rows = self.rep.enumerate(access, counter=counter)
        yield from islice(rows, self.after)
        raise Boom()


class TestClosingClosesTheWalk:
    @pytest.fixture
    def walks(self, monkeypatch):
        """Every kernel walk started from now on."""
        started = []

        def spy(*args):
            started.append(kernel.kernel_runs(*args))
            return started[-1]

        monkeypatch.setattr(representation, "kernel_runs", spy)
        return started

    @pytest.mark.parametrize("kind", ["static", "dirty", "solo"])
    def test_close_mid_stream(self, db, backends, walks, kind):
        rep = backends["dirty" if kind == "dirty" else "static"]
        access = max(
            oracle_accesses(VIEW, db, limit=5),
            key=lambda a: len(list(rep.enumerate(a))),
        )
        walks.clear()
        request = AccessRequest("v", access)
        cursor = open_kind(rep, request, "solo" if kind == "solo" else "open")
        assert len(cursor.fetchmany(2)) == 2
        (walk,) = walks
        assert getgeneratorstate(walk) == GEN_SUSPENDED
        cursor.close()
        assert getgeneratorstate(walk) == GEN_CLOSED

    def test_a_resumed_stream_closes_its_walk(self, db, backends, walks):
        rep = backends["static"]
        access = oracle_accesses(VIEW, db, limit=1)[0]
        rows = list(rep.enumerate(access))
        walks.clear()
        cursor = open_cursor(rep, AccessRequest("v", access, start_after=rows[0]))
        assert cursor.fetchmany(1) == rows[1:2]
        cursor.close()
        assert [getgeneratorstate(walk) for walk in walks] == [GEN_CLOSED]
