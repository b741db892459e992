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

Closing a cursor mid-stream must still close its walk: a flattened
stream is a ``chain``, and a bare ``chain`` has no ``close()``.
"""

from inspect import GEN_CLOSED, GEN_SUSPENDED, getgeneratorstate
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import oracle_accesses, oracle_answer
from repro.core import kernel, representation
from repro.core.dynamic import DynamicRepresentation
from repro.core.structure import CompressedRepresentation
from repro.engine.api import AccessRequest, open_cursor
from repro.engine.shared_scan import SharedScan
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
    tokens = [None, (-1, -1), (10**6, 0)] + rows[:3] + [
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
