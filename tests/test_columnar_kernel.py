"""Kernel/spec parity: the columnar kernel must be Algorithm 2, exactly.

Every enumeration entry point is run twice over the same built
structures — once as shipped (the columnar kernel, the only route in
``src/``) and once under ``reference_walk()``, the fixture that serves
the same entry points from the recursive transcription of the paper's
walk in ``tests/reference_walk.py`` — and the streams must be identical
element for element: same rows, same order, same shared-scan event
interleaving — and, with a ``JoinCounter`` attached, the same logical
step gap before every row and at exhaustion (the kernel does the delay
accounting itself). What is *not* a second route is covered too: a stale
dictionary version is refused, a dirty dynamic version is the lazy
view's, and both snapshot codec versions load.
"""

import pickle
import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracle import oracle_accesses, oracle_answer
from reference_walk import reference_walk
from repro.core import kernel as kernel_mod
from repro.core import layout as layout_mod
from repro.core.context import ViewContext
from repro.core.decomposed import DecomposedRepresentation
from repro.core.dynamic import DynamicRepresentation
from repro.core.constant_delay import ConnexConstantDelayStructure
from repro.core.snapshot import (
    SNAPSHOT_MAGIC,
    SUPPORTED_VERSIONS,
    decode_snapshot,
    encode_snapshot,
    inspect_snapshot,
)
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine.api import AccessRequest, open_cursor
from repro.engine.dynamic_serving import FrozenDynamicView
from repro.engine.shared_scan import open_group
from repro.exceptions import ParameterError
from repro.joins.generic_join import JoinCounter
from repro.measure.delay import measure_enumeration
from repro.workloads.generators import (
    path_database,
    star_database,
    triangle_database,
)
from repro.workloads.queries import (
    path_view,
    star_view,
    triangle_view,
)

TAUS = (1.0, 4.0, 1000.0)


def on_off(callable_returning_iterable):
    """Run the thunk plain, then under the spec; return (kernel, reference)."""
    kernel_rows = list(callable_returning_iterable())
    with reference_walk():
        reference_rows = list(callable_returning_iterable())
    return kernel_rows, reference_rows


def views_under_test():
    yield triangle_view("bff"), triangle_database(16, 70, seed=7)
    yield triangle_view("fff"), triangle_database(14, 60, seed=8)
    yield triangle_view("bbf"), triangle_database(16, 70, seed=9)
    yield path_view(4), path_database(4, 40, 10, seed=10)
    yield star_view(3), star_database(3, 90, 12, seed=11)


class TestEntryPointParity:
    @pytest.mark.parametrize(
        "case", views_under_test(), ids=lambda c: str(c[0].query.head)
    )
    def test_enumerate(self, case):
        view, db = case
        for tau in TAUS:
            rep = CompressedRepresentation(view, db, tau=tau)
            assert rep.kernel_ready
            for access in oracle_accesses(view, db, limit=8):
                kernel_rows, reference_rows = on_off(
                    lambda: rep.enumerate(access)
                )
                assert kernel_rows == reference_rows, (tau, access)
                assert kernel_rows == oracle_answer(view, db, access)

    @pytest.mark.parametrize(
        "case", views_under_test(), ids=lambda c: str(c[0].query.head)
    )
    def test_enumerate_from_every_split(self, case):
        view, db = case
        rep = CompressedRepresentation(view, db, tau=4.0)
        for access in oracle_accesses(view, db, limit=4):
            rows = oracle_answer(view, db, access)
            # Resume at every delivered row, plus past-the-end.
            tokens = rows + [tuple(v + 1 for v in rows[-1])] if rows else []
            for token in tokens:
                kernel_rows, reference_rows = on_off(
                    lambda: rep.enumerate_from(access, token)
                )
                assert kernel_rows == reference_rows, (access, token)
                assert kernel_rows == [r for r in rows if not r < token]

    @pytest.mark.parametrize(
        "case", views_under_test(), ids=lambda c: str(c[0].query.head)
    )
    def test_enumerate_after_every_split(self, case):
        view, db = case
        rep = CompressedRepresentation(view, db, tau=4.0)
        for access in oracle_accesses(view, db, limit=4):
            rows = oracle_answer(view, db, access)
            for token in rows:
                kernel_rows, reference_rows = on_off(
                    lambda: rep.enumerate_after(access, token)
                )
                assert kernel_rows == reference_rows, (access, token)
                assert kernel_rows == [r for r in rows if r > token]

    def test_pagination_identity(self):
        view = triangle_view("bff")
        db = triangle_database(16, 70, seed=7)
        rep = CompressedRepresentation(view, db, tau=4.0)
        access = next(
            a
            for a in oracle_accesses(view, db, limit=8)
            if len(oracle_answer(view, db, a)) >= 3
        )
        rows = list(rep.enumerate(access))
        for k in range(1, len(rows)):
            resumed = rows[:k] + list(rep.enumerate_after(access, rows[k - 1]))
            assert resumed == rows, k


class TestSharedScanParity:
    @pytest.fixture
    def scan_setup(self):
        view = triangle_view("bff")
        db = triangle_database(16, 80, seed=21)
        rep = CompressedRepresentation(view, db, tau=4.0)
        accesses = oracle_accesses(view, db, limit=6)
        return view, db, rep, accesses

    def test_group_events(self, scan_setup):
        _, _, rep, accesses = scan_setup
        # Duplicate lanes included: each slot keeps its own event stream.
        group = list(accesses) + [accesses[0]]
        kernel_events, reference_events = on_off(
            lambda: rep.shared_enumerate(group)
        )
        assert kernel_events == reference_events
        with reference_walk():
            for slot, access in enumerate(group):
                rows = [row for s, row in kernel_events if s == slot]
                assert rows == list(rep.enumerate(access)), slot

    def test_group_with_starts(self, scan_setup):
        view, db, rep, accesses = scan_setup
        starts = []
        for access in accesses:
            rows = oracle_answer(view, db, access)
            starts.append(rows[len(rows) // 2] if rows else None)
        kernel_events, reference_events = on_off(
            lambda: rep.shared_enumerate(accesses, starts=starts)
        )
        assert kernel_events == reference_events

    def test_alive_pruning(self, scan_setup):
        _, _, rep, accesses = scan_setup

        def pruned_stream():
            alive = [True] * len(accesses)
            seen = [0] * len(accesses)
            for slot, row in rep.shared_enumerate(accesses, alive=alive):
                yield slot, row
                seen[slot] += 1
                if seen[slot] >= 2:  # prune each slot after two rows
                    alive[slot] = False

        kernel_events, reference_events = on_off(pruned_stream)
        assert kernel_events == reference_events

    def test_mixed_counter_lanes_count_identically(self, scan_setup):
        _, _, rep, accesses = scan_setup

        def counted():
            counters = [JoinCounter() for _ in accesses]
            counters[0] = None  # mixed group: the kernel counts per lane
            counters[1] = JoinCounter()
            events = list(
                rep.shared_enumerate(accesses, counters=counters)
            )
            steps = tuple(
                c.steps if c is not None else None for c in counters
            )
            return [("events", tuple(events)), ("steps", steps)]

        kernel_side, reference_side = on_off(counted)
        assert kernel_side == reference_side


class TestOtherRepresentations:
    def test_decomposed(self):
        view = triangle_view("bff")
        db = triangle_database(16, 70, seed=31)
        rep = DecomposedRepresentation(view, db)
        assert rep.kernel_ready
        for access in oracle_accesses(view, db, limit=6):
            kernel_rows, reference_rows = on_off(
                lambda: sorted(rep.enumerate(access))
            )
            assert kernel_rows == reference_rows
            assert kernel_rows == oracle_answer(view, db, access)
            rows = reference_rows
            if rows:
                token = rows[len(rows) // 2]
                kernel_tail, reference_tail = on_off(
                    lambda: rep.enumerate_from(access, token)
                )
                assert kernel_tail == reference_tail

    def test_dynamic_clean_then_dirty(self):
        view = triangle_view("bbf")
        db = triangle_database(14, 50, seed=41)
        dynamic = DynamicRepresentation(
            view, db, tau=4.0, rebuild_fraction=float("inf")
        )
        accesses = oracle_accesses(view, db, limit=6)
        assert dynamic.kernel_ready  # clean: kernel serves
        for access in accesses:
            kernel_rows, reference_rows = on_off(
                lambda: dynamic.enumerate(access)
            )
            assert kernel_rows == reference_rows
        dynamic.insert("R", (0, 1))
        dynamic.insert("S", (1, 2))
        dynamic.insert("T", (2, 0))
        assert dynamic.is_dirty
        assert not dynamic.kernel_ready  # dirty buffers force the overlay
        updated = dynamic.current_database()
        for access in accesses:
            kernel_rows, reference_rows = on_off(
                lambda: dynamic.answer(access)
            )
            assert kernel_rows == reference_rows
            assert kernel_rows == oracle_answer(view, updated, access)
        dynamic.rebuild()
        assert dynamic.kernel_ready

    def test_constant_delay_bulk_walk(self):
        view = path_view(3)
        db = path_database(3, 60, 12, seed=51)
        structure = ConnexConstantDelayStructure(view, db)
        for access in oracle_accesses(view, db, limit=6):
            kernel_rows, reference_rows = on_off(
                lambda: structure.enumerate(access)
            )
            assert kernel_rows == reference_rows
            assert sorted(kernel_rows) == oracle_answer(view, db, access)


def measured_run(make_iterator):
    """(rows, step gaps) of one measured drain — every gap, not the total.

    ``make_iterator(counter)`` builds the enumeration; the gap list has
    one entry per row plus the closing gap at exhaustion.
    """
    counter = JoinCounter()
    rows = []

    def stream():
        for row in make_iterator(counter):
            rows.append(row)
            yield row

    stats = measure_enumeration(stream(), counter, keep_gaps=True)
    assert stats.step_total == sum(stats.step_gaps)
    return rows, stats.step_gaps


def measured_on_off(make_iterator):
    kernel_side, reference_side = on_off(
        lambda: [measured_run(make_iterator)]
    )
    return kernel_side[0], reference_side[0]


def shared_trace(rep, accesses, counters, starts=None, prune_after=None):
    """Events of one shared scan, each with its lane's counter reading."""
    alive = [True] * len(accesses)
    seen = [0] * len(accesses)
    trace = []
    for slot, row in rep.shared_enumerate(
        accesses, starts=starts, counters=counters, alive=alive
    ):
        counter = counters[slot]
        trace.append((slot, row, None if counter is None else counter.steps))
        seen[slot] += 1
        if prune_after is not None and seen[slot] >= prune_after:
            alive[slot] = False
    trace.append(
        ("totals", tuple(None if c is None else c.steps for c in counters))
    )
    return trace


@pytest.fixture(params=["numpy", "pure"])
def backend(request, monkeypatch):
    """Both intersection backends; numpy is forced onto every run."""
    if request.param == "pure":
        monkeypatch.setenv("REPRO_KERNEL_NO_NUMPY", "1")
        assert layout_mod.numpy_backend() is None
    else:
        if layout_mod.numpy_backend() is None:
            pytest.skip("numpy backend unavailable")
        # The test databases are small: drop the threshold so every
        # multi-run intersection goes through ``intersect1d``.
        monkeypatch.setattr(kernel_mod, "_NUMPY_MIN_RUN", 1)
    return request.param


@pytest.mark.usefixtures("backend")
class TestStepParity:
    """A counter reads the same on both paths between any two rows."""

    @pytest.mark.parametrize(
        "case", views_under_test(), ids=lambda c: str(c[0].query.head)
    )
    def test_enumerate_and_every_split(self, case):
        view, db = case
        for tau in TAUS:
            rep = CompressedRepresentation(view, db, tau=tau)
            for access in oracle_accesses(view, db, limit=4):
                kernel_side, reference_side = measured_on_off(
                    lambda c: rep.enumerate(access, counter=c)
                )
                assert kernel_side == reference_side, (tau, access)
                rows = kernel_side[0]
                assert rows == oracle_answer(view, db, access)
                tokens = (
                    rows + [tuple(v + 1 for v in rows[-1])] if rows else []
                )
                for token in tokens:
                    for entry in (rep.enumerate_from, rep.enumerate_after):
                        kernel_side, reference_side = measured_on_off(
                            lambda c: entry(access, token, counter=c)
                        )
                        assert kernel_side == reference_side, (
                            tau,
                            access,
                            token,
                            entry.__name__,
                        )

    @pytest.mark.parametrize(
        "case", views_under_test(), ids=lambda c: str(c[0].query.head)
    )
    def test_shared_scan_lanes(self, case):
        view, db = case
        for tau in TAUS:
            rep = CompressedRepresentation(view, db, tau=tau)
            accesses = oracle_accesses(view, db, limit=5)
            accesses = accesses + accesses[:1]  # a duplicate lane
            starts = []
            for index, access in enumerate(accesses):
                rows = oracle_answer(view, db, access)
                starts.append(
                    rows[len(rows) // 2] if rows and index % 2 else None
                )

            def counters():
                # Mixed group: every third lane rides unmeasured.
                return [
                    None if index % 3 == 2 else JoinCounter()
                    for index in range(len(accesses))
                ]

            for kwargs in (
                {},
                {"starts": starts},
                {"prune_after": 2},
                {"starts": starts, "prune_after": 1},
            ):
                kernel_side, reference_side = on_off(
                    lambda: shared_trace(rep, accesses, counters(), **kwargs)
                )
                assert kernel_side == reference_side, (tau, kwargs)

    def test_cursor_stats_under_limits(self):
        view = triangle_view("bff")
        db = triangle_database(16, 80, seed=21)
        rep = CompressedRepresentation(view, db, tau=4.0)
        for access in oracle_accesses(view, db, limit=6):
            rows, gaps = measured_run(
                lambda c: rep.enumerate(access, counter=c)
            )
            for limit in (0, 1, max(1, len(rows) // 2), None):

                def drained():
                    cursor = open_cursor(
                        rep,
                        AccessRequest(
                            "v", access, limit=limit, measure=True
                        ),
                    )
                    delivered = cursor.fetchall()
                    stats = cursor.stats()
                    return [
                        delivered,
                        stats.step_total,
                        stats.step_max_gap,
                        cursor.exhausted,
                    ]

                kernel_side, reference_side = on_off(drained)
                assert kernel_side == reference_side, (access, limit)
                delivered, step_total, step_max_gap, exhausted = kernel_side
                if limit is None or limit > len(rows):
                    kept = gaps  # exhausted: the closing gap counts
                else:
                    # Limit-stopped: steps up to the last delivered row,
                    # no closing gap — even when the limit is the answer.
                    kept = gaps[:limit]
                assert exhausted == (len(kept) == len(gaps))
                assert delivered == rows[: len(delivered)]
                assert step_total == sum(kept)
                assert step_max_gap == max(kept, default=0)

    def test_shared_cursors_mixed_measure_and_limits(self):
        view = triangle_view("bff")
        db = triangle_database(16, 80, seed=21)
        rep = CompressedRepresentation(view, db, tau=4.0)
        accesses = oracle_accesses(view, db, limit=5)
        requests = [
            AccessRequest(
                "v",
                access,
                limit=(None, 1, 3)[index % 3],
                measure=index % 2 == 0,
            )
            for index, access in enumerate(accesses + accesses[:2])
        ]

        def drained():
            results = []
            for cursor in open_group(rep, requests):
                delivered = cursor.fetchall()
                stats = cursor.stats()
                results.append(
                    (delivered, stats.step_total, stats.step_max_gap)
                )
            return results

        kernel_side, reference_side = on_off(drained)
        assert kernel_side == reference_side
        assert any(total for _, total, _ in kernel_side)

    def test_decomposed(self):
        view = path_view(4)
        db = path_database(4, 40, 10, seed=10)
        rep = DecomposedRepresentation(view, db)
        assert rep.kernel_ready
        for access in oracle_accesses(view, db, limit=6):
            kernel_side, reference_side = measured_on_off(
                lambda c: rep.enumerate(access, counter=c)
            )
            assert kernel_side == reference_side, access
            rows = kernel_side[0]
            assert sorted(rows) == oracle_answer(view, db, access)
            for token in rows:
                kernel_side, reference_side = measured_on_off(
                    lambda c: rep.enumerate_from(access, token, counter=c)
                )
                assert kernel_side == reference_side, (access, token)
        accesses = oracle_accesses(view, db, limit=4)
        kernel_side, reference_side = on_off(
            lambda: shared_trace(
                rep, accesses, [JoinCounter() for _ in accesses]
            )
        )
        assert kernel_side == reference_side

    @pytest.mark.parametrize("refine", [True, False])
    def test_decomposed_build_compiles_each_bag_when_its_bits_are_final(
        self, refine, monkeypatch
    ):
        # Algorithm 4 edits a bag's dictionary in place. The bag is
        # recompiled right after its own flips (post-order), so every
        # child a parent probes already answers from a fresh layout:
        # one compile per bag, plus one per bag Algorithm 4 edited.
        compiles = []
        compile_layout = layout_mod.compile_layout

        def counting(ctx, tree, dictionary, cost_model):
            compiles.append(dictionary)
            return compile_layout(ctx, tree, dictionary, cost_model)

        monkeypatch.setattr(layout_mod, "compile_layout", counting)
        view = path_view(4)
        db = path_database(4, 40, 10, seed=10)
        rep = DecomposedRepresentation(view, db, refine=refine)
        bags = [bag.representation for bag in rep.bags.values()]
        # build_dictionary sets each entry once; every flip is one more.
        edited = [
            bag for bag in bags if bag.dictionary.version > len(bag.dictionary)
        ]
        assert bool(edited) == refine
        assert len(compiles) == len(bags) + len(edited)
        for access in oracle_accesses(view, db, limit=6):
            kernel_side, reference_side = measured_on_off(
                lambda c: rep.enumerate(access, counter=c)
            )
            assert kernel_side == reference_side, access
            rows = kernel_side[0]
            assert sorted(rows) == oracle_answer(view, db, access)
            for token in rows[:: max(1, len(rows) // 3)]:
                kernel_side, reference_side = measured_on_off(
                    lambda c: rep.enumerate_from(access, token, counter=c)
                )
                assert kernel_side == reference_side, (access, token)

    def test_constant_delay(self):
        for view, db in (
            (path_view(3), path_database(3, 60, 12, seed=51)),
            (path_view(4), path_database(4, 40, 10, seed=10)),
            (star_view(3), star_database(3, 90, 12, seed=11)),
        ):
            structure = ConnexConstantDelayStructure(view, db)
            for access in oracle_accesses(view, db, limit=6):
                kernel_side, reference_side = measured_on_off(
                    lambda c: structure.enumerate(access, counter=c)
                )
                assert kernel_side == reference_side, (view.name, access)

    def test_clean_dynamic(self):
        view = triangle_view("bbf")
        db = triangle_database(14, 50, seed=41)
        dynamic = DynamicRepresentation(
            view, db, tau=4.0, rebuild_fraction=float("inf")
        )
        frozen = FrozenDynamicView(view, structure=dynamic._structure)
        assert dynamic.kernel_ready and frozen.kernel_ready
        for serving in (dynamic, frozen):
            for access in oracle_accesses(view, db, limit=6):
                kernel_side, reference_side = measured_on_off(
                    lambda c: serving.enumerate(access, counter=c)
                )
                assert kernel_side == reference_side, access
                for token in kernel_side[0]:
                    kernel_side, reference_side = measured_on_off(
                        lambda c: serving.enumerate_after(
                            access, token, counter=c
                        )
                    )
                    assert kernel_side == reference_side, (access, token)


SMALL = st.integers(0, 5)
EDGES = st.lists(st.tuples(SMALL, SMALL), max_size=24)


@st.composite
def parity_cases(draw):
    """A random small triangle/path instance, τ, access and resume token."""
    if draw(st.booleans()):
        pattern = draw(
            st.sampled_from(["bff", "fbf", "ffb", "bbf", "bfb", "fff"])
        )
        view, names = triangle_view(pattern), ("R", "S", "T")
    else:
        pattern = draw(st.sampled_from(["bffb", "ffff", "bfff", "fbbf"]))
        view, names = path_view(3, pattern), ("R1", "R2", "R3")
    db = Database([Relation(name, 2, draw(EDGES)) for name in names])
    tau = draw(st.sampled_from([1.0, 2.0, 5.0, 40.0]))
    access = tuple(draw(SMALL) for _ in view.bound_variables)
    token = draw(
        st.none()
        | st.tuples(*[st.integers(-1, 6)] * len(view.free_variables))
    )
    return view, db, tau, access, token


def assert_step_parity(view, db, tau, access, token, refine=True):
    """Spec, kernel and oracle agree on all three static families."""
    structures = [
        CompressedRepresentation(view, db, tau=tau),
        DecomposedRepresentation(view, db, refine=refine),
        ConnexConstantDelayStructure(view, db),
    ]
    for rep in structures:
        if token is None:
            entries = [lambda c: rep.enumerate(access, counter=c)]
        elif rep.supports_resume:
            entries = [
                lambda c: rep.enumerate_from(access, token, counter=c),
                lambda c: rep.enumerate_after(access, token, counter=c),
            ]
        else:
            continue
        for entry in entries:
            kernel_side, reference_side = measured_on_off(entry)
            assert kernel_side == reference_side, type(rep).__name__
        if token is None:
            rows = kernel_side[0]
            # Theorem 1 is lexicographic; the other two nest per bag.
            if not isinstance(rep, CompressedRepresentation):
                rows = sorted(rows)
            assert rows == oracle_answer(view, db, access)


@given(parity_cases(), st.booleans())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_random_instances_keep_rows_and_step_gaps(case, refine):
    assert_step_parity(*case, refine=refine)


@st.composite
def restore_cases(draw):
    """A random small triangle/path/star instance, τ, accesses and a seek."""
    family = draw(st.sampled_from(["triangle", "path", "star"]))
    if family == "triangle":
        pattern = draw(st.sampled_from(["bff", "bbf", "fbf", "fff"]))
        view, names = triangle_view(pattern), ("R", "S", "T")
    elif family == "path":
        pattern = draw(st.sampled_from(["bffb", "bfff", "ffff"]))
        view, names = path_view(3, pattern), ("R1", "R2", "R3")
    else:
        pattern = draw(st.sampled_from(["bbbf", "bfff", "ffbf"]))
        view, names = star_view(3, pattern), ("R1", "R2", "R3")
    db = Database([Relation(name, 2, draw(EDGES)) for name in names])
    tau = draw(st.sampled_from([1.0, 2.0, 5.0, 40.0]))
    accesses = [
        tuple(draw(SMALL) for _ in view.bound_variables) for _ in range(3)
    ]
    token = tuple(draw(st.integers(-1, 6)) for _ in view.free_variables)
    return view, db, tau, accesses, token


@pytest.mark.usefixtures("backend")
@given(restore_cases())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_random_instances_restore_identically_over_a_shared_context(case):
    """Built, decoded alone, decoded onto a resident context: one stream.

    The same rows in the same order with the same step gaps on every
    entry point, under the kernel and under the spec, and the oracle's
    answers — adopting a context changes where the tries live, nothing
    an enumeration can observe.
    """
    view, db, tau, accesses, token = case
    built = CompressedRepresentation(view, db, tau=tau)
    blob = encode_snapshot(built)
    context = ViewContext(view, db)
    alone = decode_snapshot(blob)
    shared = decode_snapshot(blob, context=context)
    again = decode_snapshot(blob, context=context)
    assert shared.ctx is again.ctx is context
    assert alone.ctx is not context and alone.db is not db
    assert shared.db is db
    assert encode_snapshot(shared) == encode_snapshot(again)
    sides = []
    for rep in (built, alone, shared, again):
        traces = []
        for access in accesses:
            for entry in (
                lambda c: rep.enumerate(access, counter=c),
                lambda c: rep.enumerate_from(access, token, counter=c),
            ):
                kernel_side, reference_side = measured_on_off(entry)
                assert kernel_side == reference_side
                traces.append(kernel_side)
            assert traces[-2][0] == oracle_answer(view, db, access)
        kernel_side, reference_side = on_off(
            lambda: shared_trace(
                rep,
                accesses,
                [JoinCounter() for _ in accesses],
                starts=[None, token, None],
            )
        )
        assert kernel_side == reference_side
        sides.append((traces, kernel_side))
    assert sides[0] == sides[1] == sides[2] == sides[3]


class TestFallbackTriggers:
    """What used to trigger a fallback; none of it selects a route now."""

    @pytest.fixture
    def rep(self):
        view = triangle_view("bff")
        db = triangle_database(16, 70, seed=61)
        return view, db, CompressedRepresentation(view, db, tau=4.0)

    def test_counter_requests_count_identically_on_both_paths(self, rep):
        view, db, rep = rep
        access = oracle_accesses(view, db, limit=1)[0]

        def measured():
            counter = JoinCounter()
            rows = list(rep.enumerate(access, counter=counter))
            return [("rows", tuple(rows)), ("steps", counter.steps)]

        kernel_side, reference_side = on_off(measured)
        # The kernel counts the spec's steps itself: the accounting does
        # not depend on which of the two walked.
        assert kernel_side == reference_side

    def test_stale_dictionary_version_is_refused(self, rep):
        view, db, rep = rep
        accesses = oracle_accesses(view, db, limit=6)
        expected = {a: list(rep.enumerate(a)) for a in accesses}
        # An in-place dictionary edit bumps the version; the compiled
        # layout pinned the old one. There is no second path to serve
        # from: every entry point refuses, with a typed error.
        (node_id, access), bit = next(iter(rep.dictionary.items()))
        rep.dictionary.set(node_id, access, bit)  # same bit: answers keep
        token = expected[accesses[0]][0]
        for stale in (
            lambda: rep.enumerate(accesses[0]),
            lambda: rep.enumerate(accesses[0], counter=JoinCounter()),
            lambda: rep.enumerate_from(accesses[0], token),
            lambda: rep.enumerate_after(accesses[0], token),
            lambda: rep.shared_enumerate(accesses),
        ):
            with pytest.raises(ParameterError, match="stale layout"):
                next(iter(stale()), None)
        # A stale layout is not shipped either: restoring re-pins the
        # version, which would pass old bits off as fresh.
        with pytest.raises(ParameterError, match="stale layout"):
            encode_snapshot(rep)
        # Recompiling re-pins the current version and re-arms the kernel.
        layout = rep.compile_layout()
        assert layout.dict_version == rep.dictionary.version
        for access in accesses:
            assert list(rep.enumerate(access)) == expected[access]
        assert decode_snapshot(encode_snapshot(rep)).answer(
            accesses[0]
        ) == expected[accesses[0]]

    def test_kernel_ready_is_a_fact_not_a_switch(self, rep):
        _, _, rep = rep
        assert rep.kernel_ready is True
        assert CompressedRepresentation.kernel_ready is True
        assert DecomposedRepresentation.kernel_ready is True
        # The fixture is the only thing that turns it off, and it puts
        # it back.
        with reference_walk():
            assert rep.kernel_ready is False
        assert rep.kernel_ready is True


class TestPureFallbackPath:
    def test_parity_without_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_NO_NUMPY", "1")
        assert layout_mod.numpy_backend() is None
        view = triangle_view("bff")
        db = triangle_database(16, 80, seed=71)
        rep = CompressedRepresentation(view, db, tau=4.0)
        assert rep.kernel_ready
        for access in oracle_accesses(view, db, limit=8):
            kernel_rows, reference_rows = on_off(
                lambda: rep.enumerate(access)
            )
            assert kernel_rows == reference_rows
            assert kernel_rows == oracle_answer(view, db, access)


class TestSnapshotCodec:
    @pytest.fixture
    def built(self):
        view = triangle_view("bff")
        db = triangle_database(16, 70, seed=81)
        return view, db, CompressedRepresentation(view, db, tau=4.0)

    def test_v2_round_trip_ships_the_layout(self, built):
        view, db, rep = built
        blob = encode_snapshot(rep)
        header = inspect_snapshot(blob)
        assert header["version"] == 2
        assert rep.snapshot_state()["layout"] is not None
        restored = decode_snapshot(blob)
        assert restored.kernel_ready
        for access in oracle_accesses(view, db, limit=6):
            assert list(restored.enumerate(access)) == list(
                rep.enumerate(access)
            )

    def test_v1_blob_loads_and_recompiles(self, built):
        view, db, rep = built
        from repro.core import snapshot as snap

        # Hand-craft a version-1 blob: same framing, no "layout" key in
        # the payload (v1 predates compiled layouts).
        state = rep.snapshot_state()
        state.pop("layout")
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        kind = snap.snapshot_kind(rep).encode("utf-8")
        fingerprint = snap._own_fingerprint(rep).encode("utf-8")
        blob = b"".join(
            (
                snap._HEADER_PREFIX.pack(SNAPSHOT_MAGIC, 1),
                snap._U16.pack(len(kind)),
                kind,
                snap._U16.pack(len(fingerprint)),
                fingerprint,
                snap._TRAILER.pack(zlib.crc32(payload), len(payload)),
                payload,
            )
        )
        assert inspect_snapshot(blob)["version"] == 1
        assert 1 in SUPPORTED_VERSIONS
        restored = decode_snapshot(blob)
        assert restored.kernel_ready  # loader recompiled the layout
        for access in oracle_accesses(view, db, limit=6):
            assert list(restored.enumerate(access)) == oracle_answer(
                view, db, access
            )

    def test_unsupported_version_is_rejected(self, built):
        _, _, rep = built
        blob = bytearray(encode_snapshot(rep))
        blob[4:6] = (99).to_bytes(2, "big")
        from repro.exceptions import SnapshotError

        with pytest.raises(SnapshotError, match="version 99"):
            inspect_snapshot(bytes(blob))
