"""Kernel/spec parity: the columnar kernel must be Algorithm 2, exactly.

Every enumeration entry point is run twice over the same built
structures — once as shipped (the columnar kernel, the only route in
``src/``) and once under ``reference_walk()``, the fixture that serves
the same entry points from the recursive transcription of the paper's
walk in ``tests/reference_walk.py`` — and the streams must be identical
element for element: same rows, same order, through solo cursors and
through a batch's interleaved ones — and, with a ``JoinCounter`` attached, the same logical
step gap before every row and at exhaustion (the kernel does the delay
accounting itself). What is *not* a second route is covered too: a stale
dictionary version is refused, a dirty dynamic version rides the kernel
as well (``tests/test_dirty_versions.py`` holds it to the spec), and both
snapshot codec versions load.
"""

import itertools
import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from legacy_codec import legacy_blob
from oracle import oracle_accesses, oracle_answer
from reference_build import FBox, ScalarInterval, spec_beta_matches, spec_subtries
from reference_walk import _join_box, reference_walk
from repro.core import kernel as kernel_mod
from repro.core import layout as layout_mod
from repro.core.context import ViewContext
from repro.core.decomposed import DecomposedRepresentation
from repro.core.dynamic import DynamicRepresentation
from repro.core.constant_delay import ConnexConstantDelayStructure
from repro.core.snapshot import (
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
from repro.engine.shared_scan import SharedScan, open_group
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
    # Width 1: no unit prefix to share, the finger only settles β points.
    yield triangle_view("bbf"), triangle_database(16, 70, seed=9)
    yield path_view(4), path_database(4, 40, 10, seed=10)
    yield star_view(3), star_database(3, 90, 12, seed=11)
    # Four free variables: the finger holds three levels above the last
    # coordinate, and a change at level 0 must invalidate levels 1-2.
    # (Six head variables, so the case ids of the rows above stay as
    # they were.)
    yield path_view(5, "bbffff"), path_database(5, 20, 6, seed=12)


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
    """A batch's cursors, pulled round-robin, walk the same on both paths."""

    @pytest.fixture
    def scan_setup(self):
        view = triangle_view("bff")
        db = triangle_database(16, 80, seed=21)
        rep = CompressedRepresentation(view, db, tau=4.0)
        accesses = oracle_accesses(view, db, limit=6)
        return view, db, rep, accesses

    def test_group_events(self, scan_setup):
        _, _, rep, accesses = scan_setup
        # Duplicate lanes included: each cursor keeps its own stream.
        group = list(accesses) + [accesses[0]]
        kernel_events, reference_events = on_off(
            lambda: shared_trace(rep, group, [False] * len(group))
        )
        assert kernel_events == reference_events
        with reference_walk():
            for slot, access in enumerate(group):
                rows = [row for s, row, _ in kernel_events[:-1] if s == slot]
                assert rows == list(rep.enumerate(access)), slot

    def test_group_with_starts(self, scan_setup):
        view, db, rep, accesses = scan_setup
        starts = []
        for access in accesses:
            rows = oracle_answer(view, db, access)
            starts.append(rows[len(rows) // 2] if rows else None)
        kernel_events, reference_events = on_off(
            lambda: shared_trace(
                rep, accesses, [False] * len(accesses), starts=starts
            )
        )
        assert kernel_events == reference_events

    def test_alive_pruning(self, scan_setup):
        _, _, rep, accesses = scan_setup
        # Every lane stops after two rows: its state is closed there.
        kernel_events, reference_events = on_off(
            lambda: shared_trace(
                rep, accesses, [False] * len(accesses), prune_after=2
            )
        )
        assert kernel_events == reference_events
        assert kernel_events[-1][-1] > 0  # states were pruned

    def test_mixed_counter_lanes_count_identically(self, scan_setup):
        _, _, rep, accesses = scan_setup
        # Mixed group: the kernel counts per measured lane only.
        measured = [index != 0 for index in range(len(accesses))]
        kernel_side, reference_side = on_off(
            lambda: shared_trace(rep, accesses, measured)
        )
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
        assert dynamic.kernel_ready  # dirty: the one-leaf layout, same kernel
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


def shared_trace(rep, accesses, measured, starts=None, prune_after=None):
    """One batch's cursors pulled round-robin, each row with its steps.

    ``measured`` holds one flag per request, ``starts`` resume tokens
    (strictly after) and ``prune_after`` a limit on every request. The
    trace ends with every cursor's ``(step_total, step_max_gap)`` and
    the scan's pruned-state count.
    """
    requests = [
        AccessRequest(
            "v",
            access,
            limit=prune_after,
            start_after=None if starts is None else starts[index],
            measure=measured[index],
        )
        for index, access in enumerate(accesses)
    ]
    scan = SharedScan(rep, requests)
    cursors = scan.cursors()
    trace = []
    live = list(range(len(cursors)))
    while live:
        for slot in list(live):
            row = next(cursors[slot], None)
            if row is None:
                live.remove(slot)
                continue
            steps = cursors[slot].stats().step_total if measured[slot] else None
            trace.append((slot, row, steps))
    totals = tuple(
        (cursor.stats().step_total, cursor.stats().step_max_gap)
        if measured[slot]
        else None
        for slot, cursor in enumerate(cursors)
    )
    trace.append(("totals", totals, scan.stats().pruned_states))
    return trace


@pytest.fixture(params=["pure"])
def backend(request):
    """The kernel's one intersection backend: bisect over plain int runs.

    These tests ran once more over a numpy ``intersect1d`` fork until it
    was deleted; the surviving half keeps its ``[pure]`` ids.
    """
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

            # Mixed group: every third lane rides unmeasured.
            measured = [index % 3 != 2 for index in range(len(accesses))]
            for kwargs in (
                {},
                {"starts": starts},
                {"prune_after": 2},
                {"starts": starts, "prune_after": 1},
            ):
                kernel_side, reference_side = on_off(
                    lambda: shared_trace(rep, accesses, measured, **kwargs)
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
            lambda: shared_trace(rep, accesses, [True] * len(accesses))
        )
        assert kernel_side == reference_side

    @pytest.mark.parametrize("refine", [True, False])
    def test_decomposed_build_compiles_each_bag_when_its_bits_are_final(
        self, refine, monkeypatch
    ):
        # Algorithm 4 edits nothing: a bag with flips takes a new
        # structure (post-order, so every child a parent probes already
        # answers from its final bits) sharing the built tree columns,
        # index and ids, with new bits and no entry costs. Each bag's
        # layout is compiled once, by its build.
        compiles = []
        compiler = layout_mod.compile_layout
        monkeypatch.setattr(
            layout_mod,
            "compile_layout",
            lambda *args: compiles.append(args) or compiler(*args),
        )
        view = path_view(4)
        db = path_database(4, 40, 10, seed=10)
        rep = DecomposedRepresentation(view, db, refine=refine)
        bags = [bag.representation for bag in rep.bags.values()]
        assert len(compiles) == len(bags)
        edited = [bag for bag in bags if not bag.cuttable]
        assert bool(edited) == refine
        for bag, (_, tree, built) in zip(bags, compiles):
            dictionary = bag.dictionary
            assert bag.compile_layout().tree is tree
            assert dictionary.index is built.index and dictionary.nodes is built.nodes
            assert (dictionary.bits != built.bits) == (bag in edited)
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
                [True] * len(accesses),
                starts=[None, token, None],
            )
        )
        assert kernel_side == reference_side
        sides.append((traces, kernel_side))
    assert sides[0] == sides[1] == sides[2] == sides[3]


# ----------------------------------------------------------------------
# the prefix finger (one descent per unit prefix, per lane)
# ----------------------------------------------------------------------
def finger_vs_spec(rep, access, boxes, measured):
    """Hand-made boxes through ONE finger vs one spec join per box.

    Returns ``(kernel, spec)``: each the rows with the counter reading
    at every row, then the closing total. The order of the boxes is the
    caller's — the finger has to be right for any order, the walk's
    monotone one only makes it cheap.
    """
    layout = rep._layout
    finger = kernel_mod._finger(layout, layout.root_states(access))
    counter = JoinCounter()
    kernel_side = [
        (row, counter.steps)
        for row in kernel_mod._light_rows(
            layout, finger, boxes, counter if measured else None
        )
    ]
    kernel_side.append(counter.steps)
    spec_counter = JoinCounter()
    subtries = spec_subtries(rep.ctx, access)
    spec_side = []
    for box in boxes:
        fbox = FBox([ScalarInterval(low, high) for low, high in box])
        for row in _join_box(rep, access, subtries, fbox, spec_counter):
            spec_side.append((row, spec_counter.steps if measured else 0))
    spec_side.append(spec_counter.steps if measured else 0)
    return kernel_side, spec_side


@pytest.fixture(scope="module")
def fff():
    view = triangle_view("fff")
    db = triangle_database(10, 40, seed=31)
    rep = CompressedRepresentation(view, db, tau=2.0)
    tops = tuple(domain.top for domain in rep.ctx.space.domains)
    return view, db, rep, tops


@pytest.mark.usefixtures("backend")
class TestPrefixFinger:
    """Adversarial box / β sequences through one finger."""

    @pytest.mark.parametrize("measured", [True, False])
    def test_a_memoised_absent_prefix_ends_the_next_box_the_same_way(
        self, fff, measured
    ):
        _, _, rep, tops = fff
        layout = rep._layout
        states = layout.root_states(())
        present = {row[:2] for row in rep.enumerate(())}
        xs = range(tops[0] + 1)
        ys = range(tops[1] + 1)
        # (x, y) joins nothing; x alone may or may not be in R and T.
        absent = [(x, y) for x in xs for y in ys if (x, y) not in present]
        assert absent
        for x, y in absent:
            wide = ((x, x), (y, y), (0, tops[2]))
            narrow = ((x, x), (y, y), (1, max(1, tops[2] - 1)))
            point = ((x, x), (y, y), (0, 0))
            for boxes in (
                [wide, wide],
                [wide, narrow, point],
                [point, wide],
                [((x, x), (0, tops[1]), (0, tops[2])), narrow, wide],
            ):
                kernel_side, spec_side = finger_vs_spec(
                    rep, (), boxes, measured
                )
                assert kernel_side == spec_side, (x, y, boxes)
            # The second visit is answered from the memo, not re-probed.
            finger = kernel_mod._finger(layout, states)
            kernel_mod._light_rows(layout, finger, [wide], None)
            before = list(finger)
            kernel_mod._light_rows(layout, finger, [narrow, wide], None)
            assert all(now is was for now, was in zip(finger, before))

    @pytest.mark.parametrize("measured", [True, False])
    def test_any_box_sequence_equals_one_spec_join_per_box(
        self, fff, measured
    ):
        _, _, rep, tops = fff
        rng = random.Random(5)

        def random_box():
            unit = rng.randrange(4)  # leading unit coordinates (3: a point)
            box = []
            for coordinate, top in enumerate(tops):
                if coordinate < unit:
                    low = high = rng.randint(0, top)
                elif rng.random() < 0.3:
                    low, high = 0, top
                else:
                    low = rng.randint(0, top)
                    high = rng.randint(low, top)
                box.append((low, high))
            return tuple(box)

        for _ in range(60):
            boxes = [random_box() for _ in range(rng.randint(1, 12))]
            # Repeats and returns to an earlier prefix, not only monotone.
            boxes += rng.sample(boxes, k=len(boxes) // 2)
            kernel_side, spec_side = finger_vs_spec(rep, (), boxes, measured)
            assert kernel_side == spec_side, boxes

    def test_beta_points_sharing_and_not_sharing_the_preceding_prefix(
        self, fff
    ):
        _, _, rep, tops = fff
        layout = rep._layout
        space = rep.ctx.space
        rows = set(rep.enumerate(()))
        points = list(
            itertools.product(*(range(top + 1) for top in tops))
        )
        rng = random.Random(9)
        finger = kernel_mod._finger(layout, layout.root_states(()))
        previous = (0, 0, 0)
        for point in rng.sample(points, k=min(300, len(points))):
            # Alternate: a box under the previous point's prefix, a box
            # under this point's, then the β check itself.
            for x, y, _ in (previous, point):
                kernel_mod._light_rows(
                    layout, finger, [((x, x), (y, y), (0, tops[2]))], None
                )
            joined = kernel_mod._point_joins(layout, finger, point)
            assert joined == (space.values(point) in rows), point
            assert joined == spec_beta_matches(rep.ctx, (), space.values(point))
            previous = point

    def test_seeks_that_start_mid_prefix_and_stops_mid_node(self):
        for view, db in (
            (triangle_view("fff"), triangle_database(12, 50, seed=33)),
            (path_view(4, "bffff"), path_database(4, 22, 6, seed=12)),
        ):
            rep = CompressedRepresentation(view, db, tau=2.0)
            for access in oracle_accesses(view, db, limit=3):
                rows = oracle_answer(view, db, access)
                # Seek points between rows: the clipped boxes of the
                # straddled node start in the middle of a unit prefix.
                tokens = [row[:-1] + (row[-1] + 1,) for row in rows[::3]]
                tokens += [row[:1] + (row[1] + 1,) + row[2:] for row in rows[::5]]
                for token in tokens:
                    kernel_side, reference_side = measured_on_off(
                        lambda c: rep.enumerate_from(access, token, counter=c)
                    )
                    assert kernel_side == reference_side, (access, token)
                    assert kernel_side[0] == [r for r in rows if r >= token]
                # Early close and limit stops: the counter reads what the
                # spec's reads after k rows, the walk abandoned mid-node.
                for k in range(0, len(rows) + 1, max(1, len(rows) // 7)):

                    def stopped():
                        counter = JoinCounter()
                        stream = rep.enumerate(access, counter=counter)
                        taken = list(itertools.islice(stream, k))
                        stream.close()
                        cursor = open_cursor(
                            rep,
                            AccessRequest("v", access, limit=k, measure=True),
                        )
                        return [
                            taken,
                            counter.steps,
                            cursor.fetchall(),
                            cursor.stats().step_total,
                        ]

                    kernel_side, reference_side = on_off(stopped)
                    assert kernel_side == reference_side, (access, k)
                    assert kernel_side[0] == rows[:k]

    def test_lanes_never_share_a_finger(self):
        view = path_view(4, "bbfff")
        db = path_database(4, 24, 6, seed=14)
        rep = CompressedRepresentation(view, db, tau=2.0)
        productive = oracle_accesses(view, db, limit=6)
        # Prefix-sharing (same x1), disjoint, duplicate and empty lanes.
        accesses = productive + [
            (productive[0][0], productive[-1][1]),
            productive[0],
            (99, 99),
        ]
        starts = []
        for index, access in enumerate(accesses):
            rows = oracle_answer(view, db, access)
            starts.append(
                rows[(index * len(rows)) // len(accesses)]
                if rows and index % 2
                else None
            )
        solo = []
        for access, start in zip(accesses, starts):
            counter = JoinCounter()
            stream = (
                rep.enumerate(access, counter=counter)
                if start is None
                else rep.enumerate_after(access, start, counter=counter)
            )
            solo.append([(row, counter.steps) for row in stream])
        # The batch's cursors are pulled round-robin, so the lanes' walks
        # interleave row by row over the one layout.
        for prune_after in (None, 1, 4):
            trace = shared_trace(
                rep,
                accesses,
                [True] * len(accesses),
                starts=starts,
                prune_after=prune_after,
            )
            for slot in range(len(accesses)):
                lane = [(row, steps) for s, row, steps in trace[:-1] if s == slot]
                assert lane == solo[slot][:prune_after], slot

    def test_eight_threads_interleave_solo_walks_over_one_layout(self):
        view = triangle_view("bff")
        db = triangle_database(14, 70, seed=35)
        rep = CompressedRepresentation(view, db, tau=2.0)
        layout = rep._layout
        assert layout_mod.CompiledLayout.__slots__ == (
            "tree", "dictionary", "width", "space",
            "domain_values", "atoms", "join_atoms", "participants",
        )
        frozen = {
            name: id(getattr(layout, name))
            for name in layout_mod.CompiledLayout.__slots__
        }
        accesses = oracle_accesses(view, db, limit=8)
        expected = {a: oracle_answer(view, db, a) for a in accesses}
        failures = []

        def hammer(offset):
            try:
                for round_ in range(6):
                    order = accesses[offset:] + accesses[:offset]
                    streams = [
                        (a, kernel_mod.kernel_enumerate(layout, a), [])
                        for a in order
                    ]
                    live = list(streams)
                    while live:  # round-robin: every walk is mid-node
                        for entry in list(live):
                            row = next(entry[1], None)
                            if row is None:
                                live.remove(entry)
                            else:
                                entry[2].append(row)
                    for access, _, rows in streams:
                        if rows != expected[access]:
                            failures.append((offset, round_, access))
            except Exception as error:  # pragma: no cover - the failure
                failures.append((offset, repr(error)))

        threads = [
            threading.Thread(target=hammer, args=(index,)) for index in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-box, not per box
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        # Nothing per-walk was ever written onto the shared layout.
        assert frozen == {
            name: id(getattr(layout, name))
            for name in layout_mod.CompiledLayout.__slots__
        }

    def test_a_full_walk_descends_each_unit_prefix_at_most_once(
        self, monkeypatch
    ):
        descents = []
        real_descend = kernel_mod._descend

        def counting(layout, finger, depth, index):
            prefix = tuple(finger[d + 1][0] for d in range(depth))
            descents.append(prefix + (index,))
            return real_descend(layout, finger, depth, index)

        monkeypatch.setattr(kernel_mod, "_descend", counting)
        for view, db, tau in (
            (triangle_view("fff"), triangle_database(30, 300, seed=11), 8.0),
            (path_view(3, "ffff"), path_database(3, 40, 8, seed=15), 4.0),
        ):
            rep = CompressedRepresentation(view, db, tau=tau)
            tree = rep._layout.tree
            descents.clear()
            rows = list(rep.enumerate(()))
            assert rows == oracle_answer(view, db, ())
            # Algorithm 2's order is monotone: no prefix is ever re-entered.
            assert len(descents) == len(set(descents))
            boxes = sum(len(node_boxes) for node_boxes in tree.boxes)
            betas = sum(point is not None for point in tree.beta)
            assert boxes + betas > 2 * len(rows) > 0
            # One descent per distinct proper prefix, however many boxes
            # and β points sit under it (the parent re-sought every one of
            # them from the trie roots).
            depth = tree.width - 1
            sought = betas * depth + sum(
                min(
                    depth,
                    sum(
                        1
                        for _ in itertools.takewhile(
                            lambda pair: pair[0] == pair[1], box
                        )
                    ),
                )
                for node_boxes in tree.boxes
                for box in node_boxes
            )
            assert 0 < len(descents) < sought / 4, (len(descents), sought)


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


class TestSnapshotCodec:
    @pytest.fixture
    def built(self):
        view = triangle_view("bff")
        db = triangle_database(16, 70, seed=81)
        return view, db, CompressedRepresentation(view, db, tau=4.0)

    def test_v2_round_trip_ships_the_layout(self, built):
        # Since v3 the layout is the one structure section (v4 too).
        view, db, rep = built
        blob = encode_snapshot(rep)
        header = inspect_snapshot(blob)
        assert header["version"] == 4
        state = rep.snapshot_state()
        assert sorted(state["columns"]) == ["byteorder", "dictionary", "tree"]
        assert not {"tree", "dictionary", "layout"} & set(state)
        restored = decode_snapshot(blob)
        assert restored.kernel_ready
        for access in oracle_accesses(view, db, limit=6):
            assert list(restored.enumerate(access)) == list(
                rep.enumerate(access)
            )

    def test_v1_blob_loads_and_recompiles(self, built):
        view, db, rep = built
        # A version-1 blob: node records and triples, no "layout" key in
        # the payload (v1 predates compiled layouts).
        blob = legacy_blob(rep, 1)
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
