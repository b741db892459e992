"""The index-space build held to its spec (``tests/reference_build.py``).

``src/`` builds (T, D) over plain ``((lo, hi), ...)`` boxes with one
evaluator of ``T`` over arrays (:class:`repro.core.cost.BoxCosts`),
shared by the level-synchronous tree pass, Algorithm 1 and the
dictionary pass, one decomposition and one split. The spec is the
object-based transcription it replaced (a recursive tree build costing
one box, one probe at a time). The contract is equality of state, bit
for bit:

* differential, by property — random databases × view shapes × τ ×
  covers: ``snapshot_state()`` of the production build equals that of a
  structure assembled from the spec builders in every key but the wall
  clock, and the dictionary's insertion order (which the layout compiler
  reads) is the same;
* Proposition 8 on every split node, Lemma 1 on every decomposition
  (one interval's rows and a level's arrays), Lemma 2 and Lemma 4 on
  every tree, recomputed by the spec's oracle / by brute force / from
  the proofs' constants;
* the costs a cut filters on, never stored in a state: every stored
  pair's equals the spec's ``T(v_b, I(w))`` bit for bit, a width-5 view
  summing nine boxes included; the three workload views' blobs equal
  the bytes the tree before the dictionary's array pass wrote
  (``tests/data/pr34_v4/``), and two wide views' blobs the bytes the
  recursive tree build wrote (``tests/data/wide_v4/``); ``_box_sums``
  takes either interpreter's branch on any interpreter;
* the build's one join, over arrays (``array_join``): the kernel's
  per-access ``join_rows``, rows and order, on every shape and P₄,
  with accesses some atom lacks, a boolean view, a nullary atom and an
  empty relation; a build calls ``join_rows`` zero times; the stored
  pairs' bits (``nonempty_bits``) are the spec's bisect on a space
  whose Π(top + 1) passes 2⁶³;
* Lemma 4's space half: resident cells within ``c_S · (|D| + Π_F
  |R_F|^{u_F} / τ^α)``, ``c_S`` derived in the test;
* the work bound that motivated the change — no node's boxes costed
  twice, Algorithm 1 within ``µ·(⌈log₂ max|dom|⌉ + 2)`` array steps per
  level and probes per split node, an access's slices resolved once and
  one costing per tree level by the dictionary pass — counted through
  wrapped oracles, so the duplicate work cannot come back unnoticed;
* the depth guard raises and leaves nothing behind, and nothing of a
  build's state survives the build.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import itertools
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference_build import (
    SpecCostModel,
    _nonempty,
    spec_bound_candidates,
    spec_boxes,
    spec_outputs,
    spec_structure,
    spec_subtries,
    spec_tries,
)
from reference_walk import _join_box
from repro.core import balanced_tree as tree_mod
from repro.core import cost as cost_mod
from repro.core import dictionary as dictionary_mod
from repro.core import splitting as split_mod
from repro.core.balanced_tree import build_tree_columns, level_threshold
from repro.core.context import ViewContext
from repro.core.cost import BoxCosts, CostModel, root_slices
from repro.core import kernel as kernel_mod
from repro.core.dictionary import (
    Output,
    array_join,
    bound_candidates,
    build_dictionary,
    decode,
    materialize_outputs,
    nonempty_bits,
)
from repro.core.kernel import join_rows
from repro.core.intervals import box_decomposition
from repro.core.layout import AtomColumns
from repro.core.snapshot import decode_snapshot, encode_snapshot
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.exceptions import ParameterError
from repro.joins.generic_join import JoinCounter
from repro.query.atoms import Variable
from repro.query.parser import parse_view
from repro.query.rewriting import natural_form
from repro.workloads.generators import triangle_database
from repro.workloads.queries import (
    loomis_whitney_view,
    path_view,
    star_view,
    triangle_view,
)

TAUS = (0.5, 1.0, 2.0, 8.0, 64.0, 1e9)

VIEWS = {
    "triangle-bbf": triangle_view("bbf"),
    "triangle-bfb": triangle_view("bfb"),
    "triangle-bff": triangle_view("bff"),
    "triangle-fff": triangle_view("fff"),
    "path3": path_view(3),
    "path3-bfff": path_view(3, "bfff"),
    "star-slack": star_view(3),
    "lw3-bff": loomis_whitney_view(3, "bff"),
    "lw3-fff": loomis_whitney_view(3, "fff"),
    "lw4-bbff": loomis_whitney_view(4, "bbff"),
    "boolean": parse_view("B^bb(x, y) = R(x, y), S(x, y)"),
    "single-bf": parse_view("A^bf(x, y) = R(x, y)"),
    "single-ff": parse_view("A^ff(x, y) = R(x, y)"),
}

#: A width-5 view: its nodes decompose into up to 2·5 − 1 = 9 boxes,
#: where a pairwise sum (numpy's, from 8 terms on) would part from
#: ``sum``'s in the last bit of a cost.
WIDE_VIEWS = {"path5-bfffff": path_view(5, "bfffff")}

#: Views whose normal form has a nullary atom: an all-constant atom holds
#: or fails as a whole (``databases`` draws the constant or its successor).
NULLARY_VIEWS = {
    "nullary-f": parse_view("N^f(x) = R(x), S(3)"),
    "nullary-bff": parse_view("N^bff(x, y, z) = R(x, y), S(y, z), T(2, 5)"),
}

SHAPES = {**VIEWS, **NULLARY_VIEWS}


def covers_of(view):
    """None (the default max-slack cover), all ones, and all ones with
    each atom zeroed in turn wherever that still covers every variable."""
    count = len(view.atoms)
    covers = [None, {label: 1.0 for label in range(count)}]
    for zeroed in range(count):
        others = set()
        for label, atom in enumerate(view.atoms):
            if label != zeroed:
                others.update(atom.variables())
        if others >= set(view.head):
            covers.append(
                {label: float(label != zeroed) for label in range(count)}
            )
    return covers


@st.composite
def databases(draw, view):
    """≤ 40 rows per relation; every variable has its own value range
    (own offset, own size), so index space and value space differ and
    the per-coordinate domains differ in size. A constant's column holds
    the constant or its successor."""
    variables = list(view.head)
    ranges = {}
    for position, variable in enumerate(variables):
        size = draw(st.integers(1, 7))
        offset = 10 * position + draw(st.integers(0, 3))
        ranges[variable] = (offset, offset + size - 1)
    relations = {}
    for atom in view.atoms:
        columns = [
            st.integers(*ranges[term])
            if isinstance(term, Variable)
            else st.integers(term.value, term.value + 1)
            for term in atom.terms
        ]
        rows = draw(st.lists(st.tuples(*columns), max_size=40))
        relations[atom.relation] = Relation(atom.relation, atom.arity, rows)
    return Database(list(relations.values()))


def comparable(state):
    state = dict(state)
    state["stats"] = {
        key: value
        for key, value in state["stats"].items()
        if key != "build_seconds"
    }
    return state


def assert_stored_costs_are_the_specs(rep):
    """Each stored pair's cost — what a cut filters on, never stored in
    a state — is the spec's ``T(v_b, I(w))`` for it, bit for bit."""
    spec = SpecCostModel(rep.ctx, rep.weights, rep.alpha)
    columns, nodes = rep._layout.dictionary, rep.tree.nodes
    assert len(columns.costs) == len(columns)
    for access, (lo, hi) in columns.index.items():
        for node, cost in zip(columns.nodes[lo:hi], columns.costs[lo:hi]):
            expected = spec.access_cost(nodes[node].interval, access)
            assert cost.hex() == expected.hex(), (access, node)


def assert_same_structure(view, db, tau, weights=None):
    built = CompressedRepresentation(view, db, tau=tau, weights=weights)
    spec = spec_structure(view, db, tau, weights=weights)
    assert list(built.dictionary.items()) == list(spec.dictionary.items())
    built_state = comparable(built.snapshot_state())
    spec_state = comparable(spec.snapshot_state())
    for key in built_state:
        assert built_state[key] == spec_state[key], key
    assert_stored_costs_are_the_specs(built)
    return built


# ----------------------------------------------------------------------
# differential: production state == spec state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(VIEWS) + sorted(WIDE_VIEWS))
@given(data=st.data())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_production_build_equals_the_spec_build(name, data):
    view = {**VIEWS, **WIDE_VIEWS}[name]
    db = data.draw(databases(view))
    for weights in covers_of(view):
        for tau in TAUS:
            assert_same_structure(view, db, tau, weights)


def dense_path_database(length, size, keep):
    """Binary relations over ``range(size)`` holding each pair ``(a, b)``
    with ``(a·7 + b·3 + position) % keep`` non-zero — dense, irregular."""
    return Database(
        [
            Relation(
                f"R{position}",
                2,
                [
                    (a, b)
                    for a in range(size)
                    for b in range(size)
                    if (a * 7 + b * 3 + position) % keep
                ],
            )
            for position in range(1, length + 1)
        ]
    )


def test_the_wide_view_sums_nine_boxes_as_the_spec_does():
    # The property above draws small databases; this one is dense
    # enough that stored pairs sum 2·5 − 1 = 9 box costs — under the
    # default cover half of them to another last bit than a pairwise
    # sum would give.
    view = WIDE_VIEWS["path5-bfffff"]
    db = dense_path_database(5, 4, 3)
    for weights in covers_of(view):
        built = assert_same_structure(view, db, 1.0, weights)
        columns = built._layout.dictionary
        assert any(len(built.tree.boxes[node]) == 9 for node in columns.nodes)


def plain_sum(values):
    """``sum`` of floats before CPython 3.12: left to right."""
    total = 0.0
    for value in values:
        total += value
    return total


def neumaier_sum(values):
    """``sum`` of floats from CPython 3.12 on, transcribed from
    ``builtin_sum_impl``: the first term starts the total (``0 + x``),
    each later one adds with Neumaier's compensation, and the
    compensation joins the total only when it is non-zero and finite."""
    values = iter(values)
    total, compensation = 0 + next(values, 0.0), 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_the_wide_view_sums_as_the_other_interpreters_do():
    # The spec sums with the running interpreter's ``sum``, so the test
    # above holds only the pass's branch for it. The other branch, on
    # the same nine-box pairs: each stored cost is the spec's box costs
    # added as ``sum`` adds them on the other side of CPython 3.12.
    view = WIDE_VIEWS["path5-bfffff"]
    compensated = not cost_mod._COMPENSATED_SUM
    add = neumaier_sum if compensated else plain_sum
    with mock.patch.object(cost_mod, "_COMPENSATED_SUM", compensated):
        built = CompressedRepresentation(view, dense_path_database(5, 4, 3), 1.0)
    spec = SpecCostModel(built.ctx, built.weights, built.alpha)
    columns, nodes, wide = built._layout.dictionary, built.tree.nodes, 0
    for access, (lo, hi) in columns.index.items():
        subtries = spec_subtries(built.ctx, access)
        for node, cost in zip(columns.nodes[lo:hi], columns.costs[lo:hi]):
            boxes = spec.boxes_of(nodes[node].interval)
            wide += len(boxes) == 9
            expected = add([spec.box_cost(box, subtries) for box in boxes])
            assert cost.hex() == expected.hex(), (access, node)
    assert wide


def empty_databases(view):
    """Every relation empty (so every domain and the tuple space), and
    only the first empty (an empty join over a live space)."""
    relations = {atom.relation: atom.arity for atom in view.atoms}
    empty = Database([Relation(n, a, []) for n, a in relations.items()])
    first = view.atoms[0].relation
    partial = Database(
        [
            Relation(n, a, [] if n == first else [tuple(range(a))])
            for n, a in relations.items()
        ]
    )
    return empty, partial


@pytest.mark.parametrize("name", sorted(VIEWS) + sorted(NULLARY_VIEWS))
def test_empty_relations_and_an_empty_tuple_space(name):
    view = {**VIEWS, **NULLARY_VIEWS}[name]
    for db in empty_databases(view):
        for tau in (0.5, 8.0):
            built = assert_same_structure(view, db, tau)
            assert len(built.dictionary) == 0


@pytest.mark.parametrize("name", sorted(NULLARY_VIEWS))
@given(data=st.data())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_nullary_atoms_equal_the_spec(name, data):
    # The nullary atom's relation is {()} or empty: the answer is the
    # rest's join or nothing, and the build's outputs say so.
    view = NULLARY_VIEWS[name]
    db = data.draw(databases(view))
    for weights in covers_of(view):
        for tau in (0.5, 8.0, 1e9):
            assert_same_structure(view, db, tau, weights)


def test_the_scan_workloads_registrations_equal_the_spec():
    # benchmarks/e2e scan_stream / scan_measured on seed 11, as registered.
    db = triangle_database(80, 1600, seed=11)
    for pattern in ("bff", "fff"):
        assert_same_structure(triangle_view(pattern), db, 8.0)


RECORDED = Path(__file__).parent / "data" / "pr34_v4"


@pytest.mark.parametrize(
    "blob, nodes, edges, tau, weights",
    [
        ("dynamic_mixed_bbf_tau8.snap", 30, 600, 8.0, None),
        (
            "point_lookup_bbf.snap",
            120,
            4000,
            12.649110640673532,
            {0: 0.49999999999999983, 1: 0.5000000000000002, 2: 0.5000000000000002},
        ),
        ("tau_churn_bbf_tau2.snap", 60, 900, 2.0, None),
    ],
)
def test_a_fresh_build_encodes_to_the_recorded_bytes(blob, nodes, edges, tau, weights):
    # The three workload views, as the tree before the array pass wrote
    # them (tests/data/pr34_v4/README.md): every float the same bits.
    db = triangle_database(nodes, edges, seed=11)
    rep = CompressedRepresentation(triangle_view("bbf"), db, tau, weights=weights)
    assert pinned_blob(rep) == (RECORDED / blob).read_bytes()


WIDE_RECORDED = Path(__file__).parent / "data" / "wide_v4"


@pytest.mark.parametrize("pattern", ["bff", "fff"])
def test_a_fresh_wide_build_encodes_to_the_recorded_bytes(pattern):
    # Width 2 and 3 (tests/data/wide_v4/README.md): multi-box sums and
    # splits refined over several coordinates, every float and every
    # split point as the recursive tree build wrote them.
    db = triangle_database(30, 300, seed=11)
    rep = CompressedRepresentation(triangle_view(pattern), db, 8.0)
    assert any(len(boxes) > 1 for boxes in rep.tree.boxes)
    recorded = (WIDE_RECORDED / f"triangle_{pattern}_tau8.snap").read_bytes()
    assert pinned_blob(rep) == recorded


@pytest.mark.parametrize("compensated", [False, True])
@given(
    st.lists(
        st.lists(
            st.one_of(
                st.floats(0.0, 1e12, allow_nan=False),
                st.integers(0, 60).map(lambda n: float(n) ** 0.5),
            ),
            min_size=1,
            max_size=12,
        ),
        max_size=6,
    )
)
@settings(max_examples=200, deadline=None)
def test_box_sums_add_as_the_builtin_sum_does(compensated, lists):
    # Left to right as CPython before 3.12 adds, or with its Neumaier
    # compensation from 3.12 on — transcribed here, and the running
    # interpreter's own sum held to whichever branch it takes.
    sums = box_sums_of(lists, compensated)
    expected = neumaier_sum if compensated else plain_sum
    assert [value.hex() for value in sums] == [expected(v).hex() for v in lists]
    if compensated == cost_mod._COMPENSATED_SUM:
        assert [value.hex() for value in sums] == [sum(v).hex() for v in lists]


def box_sums_of(lists, compensated):
    """``_box_sums`` of one owner per list, its branch patched in."""
    pair = np.array(
        [p for p, values in enumerate(lists) for _ in values], dtype=np.int64
    )
    position = np.array(
        [k for values in lists for k in range(len(values))], dtype=np.int64
    )
    cost = np.array([value for values in lists for value in values], dtype=float)
    with mock.patch.object(cost_mod, "_COMPENSATED_SUM", compensated):
        return cost_mod._box_sums(len(lists), pair, position, cost).tolist()


#: Sums the two branches round apart: terms cancelling round small
#: ones, which plain left-to-right addition loses and Neumaier's
#: compensation keeps.
CANCELLATION = [
    [1e16, 1.0, -1e16],
    [1.0, 1e100, 1.0, -1e100],
    [0.1] * 10,
    [1e16, 1.0, 1.0, 1.0, 1.0],
    [-1e16, 3.0, 1e16, 0.5],
]


@pytest.mark.parametrize("compensated", [False, True])
@given(
    st.lists(
        st.lists(st.floats(-1e15, 1e15, allow_nan=False), min_size=1, max_size=12),
        max_size=6,
    )
)
@settings(max_examples=100, deadline=None)
def test_box_sums_take_either_branch_on_any_interpreter(compensated, lists):
    # ``_COMPENSATED_SUM`` follows the interpreter, so a run of the
    # build exercises one branch. Patched both ways, each branch is its
    # transcription — on signed terms too, and on sums where the two
    # branches part, so a branch that took the other's arithmetic fails.
    assert all(plain_sum(v) != neumaier_sum(v) for v in CANCELLATION)
    lists = CANCELLATION + lists
    sums = box_sums_of(lists, compensated)
    expected = neumaier_sum if compensated else plain_sum
    assert [value.hex() for value in sums] == [expected(v).hex() for v in lists]


# ----------------------------------------------------------------------
# the build's joins and cell count: index space == the value-space spec
# ----------------------------------------------------------------------


def in_index_space(columns):
    """``columns`` with the identity for a decode: rows of indexes."""
    indexed = copy.copy(columns)
    indexed.domain_values = tuple(range(len(v)) for v in columns.domain_values)
    return indexed


def spec_interval(rep, access, interval, counter):
    """The value-space ``enumerate_interval``: one trie join per box."""
    subtries = spec_subtries(rep.ctx, access)
    if None in subtries:
        return
    for box in spec_boxes(interval, rep.ctx.space):
        yield from _join_box(rep, access, subtries, box, counter)


@pytest.mark.parametrize("name", sorted(SHAPES))
@given(data=st.data())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_the_index_space_joins_equal_the_value_space_spec(name, data):
    # Proposition 13's candidates, the materialised output and Algorithm
    # 4's interval scan, on the kernel's join over the context's columns,
    # against generic_join over test-side tries: the same rows in the
    # same order, and the scan's steps the same at every row.
    view = SHAPES[name]
    rep = CompressedRepresentation(view, data.draw(databases(view)), tau=1.0)
    ctx = rep.ctx
    candidates = bound_candidates(ctx)
    assert candidates == spec_bound_candidates(ctx)
    outputs = materialize_outputs(in_index_space(ctx.columns()), candidates)
    assert outputs == spec_outputs(ctx)
    accesses = candidates[:5] + [(-1,) * len(ctx.bound_order)]
    for node in rep.tree.nodes[:8]:
        for access in accesses:
            kernel, spec = JoinCounter(), JoinCounter()
            assert [
                (row, kernel.steps)
                for row in rep.enumerate_interval(access, node.interval, kernel)
            ] == [
                (row, spec.steps)
                for row in spec_interval(rep, access, node.interval, spec)
            ]
            assert kernel.steps == spec.steps


#: The shapes the array join is held to: the fifteen above and P₄ with
#: both endpoints bound.
JOIN_SHAPES = {**SHAPES, "path4-bfffb": path_view(4)}


def assert_the_kernels_join(columns, accesses):
    """``array_join`` under ``accesses`` is the kernel's ``join_rows``
    over the whole space, one access after another: the same rows in the
    same order, each owned by its access. Returns the output."""
    output = array_join(columns, accesses)
    indexed = in_index_space(columns)
    whole = [tuple((0, domain.top) for domain in columns.space.domains)]
    expected = [
        (position, row)
        for position, access in enumerate(accesses)
        for row in join_rows(indexed, access, whole)
    ]
    assert list(zip(output.owner.tolist(), decode(indexed, output))) == expected
    # Some atom constrains every coordinate (a head variable occurs in
    # the body), so no view's columns reach the kernel's branch for a
    # coordinate without participants.
    assert all(columns.participants)
    return output


@pytest.mark.parametrize("name", sorted(JOIN_SHAPES))
@given(data=st.data())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_the_array_join_is_the_kernels_join_access_by_access(name, data):
    # Proposition 13's candidate join and the output join, against the
    # kernel's per-access join_rows and the value-space spec; accesses
    # some atom lacks, first, last and between, join to nothing.
    view = JOIN_SHAPES[name]
    ctx = ViewContext(*natural_form(view, data.draw(databases(view))))
    assert_the_kernels_join(ctx.bound_columns(), [()])
    candidates = bound_candidates(ctx)
    lacking = [(-1,) * len(ctx.bound_order)] if ctx.bound_order else []
    middle = len(candidates) // 2
    accesses = lacking + candidates[:middle] + lacking + candidates[middle:] + lacking
    assert_the_kernels_join(ctx.columns(), accesses)
    indexed = in_index_space(ctx.columns())
    assert materialize_outputs(indexed, candidates) == spec_outputs(ctx)


def test_the_array_join_on_the_edge_shapes():
    # A boolean (width-0) view: one empty row per access every atom has.
    boolean = parse_view("B^bb(x, y) = R(x, y), S(x, y)")
    db = Database([Relation("R", 2, [(1, 2), (3, 4)]), Relation("S", 2, [(1, 2)])])
    ctx = ViewContext(*natural_form(boolean, db))
    output = assert_the_kernels_join(ctx.columns(), [(1, 2), (3, 4), (5, 6)])
    assert output.owner.tolist() == [0] and output.columns == ()
    # A nullary atom holds or fails as a whole; an empty relation leaves
    # no access live.
    nullary = NULLARY_VIEWS["nullary-f"]
    for s_rows, rows in (([(3,)], 2), ([(4,)], 0), ([], 0)):
        db = Database([Relation("R", 1, [(1,), (2,)]), Relation("S", 1, s_rows)])
        ctx = ViewContext(*natural_form(nullary, db))
        output = assert_the_kernels_join(ctx.columns(), [()])
        assert len(output.owner) == rows
    # An access two atoms have and the third lacks: T has no x = 1.
    view = triangle_view("bbf")
    db = Database(
        [
            Relation("R", 2, [(1, 2), (4, 2)]),
            Relation("S", 2, [(2, 3)]),
            Relation("T", 2, [(3, 4)]),
        ]
    )
    ctx = ViewContext(*natural_form(view, db))
    assert bound_candidates(ctx) == [(4, 2)]
    output = assert_the_kernels_join(ctx.columns(), [(1, 2), (4, 2)])
    assert output.owner.tolist() == [1]


def test_a_build_calls_the_kernels_join_zero_times(monkeypatch):
    # The build has one join, over arrays; the kernel's join_rows is the
    # read path's (enumerate_interval), and a spy on it sees a read.
    calls, real = [], kernel_mod.join_rows

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "join_rows", None) is real:
            monkeypatch.setattr(module, "join_rows", counting)
    db = triangle_database(20, 120, seed=3)
    for pattern in ("bbb", "fff", "bbf", "bff"):
        for tau in (0.5, 8.0):
            rep = CompressedRepresentation(triangle_view(pattern), db, tau=tau)
    assert calls == []
    access = bound_candidates(rep.ctx)[0]
    assert list(rep.enumerate_interval(access, rep.tree.root.interval))
    assert calls == [access]


@st.composite
def wide_outputs(draw):
    """Sorted output rows over four coordinates of 2⁴⁰ indexes each,
    and query intervals over them. Indexes come from a few values, so
    queries land on rows as often as between them."""
    top = 2**40 - 1
    index = st.sampled_from((0, 1, 2**20, 2**33, top - 1, top))
    point = st.tuples(index, index, index, index)
    rows = sorted(
        set(draw(st.lists(st.tuples(st.integers(0, 3), point), max_size=30)))
    )
    queries = []
    for _ in range(draw(st.integers(1, 30))):
        low, high = sorted((draw(point), draw(point)))
        queries.append((draw(st.integers(0, 4)), low, high))
    return (top,) * 4, rows, queries


@given(wide_outputs())
@settings(max_examples=200, deadline=None)
def test_the_bits_on_a_space_too_wide_for_int64(case):
    # Π(top + 1) over the coordinates, times the accesses, is far past
    # 2⁶³: a rank of whole tuples in one int64 would wrap. Every bit is
    # still the spec's bisect into the owner's sorted rows.
    tops, rows, queries = case
    assert math.prod(top + 1 for top in tops) * 5 > 2**63
    owners = np.array([owner for owner, _ in rows], dtype=np.int64)
    columns = tuple(
        np.array(column, dtype=np.int64).reshape(len(rows))
        for column in zip(*(row for _, row in rows))
    ) or tuple(np.zeros(0, dtype=np.int64) for _ in tops)
    owner, low, high = zip(*queries)
    bits = nonempty_bits(
        Output(owners, columns, []),
        tops,
        np.array(owner),
        np.array(low, dtype=np.int64),
        np.array(high, dtype=np.int64),
    )
    groups = {}
    for access, row in rows:
        groups.setdefault(access, []).append(row)
    assert bits.tolist() == [
        _nonempty(groups.get(access, []), lo, hi) for access, lo, hi in queries
    ]


@pytest.mark.parametrize("name", sorted(SHAPES))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_index_cells_are_the_edges_of_the_spec_tries(name, data):
    # What the cache charges for the |D| term: the edges of a trie per
    # access path, an atom without a bound variable counted twice —
    # counted from the rows, equal to the tries' own count.
    view = SHAPES[name]
    ctx = ViewContext(*natural_form(view, data.draw(databases(view))))
    assert ctx.index_cells() == sum(
        trie.cells() + free.cells() for trie, free in spec_tries(ctx)
    )


# ----------------------------------------------------------------------
# τ is a cut: the structure at a higher τ, cut from a lower one's columns,
# is the direct build — state and blob
# ----------------------------------------------------------------------
def pinned_blob(rep):
    """``encode_snapshot`` bytes with the one wall-clock reading pinned."""
    pinned = copy.copy(rep)
    pinned.stats = dataclasses.replace(rep.stats, build_seconds=0.0)
    return encode_snapshot(pinned)


def flat_dictionary(rep):
    """``index``, ``nodes`` and ``bits`` of a structure's dictionary columns."""
    dictionary = rep.dictionary
    return dictionary.index, dictionary.nodes, dictionary.bits


def assert_cuts_are_direct_builds(view, db, weights=None):
    """Every τ ≥ every base τ of ``TAUS``, cut once and cut step by step."""
    direct = {
        tau: CompressedRepresentation(view, db, tau=tau, weights=weights)
        for tau in TAUS
    }
    expected = {
        tau: (comparable(rep.snapshot_state()), pinned_blob(rep))
        for tau, rep in direct.items()
    }
    # The dictionary's one flat form, built, cut and decoded alike.
    flats = {tau: flat_dictionary(rep) for tau, rep in direct.items()}
    for tau, rep in direct.items():
        assert flat_dictionary(decode_snapshot(expected[tau][1])) == flats[tau]
    for low, base in direct.items():
        chained = base
        for tau in (tau for tau in TAUS if tau >= low):
            chained = chained.cut(tau)  # a cut of a cut of ...
            for cut in (base.cut(tau), chained):
                state = comparable(cut.snapshot_state())
                assert (state, pinned_blob(cut)) == expected[tau], (low, tau)
                assert flat_dictionary(cut) == flats[tau], (low, tau)


@pytest.mark.parametrize("name", sorted(SHAPES))
@given(data=st.data())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_a_cut_equals_a_direct_build(name, data):
    view = SHAPES[name]
    db = data.draw(databases(view))
    for weights in covers_of(view):
        assert_cuts_are_direct_builds(view, db, weights)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_a_cut_of_an_empty_join_or_space_is_a_direct_build(name):
    for db in empty_databases(SHAPES[name]):
        assert_cuts_are_direct_builds(SHAPES[name], db)


def test_a_cut_drops_nodes_and_entries_above_the_base():
    # The property above would pass on a ladder where nothing moves.
    view = triangle_view("bff")
    base = CompressedRepresentation(view, triangle_database(30, 300, 7), 1.0)
    cut = base.cut(64.0)
    assert cut.stats.tree_nodes < base.stats.tree_nodes
    assert 0 < cut.stats.dictionary_entries < base.stats.dictionary_entries
    assert cut.stats.output_tuples == base.stats.output_tuples
    assert cut.ctx is base.ctx and cut.weights == base.weights
    # Endpoints, β points and boxes are the base's objects.
    kept = {id(box) for box in base._layout.tree.boxes}
    assert all(id(box) in kept for box in cut._layout.tree.boxes)


def test_only_a_freshly_built_structure_is_cut_and_only_upward():
    view = triangle_view("bbf")
    built = CompressedRepresentation(view, triangle_database(20, 120, 3), 2.0)
    with pytest.raises(ParameterError, match="only raises tau"):
        built.cut(1.0)
    # Decoded (also from a v2 blob of another age): no entry costs.
    legacy = Path(__file__).parent / "data" / "pr18_tiny_bbf_tau1.snap"
    for decoded in (
        decode_snapshot(encode_snapshot(built)),
        decode_snapshot(legacy.read_bytes()),
    ):
        assert decoded._layout.dictionary.costs is None
        with pytest.raises(ParameterError, match="decoded or refined"):
            decoded.cut(4.0)
    # Refined (Algorithm 4's new bits): the costs are gone too.
    assert built.cut(4.0).stats.tau == 4.0
    refined = built.with_bits(bytes(len(built.dictionary)))
    assert not refined.cuttable and built.cuttable
    with pytest.raises(ParameterError, match="decoded or refined"):
        refined.cut(4.0)


# ----------------------------------------------------------------------
# the cost evaluation alone, on accesses a build never sees
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["triangle-bbf", "triangle-bfb", "path3", "star-slack"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_access_costs_equal_the_spec_for_any_access(name, data):
    # A build only costs candidates (present in every atom); the pass's
    # array step takes any access — absent in one atom, absent in an
    # atom whose exponent is 0 — and must agree with the spec there too.
    view = VIEWS[name]
    db = data.draw(databases(view))
    ctx = ViewContext(view, db)
    if ctx.space.is_empty():
        return
    accesses = list(
        itertools.islice(
            itertools.product(
                *[
                    ctx.bound_domains[v].values + (-1,)
                    for v in ctx.bound_order
                ]
            ),
            60,
        )
    )
    for weights in covers_of(view)[1:]:
        model = CostModel(ctx, weights, alpha=1.0)
        spec = SpecCostModel(ctx, weights, alpha=1.0)
        columns, _ = build_tree_columns(model, 1.0, 1.0)
        tree = tree_mod.DelayBalancedTree.from_columns(columns, 1.0, 1.0)
        nodes = tree.nodes[:12]
        evaluator = model.evaluator(
            accesses, root_slices(ctx.columns().atoms, accesses)
        )
        owner = np.repeat(evaluator.live, len(nodes))
        ids = np.array([n.id for n in nodes], dtype=np.int64)
        node = np.tile(ids, len(evaluator.live))
        costs = dictionary_mod.TreeBoxes(columns, evaluator)(owner, node)
        for n in nodes:
            assert model.interval_cost(n.interval) == n.cost
            assert spec.interval_cost(n.interval) == n.cost
        for i, j, cost in zip(owner.tolist(), node.tolist(), costs.tolist()):
            expected = spec.access_cost(tree.nodes[j].interval, accesses[i])
            assert cost.hex() == expected.hex(), (accesses[i], j)
        # An access some factor atom lacks is never costed: it costs 0.
        dead = set(range(len(accesses))) - set(evaluator.live.tolist())
        for i in dead:
            for n in nodes:
                assert spec.access_cost(n.interval, accesses[i]) == 0.0


# ----------------------------------------------------------------------
# Proposition 8 and Lemma 1
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["triangle-fff", "triangle-bff", "path3", "lw4-bbff"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_proposition8_holds_on_every_split_node(name, data):
    view = VIEWS[name]
    db = data.draw(databases(view))
    built = CompressedRepresentation(view, db, tau=0.5)
    spec = SpecCostModel(built.ctx, built.weights, built.alpha)
    space = built.ctx.space
    for node in built.tree.nodes:
        if node.beta is None:
            continue
        assert node.interval.contains(node.beta)
        total = spec.interval_cost(node.interval)
        assert total == node.cost
        bound = total / 2 + 1e-9 * max(1.0, total)
        left, right = node.interval.split_at(space, node.beta)
        if left is not None:
            assert spec.interval_cost(left) <= bound
        if right is not None:
            assert spec.interval_cost(right) <= bound


# ----------------------------------------------------------------------
# Lemma 2 and Lemma 4 on every tree built
# ----------------------------------------------------------------------
def lemma4_slack(cost):
    """Lemma 4(1)'s ε for a parent costing ``cost``. Algorithm 1
    compares costs with the absolute slack ``splitting._EPS``, and a
    child's cost and its parent's are sums of at most 2µ − 1 ≤ 9 box
    costs, each add off by at most 2⁻⁵³ of the sum: 2⁻⁴⁶ (128 · 2⁻⁵³)
    of the parent's cost covers them."""
    return split_mod._EPS + 2.0**-46 * cost


#: Lemma 4(2)'s constant. Let P = Π_F |R_F|^{u_F} and K = P / τ^α. The
#: root costs at most P^{1/α} (Lemma 2 over its boxes), and each split
#: halves the cost (Lemma 4(1)), so a node at level ℓ costs at most
#: P^{1/α} / 2^ℓ; it splits only if it costs at least τ_ℓ = τ / 2^{ℓ(1 −
#: 1/α)}, hence 2^ℓ ≤ K. Level ℓ holds at most 2^ℓ nodes, so there are
#: at most 2K − 1 split nodes, and every other node is the root or a
#: child of one: |T| ≤ 1 + 2(2K − 1) < 4K — or |T| ≤ 1 when K < 1.
C_T = 4


@pytest.mark.parametrize("name", sorted(SHAPES))
@given(data=st.data())
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_lemma2_and_lemma4_hold_on_every_tree(name, data):
    view = SHAPES[name]
    db = data.draw(databases(view))
    for weights in covers_of(view):
        for tau in (0.5, 2.0, 8.0):
            rep = CompressedRepresentation(view, db, tau=tau, weights=weights)
            tree, alpha = rep.tree, rep.alpha
            for node in tree.nodes:
                for child in (node.left, node.right):
                    if child is not None:
                        # Lemma 2: costs never grow toward the leaves.
                        assert child.cost <= node.cost
                        # Lemma 4(1): a split halves the cost, up to ε.
                        assert child.cost <= node.cost / 2 + lemma4_slack(node.cost)
            # Every stored pair is heavy at its node's level.
            columns = rep._layout.dictionary
            for node, cost in zip(columns.nodes, columns.costs):
                assert cost > level_threshold(tau, alpha, tree.nodes[node].level)
            if math.isinf(alpha):
                # No free variable: the one-point space is one leaf.
                assert len(tree) <= 1
                continue
            product = math.prod(
                len(binding.relation.rows) ** rep.weights[binding.label]
                for binding in rep.ctx.atoms
            )
            if tree.root is not None:
                assert tree.root.cost <= product ** (1 / alpha) * (1 + 1e-12)
            # Lemma 4(2).
            assert len(tree) <= max(1.0, C_T * product / tau**alpha)


def space_constant(rep) -> float:
    """Lemma 4's space half: ``c_S`` with cells ≤ c_S · (|D| + K).

    ``K = P / τ^α`` and ``P = Π_F |R_F|^{u_F}``. Resident cells are the
    |D| input tuples, the index, the tree and the dictionary:

    * the index is a trie per access path, two paths per atom, and a
      row adds at most ``arity`` edges to a trie: ≤ 2a·|D| cells, ``a``
      the largest arity;
    * the tree holds at most ``C_T · K`` nodes (Lemma 4(2));
    * a pair ``(v_b, w)`` is stored at level ℓ only if ``T(v_b, I(w))
      > τ_ℓ``, so one of I(w)'s ``m ≤ 2µ − 1`` boxes has ``T(v_b, B) >
      τ_ℓ / m``. As ``u`` covers the bound variables, ``Σ_{v_b} T(v_b,
      B)^α ≤ T(B)^α`` (the query decomposition lemma), and ``Σ_B T(B)^α
      ≤ T(I(w))^α``: at most ``m^α · T(I(w))^α / τ_ℓ^α`` valuations are
      heavy at ``w``. With ``T(I(w)) ≤ P^{1/α} / 2^ℓ`` (see ``C_T``) and
      ``τ_ℓ = τ / 2^{ℓ(1 − 1/α)}`` that is ``m^α · K / 2^ℓ``, and level
      ℓ's at most 2^ℓ nodes hold at most ``m^α · K`` pairs.

    Over the tree's L + 1 levels, ``c_S = max(1 + 2a, C_T + (2µ − 1)^α
    · (L + 1))``: the log factor Theorem 1's Õ hides, as ``L ≤ log₂ K +
    1`` (a node splits at level ℓ only while 2^ℓ < K).
    """
    arity = max(atom.arity for atom in rep.view.atoms)
    boxes = max(1, 2 * len(rep.ctx.free_order) - 1)
    return max(1 + 2 * arity, C_T + boxes**rep.alpha * (rep.tree.depth() + 1))


@pytest.mark.parametrize("name", sorted(SHAPES))
@given(data=st.data())
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_lemma4s_space_half_holds_on_every_structure(name, data):
    view = SHAPES[name]
    db = data.draw(databases(view))
    for weights in covers_of(view):
        for tau in (0.5, 2.0, 8.0):
            rep = CompressedRepresentation(view, db, tau=tau, weights=weights)
            report = rep.space_report()
            size = report.base_tuples
            product = math.prod(
                len(binding.relation.rows) ** rep.weights[binding.label]
                for binding in rep.ctx.atoms
            )
            arity = max(atom.arity for atom in rep.view.atoms)
            assert report.index_cells <= 2 * arity * size
            if math.isinf(rep.alpha):
                # No free variable: one node at most, and a pair per
                # valuation of the bound join — at most P of them (AGM).
                assert report.total_cells <= (1 + 2 * arity) * size + 1 + product
                continue
            budget = product / tau**rep.alpha
            boxes = max(1, 2 * len(rep.ctx.free_order) - 1)
            levels = rep.tree.depth() + 1
            assert report.dictionary_entries <= boxes**rep.alpha * budget * levels
            assert report.total_cells <= space_constant(rep) * (size + budget)


@st.composite
def intervals(draw, sizes=None):
    if sizes is None:
        sizes = draw(st.lists(st.integers(1, 4), min_size=0, max_size=4))
    low = tuple(draw(st.integers(0, size - 1)) for size in sizes)
    high = tuple(draw(st.integers(0, size - 1)) for size in sizes)
    if low > high:
        low, high = high, low
    return tuple(size - 1 for size in sizes), low, high


@given(intervals())
@settings(max_examples=300, deadline=None)
def test_lemma1_holds_on_the_row_decomposition(case):
    tops, low, high = case
    width = len(tops)
    boxes = box_decomposition(low, high, tops)
    assert len(boxes) <= max(1, 2 * width - 1)
    covered = []
    for box in boxes:
        assert len(box) == width
        # Canonical: unit prefix, one range, then whole domains.
        depth = 0
        while depth < width and box[depth][0] == box[depth][1]:
            depth += 1
        for coordinate in range(depth + 1, width):
            assert box[coordinate] == (0, tops[coordinate])
        assert all(lo <= hi for lo, hi in box)  # non-empty
        covered.extend(
            itertools.product(*[range(lo, hi + 1) for lo, hi in box])
        )
    # Ordered, disjoint, and their union is exactly the interval.
    assert covered == sorted(set(covered))
    every = itertools.product(*[range(top + 1) for top in tops])
    assert covered == [point for point in every if low <= point <= high]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lemma1_holds_on_the_array_decomposition(data):
    # The tree pass decomposes a whole level's intervals at once: the
    # very rows box_decomposition gives, interval after interval, with
    # each box's range coordinate.
    sizes = [top + 1 for top in data.draw(intervals())[0]]
    cases = [data.draw(intervals(sizes)) for _ in range(data.draw(st.integers(1, 6)))]
    tops = cases[0][0]
    width, array = len(tops), np.array
    low = array([case[1] for case in cases], np.int64).reshape(len(cases), width)
    high = array([case[2] for case in cases], np.int64).reshape(len(cases), width)
    boxes = cost_mod.decompose(low, high, array(tops, np.int64))
    expected = [box_decomposition(low, high, tops) for _, low, high in cases]
    assert boxes.owner.tolist() == [i for i, b in enumerate(expected) for _ in b]
    assert boxes.position.tolist() == [k for b in expected for k in range(len(b))]
    rows = [tuple(map(tuple, row)) for row in boxes.rows.tolist()]
    assert rows == [box for b in expected for box in b]
    for row, depth in zip(rows, boxes.depth.tolist()):
        assert all(lo == hi for lo, hi in row[:depth])
        assert all(pair == (0, tops[c]) for c, pair in enumerate(row) if c > depth)


# ----------------------------------------------------------------------
# the depth guard
# ----------------------------------------------------------------------
def test_the_depth_guard_raises_and_leaves_nothing_behind(monkeypatch):
    view = triangle_view("fff")
    db = triangle_database(15, 80, seed=5)
    ctx = ViewContext(view, db)
    weights, alpha = ctx.default_cover()
    model = CostModel(ctx, weights, alpha)
    ctx.count_columns()  # what every build over the context compiles first

    def state():
        return list(vars(ctx).items()) + list(vars(model).items())

    before = state()
    monkeypatch.setattr(tree_mod, "_MAX_DEPTH", 2)
    with pytest.raises(ParameterError, match="depth guard"):
        build_tree_columns(model, 0.5, alpha)
    with pytest.raises(ParameterError, match="depth guard"):
        CompressedRepresentation(view, db, tau=0.5, context=ctx)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, BoxCosts)]
    after = state()
    assert [name for name, _ in after] == [name for name, _ in before]
    assert all(a is b for (_, a), (_, b) in zip(after, before))
    monkeypatch.undo()
    built = CompressedRepresentation(view, db, tau=0.5, context=ctx)
    assert built.stats.tree_depth > 2
    assert comparable(built.snapshot_state()) == comparable(
        spec_structure(view, db, 0.5, context=ctx).snapshot_state()
    )


# ----------------------------------------------------------------------
# the work bound, counted through wrapped oracles
# ----------------------------------------------------------------------
def test_no_box_is_costed_twice_and_a_split_stays_within_its_probe_budget(
    monkeypatch,
):
    view = triangle_view("bff")
    db = triangle_database(30, 300, seed=7)
    ctx = ViewContext(view, db)
    weights, alpha = ctx.default_cover()
    model = CostModel(ctx, weights, alpha)
    width = ctx.space.width
    budget = width * (
        math.ceil(math.log2(max(len(d) for d in ctx.space.domains))) + 2
    )

    decomposed, costed, per_level, per_split = [], [], [], []
    splitting = [False]
    real_decompose = cost_mod.decompose
    real_box_costs = BoxCosts.box_costs
    real_counter = BoxCosts.counter
    real_split = tree_mod.split_points

    def counting_decompose(low, high, tops):
        boxes = real_decompose(low, high, tops)
        decomposed.append((len(low), len(boxes.owner)))
        return boxes

    def counting_box_costs(self, owner, rows, depth):
        costed.append(len(owner))
        return real_box_costs(self, owner, rows, depth)

    def counting_counter(self, slices, absent, coordinate, at, low):
        count = real_counter(self, slices, absent, coordinate, at, low)

        def counting(which, high):
            if splitting[0]:
                per_level[-1] += 1
                np.add.at(per_split[-1], at[which], 1)
            return count(which, high)

        return counting

    def counting_split(costs, boxes, box_costs, totals):
        per_level.append(0)
        per_split.append(np.zeros(len(totals), dtype=np.int64))
        splitting[0] = True
        try:
            return real_split(costs, boxes, box_costs, totals)
        finally:
            splitting[0] = False

    monkeypatch.setattr(cost_mod, "decompose", counting_decompose)
    monkeypatch.setattr(tree_mod, "split_points", counting_split)
    monkeypatch.setattr(BoxCosts, "box_costs", counting_box_costs)
    monkeypatch.setattr(BoxCosts, "counter", counting_counter)
    columns, depth = build_tree_columns(model, tau=1.0, alpha=alpha)
    tree = tree_mod.DelayBalancedTree.from_columns(columns, 1.0, alpha)

    splits = [node for node in tree.nodes if node.beta is not None]
    assert len(splits) > 50 and depth == tree.depth()
    # One decomposition per level, of every interval tried there (a
    # node, or a costless child that was pruned), and one costing per
    # box of it — never a second.
    pruned = sum(
        (node.left is None) + (node.right is None) for node in splits
    )
    assert len(decomposed) <= depth + 2
    assert sum(intervals for intervals, _ in decomposed) <= len(tree.nodes) + pruned
    assert costed == [boxes for _, boxes in decomposed]
    # Algorithm 1 takes a fixed number of array steps per level, however
    # many nodes split there — a binary search step or a δ per
    # coordinate — and every split node is in at most that many.
    assert len(per_level) == depth + 1
    assert max(per_level) <= budget
    assert sum(map(len, per_split)) == len(splits)
    assert max(int(level.max(initial=0)) for level in per_split) <= budget

    # The output join and the dictionary pass: one root-slice
    # resolution per (candidate, atom) for both, one at a time or in
    # bulk — the pass costs from the join's; no interval decomposed
    # again, and one costing per tree level — the level steps cost
    # every pair's boxes as arrays.
    resolved = []
    real_root_range = AtomColumns.root_range
    real_root_ranges = AtomColumns.root_ranges

    def counting_root_range(self, access):
        resolved.append(access)
        return real_root_range(self, access)

    def counting_root_ranges(self, accesses):
        resolved.extend(accesses)
        return real_root_ranges(self, accesses)

    candidates = bound_candidates(ctx)
    monkeypatch.setattr(AtomColumns, "root_range", counting_root_range)
    monkeypatch.setattr(AtomColumns, "root_ranges", counting_root_ranges)
    output = array_join(ctx.columns(), candidates)
    del decomposed[:], costed[:]
    thresholds = [level_threshold(1.0, alpha, level) for level in range(depth + 1)]
    dictionary = build_dictionary(model, columns, thresholds, candidates, output)
    assert len(dictionary) > 0
    assert not decomposed and 0 < len(costed) <= depth + 1
    assert len(resolved) == len(candidates) * len(ctx.columns().atoms) > 0


def test_a_built_structure_keeps_no_build_memo():
    view = triangle_view("bff")
    db = triangle_database(20, 120, seed=3)
    structure = CompressedRepresentation(view, db, tau=1.0)
    gc.collect()
    # The evaluators (level arrays, power tables) were locals of the build.
    assert not [o for o in gc.get_objects() if isinstance(o, BoxCosts)]
    # The boxes are stored once: the layout's column is the tree's list.
    assert structure.tree.boxes is structure._layout.tree.boxes
    for holder in (structure, structure.cost_model, structure.ctx):
        assert not [
            name
            for name in vars(holder)
            if "cache" in name or "memo" in name or "walk" in name
        ]
    # A structure restored from its state decomposes nothing: the view
    # of its tree shares the boxes the state carried.
    restored = CompressedRepresentation.from_snapshot_state(
        structure.snapshot_state()
    )
    assert restored.tree.boxes is restored._layout.tree.boxes
    assert comparable(restored.snapshot_state()) == comparable(
        structure.snapshot_state()
    )


def test_a_recompile_reuses_the_builds_boxes(monkeypatch):
    view = triangle_view("bbf")
    db = triangle_database(20, 120, seed=4)
    structure = CompressedRepresentation(view, db, tau=1.0)
    boxes = structure.tree.boxes

    def refuse(*args):  # pragma: no cover - the failure
        raise AssertionError("an interval was decomposed again")

    monkeypatch.setattr(cost_mod, "decompose", refuse)
    assert structure.compile_layout().tree.boxes is boxes


def test_split_interval_is_the_trees_split():
    # The public one-interval entry point and the builder share one
    # Algorithm 1: same β on every split node of a built tree.
    view = triangle_view("fff")
    db = triangle_database(15, 80, seed=5)
    structure = CompressedRepresentation(view, db, tau=0.5)
    for node in structure.tree.nodes:
        if node.beta is not None:
            assert (
                split_mod.split_interval(structure.cost_model, node.interval)
                == node.beta
            )
