"""A dirty dynamic version is Theorem 1's structure at τ = ∞, kernel-walked.

While a dynamic view's buffers are dirty its read side
(:class:`~repro.core.dynamic.FrozenDynamicView`) is the captured
database's context plus a one-leaf layout: one tree node spanning the
tuple space, an empty dictionary, every request a worst-case-optimal
join — Section 2.3's lazy evaluation as the far end of the paper's
trade-off, read by the same columnar kernel as every other structure.
Nothing is added to the spec for it: ``tests/reference_walk.py`` run over
that one-leaf ``(T, D)`` is what the dirty walk must equal row for row
and step for step, with :class:`~repro.baselines.lazy.LazyView` and the
hash-join oracle as the independent references for the answers — and a
resumed read is a seek, not a re-enumeration of the prefix.
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from oracle import oracle_accesses, oracle_answer
from reference_walk import spec_enumerate, spec_enumerate_from
from reference_index import TrieIndex
from repro.baselines.lazy import LazyView
from repro.core.balanced_tree import DelayBalancedTree, TreeNode
from repro.core.context import ViewContext
from repro.core.dictionary import HeavyDictionary
from repro.core.dynamic import DynamicRepresentation, FrozenDynamicView
from repro.core.intervals import FInterval
from repro.core import layout as layout_module
from repro.core.layout import one_leaf_layout
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine import ShardedViewServer, ViewServer, infer_shard_key
from repro.exceptions import QueryError
from repro.joins.generic_join import JoinCounter
from repro.measure.delay import measure_enumeration
from repro.query.rewriting import natural_form
from repro.workloads import (
    path_view,
    star_view,
    triangle_database,
    triangle_view,
)

SMALL = st.integers(0, 4)
EDGES = st.lists(st.tuples(SMALL, SMALL), max_size=14)

VIEWS = {
    "triangle-bbf": (triangle_view("bbf"), ("R", "S", "T")),
    "triangle-bff": (triangle_view("bff"), ("R", "S", "T")),
    "triangle-fff": (triangle_view("fff"), ("R", "S", "T")),
    "triangle-bbb": (triangle_view("bbb"), ("R", "S", "T")),  # width 0
    "path-bffb": (path_view(3, "bffb"), ("R1", "R2", "R3")),
    "path-ffff": (path_view(3, "ffff"), ("R1", "R2", "R3")),
    "star-bbbf": (star_view(3), ("R1", "R2", "R3")),
    "star-bfff": (star_view(3, "bfff"), ("R1", "R2", "R3")),
}


def one_leaf_spec(view, db):
    """The one-leaf ``(T, D)`` over ``db``, in the spec's object form."""
    view, db = natural_form(view, db)
    ctx = ViewContext(view, db)
    if ctx.space.is_empty():
        tree = DelayBalancedTree(None, [], math.inf, 1.0)
    else:
        root = TreeNode(0, FInterval.full(ctx.space), 0, 0.0)
        tree = DelayBalancedTree(root, [root], math.inf, 1.0)
    return SimpleNamespace(tree=tree, dictionary=HeavyDictionary(), ctx=ctx)


def measured(iterator_of):
    """(rows, step gaps) of one measured drain — every gap and the closing one."""
    counter = JoinCounter()
    rows = []

    def stream():
        for row in iterator_of(counter):
            rows.append(row)
            yield row

    stats = measure_enumeration(stream(), counter, keep_gaps=True)
    assert stats.step_total == sum(stats.step_gaps)
    assert stats.step_max_gap == max(stats.step_gaps)
    return rows, stats.step_gaps


def seek_points(rows, width):
    """Every emitted row, a point between each two, one past the end."""
    if not width:
        return [()]
    points = list(rows)
    points += [row[:-1] + (row[-1] + 0.5,) for row in rows]
    points += [(row[0] - 0.5,) + row[1:] for row in rows[:3]]
    points.append(tuple(10**6 for _ in range(width)))
    points.append(tuple(-1 for _ in range(width)))
    return points


def assert_dirty_equals_the_spec(view, frozen, db, accesses):
    """One dirty version against LazyView, the oracle and the spec."""
    assert frozen.kernel_ready is True
    lazy = LazyView(view, db)
    spec = one_leaf_spec(view, db)
    width = len(view.free_variables)
    for access in accesses:
        rows, gaps = measured(lambda c: frozen.enumerate(access, counter=c))
        assert rows == list(lazy.enumerate(access)), access
        assert rows == oracle_answer(view, db, access), access
        assert (rows, gaps) == measured(
            lambda c: spec_enumerate(spec, access, c)
        ), access
        assert list(frozen.enumerate(access)) == rows
        for point in seek_points(rows, width):
            resumed, resumed_gaps = measured(
                lambda c: frozen.enumerate_from(access, point, counter=c)
            )
            assert resumed == [r for r in rows if r >= point], (access, point)
            start = spec.ctx.space.ceil_point(point)
            expected = (
                ([], [0])
                if start is None
                else measured(
                    lambda c: spec_enumerate_from(spec, access, start, c)
                )
            )
            assert (resumed, resumed_gaps) == expected, (access, point)
            assert list(frozen.enumerate_after(access, point)) == [
                r for r in rows if r > point
            ]


@st.composite
def dirty_cases(draw):
    """A small instance and a delta sequence that leaves it dirty."""
    name = draw(st.sampled_from(sorted(VIEWS)))
    view, relations = VIEWS[name]
    db = Database([Relation(r, 2, draw(EDGES)) for r in relations])
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "delete-present"]),
                st.sampled_from(relations),
                st.tuples(SMALL, SMALL),
                st.integers(0, 50),
            ),
            min_size=1,
            max_size=8,
        )
    )
    extra = [
        tuple(draw(SMALL) for _ in view.bound_variables) for _ in range(2)
    ]
    return view, db, ops, extra


@given(dirty_cases())
@settings(max_examples=120, deadline=None)
def test_random_delta_sequences_read_as_the_one_leaf_structure(case):
    view, db, ops, extra = case
    dynamic = DynamicRepresentation(
        view, db, tau=2.0, rebuild_fraction=float("inf")
    )
    for kind, relation, row, pick in ops:
        if kind == "insert":
            dynamic.insert(relation, row)
        elif kind == "delete":
            dynamic.delete(relation, row)
        else:  # delete a row that is there, if any is
            present = sorted(dynamic.current_database()[relation].rows)
            if present:
                dynamic.delete(relation, present[pick % len(present)])
    frozen = dynamic.freeze()
    current = dynamic.current_database()
    if not dynamic.is_dirty:
        return  # every op was a no-op: a clean version, covered elsewhere
    accesses = oracle_accesses(view, current, limit=4) + extra
    assert_dirty_equals_the_spec(view, frozen, current, accesses)


def columns_state(ctx):
    """A context's domains and join columns as plain, comparable data."""
    return (
        [domain.values for domain in ctx.free_domains],
        {var: domain.values for var, domain in ctx.bound_domains.items()},
        [
            (
                atom.coords,
                atom.bound_positions,
                atom.roots,
                atom.vals,
                atom.kid_lo,
                atom.kid_hi,
                [list(level) for level in atom.counts],
            )
            for atom in ctx.columns().atoms
        ],
    )


def same_objects(xs, ys):
    """Whether two sequences hold the very same objects, pairwise."""
    return all(x is y for x, y in zip(xs, ys, strict=True))


#: Values reaching past the base's 0..4, so that a delta moves domains.
WIDE = st.integers(0, 7)


@st.composite
def version_sequences(draw):
    """A small instance and ops, each followed by a read, a skip or a rebuild."""
    name = draw(st.sampled_from(sorted(VIEWS)))
    view, relations = VIEWS[name]
    db = Database([Relation(r, 2, draw(EDGES)) for r in relations])
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete-present", "swap"]),
                st.sampled_from(relations),
                st.tuples(WIDE, WIDE),
                st.integers(0, 50),
                st.sampled_from(["read", "read", "skip", "rebuild"]),
            ),
            min_size=1,
            max_size=10,
        )
    )
    return view, db, ops


@given(version_sequences())
@settings(max_examples=80, deadline=None)
def test_every_version_derives_its_context_from_whatever_came_before(case):
    # Frozen after every op, each version's context derives from the
    # newest one built before it — a read version's, one handed over by a
    # skipped version, or a rebuild's — and must equal a fresh context
    # over the same rows; the read itself must equal the spec.
    view, db, ops = case
    dynamic = DynamicRepresentation(
        view, db, tau=2.0, rebuild_fraction=float("inf")
    )
    for kind, relation, row, pick, then in ops:
        present = sorted(dynamic.current_database()[relation].rows)
        deletes = [present[pick % len(present)]] if present else []
        if kind == "insert":
            dynamic.insert(relation, row)
        elif kind == "swap":  # one delta: a domain may move, size kept
            dynamic.apply_deltas(relation, inserts=[row], deletes=deletes)
        elif deletes:
            dynamic.delete(relation, deletes[0])
        frozen = dynamic.freeze()
        current = dynamic.current_database()
        fresh = ViewContext(view, current)
        if then == "rebuild":
            dynamic.rebuild()
            assert columns_state(dynamic.structure.ctx) == columns_state(fresh)
            rebuilt = dynamic.structure.snapshot_state()
            expected = CompressedRepresentation(view, current, tau=2.0)
            expected = expected.snapshot_state()
            del rebuilt["stats"]["build_seconds"]
            del expected["stats"]["build_seconds"]
            assert rebuilt == expected
        elif then == "read" and frozen._structure is None:
            accesses = oracle_accesses(view, current, limit=3)
            assert_dirty_equals_the_spec(view, frozen, current, accesses)
            assert columns_state(frozen._context) == columns_state(fresh)
        for access in oracle_accesses(view, current, limit=2):
            assert dynamic.answer(access) == oracle_answer(view, current, access)


class TestDerivedContexts:
    """A version's read compiles only the atoms its deltas touched."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        """Relations whose atoms' join columns were compiled, in order."""
        names = []
        real = layout_module._compile_atom

        def counting(binding, space, free_only=False):
            if not free_only:
                names.append(binding.relation.name)
            return real(binding, space, free_only)

        monkeypatch.setattr(layout_module, "_compile_atom", counting)
        return names

    @staticmethod
    def read(dynamic, view):
        """Every productive access and a miss, each against the oracle."""
        current = dynamic.current_database()
        for access in oracle_accesses(view, current, limit=6):
            assert dynamic.answer(access) == oracle_answer(
                view, current, access
            ), access
        return dynamic.freeze()._context

    def test_a_delta_recompiles_only_the_atoms_it_touched(self, compiled):
        view = triangle_view("bbf")  # R(x, y), S(y, z), T(z, x); z free
        db = triangle_database(8, 24, seed=3)
        dynamic = DynamicRepresentation(
            view, db, tau=2.0, rebuild_fraction=float("inf")
        )
        base = dynamic.structure.ctx
        del compiled[:]
        dynamic.insert("R", (90, 91))
        first = self.read(dynamic, view)
        assert compiled == ["R"]
        assert first.free_domains[0] is base.free_domains[0]
        assert same_objects(first.columns().atoms[1:], base.columns().atoms[1:])
        self.read(dynamic, view)
        assert compiled == ["R"]  # a re-read compiles nothing
        # A z value no relation had moves z's domain: S and T, the atoms
        # over z, are recompiled; R, which has no free variable, is not.
        dynamic.insert("S", (0, 99))
        second = self.read(dynamic, view)
        assert compiled == ["R", "S", "T"]
        assert 99 in second.free_domains[0].values
        assert second.columns().atoms[0] is first.columns().atoms[0]
        # A delta that leaves z's values as they were keeps S's columns.
        dynamic.insert("T", (99, 90))
        third = self.read(dynamic, view)
        assert compiled == ["R", "S", "T", "T"]
        assert third.free_domains[0] is second.free_domains[0]
        assert same_objects(third.columns().atoms[:2], second.columns().atoms[:2])
        assert first._previous is second._previous is third._previous is None

    def test_a_domain_that_keeps_its_size_but_not_its_values(self, compiled):
        view = triangle_view("bbf")
        db = Database(
            [
                Relation("R", 2, [(1, 2)]),
                Relation("S", 2, [(2, 3), (2, 4)]),
                Relation("T", 2, [(3, 1), (4, 1)]),
            ]
        )
        dynamic = DynamicRepresentation(
            view, db, tau=2.0, rebuild_fraction=float("inf")
        )
        del compiled[:]
        dynamic.apply_deltas("S", inserts=[(2, 5)], deletes=[(2, 4)])
        dynamic.apply_deltas("T", inserts=[(5, 1)], deletes=[(4, 1)])
        context = self.read(dynamic, view)
        assert context.free_domains[0].values == (3, 5)
        assert dynamic.answer((1, 2)) == [(3,), (5,)]
        assert compiled == ["S", "T"]

    def test_a_rebuild_compiles_only_what_changed_since_the_last_read(
        self, compiled
    ):
        view = triangle_view("bbf")
        db = triangle_database(8, 24, seed=3)
        dynamic = DynamicRepresentation(
            view, db, tau=2.0, rebuild_fraction=float("inf")
        )
        dynamic.insert("S", (0, 99))
        read = self.read(dynamic, view)
        dynamic.delete("R", sorted(db["R"])[0])
        dynamic.freeze()  # a version nobody reads
        dynamic.insert("R", (90, 91))
        del compiled[:]
        dynamic.rebuild()
        assert compiled == ["R"]
        rebuilt = dynamic.structure.ctx
        assert same_objects(rebuilt.columns().atoms[1:], read.columns().atoms[1:])
        assert rebuilt.default_cover() is read.default_cover()
        self.read(dynamic, view)
        assert compiled == ["R"]


class TestNamedDeltas:
    """The shapes a random sequence only sometimes hits, each on purpose."""

    @pytest.fixture(params=["bbf", "bff", "fff"])
    def dynamic(self, request):
        view = triangle_view(request.param)
        db = triangle_database(8, 24, seed=3)
        return view, db, DynamicRepresentation(
            view, db, tau=2.0, rebuild_fraction=float("inf")
        )

    def test_an_annihilated_insert(self, dynamic):
        view, db, dynamic = dynamic
        dynamic.insert("R", (90, 91))
        dynamic.insert("S", (91, 92))
        dynamic.insert("T", (92, 90))
        dynamic.delete("S", (91, 92))  # annihilates the buffered insert
        assert dynamic.is_dirty
        current = dynamic.current_database()
        assert (91, 92) not in current["S"]
        accesses = oracle_accesses(view, current, limit=6)
        accesses.append(tuple((90, 91)[: len(view.bound_variables)]))
        assert_dirty_equals_the_spec(view, dynamic.freeze(), current, accesses)

    def test_a_delete_that_empties_a_relation(self, dynamic):
        view, db, dynamic = dynamic
        for row in list(db["S"].rows):
            dynamic.delete("S", row)
        current = dynamic.current_database()
        assert len(current["S"]) == 0
        # y and z lose every value S contributed; with y or z free the
        # tuple space itself is empty.
        frozen = dynamic.freeze()
        accesses = oracle_accesses(view, db, limit=6)
        assert_dirty_equals_the_spec(view, frozen, current, accesses)
        assert all(frozen.answer(access) == [] for access in accesses)

    @pytest.mark.parametrize("pattern", ["bbf", "bff"])
    def test_an_access_absent_from_one_atom(self, pattern):
        view = triangle_view(pattern)
        dynamic = DynamicRepresentation(
            view,
            triangle_database(8, 24, seed=3),
            tau=2.0,
            rebuild_fraction=float("inf"),
        )
        dynamic.insert("R", (70, 71))  # x = 70 is in R, and in no T
        current = dynamic.current_database()
        access = (70, 71)[: len(view.bound_variables)]
        frozen = dynamic.freeze()
        assert frozen.answer(access) == []
        counter = JoinCounter()
        assert list(frozen.enumerate(access, counter=counter)) == []
        assert counter.steps == 0  # refused at the roots, as the spec
        assert_dirty_equals_the_spec(view, frozen, current, [access])

    def test_an_empty_tuple_space(self):
        view = triangle_view("bff")
        db = Database(
            [
                Relation("R", 2, [(1, 2)]),
                Relation("S", 2, [(2, 3)]),
                Relation("T", 2, [(3, 1)]),
            ]
        )
        dynamic = DynamicRepresentation(
            view, db, tau=2.0, rebuild_fraction=float("inf")
        )
        dynamic.delete("S", (2, 3))
        dynamic.delete("T", (3, 1))  # z has no value left anywhere
        current = dynamic.current_database()
        frozen = dynamic.freeze()
        assert_dirty_equals_the_spec(view, frozen, current, [(1,), (5,)])
        assert list(frozen.enumerate_from((1,), (0, 0))) == []
        with pytest.raises(QueryError, match="start tuple has 1 values"):
            list(frozen.enumerate_from((1,), (0,)))

    def test_a_width_0_view(self):
        view = triangle_view("bbb")
        db = triangle_database(8, 24, seed=3)
        dynamic = DynamicRepresentation(
            view, db, tau=2.0, rebuild_fraction=float("inf")
        )
        dynamic.insert("R", (50, 51))
        dynamic.insert("S", (51, 52))
        dynamic.insert("T", (52, 50))
        current = dynamic.current_database()
        frozen = dynamic.freeze()
        assert frozen.answer((50, 51, 52)) == [()]
        assert frozen.answer((50, 51, 53)) == []
        accesses = oracle_accesses(view, current, limit=4) + [(50, 51, 52)]
        assert_dirty_equals_the_spec(view, frozen, current, accesses)


class TestTheSeekIsASeek:
    def test_a_resumed_dirty_read_spends_fewer_steps_than_the_full_one(self):
        view = triangle_view("bff")
        db = triangle_database(30, 600, seed=11)
        dynamic = DynamicRepresentation(
            view, db, tau=8.0, rebuild_fraction=float("inf")
        )
        dynamic.insert("R", (0, 1))
        current = dynamic.current_database()
        frozen = dynamic.freeze()
        checked = 0
        for access in oracle_accesses(view, current, limit=6):
            rows = oracle_answer(view, current, access)
            if len(rows) < 40:
                continue
            full = JoinCounter()
            assert list(frozen.enumerate(access, counter=full)) == rows
            previous = full.steps
            for split in (len(rows) // 4, len(rows) // 2, 3 * len(rows) // 4):
                counter = JoinCounter()
                page = list(
                    frozen.enumerate_after(access, rows[split], counter=counter)
                )
                assert page == rows[split + 1 :]
                # Later seeks join less of the space, never the prefix.
                assert counter.steps < previous
                previous = counter.steps
            checked += 1
        assert checked

    def test_the_first_read_builds_no_trie_and_compiles_once(
        self, monkeypatch
    ):
        tries = []
        original = TrieIndex.__init__

        def counting(self, *args, **kwargs):
            tries.append(kwargs.get("dedupe", True))
            original(self, *args, **kwargs)

        monkeypatch.setattr(TrieIndex, "__init__", counting)
        compiles = []
        monkeypatch.setattr(
            "repro.core.dynamic.one_leaf_layout",
            lambda ctx: compiles.append(ctx) or one_leaf_layout(ctx),
        )
        view = triangle_view("bbf")
        db = triangle_database(8, 24, seed=3)
        dynamic = DynamicRepresentation(
            view, db, tau=2.0, rebuild_fraction=float("inf")
        )
        # A static build counts and joins on its context's columns: no
        # trie, and the free-columns instances its unrestricted counts
        # need are the build's context's, not the dirty version's.
        assert tries == []
        assert dynamic.freeze()._structure.ctx._count_columns is not None
        dynamic.insert("R", (0, 1))
        frozen = dynamic.freeze()
        del tries[:]
        assert frozen.space_report().materialized_tuples == sum(
            len(relation) for relation in dynamic.current_database()
        )
        assert compiles == []
        for access in oracle_accesses(view, db, limit=3):
            frozen.answer(access)
            list(frozen.enumerate_from(access, (0,)))
        # One context, nothing costed: the kernel reads columns compiled
        # from the rows, and no trie or count instance is ever asked for.
        assert tries == [] and len(compiles) == 1
        assert compiles[0]._count_columns is None
        layout = frozen._layout
        assert layout.tree.left == [-1] and layout.dictionary.index == {}
        assert layout.atoms is compiles[0].columns().atoms


# ----------------------------------------------------------------------
# resume tokens fail typed, and the same way clean and dirty
# ----------------------------------------------------------------------
def serving(state, view, db, access):
    """A server holding ``view`` as ``"t"``: static, clean, dirty or sharded."""
    if state == "sharded":
        server = ShardedViewServer(db, 3, infer_shard_key(view))
        server.register(view, tau=8.0, name="t")
        return server
    server = ViewServer(db)
    if state == "static":
        server.register(view, tau=8.0, name="t")
        return server
    server.register(view, tau=8.0, name="t", rebuild_fraction=1e9)
    # Version 0, clean: the registration's own data, as a version.
    assert server.rehydrate_dynamic(["t"]) == 1
    if state == "dirty":
        # A row that joins nothing: the answers stay those of ``db``.
        assert server.apply_deltas("R", inserts=[(access[0], 10**6)])
    version = server.representation("t")
    assert isinstance(version, FrozenDynamicView)
    assert (version._structure is None) == (state == "dirty")
    return server


class TestResumeTokens:
    def test_a_wrong_arity_token_errs_before_and_after_a_delta(self):
        view = triangle_view("bff")
        db = triangle_database(30, 600, seed=11)
        access = max(
            oracle_accesses(view, db, limit=12),
            key=lambda a: len(oracle_answer(view, db, a)),
        )
        server = serving("clean", view, db, access)

        def outcomes():
            results = []
            for token in ((1,), (1, 6, 5)):
                with pytest.raises(QueryError) as caught:
                    server.open("t", access, start_after=token).fetchall()
                results.append(str(caught.value))
            return results

        before = outcomes()
        assert before == [
            "start tuple has 1 values, expected 2",
            "start tuple has 3 values, expected 2",
        ]
        assert server.apply_deltas("R", inserts=[(access[0], 10**6)]) == {
            "t": 1
        }
        assert server.representation("t")._structure is None  # dirty now
        assert outcomes() == before
        # A well-formed token still pages, on the same version.
        rows = server.answer("t", access)
        assert (
            server.open("t", access, start_after=rows[1]).fetchall()
            == rows[2:]
        )
        server.close()

    @pytest.mark.parametrize("state", ["static", "clean", "dirty", "sharded"])
    def test_an_incomparable_token_is_a_query_error_naming_the_coordinate(
        self, state
    ):
        view = triangle_view("bff")
        db = triangle_database(30, 600, seed=11)
        access = next(
            a
            for a in oracle_accesses(view, db, limit=8)
            if len(oracle_answer(view, db, a)) > 3
        )
        server = serving(state, view, db, access)
        try:
            rows = server.answer("t", access)
            for token, coordinate in (
                (("x", "y"), 0),
                ((None, None), 0),
                ((rows[0][0], "y"), 1),
                ((rows[0][0], None), 1),
            ):
                with pytest.raises(QueryError) as caught:
                    server.open("t", access, start_after=token).fetchall()
                assert f"at coordinate {coordinate}" in str(caught.value)
                assert repr(token[coordinate]) in str(caught.value)
            # Well-typed tokens that never appear are pages, not errors:
            # between two rows, before the first, past the end.
            between = (rows[0][0], rows[0][1] + 0.5)
            assert (
                server.open("t", access, start_after=between).fetchall()
                == rows[1:]
            )
            assert (
                server.open("t", access, start_after=(-1.5, 2)).fetchall()
                == rows
            )
            assert (
                server.open("t", access, start_after=(10**9, 0)).fetchall()
                == []
            )
        finally:
            server.close()
