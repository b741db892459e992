"""The read contract, checked once over every class that adopts it.

``repro.core.representation.Representation`` owns what every answer
source used to repeat — the access-tuple arity check, ``answer``,
``exists`` and ``enumerate_after`` — so one parametrised matrix covers
all of them. The second half pins the dynamic read side: a
``DynamicRepresentation`` is read through ``freeze()`` and nothing else,
the freeze is memoised until the next effective update, and a frozen
view is point-in-time however late it materialises.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from oracle import oracle_accesses, oracle_answer
from repro.baselines.lazy import LazyView
from repro.baselines.materialized import MaterializedView
from repro.core.constant_delay import (
    ConnexConstantDelayStructure,
    FullyBoundStructure,
)
from repro.core.decomposed import DecomposedRepresentation
from repro.core.dynamic import DynamicRepresentation, FrozenDynamicView
from repro.core.layout import one_leaf_layout
from repro.core.projection import ProjectedRepresentation
from repro.core.representation import Representation
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine.api import resume_enumeration
from repro.exceptions import QueryError
from repro.joins.generic_join import JoinCounter
from repro.query.atoms import Variable
from repro.query.parser import parse_view
from repro.workloads.generators import path_database, triangle_database
from repro.workloads.queries import path_view, triangle_view

TRIANGLE = triangle_view("bbf")
TRIANGLE_DB = triangle_database(14, 60, seed=5)
OPEN_TRIANGLE = triangle_view("bff")
PATH = path_view(3)
PATH_DB = path_database(3, 50, 10, seed=2)


def dirty_case(frozen: bool):
    dynamic = dirty_dynamic()
    reader = dynamic.freeze() if frozen else dynamic
    return reader, TRIANGLE, dynamic.current_database()


def dirty_dynamic():
    dynamic = DynamicRepresentation(
        TRIANGLE, TRIANGLE_DB, tau=4.0, rebuild_fraction=float("inf")
    )
    access = oracle_accesses(TRIANGLE, TRIANGLE_DB, limit=1)[0]
    dynamic.insert("S", (access[1], 777))
    dynamic.insert("T", (777, access[0]))
    assert dynamic.is_dirty
    return dynamic


#: name -> (builder, view whose accesses to probe, database it answers).
ADOPTERS = {
    "compressed": lambda: (
        CompressedRepresentation(TRIANGLE, TRIANGLE_DB, tau=4.0),
        TRIANGLE,
        TRIANGLE_DB,
    ),
    "decomposed": lambda: (
        DecomposedRepresentation(PATH, PATH_DB),
        PATH,
        PATH_DB,
    ),
    "connex": lambda: (
        ConnexConstantDelayStructure(PATH, PATH_DB),
        PATH,
        PATH_DB,
    ),
    "fully-bound": lambda: (
        FullyBoundStructure(triangle_view("bbb"), TRIANGLE_DB),
        triangle_view("bbb"),
        TRIANGLE_DB,
    ),
    "projected": lambda: (
        ProjectedRepresentation(
            OPEN_TRIANGLE, TRIANGLE_DB, tau=3.0, projected=[Variable("z")]
        ),
        OPEN_TRIANGLE,
        TRIANGLE_DB,
    ),
    "lazy": lambda: (LazyView(TRIANGLE, TRIANGLE_DB), TRIANGLE, TRIANGLE_DB),
    "materialized": lambda: (
        MaterializedView(TRIANGLE, TRIANGLE_DB),
        TRIANGLE,
        TRIANGLE_DB,
    ),
    "dynamic-clean": lambda: (
        DynamicRepresentation(TRIANGLE, TRIANGLE_DB, tau=4.0),
        TRIANGLE,
        TRIANGLE_DB,
    ),
    "dynamic-dirty": lambda: dirty_case(frozen=False),
    "frozen-clean": lambda: (
        DynamicRepresentation(TRIANGLE, TRIANGLE_DB, tau=4.0).freeze(),
        TRIANGLE,
        TRIANGLE_DB,
    ),
    "frozen-dirty": lambda: dirty_case(frozen=True),
}


@pytest.fixture(params=sorted(ADOPTERS))
def adopter(request):
    representation, view, db = ADOPTERS[request.param]()
    return request.param, representation, view, db


class TestContractMatrix:
    def test_every_adopter_inherits_the_base(self, adopter):
        _, representation, _, _ = adopter
        assert isinstance(representation, Representation)
        # The derived methods are the base's, not per-class copies.
        for name in ("answer", "enumerate_after", "_check_access"):
            assert getattr(type(representation), name) is getattr(
                Representation, name
            )

    def test_answer_exists_and_resume_at_every_split(self, adopter):
        name, representation, view, db = adopter
        productive = 0
        for access in oracle_accesses(view, db, limit=6):
            if name == "fully-bound":
                rows = list(representation.enumerate(access))
            else:
                rows = list(representation.enumerate(access, counter=None))
            assert representation.answer(access) == rows
            assert representation.exists(access) == bool(rows)
            if name == "projected":
                expected = sorted({row[:1] for row in oracle_answer(view, db, access)})
                assert rows == expected
            else:
                assert sorted(rows) == oracle_answer(view, db, access)
            productive += bool(rows)
            if name == "fully-bound":
                continue  # boolean answers: nothing to resume into
            for split, token in enumerate(rows):
                resumed = list(resume_enumeration(representation, access, token))
                assert resumed == rows[split + 1 :], (access, token)
                if representation.supports_resume:
                    assert (
                        list(representation.enumerate_after(access, token))
                        == rows[split + 1 :]
                    )
        assert productive, "the matrix must exercise non-empty answers"

    def test_wrong_arity_raises_the_unchanged_message(self, adopter):
        _, representation, view, _ = adopter
        expected = len(view.bound_variables)
        bad = tuple(range(expected + 1))
        message = (
            f"access tuple has {expected + 1} values, expected {expected}"
        )
        with pytest.raises(QueryError) as caught:
            representation.answer(bad)
        assert str(caught.value) == message
        with pytest.raises(QueryError) as caught:
            representation.exists(bad)
        assert str(caught.value) == message

    def test_capability_defaults(self):
        lazy = LazyView(TRIANGLE, TRIANGLE_DB)
        assert lazy.supports_resume is False
        assert lazy.kernel_ready is False
        assert lazy.layout_compile_seconds == 0.0


def measured(iterator_of, *args):
    counter = JoinCounter()
    rows = list(iterator_of(*args, counter=counter))
    return rows, counter.steps


class TestDynamicReadSide:
    @pytest.mark.parametrize("state", ["clean", "dirty"])
    def test_representation_freeze_and_oracle_agree(self, state):
        if state == "dirty":
            dynamic = dirty_dynamic()
        else:
            dynamic = DynamicRepresentation(TRIANGLE, TRIANGLE_DB, tau=4.0)
        frozen = dynamic.freeze()
        db = dynamic.current_database()
        for access in oracle_accesses(TRIANGLE, db, limit=6):
            rows, steps = measured(dynamic.enumerate, access)
            assert (rows, steps) == measured(frozen.enumerate, access)
            assert rows == oracle_answer(TRIANGLE, db, access)
            for token in rows:
                expected = [row for row in rows if row > token]
                assert measured(
                    dynamic.enumerate_after, access, token
                ) == measured(frozen.enumerate_after, access, token)
                assert list(dynamic.enumerate_after(access, token)) == expected
                assert measured(
                    dynamic.enumerate_from, access, token
                ) == measured(frozen.enumerate_from, access, token)
        # Class constants: clean or dirty, the kernel is the reader.
        assert dynamic.kernel_ready is frozen.kernel_ready is True

    def test_freeze_memo_follows_effective_updates_only(self):
        dynamic = DynamicRepresentation(
            TRIANGLE, TRIANGLE_DB, tau=4.0, rebuild_fraction=float("inf")
        )
        present = next(iter(TRIANGLE_DB["R"]))
        first = dynamic.freeze()
        assert dynamic.freeze() is first
        # Ineffective: insert of a present row, delete of an absent one.
        assert dynamic.apply_deltas("R", [present], [(-5, -6)]) == 0
        dynamic.insert("R", present)
        dynamic.delete("R", (-5, -6))
        assert dynamic.freeze() is first
        dynamic.insert("R", (-1, -2))
        inserted = dynamic.freeze()
        assert inserted is not first and dynamic.freeze() is inserted
        dynamic.delete("S", next(iter(TRIANGLE_DB["S"])))
        deleted = dynamic.freeze()
        assert deleted is not inserted
        # Annihilation: the buffers return to an earlier shape, but it
        # is still an effective edit and still a new freeze.
        dynamic.delete("R", (-1, -2))
        annihilated = dynamic.freeze()
        assert annihilated is not deleted
        dynamic.rebuild()
        rebuilt = dynamic.freeze()
        assert rebuilt is not annihilated and rebuilt.kernel_ready
        assert dynamic.freeze() is rebuilt

    def test_frozen_views_are_point_in_time(self):
        dynamic = DynamicRepresentation(
            TRIANGLE, TRIANGLE_DB, tau=4.0, rebuild_fraction=float("inf")
        )
        access = oracle_accesses(TRIANGLE, TRIANGLE_DB, limit=1)[0]
        clean = dynamic.freeze()
        clean_db = dynamic.current_database()
        dynamic.insert("S", (access[1], 500))
        dynamic.insert("T", (500, access[0]))
        # Never read before the later deltas: materialisation happens
        # after them and must still see only what was captured.
        unread = dynamic.freeze()
        unread_db = dynamic.current_database()
        dynamic.insert("S", (access[1], 600))
        dynamic.insert("T", (600, access[0]))
        read = dynamic.freeze()
        read_db = dynamic.current_database()
        cursor = read.enumerate(access)
        head = next(cursor)
        for value in range(700, 710):
            dynamic.insert("S", (access[1], value))
            dynamic.insert("T", (value, access[0]))
        dynamic.delete("S", (access[1], 500))
        dynamic.rebuild()
        dynamic.insert("S", (access[1], 800))
        assert [head] + list(cursor) == oracle_answer(TRIANGLE, read_db, access)
        assert unread.answer(access) == oracle_answer(
            TRIANGLE, unread_db, access
        )
        assert (500,) in unread.answer(access)
        assert (600,) not in unread.answer(access)
        assert clean.answer(access) == oracle_answer(TRIANGLE, clean_db, access)
        assert dynamic.answer(access) == oracle_answer(
            TRIANGLE, dynamic.current_database(), access
        )

    def test_dirty_capture_shares_untouched_relations(self):
        dynamic = dirty_dynamic()
        captured = dynamic.current_database()
        assert captured["R"] is TRIANGLE_DB["R"]
        assert captured["S"] is not TRIANGLE_DB["S"]
        assert captured["T"] is not TRIANGLE_DB["T"]

    def test_dirty_space_report_never_materialises(self, monkeypatch):
        dynamic = dirty_dynamic()
        frozen = dynamic.freeze()
        built = []
        monkeypatch.setattr(
            "repro.core.dynamic.one_leaf_layout",
            lambda ctx: built.append(ctx) or one_leaf_layout(ctx),
        )
        report = frozen.space_report()
        assert not built
        assert report.materialized_tuples == sum(
            len(relation) for relation in dynamic.current_database()
        )
        assert report.total_cells == report.materialized_tuples
        frozen.answer(oracle_accesses(TRIANGLE, TRIANGLE_DB, limit=1)[0])
        frozen.answer(oracle_accesses(TRIANGLE, TRIANGLE_DB, limit=2)[1])
        assert len(built) == 1

    def test_normalised_views_read_through_the_same_path(self):
        view = parse_view("Q^bf(x, z) = R(x, 3), S(3, z)")
        db = Database(
            [
                Relation("R", 2, [(1, 3), (2, 3), (2, 4)]),
                Relation("S", 2, [(3, 7), (3, 8), (4, 9)]),
            ]
        )
        dynamic = DynamicRepresentation(
            view, db, tau=2.0, rebuild_fraction=float("inf")
        )
        dynamic.insert("S", (3, 5))
        frozen = dynamic.freeze()
        assert frozen.answer((1,)) == [(5,), (7,), (8,)]
        lazy_cells = sum(
            len(relation)
            for relation in LazyView(view, dynamic.current_database()).db
        )
        assert frozen.space_report().materialized_tuples == lazy_cells

    def test_constructor_contract_unchanged(self):
        with pytest.raises(ValueError, match="exactly one"):
            FrozenDynamicView(TRIANGLE)
        structure = CompressedRepresentation(TRIANGLE, TRIANGLE_DB, tau=4.0)
        with pytest.raises(ValueError, match="exactly one"):
            FrozenDynamicView(
                TRIANGLE, structure=structure, database=TRIANGLE_DB
            )
        from repro.engine import FrozenDynamicView as exported
        from repro.engine.dynamic_serving import FrozenDynamicView as served

        assert exported is served is FrozenDynamicView


CHAIN = parse_view("Q^bff(a, b, c) = R(a, b), S(b, c)")
VALUES = st.integers(min_value=0, max_value=3)
ROWS = st.tuples(VALUES, VALUES)
RELATIONS = st.sampled_from(["R", "S"])


class DynamicMachine(RuleBasedStateMachine):
    """DynamicRepresentation against the oracle over a plain-set model."""

    @initialize(
        r=st.sets(ROWS, max_size=6),
        s=st.sets(ROWS, max_size=6),
        fraction=st.sampled_from([0.3, 1.0, float("inf")]),
    )
    def build(self, r, s, fraction):
        self.model = {"R": set(r), "S": set(s)}
        self.dynamic = DynamicRepresentation(
            CHAIN, self.model_db(), tau=2.0, rebuild_fraction=fraction
        )
        self.frozen = []

    def model_db(self) -> Database:
        return Database(
            Relation(name, 2, rows) for name, rows in self.model.items()
        )

    @rule(relation=RELATIONS, row=ROWS)
    def insert(self, relation, row):
        self.dynamic.insert(relation, row)
        self.model[relation].add(row)

    @rule(relation=RELATIONS, row=ROWS)
    def delete(self, relation, row):
        self.dynamic.delete(relation, row)
        self.model[relation].discard(row)

    @rule(
        relation=RELATIONS,
        inserts=st.lists(ROWS, max_size=3),
        deletes=st.lists(ROWS, max_size=3),
    )
    def apply_deltas(self, relation, inserts, deletes):
        before = set(self.model[relation])
        frozen = self.dynamic.freeze()
        applied = self.dynamic.apply_deltas(relation, inserts, deletes)
        self.model[relation] |= set(inserts)
        self.model[relation] -= set(deletes)
        if not applied:
            assert self.model[relation] == before
            assert self.dynamic.freeze() is frozen

    @rule()
    def freeze(self):
        self.frozen.append((self.dynamic.freeze(), self.model_db()))

    @rule()
    def rebuild(self):
        self.dynamic.rebuild()
        assert not self.dynamic.is_dirty

    @rule(a=VALUES)
    def enumerate(self, a):
        expected = oracle_answer(CHAIN, self.model_db(), (a,))
        assert list(self.dynamic.enumerate((a,))) == expected
        assert self.dynamic.exists((a,)) == bool(expected)

    @rule(a=VALUES, token=ROWS)
    def enumerate_after(self, a, token):
        expected = [
            row
            for row in oracle_answer(CHAIN, self.model_db(), (a,))
            if row > token
        ]
        assert list(self.dynamic.enumerate_after((a,), token)) == expected

    @invariant()
    def every_frozen_view_still_answers_its_own_version(self):
        for frozen, db in getattr(self, "frozen", ())[-3:]:
            for a in range(4):
                assert frozen.answer((a,)) == oracle_answer(CHAIN, db, (a,))


TestDynamicMachine = DynamicMachine.TestCase
TestDynamicMachine.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
