"""Updates with deferred rebuild (the §8 open problem, engineered)."""

import pytest
from hypothesis import given, settings, strategies as st

from oracle import oracle_accesses, oracle_answer
from repro.core.dynamic import DynamicRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.exceptions import SchemaError
from repro.query.parser import parse_view
from repro.workloads.generators import triangle_database
from repro.workloads.queries import triangle_view


@pytest.fixture
def setup():
    view = triangle_view("bbf")
    db = triangle_database(14, 50, seed=51)
    dynamic = DynamicRepresentation(
        view, db, tau=4.0, rebuild_fraction=float("inf")
    )
    return view, db, dynamic


class TestUpdates:
    def test_clean_state_uses_structure(self, setup):
        view, db, dynamic = setup
        assert not dynamic.is_dirty
        for access in oracle_accesses(view, db, limit=6):
            assert dynamic.answer(access) == oracle_answer(view, db, access)

    def test_insert_visible_immediately(self, setup):
        view, db, dynamic = setup
        dynamic.insert("R", (0, 1))
        dynamic.insert("S", (1, 2))
        dynamic.insert("T", (2, 0))
        assert dynamic.is_dirty
        assert (2,) in set(dynamic.answer((0, 1)))
        updated = dynamic.current_database()
        assert dynamic.answer((0, 1)) == oracle_answer(view, updated, (0, 1))

    def test_delete_visible_immediately(self, setup):
        view, db, dynamic = setup
        accesses = oracle_accesses(view, db, limit=4)
        target = next(a for a in accesses if oracle_answer(view, db, a))
        witness = oracle_answer(view, db, target)[0]
        dynamic.delete("S", (target[1], witness[0]))
        updated = dynamic.current_database()
        assert sorted(dynamic.answer(target)) == oracle_answer(
            view, updated, target
        )

    def test_insert_then_delete_cancels(self, setup):
        view, db, dynamic = setup
        dynamic.insert("R", (99, 98))
        dynamic.delete("R", (99, 98))
        updated = dynamic.current_database()
        assert (99, 98) not in updated["R"]

    def test_freezing_does_not_recheck_buffered_rows(self, setup, monkeypatch):
        # Buffered rows were arity-checked on the way in: the merged
        # relation is built from the row sets, never fed through the
        # checking constructor again, and untouched relations are shared.
        view, db, dynamic = setup
        deleted = next(iter(db["S"]))
        dynamic.insert("R", (900, 901))
        dynamic.delete("S", deleted)
        checked = []
        original = Relation.__init__

        def checking(self, name, arity, rows=()):
            rows = list(rows)
            checked.extend(rows)
            original(self, name, arity, rows)

        monkeypatch.setattr(Relation, "__init__", checking)
        updated = dynamic.current_database()
        assert checked == []
        assert updated["T"] is db["T"]
        assert updated["R"].rows == db["R"].rows | {(900, 901)}
        assert updated["S"].rows == db["S"].rows - {deleted}
        assert updated["R"].name == "R" and updated["R"].arity == 2
        monkeypatch.undo()
        assert dynamic.answer((900, 901)) == oracle_answer(
            view, updated, (900, 901)
        )

    def test_duplicate_insert_is_noop(self, setup):
        view, db, dynamic = setup
        existing = next(iter(db["R"]))
        pending = dynamic.pending_updates
        dynamic.insert("R", existing)
        assert dynamic.pending_updates == pending

    def test_delete_absent_is_noop(self, setup):
        view, db, dynamic = setup
        pending = dynamic.pending_updates
        dynamic.delete("R", (123456, 654321))
        assert dynamic.pending_updates == pending

    def test_arity_checked(self, setup):
        _, _, dynamic = setup
        with pytest.raises(SchemaError):
            dynamic.insert("R", (1, 2, 3))

    def test_manual_rebuild_restores_guarantees(self, setup):
        view, db, dynamic = setup
        dynamic.insert("R", (900, 901))
        assert dynamic.is_dirty
        dynamic.rebuild()
        assert not dynamic.is_dirty
        assert dynamic.rebuilds == 1
        updated = dynamic.current_database()
        for access in oracle_accesses(view, updated, limit=5):
            assert dynamic.answer(access) == oracle_answer(
                view, updated, access
            )

    def test_automatic_rebuild_threshold(self):
        view = triangle_view("bbf")
        db = triangle_database(14, 50, seed=52)
        dynamic = DynamicRepresentation(
            view, db, tau=4.0, rebuild_fraction=0.02
        )
        budget = int(0.02 * db.total_tuples()) + 2
        for k in range(budget):
            dynamic.insert("R", (900 + 2 * k, 901 + 2 * k))
        assert dynamic.rebuilds >= 1
        # Updates after a rebuild may leave the buffer dirty again, but
        # the buffer never accumulates past the threshold.
        assert dynamic.pending_updates <= budget

    @pytest.mark.parametrize(
        "text",
        [
            "D^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)",
            # Not a natural join: every rebuild re-normalises the view.
            "D^bf(x, y) = R(x, y), S(y, 3), T(y, x)",
        ],
    )
    def test_a_rebuild_inherits_the_cover_and_equals_a_fresh_build(
        self, text, monkeypatch
    ):
        from repro.core import context as context_mod
        from repro.core.structure import CompressedRepresentation

        view = parse_view(text)
        db = triangle_database(14, 50, seed=52)
        solved = []
        real = context_mod.max_slack_cover

        def counting(hypergraph, free):
            solved.append(free)
            return real(hypergraph, free)

        monkeypatch.setattr(context_mod, "max_slack_cover", counting)
        dynamic = DynamicRepresentation(
            view, db, tau=2.0, rebuild_fraction=float("inf")
        )
        assert len(solved) == 1
        first_cover = dynamic.structure.ctx.default_cover()
        for row in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]:
            dynamic.insert("R", row)
            # A dirty read first: the rebuild derives from its context,
            # which carries the cover on without solving the LP.
            dynamic.answer(row[: len(view.bound_variables)])
            dynamic.rebuild()
            dynamic.delete("S", next(iter(dynamic.current_database()["S"])))
        dynamic.rebuild()
        assert dynamic.rebuilds == 7 and not dynamic.is_dirty
        # The LP was not solved again: the very pair was handed over,
        # rebuild to dirty read to rebuild.
        assert len(solved) == 1
        assert dynamic.structure.ctx.default_cover() is first_cover
        # State for state what a from-scratch build over the same data is.
        fresh = CompressedRepresentation(
            view, dynamic.current_database(), tau=2.0
        )
        assert len(solved) == 2
        rebuilt_state = dynamic.structure.snapshot_state()
        fresh_state = fresh.snapshot_state()
        del rebuilt_state["stats"]["build_seconds"]
        del fresh_state["stats"]["build_seconds"]
        assert rebuilt_state == fresh_state

    def test_space_report_counts_buffer(self, setup):
        _, _, dynamic = setup
        base = dynamic.space_report().materialized_tuples
        dynamic.insert("R", (70, 71))
        assert dynamic.space_report().materialized_tuples == base + 1


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["R", "S", "T"]),
            st.booleans(),
            st.integers(0, 5),
            st.integers(0, 5),
        ),
        max_size=25,
    )
)
@settings(max_examples=40, deadline=None)
def test_update_stream_property(stream):
    """Any interleaving of inserts/deletes stays consistent with the
    oracle evaluated on the logical database."""
    view = parse_view("D^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)")
    db = Database(
        [
            Relation("R", 2, [(0, 1), (1, 2)]),
            Relation("S", 2, [(1, 3), (2, 4)]),
            Relation("T", 2, [(3, 0), (4, 1)]),
        ]
    )
    dynamic = DynamicRepresentation(
        view, db, tau=2.0, rebuild_fraction=float("inf")
    )
    for name, is_insert, a, b in stream:
        if is_insert:
            dynamic.insert(name, (a, b))
        else:
            dynamic.delete(name, (a, b))
    logical = dynamic.current_database()
    for access in [(i, j) for i in range(4) for j in range(4)]:
        assert sorted(dynamic.answer(access)) == oracle_answer(
            view, logical, access
        )
    dynamic.rebuild()
    for access in [(i, j) for i in range(3) for j in range(3)]:
        assert sorted(dynamic.answer(access)) == oracle_answer(
            view, logical, access
        )
