"""The atom compile: sorted integer keys, held to the tuple-sorting spec.

``core/layout.py`` compiles every :class:`~repro.core.layout.AtomColumns`
— an atom's join instance, its free-only count instance and its bound
projection — from its rows folded to sorted mixed-radix integers, and a
context's three instances of an atom from one fold. The compile it
replaced sorted Python tuples and ran one statement per key; it lives
on as ``reference_index._compile_rows``, and every slot here must equal
its output, element types included.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import layout as layout_mod
from repro.core.context import ViewContext
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.query.atoms import Variable
from repro.query.parser import parse_view
from repro.query.rewriting import natural_form
from repro.workloads.generators import triangle_database
from repro.workloads.queries import triangle_view
from reference_index import spec_atom_columns, spec_index_cells
from test_build_kernel import SHAPES, databases

SLOTS = ("coords", "bound_positions", "width", "roots", "vals", "kid_lo", "kid_hi")


def assert_same_atom(atom, spec):
    """Equal slot for slot, and of the same types down to the elements."""
    for slot in SLOTS:
        ours, theirs = getattr(atom, slot), getattr(spec, slot)
        assert ours == theirs and type(ours) is type(theirs), slot
    assert list(atom.roots.items()) == list(spec.roots.items())  # same order
    for ours, theirs in zip(atom.roots, spec.roots):
        assert list(map(type, ours)) == list(map(type, theirs))
    assert len(atom.counts) == len(spec.counts)
    for ours, theirs in zip(atom.counts, spec.counts):
        assert ours == theirs and type(ours) is type(theirs)
    for runs in (atom.vals, atom.kid_lo, atom.kid_hi, atom.counts):
        assert all(type(v) is int for run in runs for v in run)


def assert_equals_the_spec(ctx):
    """Every atom's three instances against the spec's."""
    columns, counted, bound = ctx.columns(), ctx.count_columns(), ctx.bound_columns()
    projections = iter(bound.atoms)
    for binding, atom, free in zip(ctx.atoms, columns.atoms, counted):
        join, count, projection = spec_atom_columns(ctx, binding)
        assert_same_atom(atom, join)
        assert_same_atom(free, count)
        assert (free is atom) == (not binding.bound_vars)
        if projection is not None:
            assert_same_atom(next(projections), projection)
    assert next(projections, None) is None
    bound_domains = tuple(ctx.bound_domains[v] for v in ctx.bound_order)
    assert bound.space.domains == bound_domains


def context(view, db, build_first):
    """A fresh context; its build instances compiled first, or its join's."""
    ctx = ViewContext(*natural_form(view, db))
    if build_first:
        ctx.bound_columns()
    return ctx


@pytest.mark.parametrize("name", sorted(SHAPES))
@given(data=st.data(), build_first=st.booleans())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_the_compile_equals_the_spec(name, data, build_first):
    view = SHAPES[name]
    assert_equals_the_spec(context(view, data.draw(databases(view)), build_first))


def relations(**rows):
    """Binary relations (or of the arity of their first row)."""
    return Database(
        [Relation(name, len(r[0]) if r else 2, r) for name, r in rows.items()]
    )


EDGE_CASES = {
    "an empty relation": (
        triangle_view("bbf"),
        relations(R=[(1, 2), (2, 3)], S=[], T=[(3, 1)]),
    ),
    "every relation empty": (
        triangle_view("bff"),
        relations(R=[], S=[], T=[]),
    ),
    "all-bound atoms": (
        parse_view("B^bb(x, y) = R(x, y), S(x, y)"),
        relations(R=[(1, 2), (3, 4), (3, 1)], S=[(1, 2), (3, 1)]),
    ),
    "a nullary atom that holds": (
        parse_view("N^bff(x, y, z) = R(x, y), S(y, z), T(2, 5)"),
        Database(
            [
                Relation("R", 2, [(1, 2), (1, 3)]),
                Relation("S", 2, [(2, 4), (3, 4)]),
                Relation("T", 2, [(2, 5), (2, 6)]),
            ]
        ),
    ),
    "a nullary atom that fails": (
        parse_view("N^f(x) = R(x), S(3)"),
        Database([Relation("R", 1, [(1,), (2,)]), Relation("S", 1, [(4,)])]),
    ),
    "repeated free parts": (
        triangle_view("bff"),
        relations(
            R=[(1, 5), (2, 5), (3, 5), (3, 6)],
            S=[(5, 7), (6, 7), (5, 8)],
            T=[(7, 1), (7, 2), (8, 3), (7, 3)],
        ),
    ),
    "string values": (
        triangle_view("bbf"),
        relations(
            R=[("ann", "bo"), ("bo", "cy"), ("ann", "cy")],
            S=[("bo", "cy"), ("cy", "ann"), ("cy", "dee")],
            T=[("cy", "ann"), ("ann", "bo"), ("dee", "ann")],
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
@pytest.mark.parametrize("build_first", [False, True])
def test_the_compile_on_the_edge_cases(case, build_first):
    view, db = EDGE_CASES[case]
    assert_equals_the_spec(context(view, db, build_first))


@pytest.mark.parametrize("name", sorted(SHAPES))
@given(data=st.data())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_index_cells_are_the_specs_count(name, data):
    # Read off the join columns alone: levels, roots and parent paths
    # give the tries' distinct prefixes, and no build instance is made.
    ctx = context(SHAPES[name], data.draw(databases(SHAPES[name])), False)
    assert ctx.index_cells() == spec_index_cells(ctx)
    assert ctx._count_columns is None


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_index_cells_on_the_edge_cases(case):
    ctx = context(*EDGE_CASES[case], build_first=False)
    assert ctx.index_cells() == spec_index_cells(ctx)


def test_index_cells_of_an_all_bound_atom_with_many_roots():
    # point_lookup's data and view: R(x, y) is all bound — 4,000 roots,
    # no free level — so its cells are its bound prefixes alone.
    ctx = context(triangle_view("bbf"), triangle_database(120, 4000, seed=11), False)
    (r, *_) = ctx.atoms
    assert not r.free_vars and len(ctx.columns().atoms[0].roots) == 4000
    assert ctx.index_cells() == spec_index_cells(ctx)


@st.composite
def deltas(draw, view, db):
    """``db`` after random inserts and deletes, untouched relations kept
    by identity (as a dynamic view's next version keeps them)."""
    fresh = draw(databases(view))
    changed = []
    for relation in db:
        if draw(st.booleans()):
            changed.append(relation)  # untouched: the very object
            continue
        rows = sorted(relation.rows)
        dropped = draw(st.sets(st.sampled_from(rows))) if rows else set()
        added = fresh[relation.name].rows if draw(st.booleans()) else frozenset()
        kept = (relation.rows - dropped) | added
        changed.append(Relation(relation.name, relation.arity, kept))
    return Database(changed)


@pytest.mark.parametrize("name", sorted(SHAPES))
@given(data=st.data(), build_first=st.booleans())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_a_derived_context_compiles_what_a_fresh_one_does(name, data, build_first):
    view = SHAPES[name]
    db = data.draw(databases(view))
    before = context(view, db, build_first)
    before.columns()
    after_db = data.draw(deltas(view, db))
    derived = ViewContext(*natural_form(view, after_db), previous=before)
    fresh = context(view, after_db, False)
    for ours, theirs in (
        (derived.columns().atoms, fresh.columns().atoms),
        (derived.count_columns(), fresh.count_columns()),
        (derived.bound_columns().atoms, fresh.bound_columns().atoms),
    ):
        assert len(ours) == len(theirs)
        for atom, spec in zip(ours, theirs):
            assert_same_atom(atom, spec)
    assert_equals_the_spec(derived)


def active_values(view, db, variable):
    """``variable``'s values over every column an atom binds it to."""
    return sorted(
        {
            row[position]
            for atom in view.atoms
            for position, term in enumerate(atom.terms)
            if term == variable
            for row in db[atom.relation]
        }
    )


@st.composite
def delta_chain(draw, view, db):
    """``db`` and one to three versions after it, one delta apart, each
    relation the delta leaves alone kept by identity. A delta inserts a
    row with a fresh value at the top of a variable's values or inside
    them (between two neighbours), or deletes every row holding one
    value in one column — its last occurrence unless another column
    holds it too."""
    versions = [db]
    for _ in range(draw(st.integers(1, 3))):
        db = versions[-1]
        atom = draw(st.sampled_from(view.atoms))
        relation = db[atom.relation]
        slots = [p for p, term in enumerate(atom.terms) if isinstance(term, Variable)]
        kind = draw(st.sampled_from(("top", "inside", "empty")))
        if not slots or (kind == "empty" and not relation.rows):
            versions.append(db)
            continue
        position = draw(st.sampled_from(slots))
        variable = atom.terms[position]
        if kind == "empty":
            value = draw(st.sampled_from(sorted(relation.column_values(position))))
            gone = [row for row in relation.rows if row[position] == value]
            versions.append(db.replace(relation.with_changes((), gone)))
            continue
        values = active_values(view, db, variable)
        if kind == "inside" and len(values) > 1:
            low = draw(st.integers(0, len(values) - 2))
            fresh = values[low] + (values[low + 1] - values[low]) / 2
        else:
            fresh = (values[-1] if values else 0) + draw(st.integers(1, 3))
        row = []
        for term in atom.terms:
            if term == variable:
                row.append(fresh)
            elif isinstance(term, Variable):
                others = active_values(view, db, term)
                row.append(draw(st.sampled_from(others)) if others else 0)
            else:
                row.append(term.value)
        versions.append(db.replace(relation.with_changes([tuple(row)], ())))
    return versions


@pytest.mark.parametrize("name", sorted(SHAPES))
@given(data=st.data())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_a_derived_context_keeps_exactly_the_columns_a_delta_left_in_place(
    name, data
):
    # An atom keeps its columns — the very object — exactly when its
    # relation is the very same object and each of its free domains
    # still starts with its old values; kept or not, they equal a fresh
    # context's slot for slot.
    view = SHAPES[name]
    versions = data.draw(delta_chain(view, data.draw(databases(view))))
    previous = ViewContext(*natural_form(view, versions[0]))
    for db in versions[1:]:
        before = previous.columns().atoms
        derived = ViewContext(*natural_form(view, db), previous=previous)
        fresh = ViewContext(*natural_form(view, db))
        for binding, atom, spec in zip(
            derived.atoms, derived.columns().atoms, fresh.columns().atoms, strict=True
        ):
            assert_same_atom(atom, spec)
            old = [previous.free_domains[c].values for c in binding.free_coordinates]
            new = [derived.free_domains[c].values for c in binding.free_coordinates]
            kept = previous.atoms[binding.label].relation is binding.relation and all(
                values[: len(prefix)] == prefix for prefix, values in zip(old, new)
            )
            assert (atom is before[binding.label]) == kept
        previous = derived


def test_a_context_compiles_its_bound_columns_once_and_sorts_each_atom_once(
    monkeypatch,
):
    # tau_churn's data and view; three builds over one context.
    calls = {"bound": [], "free": [], "join": [], "sorts": 0}
    bound_atom, compile_atom, row_keys = (
        layout_mod._bound_atom,
        layout_mod._compile_atom,
        layout_mod._row_keys,
    )

    def counting_bound(binding, keys):
        calls["bound"].append(binding.label)
        return bound_atom(binding, keys)

    def counting_compile(binding, keys, free_only=False):
        calls["free" if free_only else "join"].append(binding.label)
        return compile_atom(binding, keys, free_only)

    def counting_keys(rows, positions, domains):
        calls["sorts"] += 1
        return row_keys(rows, positions, domains)

    monkeypatch.setattr(layout_mod, "_bound_atom", counting_bound)
    monkeypatch.setattr(layout_mod, "_compile_atom", counting_compile)
    monkeypatch.setattr(layout_mod, "_row_keys", counting_keys)
    view, db = triangle_view("bbf"), triangle_database(60, 900, seed=11)
    ctx = ViewContext(view, db)
    reps = [
        CompressedRepresentation(view, db, tau, context=ctx) for tau in (2.0, 4.0, 8.0)
    ]
    assert calls == {
        "bound": [0, 1, 2],
        "free": [0, 1, 2],
        "join": [0, 1, 2],
        "sorts": 3,
    }
    assert all(rep.ctx is ctx for rep in reps)
    assert ctx.bound_columns() is ctx.bound_columns()
