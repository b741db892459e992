"""One copy of (T, D): a structure is its compiled columns.

Algorithm 1 and the dictionary pass produce objects — a
``DelayBalancedTree`` of node records, a ``HeavyDictionary`` of
``(node, access) → bit`` — which the layout compiler turns into the
columns the kernel walks. Since codec v3 the columns are the one stored
and the one resident form; the objects are the build's locals, and
``rep.tree`` / ``rep.dictionary`` are views materialised from the
columns when someone asks. Held here:

* after a build and after a decode an instance holds neither object,
  and nothing that serves, accounts or stores makes one (spies on the
  two constructors);
* a view, once asked for, *is* what the build produced — the tree's
  records and costs bit for bit, the dictionary's columns entry for
  entry at one version step per entry (the build writes the columns and
  makes no ``HeavyDictionary``) — so ``tests/reference_build.py``'s
  equality keeps its meaning;
* an edit to the dictionary view is refused as stale until
  ``compile_layout()`` writes it back, also on a restored Algorithm 4
  bag;
* ``encode(decode(encode(r)))`` is ``encode(r)``, byte for byte, and a
  state has one structure section.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from legacy_codec import dictionary_triples, tree_records
from oracle import oracle_accesses, oracle_answer
from test_build_kernel import TAUS, VIEWS, databases
from repro.core import structure as structure_mod
from repro.core.balanced_tree import DelayBalancedTree
from repro.core.decomposed import DecomposedRepresentation
from repro.core.dictionary import HeavyDictionary
from repro.core.snapshot import decode_snapshot, encode_snapshot
from repro.core.structure import CompressedRepresentation
from repro.engine import ParallelBuilder, ReplicaServer, ViewServer
from repro.exceptions import ParameterError
from repro.workloads import (
    path_database,
    path_view,
    triangle_database,
    triangle_view,
)


@contextmanager
def object_forms():
    """Every ``DelayBalancedTree`` / ``HeavyDictionary`` constructed inside."""
    made = []

    def spy(cls):
        init = cls.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        return mock.patch.object(cls, "__init__", counting)

    with spy(DelayBalancedTree), spy(HeavyDictionary):
        yield made


def facts(tree, dictionary):
    """Everything the two objects hold, in comparable form."""
    return (
        tree_records(tree),
        tree.boxes,
        tree.max_level,
        dictionary_triples(dictionary),
        dictionary.version,
    )


def column_facts(tree, columns):
    """:func:`facts` of a built tree and the dictionary columns it got."""
    triples = sorted(
        (node_id, access, bit)
        for access, (lo, hi) in columns.index.items()
        for node_id, bit in zip(columns.nodes[lo:hi], columns.bits[lo:hi])
    )
    return (
        tree_records(tree),
        tree.boxes,
        tree.max_level,
        triples,
        columns.entries,
    )


def touch_everything_that_serves(rep, view, db):
    report = rep.space_report()
    assert report.tree_nodes == rep.stats.tree_nodes
    assert report.dictionary_entries == rep.stats.dictionary_entries
    for access in oracle_accesses(view, db, limit=3):
        rows = list(rep.enumerate(access))
        assert rows == oracle_answer(view, db, access)
        for row in rows[:1]:
            assert list(rep.enumerate_from(access, row)) == rows
    return encode_snapshot(rep)


@pytest.mark.parametrize("name", sorted(VIEWS))
@given(data=st.data())
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_a_structure_is_its_columns(name, data):
    view = VIEWS[name]
    db = data.draw(databases(view))
    for tau in TAUS:
        with object_forms() as made:
            rep = CompressedRepresentation(view, db, tau=tau)
            # The build made no tree and no dictionary object: it wrote
            # both columns.
            assert made == []
            assert rep._tree is None and rep._dictionary is None
            blob = touch_everything_that_serves(rep, rep.view, rep.db)
            restored = decode_snapshot(blob)
            assert restored._tree is None and restored._dictionary is None
            assert touch_everything_that_serves(restored, rep.view, rep.db) == blob
            assert made == []
            # Asked for, the views are the built columns' objects, and a
            # restored blob's are the same.
            built = column_facts(rep.tree, rep._layout.dictionary)
            assert facts(rep.tree, rep.dictionary) == built
            assert facts(restored.tree, restored.dictionary) == built
            assert len(made) == 4
            assert rep.tree is rep.tree and rep.dictionary is rep.dictionary
        state = rep.snapshot_state()
        assert not {"tree", "dictionary", "layout"} & set(state)
        assert set(state["columns"]) == {"byteorder", "tree", "dictionary"}


def test_a_refined_bag_restores_at_one_set_per_entry():
    # Algorithm 4's flips move a bag's dictionary version past its entry
    # count; a state does not store versions, so the restored bag is at
    # the count — with the refined bits.
    rep = DecomposedRepresentation(path_view(4), path_database(4, 40, 10, seed=10))
    restored = decode_snapshot(encode_snapshot(rep))
    edited = 0
    for node, bag in rep.bags.items():
        ours, theirs = bag.representation, restored.bags[node].representation
        assert theirs._tree is None and theirs._dictionary is None
        edited += ours.dictionary.version > len(ours.dictionary)
        assert theirs.dictionary.version == len(theirs.dictionary)
        assert dict(theirs.dictionary.items()) == dict(ours.dictionary.items())
        assert tree_records(theirs.tree) == tree_records(ours.tree)
    assert edited


def test_the_edit_refusal_recompile_cycle_holds_on_a_restored_bag():
    view = path_view(4)
    db = path_database(4, 40, 10, seed=10)
    restored = decode_snapshot(
        encode_snapshot(DecomposedRepresentation(view, db))
    )
    accesses = oracle_accesses(view, db, limit=6)
    node = max(
        restored.bags,
        key=lambda n: restored.bags[n].representation.stats.dictionary_entries,
    )
    bag = restored.bags[node].representation
    (node_id, access), bit = next(iter(bag.dictionary.items()))
    bag.dictionary.set(node_id, access, bit)  # same bit: answers keep
    with pytest.raises(ParameterError, match="stale layout"):
        for request in accesses:
            list(restored.enumerate(request))
    with pytest.raises(ParameterError, match="stale layout"):
        encode_snapshot(restored)
    before = bag._layout
    layout = bag.compile_layout()
    assert layout is not before and layout.tree is before.tree
    assert layout.dict_version == bag.dictionary.version
    for request in accesses:
        assert sorted(restored.enumerate(request)) == oracle_answer(
            view, db, request
        )
    # A flipped bit lands in the columns, and in the next blob.
    bag.dictionary.set(node_id, access, 1 - bit)
    bag.compile_layout()
    again = decode_snapshot(encode_snapshot(restored))
    twin = again.bags[node].representation
    assert twin.dictionary.get(node_id, access) == 1 - bit


def test_compile_layout_without_a_view_compiles_nothing():
    rep = CompressedRepresentation(
        triangle_view("bbf"), triangle_database(20, 120, seed=4), tau=1.0
    )
    with mock.patch.object(
        structure_mod.layout_mod, "recompile_dictionary"
    ) as recompile, object_forms() as made:
        layout = rep._layout
        assert rep.compile_layout() is layout
        assert not recompile.called and made == []


class TestTheEngineMakesNoObjectForm:
    """Every way a structure reaches a server, and every read of it."""

    @pytest.fixture
    def setup(self):
        return triangle_view("bbf"), triangle_database(25, 120, seed=5)

    def test_open_admission_demotion_and_a_disk_tier_hit(self, setup, tmp_path):
        view, db = setup
        server = ViewServer(db, max_entries=None, snapshot_dir=tmp_path)
        name = server.register(view, tau=2.0)
        with object_forms() as made:
            server.representation(name, 2.0)
            assert made == []  # the build writes columns, not objects
            for access in oracle_accesses(view, db, limit=4):
                with server.open(name, access) as cursor:
                    assert cursor.fetchall() == oracle_answer(view, db, access)
            assert server.demote(name) == 1
            warm = server.representation(name, 2.0)
            assert server.cache_stats.disk_hits == 1
            assert server.cache.cells_of(next(iter(server.cache.keys()))) > 0
            encode_snapshot(warm)
            assert made == []
        assert warm._tree is None and warm._dictionary is None
        server.close()

    def test_a_parallel_builders_hand_back(self, setup):
        view, db = setup
        with ParallelBuilder(max_workers=1) as builder, object_forms() as made:
            server = ViewServer(db, builder=builder)
            name = server.register(view, tau=8.0)
            built = [server.representation(name, tau) for tau in (2.0, 8.0)]
            # A worker's objects stay in the worker; an in-process
            # fallback build writes columns and makes no object either.
            assert made == []
            assert all(rep._tree is None for rep in built)
            server.close()

    def test_a_replica_hydration(self, setup, tmp_path):
        view, db = setup
        primary = ViewServer(db, snapshot_dir=tmp_path)
        name = primary.register(view, tau=8.0)
        for tau in (2.0, 8.0):
            primary.representation(name, tau)
        with object_forms() as made:
            replica = ReplicaServer(db, snapshot_dir=tmp_path)
            replica.register(view, tau=8.0)
            replica.hydrate()
            for tau in (2.0, 8.0):
                assert replica.representation(name, tau)._dictionary is None
            access = oracle_accesses(view, db, limit=1)[0]
            assert replica.answer(name, access) == oracle_answer(view, db, access)
            assert made == [] and replica.total_builds() == 0
        primary.close()
