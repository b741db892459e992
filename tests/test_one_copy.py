"""One copy of (T, D): a structure is its compiled columns.

The tree pass and the dictionary pass write the columns the kernel
walks — ``TreeColumns`` and ``DictColumns`` — and since codec v3 the
columns are the one stored and the one resident form. ``rep.dictionary``
*is* the layout's ``DictColumns`` (read-only: ``get``, ``len``,
``items``), and ``rep.tree`` a ``DelayBalancedTree`` of node records
materialised from the tree columns when someone asks. Held here:

* after a build and after a decode an instance holds no tree object,
  and nothing that serves, accounts or stores makes one (a spy on the
  constructor);
* the tree view, once asked for, *is* what the build produced — records
  and costs bit for bit — and the dictionary's entries are the columns',
  entry for entry, so ``tests/reference_build.py``'s equality keeps its
  meaning;
* a built structure is never edited: Algorithm 4's refined bag is a new
  structure with new bits, and a restored one carries those bits;
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
from repro.core.balanced_tree import DelayBalancedTree
from repro.core.decomposed import DecomposedRepresentation
from repro.core.snapshot import decode_snapshot, encode_snapshot
from repro.core.structure import CompressedRepresentation
from repro.engine import ReplicaServer, ViewServer
from repro.workloads import (
    path_database,
    path_view,
    triangle_database,
    triangle_view,
)


@contextmanager
def object_forms():
    """Every ``DelayBalancedTree`` constructed inside."""
    made, init = [], DelayBalancedTree.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    with mock.patch.object(DelayBalancedTree, "__init__", counting):
        yield made


def facts(tree, dictionary):
    """Everything the tree and the dictionary hold, in comparable form."""
    return (
        tree_records(tree),
        tree.boxes,
        tree.max_level,
        dictionary_triples(dictionary),
        len(dictionary),
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
        len(columns),
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
            # The build made no tree object: it wrote both columns.
            assert made == []
            assert rep._tree is None
            blob = touch_everything_that_serves(rep, rep.view, rep.db)
            restored = decode_snapshot(blob)
            assert restored._tree is None
            assert touch_everything_that_serves(restored, rep.view, rep.db) == blob
            assert made == []
            # Asked for, the tree view is the built columns' object, the
            # dictionary the columns themselves; a restored blob's match.
            built = column_facts(rep.tree, rep._layout.dictionary)
            assert rep.dictionary is rep._layout.dictionary
            assert facts(rep.tree, rep.dictionary) == built
            assert facts(restored.tree, restored.dictionary) == built
            assert len(made) == 2
            assert rep.tree is rep.tree
        state = rep.snapshot_state()
        assert not {"tree", "dictionary", "layout"} & set(state)
        assert set(state["columns"]) == {"byteorder", "tree", "dictionary"}


def test_a_refined_bag_restores_at_one_set_per_entry():
    # Algorithm 4's flips are a refined bag's bits, one stored byte per
    # entry: a state stores those bytes, so the restored bag answers
    # from the refined bits. A refined bag holds no entry costs — like
    # every restored one, it cannot be cut.
    rep = DecomposedRepresentation(path_view(4), path_database(4, 40, 10, seed=10))
    restored = decode_snapshot(encode_snapshot(rep))
    edited = 0
    for node, bag in rep.bags.items():
        ours, theirs = bag.representation, restored.bags[node].representation
        assert theirs._tree is None and not theirs.cuttable
        edited += not ours.cuttable
        assert theirs.dictionary.items() == ours.dictionary.items()
        assert tree_records(theirs.tree) == tree_records(ours.tree)
    assert edited


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
        assert warm._tree is None
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
                assert replica.representation(name, tau)._tree is None
            access = oracle_accesses(view, db, limit=1)[0]
            assert replica.answer(name, access) == oracle_answer(view, db, access)
            assert made == [] and replica.total_builds() == 0
        primary.close()
