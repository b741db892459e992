"""One ViewContext per registration: shared by identity, never by accident.

The atoms' index, domains and tuple space of a static structure do not
depend on τ (the ``|D|`` term of Theorem 1), so the engine builds them once per
registration generation and every structure it builds, warm-loads or
hydrates on a replica shares that one
:class:`~repro.core.context.ViewContext` by reference. A restored
structure adopts a resident context only after its blob's own view and
database compared *equal* to the context's. The blob format is PR 18's
minus the layout's atom section (the context compiles those columns
now): blobs of that age still load, section ignored.
"""

import gc
import itertools
import pickle
import shutil
import weakref
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from legacy_codec import legacy_state, payload_of
from oracle import oracle_accesses, oracle_answer
from reference_index import TrieIndex
from repro.core import snapshot as snap
from repro.core.context import ViewContext
from repro.core.snapshot import (
    SNAPSHOT_VERSION,
    SUPPORTED_VERSIONS,
    database_fingerprint,
    decode_snapshot,
    encode_snapshot,
    inspect_snapshot,
)
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine import (
    ReplicaServer,
    ShardedViewServer,
    ViewServer,
    representation_cells,
)
from repro.exceptions import ParameterError, SnapshotError
from repro.workloads import (
    path_view,
    star_view,
    triangle_database,
    triangle_view,
)

TAUS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
#: A v2 blob written by the tree *before* contexts were shared (PR 18):
#: the tiny_db triangle ``bbf`` at τ = 1.
PARENT_BLOB = Path(__file__).parent / "data" / "pr18_tiny_bbf_tau1.snap"
#: A snapshot directory written by the last tree whose layouts carried
#: their atoms' columns (PR 22): tiny_db, triangle ``bff`` at τ = 1, 2.
PARENT_DIRECTORY = Path(__file__).parent / "data" / "pr22_tiny_bff_dir"


@pytest.fixture
def setup():
    return triangle_view("bbf"), triangle_database(nodes=25, edges=120, seed=5)


def freeze(context: ViewContext):
    """A deep, comparable copy of everything a shared context holds."""

    def columns(atom):
        return (atom.roots, atom.vals, atom.kid_lo, atom.kid_hi, atom.counts)

    return (
        tuple(columns(atom) for atom in context.columns().atoms),
        tuple(columns(atom) for atom in context.count_columns()),
        tuple(domain.values for domain in context.free_domains),
        {var: domain.values for var, domain in context.bound_domains.items()},
        context.index_cells(),
        pickle.dumps(context.states()),
        pickle.dumps(context.default_cover()),
    )


class TestIdentity:
    def test_every_tau_of_one_registration_shares_one_context(
        self, setup, tmp_path
    ):
        view, db = setup
        server = ViewServer(db, max_entries=None, snapshot_dir=tmp_path)
        name = server.register(view, tau=8.0)
        cold = {tau: server.representation(name, tau) for tau in TAUS}
        context = cold[2.0].ctx
        assert all(rep.ctx is context for rep in cold.values())
        assert all(rep.cost_model.ctx is context for rep in cold.values())
        # ... and so does every structure decoded from the disk tier.
        assert server.demote(name) == len(TAUS)
        warm = {tau: server.representation(name, tau) for tau in TAUS}
        assert server.cache_stats.disk_hits == len(TAUS)
        assert server.total_builds() == len(TAUS)
        for tau in TAUS:
            assert warm[tau] is not cold[tau]
            assert warm[tau].ctx is context
            assert warm[tau].db is cold[tau].db
        for access in oracle_accesses(view, db, limit=6):
            for tau in (2.0, 64.0):
                assert server.answer(name, access) == oracle_answer(
                    view, db, access
                )
                assert list(warm[tau].enumerate(access)) == list(
                    cold[tau].enumerate(access)
                )

    def test_a_restarted_server_builds_one_context_for_every_warm_load(
        self, setup, tmp_path
    ):
        view, db = setup
        first = ViewServer(db, max_entries=None, snapshot_dir=tmp_path)
        first.register(view, tau=8.0, name="V")
        for tau in TAUS:
            first.representation("V", tau)
        assert first.cache_stats.disk_writes == len(TAUS)
        restarted = ViewServer(db, max_entries=None, snapshot_dir=tmp_path)
        restarted.register(view, tau=8.0, name="V")
        loaded = [restarted.representation("V", tau) for tau in TAUS]
        assert restarted.total_builds() == 0
        assert restarted.cache_stats.disk_hits == len(TAUS)
        assert len({id(rep.ctx) for rep in loaded}) == 1
        assert loaded[0].ctx is not first.representation("V", 2.0).ctx
        # The restart serves what the cold server served, without a build.
        for access in oracle_accesses(view, db, limit=6):
            assert restarted.answer("V", access) == oracle_answer(
                view, db, access
            )
        assert restarted.total_builds() == 0

    def test_on_a_replica(self, setup, tmp_path):
        view, db = setup
        primary = ViewServer(db, snapshot_dir=tmp_path)
        name = primary.register(view, tau=8.0)
        for tau in (2.0, 8.0):
            primary.representation(name, tau)
        replica = ReplicaServer(db, snapshot_dir=tmp_path)
        replica.register(view, tau=8.0)
        replica.hydrate()
        hydrated = [replica.representation(name, tau) for tau in (2.0, 8.0)]
        assert replica.total_builds() == 0
        assert hydrated[0].ctx is hydrated[1].ctx
        assert hydrated[0].ctx is not primary.representation(name).ctx

    def test_on_every_shard_per_shard(self, setup):
        view, db = setup
        sharded = ShardedViewServer(db, 3, {"R": 0, "T": 1})
        name = sharded.register(view, tau=8.0)
        per_tau = [sharded.prebuild(name, tau) for tau in (2.0, 8.0)]
        contexts = [rep.ctx for rep in per_tau[0]]
        assert len({id(context) for context in contexts}) == 3
        for again, context in zip(per_tau[1], contexts):
            assert again.ctx is context
        sharded.close()

    def test_a_new_generation_gets_a_new_context_and_unregister_releases(
        self, setup
    ):
        view, db = setup
        other = triangle_database(nodes=25, edges=120, seed=6)
        server = ViewServer(db)
        name = server.register(view, tau=8.0)
        first = server.representation(name).ctx
        assert server.unregister(name)
        server.register(view, tau=8.0, database=other)
        second = server.representation(name).ctx
        assert second is not first and second.db is other
        released = weakref.ref(second)
        del first, second
        assert server.unregister(name)
        gc.collect()
        assert released() is None
        assert len(server.cache) == 0

    def test_a_context_over_another_database_is_refused_by_the_constructor(
        self, setup
    ):
        view, db = setup
        other = triangle_database(nodes=25, edges=120, seed=6)
        with pytest.raises(ParameterError, match="another"):
            CompressedRepresentation(
                view, db, tau=8.0, context=ViewContext(view, other)
            )


def same_columns(rep, context) -> bool:
    """Whether ``rep``'s layout holds the context's own join columns."""
    layout, columns = rep._layout, context.columns()
    return (
        rep.ctx is context
        and layout.atoms is columns.atoms
        and layout.join_atoms is columns.join_atoms
        and layout.participants is columns.participants
        and layout.domain_values is columns.domain_values
        and all(
            mine.vals is theirs.vals and mine.roots is theirs.roots
            for mine, theirs in zip(layout.atoms, columns.atoms)
        )
    )


class TestOneIndexPerContext:
    """The kernel's form of the |D| term is the context's, never a layout's.

    Atom columns and the join schedule are a function of (view,
    database): compiled once per context, and every
    layout over it — each τ, each way a structure can arrive — holds
    those very objects.
    """

    def test_two_taus_and_a_disk_tier_hit_hold_the_contexts_columns(
        self, setup, tmp_path, monkeypatch
    ):
        from repro.core import layout as layout_mod

        compiled = []
        compile_atom = layout_mod._compile_atom
        monkeypatch.setattr(
            layout_mod,
            "_compile_atom",
            lambda binding, space, free_only=False: compiled.append(
                (binding.label, free_only)
            )
            or compile_atom(binding, space, free_only),
        )
        view, db = setup
        server = ViewServer(db, max_entries=None, snapshot_dir=tmp_path)
        name = server.register(view, tau=8.0)
        cold = {tau: server.representation(name, tau) for tau in TAUS}
        context = cold[2.0].ctx
        assert all(same_columns(rep, context) for rep in cold.values())
        assert server.demote(name) == len(TAUS)
        warm = {tau: server.representation(name, tau) for tau in TAUS}
        assert server.cache_stats.disk_hits == len(TAUS)
        assert all(same_columns(rep, context) for rep in warm.values())
        # Twelve structures, one compile of the three atoms — and, for the
        # builds' unrestricted counts, one of their free columns.
        assert compiled == [(0, False), (1, False), (2, False)] + [
            (0, True),
            (1, True),
            (2, True),
        ]
        access = oracle_accesses(view, db, limit=1)[0]
        assert list(warm[2.0].enumerate(access)) == oracle_answer(
            view, db, access
        )

    def test_a_replica_hydration_holds_the_replicas_own(self, setup, tmp_path):
        view, db = setup
        primary = ViewServer(db, snapshot_dir=tmp_path)
        name = primary.register(view, tau=8.0)
        for tau in (2.0, 8.0):
            primary.representation(name, tau)
        replica = ReplicaServer(db, snapshot_dir=tmp_path)
        replica.register(view, tau=8.0)
        replica.hydrate()
        hydrated = [replica.representation(name, tau) for tau in (2.0, 8.0)]
        assert replica.total_builds() == 0
        assert all(same_columns(rep, hydrated[0].ctx) for rep in hydrated)
        assert not same_columns(hydrated[0], primary.representation(name).ctx)

    def test_a_re_registration_with_other_data_does_not(self, setup):
        view, db = setup
        other = triangle_database(nodes=25, edges=120, seed=6)
        server = ViewServer(db)
        name = server.register(view, tau=8.0)
        first = server.representation(name)
        assert server.unregister(name)
        server.register(view, tau=8.0, database=other)
        second = server.representation(name)
        assert same_columns(first, first.ctx)
        assert same_columns(second, second.ctx)
        assert second.ctx.columns() is not first.ctx.columns()
        assert second._layout.atoms is not first._layout.atoms

    def test_the_columns_are_compiled_when_first_asked_for(self, setup):
        view, db = setup
        context = ViewContext(view, db)
        assert context._columns is None
        columns = context.columns()
        assert context.columns() is columns
        assert [atom.coords for atom in columns.atoms] == [
            binding.free_coordinates for binding in context.atoms
        ]
        assert columns.space is context.space


def columns_from_trie(trie, bound_depth, coords, space):
    """An atom's columns read off a trie over the same keys, level by level.

    How ``core/layout.py`` compiled them while every context built its
    tries up front; kept here as the independent form the one-pass
    compile from rows is held to. A level's prefix counts are the running
    sums of its entries' subtree counts; an atom with no free variable
    has one entry per root.
    """
    root = trie.descend(())
    level_nodes = [] if root is None else [((), root)]
    for _ in range(bound_depth):
        level_nodes = [
            (prefix + (key,), node.children[key])
            for prefix, node in level_nodes
            for key in node.keys
        ]
    width = len(coords)
    roots, vals = {}, [[] for _ in range(width)]
    kid_lo = [[] for _ in range(max(width - 1, 0))]
    kid_hi = [[] for _ in range(max(width - 1, 0))]
    sizes = [[] for _ in range(max(width, 1))]
    current = []
    for prefix, node in level_nodes:
        lo = len(sizes[0])
        if width:
            domain = space.domains[coords[0]]
            for key in node.keys:
                vals[0].append(domain.index_of(key))
                current.append(node.children[key])
                sizes[0].append(node.children[key].count)
        else:
            sizes[0].append(node.count)
        roots[prefix] = (lo, len(sizes[0]))
    for level in range(1, width):
        domain = space.domains[coords[level]]
        below = []
        for parent in current:
            kid_lo[level - 1].append(len(vals[level]))
            for key in parent.keys:
                vals[level].append(domain.index_of(key))
                below.append(parent.children[key])
                sizes[level].append(parent.children[key].count)
            kid_hi[level - 1].append(len(vals[level]))
        current = below
    counts = [list(itertools.accumulate(run, initial=0)) for run in sizes]
    return roots, vals, kid_lo, kid_hi, counts


COLUMN_VIEWS = [
    (triangle_view(pattern), ("R", "S", "T"))
    for pattern in ("bbf", "bff", "fbf", "fff", "bbb")
] + [
    (path_view(3, pattern), ("R1", "R2", "R3"))
    for pattern in ("bffb", "ffff", "fbbf")
] + [(star_view(3, pattern), ("R1", "R2", "R3")) for pattern in ("bbbf", "bfff")]


@given(
    st.sampled_from(COLUMN_VIEWS),
    st.lists(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20),
        min_size=3,
        max_size=3,
    ),
)
@settings(max_examples=150, deadline=None)
def test_columns_compiled_from_rows_equal_the_tries_levels(case, rows):
    # Empty relations, atoms with no bound or no free variable included.
    view, names = case
    db = Database([Relation(name, 2, r) for name, r in zip(names, rows)])
    context = ViewContext(view, db)
    columns = context.columns()
    assert context._count_columns is None
    counted = context.count_columns()
    for binding, atom, free in zip(context.atoms, columns.atoms, counted):
        depth = len(binding.bound_vars)
        coords = binding.free_coordinates
        trie = TrieIndex(binding.relation, binding.column_order)
        assert (
            atom.roots,
            atom.vals,
            atom.kid_lo,
            atom.kid_hi,
            [list(run) for run in atom.counts],
        ) == columns_from_trie(trie, depth, coords, context.space)
        assert atom.coords == binding.free_coordinates
        assert atom.bound_positions == binding.bound_access_positions
        # The count instance: the free columns alone, repeats counted.
        multiplicities = TrieIndex(
            binding.relation, binding.column_order[depth:], dedupe=False
        )
        assert (
            free.roots,
            free.vals,
            free.kid_lo,
            free.kid_hi,
            [list(run) for run in free.counts],
        ) == columns_from_trie(multiplicities, 0, coords, context.space)
        assert (free is atom) == (not depth)


class TestRefusal:
    """Adoption is by exact comparison: any mismatch is a SnapshotError."""

    @pytest.fixture
    def two_databases(self, setup):
        view, db_a = setup
        db_b = triangle_database(nodes=25, edges=120, seed=6)
        return view, db_a, db_b

    def test_a_restamped_blob_over_another_database(self, two_databases):
        view, db_a, db_b = two_databases
        fingerprint_b = database_fingerprint(db_b)
        blob = encode_snapshot(
            CompressedRepresentation(view, db_a, tau=4.0),
            fingerprint=fingerprint_b,
        )
        context_b = ViewContext(view, db_b)
        # Every header check passes; only the comparison can tell.
        assert inspect_snapshot(blob)["complete"]
        assert decode_snapshot(blob, fingerprint_b).db is not db_b
        with pytest.raises(SnapshotError, match="another view or database"):
            decode_snapshot(blob, fingerprint_b, context=context_b)

    def test_a_blob_of_the_same_name_under_another_adornment(self, setup):
        _, db = setup
        bbf, bff = triangle_view("bbf"), triangle_view("bff")
        assert bbf.name == bff.name
        blob = encode_snapshot(CompressedRepresentation(bff, db, tau=4.0))
        with pytest.raises(SnapshotError, match="another view or database"):
            decode_snapshot(blob, context=ViewContext(bbf, db))

    def test_header_checks_still_come_first(self, setup):
        view, db = setup
        context = ViewContext(view, db)
        blob = encode_snapshot(CompressedRepresentation(view, db, tau=4.0))
        with pytest.raises(SnapshotError, match="different database"):
            decode_snapshot(blob, "0" * 64, context=context)
        with pytest.raises(SnapshotError, match="CRC"):
            decode_snapshot(blob[:-1] + b"\x00", context=context)
        with pytest.raises(SnapshotError, match="truncated"):
            decode_snapshot(blob[:-9], context=context)
        with pytest.raises(SnapshotError, match="magic"):
            decode_snapshot(b"NOPE" + blob[4:], context=context)

    def test_only_a_compressed_snapshot_adopts_a_context(self, setup):
        from repro.core.dynamic import DynamicRepresentation

        view, db = setup
        blob = encode_snapshot(DynamicRepresentation(view, db, tau=4.0))
        assert decode_snapshot(blob) is not None
        with pytest.raises(SnapshotError, match="cannot adopt"):
            decode_snapshot(blob, context=ViewContext(view, db))

    @pytest.mark.parametrize("mismatch", ["database", "view"])
    def test_through_the_cache_it_is_a_miss_a_rebuild_and_an_overwrite(
        self, two_databases, tmp_path, mismatch
    ):
        view, db_a, db_b = two_databases
        if mismatch == "database":
            wrong = CompressedRepresentation(view, db_a, tau=8.0)
        else:
            wrong = CompressedRepresentation(
                triangle_view("bff"), db_b, tau=8.0
            )
        server = ViewServer(db_b, snapshot_dir=tmp_path)
        name = server.register(view, tau=8.0)
        path = server.snapshot_store.path_for(
            server.registration(name).snapshot_label(8.0)
        )
        planted = encode_snapshot(
            wrong, fingerprint=database_fingerprint(db_b)
        )
        path.write_bytes(planted)
        served = server.representation(name)
        stats = server.cache_stats
        assert (stats.misses, stats.disk_hits, stats.disk_writes) == (1, 0, 1)
        assert server.total_builds() == 1
        assert path.read_bytes() != planted
        for access in oracle_accesses(view, db_b, limit=6):
            assert list(served.enumerate(access)) == oracle_answer(
                view, db_b, access
            )
        # The overwritten file is the right one: the next load adopts.
        server.demote(name)
        assert server.representation(name).ctx is served.ctx
        assert server.cache_stats.disk_hits == 1


    def test_a_demoted_blob_of_a_dead_generation_is_not_served_as_the_next(
        self, two_databases, tmp_path
    ):
        # Labels leave the generation out and the store's fingerprint is
        # the server database's, so a blob an *evicted* τ left on disk
        # outlives unregister — and a re-registration under the same name
        # with ``database=`` other data used to warm-load it and answer
        # from the old data (12 of 12 answers wrong before contexts were
        # compared). It is refused now: rebuilt, and overwritten.
        view, db_a, db_b = two_databases
        server = ViewServer(db_a, max_entries=1, snapshot_dir=tmp_path)
        name = server.register(view, tau=8.0)
        server.representation(name, 2.0)
        server.representation(name, 8.0)  # evicts and demotes τ = 2
        assert server.unregister(name)
        server.register(view, tau=8.0, database=db_b)
        for access in oracle_accesses(view, db_b, limit=12):
            assert server.open(
                name, access, tau=2.0
            ).fetchall() == oracle_answer(view, db_b, access)
        assert server.cache_stats.disk_hits == 0
        assert server.total_builds() == 3


class TestImmutability:
    def test_six_taus_built_served_demoted_and_restored_leave_it_unchanged(
        self, setup, tmp_path
    ):
        view, db = setup
        probe = ViewServer(db, max_entries=None)
        probe.register(view, tau=8.0, name="V")
        budget = sum(
            representation_cells(probe.representation("V", tau))
            for tau in (2.0, 8.0)
        )
        server = ViewServer(
            db, max_entries=None, max_cells=budget, snapshot_dir=tmp_path
        )
        server.register(view, tau=8.0, name="V")
        context = server.representation("V", 2.0).ctx
        before = freeze(context)
        accesses = oracle_accesses(view, db, limit=5)
        for _ in range(2):
            for tau in TAUS:
                assert server.representation("V", tau).ctx is context
                for access in accesses:
                    assert server.open(
                        "V", access, tau=tau
                    ).fetchall() == oracle_answer(view, db, access)
                batch = server.answer_batch("V", accesses, tau=tau)
                assert batch.unique_count == len(set(accesses))
        assert server.cache_stats.evictions > 0
        assert server.cache_stats.disk_hits > 0
        assert freeze(context) == before


def count_calls(monkeypatch, cls):
    """Wrap ``cls.__init__``; the returned list grows by one per entry."""
    entered = []
    original = cls.__init__

    def counted(self, *args, **kwargs):
        entered.append(cls.__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return entered


class TestCounts:
    def test_no_path_of_the_theorem_1_structure_builds_a_trie(
        self, setup, tmp_path, monkeypatch
    ):
        # Counting, joining and accounting all read the context's columns:
        # a build, a disk-tier warm start, a replica's hydration, a dirty first read, cache admission and
        # space_report() construct no value-space index at all.
        from repro.baselines.lazy import LazyView
        from repro.baselines.materialized import MaterializedView
        from repro.core.dynamic import DynamicRepresentation

        view, db = setup
        tries = count_calls(monkeypatch, TrieIndex)
        access = oracle_accesses(view, db, limit=1)[0]
        expected = oracle_answer(view, db, access)
        built = CompressedRepresentation(view, db, tau=4.0)
        assert built.space_report().index_cells > 0
        first = ViewServer(db, max_entries=None, snapshot_dir=tmp_path)
        first.register(view, tau=8.0, name="V")
        assert first.open("V", access).fetchall() == expected  # admission
        restarted = ViewServer(db, max_entries=None, snapshot_dir=tmp_path)
        restarted.register(view, tau=8.0, name="V")
        assert restarted.answer("V", access) == expected
        assert restarted.total_builds() == 0
        assert restarted.representation("V").space_report().index_cells > 0
        replica = ReplicaServer(db, snapshot_dir=tmp_path)
        replica.register(view, tau=8.0, name="V")
        replica.hydrate()
        assert replica.answer("V", access) == expected
        assert replica.total_builds() == 0
        dynamic = DynamicRepresentation(
            view, db, tau=8.0, rebuild_fraction=float("inf")
        )
        dynamic.insert("R", (0, 1))
        frozen = dynamic.freeze()
        current = dynamic.current_database()
        assert frozen.answer(access) == oracle_answer(view, current, access)
        assert tries == []
        # Nor do the baselines: nothing in src/ builds one. The spy sees
        # the tests' own.
        LazyView(view, db)
        MaterializedView(view, db)
        assert tries == []
        TrieIndex(db[view.atoms[0].relation], [0])
        assert tries == ["TrieIndex"]

    def test_a_warm_churn_pass_builds_no_context_and_no_trie(
        self, setup, tmp_path, monkeypatch
    ):
        view, db = setup
        contexts = count_calls(monkeypatch, ViewContext)
        tries = count_calls(monkeypatch, TrieIndex)
        ladder = ViewServer(db, max_entries=None, snapshot_dir=tmp_path)
        ladder.register(view, tau=8.0, name="churn")
        built = {tau: ladder.representation("churn", tau) for tau in TAUS}
        assert (len(contexts), len(tries)) == (1, 0)
        budget = representation_cells(built[2.0]) + representation_cells(
            built[8.0]
        )
        server = ViewServer(
            db, max_entries=None, max_cells=budget, snapshot_dir=tmp_path
        )
        server.register(view, tau=8.0, name="churn")
        server.representation("churn", 2.0)
        assert (len(contexts), len(tries)) == (2, 0)
        access = oracle_accesses(view, db, limit=1)[0]
        for _ in range(2):  # the second pass is the warm one
            del contexts[:], tries[:]
            before = server.cache_stats
            for tau in TAUS:
                assert server.open(
                    "churn", access, tau=tau
                ).fetchall() == oracle_answer(view, db, access)
        churn = server.cache_stats.delta(before)
        assert churn.disk_hits > 0 and churn.evictions > 0
        assert server.total_builds() == 0
        assert (len(contexts), len(tries)) == (0, 0)

    def test_the_default_cover_is_solved_once_per_context(
        self, setup, monkeypatch
    ):
        from repro.core import context as context_module

        view, db = setup
        solved = []
        solve = context_module.max_slack_cover
        monkeypatch.setattr(
            context_module,
            "max_slack_cover",
            lambda *args: solved.append(args) or solve(*args),
        )
        server = ViewServer(db, max_entries=None)
        name = server.register(view, tau=8.0)
        built = [server.representation(name, tau) for tau in TAUS]
        assert len(solved) == 1
        private = CompressedRepresentation(view, db, tau=2.0)
        assert built[0].weights == private.weights
        assert built[0].alpha == private.alpha
        assert built[0].weights is not built[1].weights  # copies, not aliases

    def test_a_budgeted_registration_keeps_its_cover_at_its_own_tau_only(
        self, setup
    ):
        view, db = setup
        server = ViewServer(db, max_entries=None)
        name = server.register(view, space_budget=4000)
        registration = server.registration(name)
        own = server.representation(name)
        other = server.representation(name, registration.tau * 2)
        assert own.ctx is other.ctx
        assert own.weights == {
            label: float(w) for label, w in registration.weights.items()
        }
        assert other.weights == own.ctx.default_cover()[0]

    def test_a_resident_hit_formats_no_label_and_hashes_no_path(
        self, setup, tmp_path, monkeypatch
    ):
        from repro.engine.server import Registration

        view, db = setup
        formatted = []
        snapshot_label = Registration.snapshot_label
        monkeypatch.setattr(
            Registration,
            "snapshot_label",
            lambda self, tau: formatted.append(tau)
            or snapshot_label(self, tau),
        )
        server = ViewServer(db, snapshot_dir=tmp_path)
        name = server.register(view, tau=8.0)
        server.representation(name)
        assert formatted == [8.0]  # the miss
        for _ in range(3):
            server.representation(name)
        assert formatted == [8.0]  # hits: none
        # ... and a label's path is hashed once, however often the store
        # is asked for it (load, save, ``in``, every delta-log append).
        store = server.snapshot_store
        label = server.registration(name).snapshot_label(8.0)
        hashed = snap.label_path.cache_info().misses
        assert label in store
        assert store.path_for(label) is store.path_for(label)
        assert snap.label_path.cache_info().misses == hashed
        # Without a disk tier no label is formatted at all.
        del formatted[:]
        plain = ViewServer(db)
        plain.register(view, tau=8.0)
        plain.representation(name)
        assert formatted == []

    def test_index_cells_walks_the_tries_once(self, setup, monkeypatch):
        # The cells are the edges of a trie per access path, counted from
        # the rows once per context: no trie is built or walked for them.
        from reference_build import spec_tries

        view, db = setup
        rep = CompressedRepresentation(view, db, tau=8.0)
        expected = sum(
            trie.cells() + free.cells() for trie, free in spec_tries(rep.ctx)
        )
        tries = count_calls(monkeypatch, TrieIndex)
        fresh = CompressedRepresentation(view, db, tau=8.0)
        assert fresh.ctx.index_cells() == expected
        assert representation_cells(fresh) == representation_cells(rep)
        assert fresh.space_report().index_cells == fresh.ctx.index_cells()
        assert tries == []

    def test_the_dictionary_restores_in_bulk_to_the_same_version(self, setup):
        # The dictionary is the layout's columns, restored in bulk: a
        # decoded structure's holds the build's entries in the build's
        # order and probes to the same bits (None for a light pair).
        view, db = setup
        rep = CompressedRepresentation(view, db, tau=2.0)
        dictionary = rep.dictionary
        assert len(dictionary) > 100
        restored = decode_snapshot(encode_snapshot(rep)).dictionary
        assert restored.items() == dictionary.items()
        for (node_id, access), bit in dictionary.items():
            assert restored.get(node_id, access) == bit
        assert restored.get(0, (-1, -1)) is None


class TestBlobCompatibility:
    def test_the_format_version_did_not_move(self):
        # What must not move is the contract: one write version, the
        # newest, and every version ever written still read.
        assert SUPPORTED_VERSIONS == (1, 2, 3, 4)
        assert SNAPSHOT_VERSION == max(SUPPORTED_VERSIONS)
        assert inspect_snapshot(PARENT_BLOB.read_bytes())["version"] == 2

    def test_a_parent_written_blob_loads_with_and_without_a_context(
        self, tiny_db
    ):
        view = triangle_view("bbf")
        blob = PARENT_BLOB.read_bytes()
        fingerprint = database_fingerprint(tiny_db)
        context = ViewContext(view, tiny_db)
        alone = decode_snapshot(blob, fingerprint)
        shared = decode_snapshot(blob, fingerprint, context=context)
        assert shared.ctx is context and alone.ctx is not context
        assert len(alone.dictionary) == len(shared.dictionary) == 6
        for access in oracle_accesses(view, tiny_db, limit=12):
            expected = oracle_answer(view, tiny_db, access)
            assert list(alone.enumerate(access)) == expected
            assert list(shared.enumerate(access)) == expected

    def test_a_new_blob_has_no_atom_section_and_is_smaller(self, tiny_db):
        view = triangle_view("bbf")
        rep = CompressedRepresentation(view, tiny_db, tau=1.0)
        assert sorted(rep.snapshot_state()["columns"]) == [
            "byteorder",
            "dictionary",
            "tree",
        ]
        assert len(encode_snapshot(rep)) < len(PARENT_BLOB.read_bytes())

    def test_a_v1_blob_and_a_v2_blob_with_atoms_load_over_one_path(
        self, tiny_db
    ):
        # v1: no layout at all. Parent-written v2: a layout with an atom
        # section. Today's: a layout without one. All three answer alike.
        view = triangle_view("bbf")
        parents = PARENT_BLOB.read_bytes()
        header = snap._parse_header(parents)
        state = pickle.loads(parents[header[-1] :])
        assert "atoms" in state["layout"]
        del state["layout"]
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        kind, fingerprint = (part.encode("utf-8") for part in header[1:3])
        v1 = b"".join(
            (
                snap._HEADER_PREFIX.pack(snap.SNAPSHOT_MAGIC, 1),
                snap._U16.pack(len(kind)),
                kind,
                snap._U16.pack(len(fingerprint)),
                fingerprint,
                snap._TRAILER.pack(zlib.crc32(payload), len(payload)),
                payload,
            )
        )
        assert inspect_snapshot(v1)["version"] == 1
        todays = encode_snapshot(decode_snapshot(parents))
        context = ViewContext(view, tiny_db)
        for blob in (v1, parents, todays):
            for restored in (
                decode_snapshot(blob),
                decode_snapshot(blob, context=context),
            ):
                assert same_columns(restored, restored.ctx)
                for access in oracle_accesses(view, tiny_db, limit=12):
                    assert list(restored.enumerate(access)) == oracle_answer(
                        view, tiny_db, access
                    )

    def test_a_parent_written_snapshot_directory_warm_starts_with_no_build(
        self, tiny_db, tmp_path
    ):
        # Written by the PR 22 tree: ViewServer(tiny_db, snapshot_dir=...),
        # triangle bff registered as "V" at τ = 2, structures at τ = 1, 2.
        view = triangle_view("bff")
        directory = tmp_path / "snapshots"
        shutil.copytree(PARENT_DIRECTORY, directory)
        before = {
            path.name: path.read_bytes() for path in directory.iterdir()
        }
        assert len(before) == 2
        for blob in before.values():
            header = snap._parse_header(blob)
            assert "atoms" in pickle.loads(blob[header[-1] :])["layout"]
        server = ViewServer(tiny_db, max_entries=None, snapshot_dir=directory)
        server.register(view, tau=2.0, name="V")
        loaded = [server.representation("V", tau) for tau in (1.0, 2.0)]
        assert server.total_builds() == 0
        assert server.cache_stats.disk_hits == 2
        assert server.cache_stats.disk_writes == 0
        assert all(same_columns(rep, loaded[0].ctx) for rep in loaded)
        for access in oracle_accesses(view, tiny_db, limit=12):
            assert server.answer("V", access) == oracle_answer(
                view, tiny_db, access
            )
        server.close()
        assert before == {
            path.name: path.read_bytes() for path in directory.iterdir()
        }

    def test_a_blob_written_over_a_shared_context_is_the_parents_minus_its_atoms(
        self, tiny_db
    ):
        # The same facts, key for key, as the blob the PR 18 tree wrote —
        # view, database, tree records, dictionary triples, the layout's
        # tree and dictionary columns — but for the one section that is
        # not the structure's: the atoms' columns, a function of (view,
        # database) like the tries, which a loader gets from its
        # context. Since codec v3 a blob holds those facts once, as
        # columns; written back out in the v2 form (tests/legacy_codec.py)
        # they are the parent's state again.
        view = triangle_view("bbf")
        written = PARENT_BLOB.read_bytes()

        def timeless(state):
            del state["stats"]["build_seconds"]  # a wall-clock reading
            return state

        header, parents = payload_of(written)
        assert header[:3] == (2, "compressed", database_fingerprint(tiny_db))
        assert len(parents["layout"].pop("atoms")) == len(view.atoms)
        parents = timeless(parents)
        context = ViewContext(view, tiny_db)
        for rep in (
            CompressedRepresentation(view, tiny_db, tau=1.0, context=context),
            decode_snapshot(written, context=context),
        ):
            assert timeless(legacy_state(rep, 2)) == parents
