"""The snapshot codec: round-trips, format safety, and the store.

Round-trips are property-style over the :mod:`repro.workloads.scenarios`
shapes the serving layer actually sees — skewed data, self-joins, empty
views, and views whose normalization rewrites constants away — asserting
that a decoded representation enumerates *identical* sorted answers with
*identical* logical delay statistics (step totals and worst gaps through
a :class:`~repro.joins.generic_join.JoinCounter`) to the original.

Safety is the satellite contract: malformed, truncated, corrupted,
version-mismatched and wrong-database snapshots all raise the typed
:class:`~repro.exceptions.SnapshotError`, never a raw unpickling error.
"""

from __future__ import annotations

import copy
import hashlib
import pickle

import pytest

from repro import (
    CompressedRepresentation,
    Database,
    DecomposedRepresentation,
    DynamicRepresentation,
    Relation,
    parse_view,
)
from repro.core import context as context_mod
from repro.core import snapshot as snapshot_mod
from repro.core.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotStore,
    database_fingerprint,
    database_from_state,
    database_state,
    decode_snapshot,
    encode_snapshot,
    inspect_snapshot,
    inspect_snapshot_file,
    load_snapshot,
    relation_fingerprints,
    save_snapshot,
    view_from_state,
    view_state,
)
from repro.exceptions import SnapshotError
from repro.joins.generic_join import JoinCounter
from repro.measure.delay import measure_enumeration
from repro.workloads import random_graph, triangle_database, triangle_view
from repro.workloads.scenarios import (
    coauthor_database,
    coauthor_view,
    mln_evidence_database,
    mln_rule_views,
    social_network_database,
)
from repro.workloads.streams import productive_accesses


def _scenarios():
    """(label, view, database) triples spanning the workload shapes."""
    coauthors = coauthor_database(n_authors=60, n_papers=80, seed=3)
    social = social_network_database(n_users=30, n_friendships=90, seed=5)
    mln = mln_evidence_database(n_entities=40, n_terms=25, density=150, seed=2)
    empty = Database(
        [
            random_graph("R", 20, 60, seed=1),
            Relation("S", 2, []),  # an empty relation empties the join
            random_graph("T", 20, 60, seed=2),
        ]
    )
    constants = parse_view("C^bf(x, y) = R(x, y), S(y, 3)")
    constant_db = Database(
        [
            random_graph("R", 15, 60, seed=4),
            Relation("S", 2, [(v, 3) for v in range(0, 15, 2)]),
        ]
    )
    return [
        ("skewed self-join", coauthor_view(), coauthors),
        (
            "mutual friends",
            parse_view("V^bfb(x, y, z) = R(x, y), R(y, z), R(z, x)"),
            social,
        ),
        ("mln rule", mln_rule_views()[2], mln),
        ("empty view", triangle_view("bbf"), empty),
        ("normalized constants", constants, constant_db),
    ]


def _accesses(view, db, limit=8):
    productive = productive_accesses(view, db)[:limit]
    miss = tuple(-1 for _ in view.bound_variables)
    return productive + [miss]


def _measured_answers(representation, accesses):
    measured = []
    for access in accesses:
        counter = JoinCounter()
        rows = []

        def collect(iterator):
            for row in iterator:
                rows.append(row)
                yield row

        stats = measure_enumeration(
            collect(representation.enumerate(access, counter=counter)),
            counter=counter,
            keep_gaps=True,
        )
        measured.append(
            (access, rows, counter.steps, stats.step_max_gap, stats.step_gaps)
        )
    return measured


class TestCompressedRoundTrips:
    @pytest.mark.parametrize(
        "label,view,db", _scenarios(), ids=lambda v: v if isinstance(v, str) else ""
    )
    @pytest.mark.parametrize("tau", [2.0, 16.0])
    def test_identical_answers_and_delay_stats(self, label, view, db, tau):
        original = CompressedRepresentation(view, db, tau=tau)
        restored = decode_snapshot(encode_snapshot(original))
        accesses = _accesses(view, db)
        before = _measured_answers(original, accesses)
        after = _measured_answers(restored, accesses)
        assert before == after
        # The restored enumeration is sorted exactly like the original.
        for _, rows, _, _, _ in after:
            assert rows == sorted(rows)

    @pytest.mark.parametrize(
        "label,view,db", _scenarios(), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_restored_parameters_and_space_match(self, label, view, db):
        original = CompressedRepresentation(view, db, tau=8.0)
        restored = decode_snapshot(encode_snapshot(original))
        assert restored.tau == original.tau
        assert restored.alpha == original.alpha
        assert restored.weights == original.weights
        assert len(restored.tree.nodes) == len(original.tree.nodes)
        assert restored.tree.depth() == original.tree.depth()
        assert sorted(restored.dictionary.items()) == sorted(
            original.dictionary.items()
        )
        assert (
            restored.space_report().total_cells
            == original.space_report().total_cells
        )
        assert restored.stats == original.stats

    def test_enumerate_from_agrees_after_restore(self):
        db = coauthor_database(n_authors=50, n_papers=70, seed=9)
        view = coauthor_view()
        original = CompressedRepresentation(view, db, tau=4.0)
        restored = decode_snapshot(encode_snapshot(original))
        access = productive_accesses(view, db)[0]
        rows = original.answer(access)
        assert len(rows) >= 2
        start = rows[len(rows) // 2]
        assert list(original.enumerate_from(access, start)) == list(
            restored.enumerate_from(access, start)
        )


class TestOtherKinds:
    def test_decomposed_round_trip(self):
        db = triangle_database(nodes=25, edges=120, seed=11)
        view = triangle_view("bbf")
        original = DecomposedRepresentation(view, db)
        restored = decode_snapshot(encode_snapshot(original))
        assert isinstance(restored, DecomposedRepresentation)
        assert restored.delta_height == original.delta_height
        for access in _accesses(view, db):
            assert restored.answer(access) == original.answer(access)
        assert (
            restored.space_report().total_cells
            == original.space_report().total_cells
        )

    def test_dynamic_round_trip_preserves_buffered_updates(self):
        db = triangle_database(nodes=25, edges=120, seed=11)
        view = triangle_view("bbf")
        original = DynamicRepresentation(
            view, db, tau=8.0, rebuild_fraction=float("inf")
        )
        original.insert("R", (900, 901))
        original.insert("S", (901, 902))
        original.insert("T", (902, 900))
        original.delete("R", next(iter(db["R"])))
        restored = decode_snapshot(encode_snapshot(original))
        assert isinstance(restored, DynamicRepresentation)
        assert restored.is_dirty
        assert restored.pending_updates == original.pending_updates
        assert restored.answer((900, 901)) == original.answer((900, 901))
        for access in _accesses(view, db, limit=4):
            assert restored.answer(access) == original.answer(access)
        # The restored instance keeps absorbing updates and rebuilding.
        restored.rebuild()
        assert not restored.is_dirty
        assert restored.answer((900, 901)) == [(902,)]


class TestViewAndDatabaseState:
    def test_view_state_round_trips_constants_and_self_joins(self):
        for view in [
            parse_view("C^bf(x, y) = R(x, y), S(y, 3)"),
            coauthor_view(),
            triangle_view("fbf"),
        ]:
            restored = view_from_state(view_state(view))
            assert repr(restored) == repr(view)

    def test_database_state_round_trips(self):
        db = triangle_database(nodes=10, edges=40, seed=1)
        restored = database_from_state(database_state(db))
        assert {r.name: r.rows for r in restored} == {
            r.name: r.rows for r in db
        }

    def test_fingerprint_is_order_insensitive_and_data_sensitive(self):
        rows = [(1, 2), (3, 4), (5, 6)]
        a = Database([Relation("R", 2, rows)])
        b = Database([Relation("R", 2, reversed(rows))])
        assert database_fingerprint(a) == database_fingerprint(b)
        c = Database([Relation("R", 2, rows + [(7, 8)])])
        assert database_fingerprint(a) != database_fingerprint(c)


class Tag:
    """A value every instance of which has the same ``repr``: rows of
    tags tie in ``repr`` order, however many there are."""

    def __init__(self, number):
        self.number = number

    def __repr__(self):
        return "Tag"


def spec_database_state(db):
    """The database state as the codec has always written it."""
    return [
        (relation.name, relation.arity, sorted(relation.rows, key=repr))
        for relation in sorted(db, key=lambda r: r.name)
    ]


def spec_streams(db):
    """Per relation, the byte stream its fingerprint hashes."""
    for name, arity, rows in spec_database_state(db):
        header = f"{name}\x00{arity}\x00".encode("utf-8")
        yield name, header + b"".join(repr(row).encode("utf-8") for row in rows)


def spec_fingerprint(db):
    digest = hashlib.sha256()
    for _, stream in spec_streams(db):
        digest.update(stream)
        digest.update(b"\x01")
    return digest.hexdigest()


def spec_relation_fingerprints(db):
    return {name: hashlib.sha256(stream).hexdigest() for name, stream in spec_streams(db)}


def odd_database():
    """Mixed value types, and rows whose ``repr`` ties."""
    return Database(
        [
            Relation(
                "M",
                2,
                [(1, "a"), ("a", 1), (1.5, None), (True, b"x"), ((1, 2), 3), (-1, 1.0)],
            ),
            Relation("Ties", 2, [(Tag(n), n % 2) for n in range(12)]),
            Relation("Empty", 3),
        ]
    )


def assert_equals_the_spec(db):
    state = database_state(db)
    assert state == spec_database_state(db)
    # Element for element, in the same order, ties included.
    for (_, _, rows), (_, _, spec) in zip(state, spec_database_state(db)):
        assert all(row is other for row, other in zip(rows, spec, strict=True))
    assert snapshot_mod._dumps(state) == snapshot_mod._dumps(spec_database_state(db))
    assert database_fingerprint(db) == spec_fingerprint(db)
    assert relation_fingerprints(db) == spec_relation_fingerprints(db)


class TestOneCanonicalOrderPerRelation:
    """The state and fingerprints read each relation's memoised order and
    bytes, and equal ``sorted(rows, key=repr)`` + per-row ``repr``."""

    def test_before_and_after_the_memo_fills(self):
        db = odd_database()
        assert all(relation._canonical is None for relation in db)
        assert_equals_the_spec(db)
        memos = [relation._canonical for relation in db]
        assert all(memo is not None for memo in memos)
        assert_equals_the_spec(db)
        assert all(r._canonical is memo for r, memo in zip(db, memos))

    def test_relations_made_from_a_memoised_one(self):
        db = odd_database()
        assert_equals_the_spec(db)
        ties, mixed = db["Ties"], db["M"]
        made = [
            ties.rename("Renamed"),
            ties.union(Relation("Other", 2, [(Tag(99), 1), ("z", 0)]), name="U"),
            mixed.with_changes([(2, "b"), ("a", 1)], [(1, "a"), (7, 7)]),
        ]
        for relation in made:
            assert relation._canonical is None and relation._columns == {}
            assert_equals_the_spec(Database([relation]))
            assert_equals_the_spec(Database([relation]))
        assert made[2].rows == (mixed.rows - {(1, "a")}) | {(2, "b")}

    def test_a_caller_editing_a_state_leaves_the_memo_alone(self):
        db = odd_database()
        before = database_state(db)
        for _, _, rows in before:
            rows.reverse()
            rows.append(("edited",))
        assert database_state(db) == spec_database_state(db)
        assert database_state(db)[0][2] is not database_state(db)[0][2]
        assert_equals_the_spec(db)

    def test_a_pickled_or_copied_relation_leaves_its_memo_behind(self):
        relation = odd_database()["M"]
        relation.canonical(), relation.column_values(0)
        for other in (pickle.loads(pickle.dumps(relation)), copy.copy(relation)):
            assert other == relation and other.name == relation.name
            assert other._canonical is None and other._columns == {}

    @pytest.mark.parametrize("kind", ["compressed", "dynamic"])
    def test_a_blob_equals_the_specs(self, kind, monkeypatch):
        # A view over R beside relations it never reads: their rows are
        # stored and hashed all the same.
        db = Database([*odd_database(), Relation("R", 2, [(1, 2), (2, 3), (3, 1)])])
        view = parse_view("P^bf(x, y) = R(x, y)")
        if kind == "compressed":
            representation = CompressedRepresentation(view, db, tau=2.0)
        else:
            representation = DynamicRepresentation(
                view, db, tau=2.0, rebuild_fraction=float("inf")
            )
            representation.insert("R", (4, 5))
        blob = encode_snapshot(representation)
        context = (
            representation.structure
            if kind == "dynamic"
            else representation
        ).ctx
        context._states = context._source = None
        monkeypatch.setattr(snapshot_mod, "database_state", spec_database_state)
        monkeypatch.setattr(context_mod, "database_state", spec_database_state)
        monkeypatch.setattr(snapshot_mod, "database_fingerprint", spec_fingerprint)
        assert encode_snapshot(representation) == blob


@pytest.fixture(scope="module")
def sample_blob():
    db = triangle_database(nodes=15, edges=60, seed=3)
    view = triangle_view("bbf")
    return encode_snapshot(CompressedRepresentation(view, db, tau=8.0)), db


class TestFormatSafety:
    def test_rejects_non_snapshot_bytes(self):
        for junk in [b"", b"x", b"garbage garbage garbage", b"PK\x03\x04zip"]:
            with pytest.raises(SnapshotError):
                decode_snapshot(junk)

    def test_rejects_raw_pickles(self):
        # A plain pickle is the classic confusion: it must be refused as
        # "not a snapshot", not unpickled.
        with pytest.raises(SnapshotError, match="magic"):
            decode_snapshot(pickle.dumps({"kind": "compressed"}))

    def test_rejects_version_mismatch(self, sample_blob):
        blob, _ = sample_blob
        bumped = (
            SNAPSHOT_MAGIC
            + (SNAPSHOT_VERSION + 1).to_bytes(2, "big")
            + blob[len(SNAPSHOT_MAGIC) + 2:]
        )
        with pytest.raises(SnapshotError, match="version"):
            decode_snapshot(bumped)

    def test_rejects_truncation_at_every_prefix_length(self, sample_blob):
        blob, _ = sample_blob
        for cut in [3, 5, 9, 20, len(blob) // 2, len(blob) - 1]:
            with pytest.raises(SnapshotError):
                decode_snapshot(blob[:cut])

    def test_rejects_payload_corruption(self, sample_blob):
        blob, _ = sample_blob
        corrupted = bytearray(blob)
        corrupted[-10] ^= 0xFF
        with pytest.raises(SnapshotError, match="CRC"):
            decode_snapshot(bytes(corrupted))

    def test_unpickling_failures_become_snapshot_errors(
        self, sample_blob, monkeypatch
    ):
        import pickle

        blob, _ = sample_blob

        def exploding_loads(payload):
            raise pickle.UnpicklingError("bad opcode")

        monkeypatch.setattr(
            "repro.core.snapshot.pickle.loads", exploding_loads
        )
        with pytest.raises(SnapshotError, match="corrupted snapshot payload"):
            decode_snapshot(blob)

    def test_memory_error_propagates_instead_of_masquerading(
        self, sample_blob, monkeypatch
    ):
        # The decode catch is a *narrow* allowlist of unpickling
        # failures: an out-of-memory while decoding a huge payload is an
        # operational emergency, not a "corrupted snapshot" to be
        # swallowed (and possibly retried with a fresh build).
        blob, _ = sample_blob

        def oom_loads(payload):
            raise MemoryError("payload too large")

        monkeypatch.setattr("repro.core.snapshot.pickle.loads", oom_loads)
        with pytest.raises(MemoryError):
            decode_snapshot(blob)

    def test_keyboard_interrupt_propagates_from_decode(
        self, sample_blob, monkeypatch
    ):
        blob, _ = sample_blob

        def interrupted_loads(payload):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            "repro.core.snapshot.pickle.loads", interrupted_loads
        )
        with pytest.raises(KeyboardInterrupt):
            decode_snapshot(blob)

    def test_rejects_wrong_database_fingerprint(self, sample_blob):
        blob, db = sample_blob
        other = triangle_database(nodes=15, edges=60, seed=4)
        with pytest.raises(SnapshotError, match="different database"):
            decode_snapshot(
                blob, expected_fingerprint=database_fingerprint(other)
            )
        # The matching fingerprint decodes fine.
        decoded = decode_snapshot(
            blob, expected_fingerprint=database_fingerprint(db)
        )
        assert isinstance(decoded, CompressedRepresentation)

    def test_inspect_reads_headers_without_decoding(self, sample_blob):
        blob, db = sample_blob
        info = inspect_snapshot(blob)
        assert info["kind"] == "compressed"
        assert info["version"] == SNAPSHOT_VERSION
        assert info["fingerprint"] == database_fingerprint(db)
        assert info["complete"]
        # Truncated payloads are inspectable (header intact) but flagged.
        partial = inspect_snapshot(blob[:-5])
        assert not partial["complete"]

    def test_missing_file_raises_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "absent.snap")
        with pytest.raises(SnapshotError, match="cannot read"):
            inspect_snapshot_file(tmp_path / "absent.snap")


class TestSnapshotFilesAndStore:
    def test_save_and_load_file(self, tmp_path):
        db = triangle_database(nodes=15, edges=60, seed=3)
        rep = CompressedRepresentation(triangle_view("bbf"), db, tau=8.0)
        path = tmp_path / "view.snap"
        written = save_snapshot(path, rep)
        assert path.stat().st_size == written
        restored = load_snapshot(
            path, expected_fingerprint=database_fingerprint(db)
        )
        assert restored.answer((3, 7)) == rep.answer((3, 7))

    def test_store_round_trip_and_labels(self, tmp_path):
        db = triangle_database(nodes=15, edges=60, seed=3)
        rep = CompressedRepresentation(triangle_view("bbf"), db, tau=8.0)
        store = SnapshotStore(tmp_path, fingerprint=database_fingerprint(db))
        label = "Delta|abc123|tau=8.0|fixed|None"
        assert store.load(label) is None
        assert store.save(label, rep)
        assert label in store
        assert len(store.labels_on_disk()) == 1
        restored = store.load(label)
        assert restored.answer((3, 7)) == rep.answer((3, 7))
        # Same label, fresh store instance: restart-stable file naming.
        again = SnapshotStore(tmp_path, fingerprint=database_fingerprint(db))
        assert label in again
        assert again.remove(label)
        assert label not in again

    def test_store_refuses_other_databases_snapshots(self, tmp_path):
        db = triangle_database(nodes=15, edges=60, seed=3)
        rep = CompressedRepresentation(triangle_view("bbf"), db, tau=8.0)
        writer = SnapshotStore(tmp_path, fingerprint=database_fingerprint(db))
        assert writer.save("shared-label", rep)
        other = triangle_database(nodes=15, edges=60, seed=4)
        reader = SnapshotStore(
            tmp_path, fingerprint=database_fingerprint(other)
        )
        with pytest.raises(SnapshotError, match="different database"):
            reader.load("shared-label")

    def test_file_names_and_fingerprints_are_pinned(self, tmp_path):
        # Snapshot directories written by earlier versions must still
        # warm-start: the label -> file mapping and both fingerprints
        # are on-disk contracts.
        from repro.core.snapshot import label_path, relation_fingerprints
        from repro.database.catalog import Database
        from repro.database.relation import Relation
        from repro.engine.dynamic_serving import DynamicSnapshotStore

        label = "tri|0123456789ab|tau=8.0|fixed|None"
        stem = "tri_0123456789ab_tau_8.0_fixed_None-96dbaa7f7f9feb4d"
        assert label_path(tmp_path, label, ".snap") == tmp_path / f"{stem}.snap"
        assert SnapshotStore(tmp_path).path_for(label).name == f"{stem}.snap"
        dynamic = DynamicSnapshotStore(tmp_path)
        assert dynamic.meta_path(label).name == f"{stem}.meta.json"
        assert dynamic.log_path(label).name == f"{stem}.deltas.jsonl"
        # The dynamic snapshot cuts the name at its last dot (historical).
        assert dynamic.snapshot_path(label).name == "tri_0123456789ab_tau_8.snap"
        # A label with nothing sluggable keeps a readable stem.
        assert label_path(tmp_path, "|||", ".snap").name.startswith("snap-")
        db = Database(
            [
                Relation("R", 2, [(1, 2), (2, 3), (3, 4)]),
                Relation("S", 2, [(2, 5), (3, 6), (4, 7)]),
            ]
        )
        assert database_fingerprint(db) == (
            "7a13c7469ce3bff4dc3a894e8d8a47a289b280fa20c91f465eabf5dc277d8422"
        )
        assert relation_fingerprints(db) == {
            "R": "8f0bbed21d560180efdb23bb76be796b905dffa59bc765f8c2cc31e071d1c5a9",
            "S": "9c4bbb1ed133dfdb2d4f5c7094389287a5f43b273cb73a9cd0b1329b86317885",
        }

    def test_atomic_write_leaves_no_scratch_file(self, tmp_path):
        from repro.core.snapshot import atomic_write

        target = tmp_path / "nested" / "meta.json"
        atomic_write(target, b"one")
        atomic_write(target, b"two")
        assert target.read_bytes() == b"two"
        assert [p.name for p in target.parent.iterdir()] == ["meta.json"]

    def test_read_jsonl_tells_a_torn_tail_from_damage(self, tmp_path):
        from repro.core.snapshot import read_jsonl

        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": 1}\n\n{"a": 2}\n')
        assert read_jsonl(path) == ([(1, {"a": 1}), (3, {"a": 2})], None, False)
        path.write_bytes(b'{"a": 1}\n{"a": 2}')
        assert read_jsonl(path) == ([(1, {"a": 1}), (2, {"a": 2})], 9, False)
        path.write_bytes(b'{"a": 1}\n{"a": ')
        assert read_jsonl(path) == ([(1, {"a": 1})], 9, True)
        path.write_bytes(b'{"a": \n{"a": 2}\n')
        with pytest.raises(ValueError) as caught:
            read_jsonl(path)
        assert caught.value.args[0] == 1

    def test_store_surfaces_corruption_as_snapshot_error(self, tmp_path):
        db = triangle_database(nodes=15, edges=60, seed=3)
        rep = CompressedRepresentation(triangle_view("bbf"), db, tau=8.0)
        store = SnapshotStore(tmp_path)
        store.save("x", rep)
        path = store.path_for("x")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(SnapshotError):
            store.load("x")
