"""Dynamic serving end to end: deltas, pinning, warm start, shipping."""

import hashlib
import json
import shutil
import threading

import pytest

from oracle import oracle_answer
from repro.core.dynamic import DynamicRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine import dynamic_serving
from repro.engine.dynamic_serving import (
    DeltaRecord,
    DynamicSnapshotStore,
    ship_deltas,
)
from repro.engine.replica import ReplicaServer
from repro.engine.server import ViewServer
from repro.engine.sharding import ShardedViewServer
from repro.engine.telemetry import Telemetry
from repro.exceptions import ParameterError, SchemaError, SnapshotError
from repro.query.parser import parse_view
from repro.workloads.generators import triangle_database
from repro.workloads.queries import triangle_view
from repro.workloads.streams import update_stream

VIEW_TEXT = "Q^bff(a, b, c) = R(a, b), S(b, c)"


def chain_database():
    return Database(
        [
            Relation("R", 2, [(1, 2), (2, 3), (3, 4)]),
            Relation("S", 2, [(2, 5), (3, 6), (4, 7)]),
        ]
    )


def version(server, name):
    """Version a never-updated view with one effective delta (R gains
    (9, 9), which no test access reaches)."""
    assert server.apply_deltas("R", inserts=[(9, 9)], views=[name]) == {name: 1}
    return server._dynamic_state(name)


def all_answers(server, name, accesses):
    return {access: server.answer(name, access) for access in accesses}


class TestRegistration:
    def test_round_trip_matches_oracle(self):
        db = chain_database()
        server = ViewServer(db)
        name = server.register(VIEW_TEXT, tau=4.0)
        view = parse_view(VIEW_TEXT)
        for a in (1, 2, 3):
            assert server.answer(name, (a,)) == oracle_answer(view, db, (a,))
        # Version 0, an empty log, and no versioned state.
        assert server.dynamic_views() == ()
        assert server.delta_version(name) == 0
        assert server.delta_records_since(name, 0) == ()
        server.close()

    def test_requires_natural_join(self):
        db = chain_database()
        server = ViewServer(db)
        name = server.register("P^bf(a, c) = R(a, 3), S(3, c)")
        with pytest.raises(ParameterError, match="natural-join"):
            server.apply_deltas("R", inserts=[(8, 3)], views=[name])
        with pytest.raises(ParameterError, match="natural-join"):
            server.apply_deltas("R", inserts=[(8, 3)])
        # The refused delta versioned nothing.
        assert server.dynamic_views() == ()
        assert server.answer(name, (8,)) == []
        server.close()

    @pytest.mark.parametrize("fraction", [0.0, float("inf")])
    def test_a_versioned_view_serves_any_tau(self, fraction):
        db = chain_database()
        server = ViewServer(db)
        name = server.register(VIEW_TEXT, tau=4.0, rebuild_fraction=fraction)
        state = version(server, name)
        view = parse_view(VIEW_TEXT)
        updated = db.replace(Relation("R", 2, list(db["R"]) + [(9, 9)]))
        for tau in (1.0, 4.0, 64.0):
            for a in (1, 2, 9):
                with server.open(name, (a,), tau=tau) as cursor:
                    assert cursor.fetchall() == oracle_answer(
                        view, updated, (a,)
                    )
            assert state.pin_count() == 0
        current = server.representation(name)
        if fraction:
            # A dirty version is the τ = ∞ structure: it serves every τ.
            assert server.representation(name, tau=1.0) is current
        else:
            # A clean one is cut above its τ and built below it, once.
            assert server.representation(name, tau=4.0) is current
            for tau in (1.0, 64.0):
                derived = server.representation(name, tau=tau)
                assert derived.tau == tau
                assert server.representation(name, tau=tau) is derived
        server.close()

    def test_unregister_clears_dynamic_state(self):
        server = ViewServer(chain_database())
        name = server.register(VIEW_TEXT, tau=4.0)
        assert server.unregister(name)
        assert server.dynamic_views() == ()
        with pytest.raises(ParameterError, match="not registered"):
            server.apply_deltas("R", inserts=[(8, 9)], views=[name])


class TestDeltas:
    def test_effective_insert_advances_version(self):
        db = chain_database()
        server = ViewServer(db)
        name = server.register(VIEW_TEXT, tau=4.0)
        applied = server.apply_deltas("R", inserts=[(1, 3)])
        assert applied == {name: 1}
        assert server.delta_version(name) == 1
        view = parse_view(VIEW_TEXT)
        updated = db.replace(
            Relation("R", 2, list(db["R"]) + [(1, 3)])
        )
        for a in (1, 2, 3):
            assert server.answer(name, (a,)) == oracle_answer(
                view, updated, (a,)
            )
        server.close()

    def test_empty_delta_is_complete_noop(self):
        server = ViewServer(chain_database())
        name = server.register(VIEW_TEXT, tau=4.0)
        version = server.delta_version(name)
        insertions = server.cache_stats.insertions
        # Present row inserted + absent row deleted: zero effect.
        applied = server.apply_deltas(
            "R", inserts=[(1, 2)], deletes=[(77, 88)]
        )
        assert applied == {name: 0}
        assert server.delta_version(name) == version
        assert server.cache_stats.insertions == insertions
        assert server.delta_records_since(name, 0) == ()
        server.close()

    def test_delete_of_buffered_insert_annihilates(self):
        db = chain_database()
        server = ViewServer(db)
        name = server.register(
            VIEW_TEXT, tau=4.0, rebuild_fraction=float("inf")
        )
        before = {a: server.answer(name, (a,)) for a in (1, 2, 3)}
        assert server.apply_deltas("R", inserts=[(1, 3)]) == {name: 1}
        assert server.apply_deltas("R", deletes=[(1, 3)]) == {name: 1}
        assert server.delta_version(name) == 2
        # Net state is the base database again.
        assert {a: server.answer(name, (a,)) for a in (1, 2, 3)} == before
        server.close()

    def test_single_batch_annihilation(self):
        server = ViewServer(chain_database())
        name = server.register(VIEW_TEXT, tau=4.0)
        applied = server.apply_deltas(
            "R", inserts=[(9, 9)], deletes=[(9, 9)]
        )
        # The insert buffered (1 effective change), then the delete
        # annihilated it (1 more): the batch was effective even though
        # the net relation content is unchanged.
        assert applied == {name: 2}
        assert server.answer(name, (9,)) == []
        server.close()

    def test_unrouted_relation_is_typed_error(self):
        server = ViewServer(chain_database())
        server.register(VIEW_TEXT, tau=4.0)
        with pytest.raises(ParameterError, match="no natural-join view"):
            server.apply_deltas("T", inserts=[(1, 1)])
        server.close()

    def test_never_registered_view_is_typed_error(self):
        server = ViewServer(chain_database())
        with pytest.raises(ParameterError, match="not registered"):
            server.apply_deltas("R", inserts=[(1, 1)], views=["ghost"])
        server.close()

    def test_a_plain_registration_takes_deltas(self):
        server = ViewServer(chain_database())
        name = server.register(VIEW_TEXT, tau=4.0)
        assert server.apply_deltas("R", inserts=[(8, 9)], views=[name]) == {
            name: 1
        }
        assert server.delta_version(name) == 1
        assert server.dynamic_views() == (name,)
        server.close()

    def test_rebuild_boundary_counts_and_cleans(self):
        db = chain_database()
        server = ViewServer(db, telemetry=True)
        name = server.register(
            VIEW_TEXT, tau=4.0, rebuild_fraction=0.0
        )
        version(server, name)
        builds = server.total_builds()
        server.apply_deltas("R", inserts=[(1, 3)])
        assert server.total_builds() == builds + 1
        assert (
            server.telemetry.counter(
                "rebuild_triggered_total", view=name
            ).value
            == 2
        )
        # After the rebuild the serving version is clean again: the
        # compiled structure at the view's τ serves, not the one leaf.
        representation = server.representation(name)
        assert not hasattr(representation, "is_dirty") or True
        server.close()


class TestCursorPinning:
    def test_open_cursor_drains_its_version(self):
        db = chain_database()
        server = ViewServer(db, telemetry=True)
        name = server.register(VIEW_TEXT, tau=4.0)
        state = version(server, name)
        cursor = server.open(name, (1,))
        server.apply_deltas("R", inserts=[(1, 3)])
        # The open cursor pins version 1 while version 2 serves new
        # requests.
        assert state.live_versions() == (1, 2)
        assert state.pin_count() == 1
        view = parse_view(VIEW_TEXT)
        # The old cursor still answers against the pre-delta version…
        assert cursor.fetchall() == oracle_answer(view, db, (1,))
        cursor.close()
        # …and draining it (exhaustion fires the close hook) retires
        # the pinned version.
        assert state.live_versions() == (2,)
        assert state.pin_count() == 0
        assert (
            server.telemetry.gauge("dynamic_cursor_pins", view=name).value
            == 0
        )
        assert (
            server.telemetry.gauge(
                "dynamic_live_versions", view=name
            ).value
            == 1
        )
        server.close()

    def test_batch_cursors_pin_and_release(self):
        db = chain_database()
        server = ViewServer(db)
        name = server.register(VIEW_TEXT, tau=4.0)
        state = version(server, name)
        result = server.answer_batch(name, [(1,), (2,), (1,)])
        assert result.outputs > 0
        assert state.pin_count() == 0
        assert state.live_versions() == (1,)
        server.close()

    def test_open_failure_releases_pin(self, monkeypatch):
        import repro.engine.server as server_module

        server = ViewServer(chain_database())
        name = server.register(VIEW_TEXT, tau=4.0)
        state = version(server, name)

        def explode(representation, request):
            raise RuntimeError("boom")

        monkeypatch.setattr(server_module, "open_cursor", explode)
        with pytest.raises(RuntimeError, match="boom"):
            server.open(name, (1,))
        assert state.pin_count() == 0
        server.close()


class TestWarmStart:
    def test_restart_replays_delta_log(self, tmp_path):
        db = chain_database()
        server = ViewServer(db, snapshot_dir=tmp_path)
        name = server.register(VIEW_TEXT, tau=4.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        server.apply_deltas("S", deletes=[(4, 7)], inserts=[(4, 9)])
        answers = all_answers(server, name, [(1,), (2,), (3,)])
        version = server.delta_version(name)
        builds = server.total_builds()
        server.close()

        warm = ViewServer(db, snapshot_dir=tmp_path)
        warm_name = warm.register(VIEW_TEXT, tau=4.0)
        assert warm.delta_version(warm_name) == version
        assert all_answers(warm, warm_name, [(1,), (2,), (3,)]) == answers
        # Warm start decoded + replayed; it never rebuilt from scratch.
        assert warm.total_builds() == 0 and builds >= 1
        warm.close()

    def test_changed_referenced_relation_refuses_warm_start(self, tmp_path):
        db = chain_database()
        server = ViewServer(db, snapshot_dir=tmp_path)
        server.register(VIEW_TEXT, tau=4.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        server.close()

        churned = Database(
            [
                Relation("R", 2, [(1, 2), (2, 3), (3, 4), (6, 6)]),
                Relation("S", 2, list(chain_database()["S"])),
            ]
        )
        cold = ViewServer(churned, snapshot_dir=tmp_path)
        name = cold.register(VIEW_TEXT, tau=4.0)
        # The fingerprint mismatch on R refuses the warm start: version
        # 0, no versioned state, and answers from the *churned* base
        # through a cold build — no stale replay.
        assert cold.delta_version(name) == 0
        assert cold.dynamic_views() == ()
        for a in (1, 6):
            assert cold.answer(name, (a,)) == oracle_answer(
                parse_view(VIEW_TEXT), churned, (a,)
            )
        assert cold.total_builds() == 1
        cold.close()

    def test_unreferenced_relation_churn_keeps_warm_start(self, tmp_path):
        relations = [
            Relation("R", 2, [(1, 2), (2, 3), (3, 4)]),
            Relation("S", 2, [(2, 5), (3, 6), (4, 7)]),
            Relation("T", 2, [(0, 0)]),
        ]
        db = Database(relations)
        server = ViewServer(db, snapshot_dir=tmp_path)
        server.register(VIEW_TEXT, tau=4.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        version = server.delta_version("Q")
        server.close()

        churned = Database(
            [relations[0], relations[1], Relation("T", 2, [(9, 9)])]
        )
        warm = ViewServer(churned, snapshot_dir=tmp_path)
        name = warm.register(VIEW_TEXT, tau=4.0)
        # T churned but the view never references it: per-relation
        # fingerprints keep the warm start (the whole-database
        # fingerprint would have refused here).
        assert warm.delta_version(name) == version
        assert warm.total_builds() == 0
        warm.close()

    def test_rebuild_rewrites_snapshot_and_shortens_replay(self, tmp_path):
        db = chain_database()
        server = ViewServer(db, snapshot_dir=tmp_path)
        name = server.register(
            VIEW_TEXT, tau=4.0, rebuild_fraction=0.0
        )
        server.apply_deltas("R", inserts=[(1, 3)])
        store = DynamicSnapshotStore(tmp_path / "dynamic")
        state = server._dynamic_state(name)
        meta = store.load_meta(state.label)
        # rebuild_fraction=0 rebuilt on the delta, which rewrote the
        # snapshot at the post-delta version: replay after restart is
        # empty, not a growing log.
        assert meta is not None and meta["version"] == 1
        server.close()


class TestDeltaRecords:
    def test_payload_round_trip(self):
        record = DeltaRecord(
            view="Q",
            relation="R",
            version=3,
            inserts=((1, 2),),
            deletes=((3, 4),),
        )
        assert DeltaRecord.from_payload(record.payload()) == record

    def test_schema_mismatch_is_typed(self):
        payload = DeltaRecord(view="Q", relation="R", version=1).payload()
        payload["schema"] = 999
        with pytest.raises(SnapshotError, match="schema"):
            DeltaRecord.from_payload(payload)

    def test_version_gap_raises(self):
        server = ViewServer(chain_database())
        name = server.register(VIEW_TEXT, tau=4.0)
        gap = DeltaRecord(
            view=name, relation="R", version=5, inserts=((8, 9),)
        )
        with pytest.raises(SnapshotError, match="gap"):
            server.apply_delta_records([gap])
        server.close()

    def test_already_applied_records_skip_idempotently(self):
        server = ViewServer(chain_database())
        name = server.register(VIEW_TEXT, tau=4.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        records = server.delta_records_since(name, 0)
        assert server.apply_delta_records(records) == {name: 0}
        assert server.delta_version(name) == 1
        server.close()

    def test_non_json_rows_refused_by_log(self, tmp_path):
        server = ViewServer(chain_database(), snapshot_dir=tmp_path)
        server.register(VIEW_TEXT, tau=4.0)
        with pytest.raises(SnapshotError, match="JSON"):
            server.apply_deltas("R", inserts=[(object(), 1)])
        server.close()


class TestReplicaShipping:
    #: 12 buffered changes over the 6-row chain database: every stream
    #: below stays short of the rebuild boundary, so records replay.
    BELOW_BOUNDARY = 2.0

    def _pair(self, tmp_path, telemetry=False, rebuild_fraction=0.1):
        db = chain_database()
        primary = ViewServer(db, snapshot_dir=tmp_path, telemetry=telemetry)
        name = primary.register(
            VIEW_TEXT, tau=4.0, rebuild_fraction=rebuild_fraction
        )
        # Versioned now, so its version-0 snapshot is on disk for the
        # replica's registration to warm-start from.
        assert primary.save_dynamic_snapshot(name) == 0
        replica = ReplicaServer(db, snapshot_dir=tmp_path)
        replica.register(
            VIEW_TEXT, tau=4.0, rebuild_fraction=rebuild_fraction
        )
        assert replica.dynamic_views() == (name,)
        return primary, replica, name

    def test_delta_mode_converges(self, tmp_path):
        primary, replica, name = self._pair(
            tmp_path, telemetry=True, rebuild_fraction=self.BELOW_BOUNDARY
        )
        primary.apply_deltas("R", inserts=[(1, 3)])
        primary.apply_deltas("S", inserts=[(4, 9)], deletes=[(4, 7)])
        shipped = ship_deltas(primary, replica)
        assert shipped == {name: ("delta", 2)}
        assert replica.delta_version(name) == primary.delta_version(name)
        for a in (1, 2, 3):
            assert primary.answer(name, (a,)) == replica.answer(name, (a,))
        histogram = primary.telemetry.registry.find_histogram(
            "delta_ship_seconds", view=name
        )
        assert histogram is not None and histogram.count == 1
        assert replica.total_builds() == 0
        primary.close()
        replica.close()

    def test_churn_threshold_falls_back_to_snapshot(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dynamic_serving, "DEFAULT_CHURN_THRESHOLD", 2)
        primary, replica, name = self._pair(
            tmp_path, rebuild_fraction=self.BELOW_BOUNDARY
        )
        # The replica already follows by delta records when the burst
        # lands: the fallback must take it over from there.
        primary.apply_deltas("S", inserts=[(4, 9)])
        assert ship_deltas(primary, replica) == {name: ("delta", 1)}
        for i in range(10, 16):
            primary.apply_deltas("R", inserts=[(1, i)])
        assert primary.dynamic_snapshot_version(name) == 0
        shipped = ship_deltas(primary, replica)
        assert shipped == {name: ("snapshot", 6)}
        assert primary.dynamic_snapshot_version(name) == 7
        assert replica.delta_version(name) == primary.delta_version(name)
        for a in (1, 2, 3):
            assert primary.answer(name, (a,)) == replica.answer(name, (a,))
        assert replica.total_builds() == 0
        primary.close()
        replica.close()

    def test_replica_refuses_cold_dynamic_build(self, tmp_path):
        db = chain_database()
        replica = ReplicaServer(db, snapshot_dir=tmp_path / "empty")
        name = replica.register(VIEW_TEXT, tau=4.0)
        # Nothing resident and no snapshot: versioning the view would
        # build, which a replica refuses.
        record = DeltaRecord(name, "R", 1, inserts=((1, 3),))
        with pytest.raises(SnapshotError, match="refuses"):
            replica.apply_delta_records([record])
        assert replica.dynamic_views() == ()
        assert replica.total_builds() == 0
        replica.close()

    def test_a_first_delta_to_a_never_updated_view_converges(self, tmp_path):
        # The static replica protocol (build, demote, hydrate), then the
        # first delta: the replica versions the view around its hydrated
        # structure — no build — and a warm restart lands on version 1.
        db = chain_database()
        primary = ViewServer(db, snapshot_dir=tmp_path)
        name = primary.register(VIEW_TEXT, tau=4.0, rebuild_fraction=10.0)
        primary.representation(name)
        primary.cache.demote_all()
        replica = ReplicaServer(db, snapshot_dir=tmp_path)
        replica.register(VIEW_TEXT, tau=4.0, rebuild_fraction=10.0)
        replica.hydrate()
        assert not (tmp_path / "dynamic").exists()
        assert primary.apply_deltas("R", inserts=[(1, 3)]) == {name: 1}
        assert ship_deltas(primary, replica) == {name: ("delta", 1)}
        assert replica.delta_version(name) == 1
        assert replica.total_builds() == 0
        view = parse_view(VIEW_TEXT)
        updated = db.replace(Relation("R", 2, list(db["R"]) + [(1, 3)]))
        warm = ViewServer(db, snapshot_dir=tmp_path)
        warm.register(VIEW_TEXT, tau=4.0)
        assert warm.delta_version(name) == 1
        for a in (1, 2, 3):
            expected = oracle_answer(view, updated, (a,))
            for server in (primary, replica, warm):
                assert server.answer(name, (a,)) == expected
        for server in (primary, replica, warm):
            server.close()

    def test_replica_never_writes_dynamic_log(self, tmp_path):
        primary, replica, name = self._pair(tmp_path)
        primary.apply_deltas("R", inserts=[(1, 3)])
        store = DynamicSnapshotStore(tmp_path / "dynamic")
        label = primary._dynamic_state(name).label
        log_before = store.log_path(label).read_text()
        ship_deltas(primary, replica)
        assert store.log_path(label).read_text() == log_before
        primary.close()
        replica.close()


def boundary_stream(count):
    """``count`` one-row inserts, one effective change each: R, S, R, …"""
    return [
        ("R", (1 + version % 3, 100 + version))
        if version % 2
        else ("S", (99 + version, version))
        for version in range(1, count + 1)
    ]


class TestSnapshotAdoption:
    """A replica adopts the snapshot a rebuild boundary wrote: no builds."""

    #: Over the chain database and `boundary_stream`, the primary
    #: rebuilds at versions 4, 10 and 19 (the threshold grows with |D|).
    FRACTION = 0.5
    BOUNDARIES = [4, 10, 19]
    #: Ship after these versions: short of a boundary, exactly on one,
    #: past it, across two, and after the last.
    SHIPS = [2, 4, 6, 21, 23]
    ACCESSES = [(1,), (2,), (3,), (4,)]

    def _pair(self, primary, replica):
        for server in (primary, replica):
            name = server.register(
                VIEW_TEXT, tau=4.0, rebuild_fraction=self.FRACTION
            )
            if server is primary and primary.snapshot_store is not None:
                # Version 0 on disk, for the replica to warm-start from.
                primary.save_dynamic_snapshot(name)
        return name

    def _drive(self, primary, replica, name, trace):
        """Apply the stream and ship after each of SHIPS, checking both
        servers against the oracle at every shipped version; yields
        ``(version, databases by version)`` just before each ship."""
        view = parse_view(VIEW_TEXT)
        databases = [chain_database()]
        stream = boundary_stream(self.SHIPS[-1])
        for version, (relation, row) in enumerate(stream, start=1):
            rebuilds = primary._dynamic_state(name).dynamic.rebuilds if (
                primary.dynamic_views()
            ) else 0
            assert primary.apply_deltas(relation, inserts=[row]) == {name: 1}
            if primary._dynamic_state(name).dynamic.rebuilds > rebuilds:
                trace["boundaries"].append(version)
            db = databases[-1]
            databases.append(
                db.replace(Relation(relation, 2, db[relation].rows | {row}))
            )
            if version not in self.SHIPS:
                continue
            yield version, databases
            trace["modes"].append(ship_deltas(primary, replica)[name][0])
            trace["records"].append(
                [record.version for record in primary.delta_records_since(name, 0)]
            )
            assert replica.delta_version(name) == version
            for access in self.ACCESSES:
                expected = oracle_answer(view, databases[version], access)
                assert primary.answer(name, access) == expected
                assert replica.answer(name, access) == expected

    def test_boundaries_ship_the_primary_snapshot(self, tmp_path):
        db = chain_database()
        primary = ViewServer(db, snapshot_dir=tmp_path)
        replica = ReplicaServer(db, snapshot_dir=tmp_path, telemetry=True)
        name = self._pair(primary, replica)
        trace = {"modes": [], "boundaries": [], "records": []}
        for version, databases in self._drive(primary, replica, name, trace):
            if version == 4:
                # Opened at the replica's version 2, before it adopts
                # the snapshot the boundary at 4 wrote.
                cursor = replica.open(name, (2,))
                head = cursor.fetchmany(1)
            elif version == 6:
                state = replica._dynamic_state(name)
                assert state.live_versions() == (2, 4)
                assert head + cursor.fetchall() == oracle_answer(
                    parse_view(VIEW_TEXT), databases[2], (2,)
                )
                cursor.close()
                assert state.live_versions() == (4,)
        assert trace["boundaries"] == self.BOUNDARIES
        # "snapshot" exactly where a ship crossed a boundary.
        assert trace["modes"] == [
            "delta", "snapshot", "delta", "snapshot", "delta"
        ]
        assert replica.total_builds() == 0
        assert (
            replica.telemetry.registry.counter_value(
                "replica_hydrations_total", view=name
            )
            == 2
        )
        # The primary holds only the records past its last snapshot.
        assert trace["records"] == [
            [1, 2], [], [5, 6], [20, 21], [20, 21, 22, 23]
        ]
        primary.close()
        replica.close()

    def test_a_restarted_primary_still_converges_its_replica(self, tmp_path):
        # The restart replays the log but holds no record from before it:
        # shipping none would leave the replica behind for good.
        db = chain_database()
        first = ViewServer(db, snapshot_dir=tmp_path)
        replica = ReplicaServer(db, snapshot_dir=tmp_path)
        name = self._pair(first, replica)
        first.apply_deltas("R", inserts=[(1, 50)])
        first.close()
        primary = ViewServer(db, snapshot_dir=tmp_path)
        primary.register(
            VIEW_TEXT, tau=4.0, rebuild_fraction=self.FRACTION
        )
        assert primary.delta_records_since(name, 0) == ()
        assert ship_deltas(primary, replica) == {name: ("snapshot", 0)}
        primary.apply_deltas("S", inserts=[(50, 9)])
        assert ship_deltas(primary, replica) == {name: ("delta", 1)}
        assert replica.delta_version(name) == primary.delta_version(name) == 2
        assert replica.answer(name, (1,)) == primary.answer(name, (1,))
        assert (50, 9) in replica.answer(name, (1,))
        assert replica.total_builds() == 0
        primary.close()
        replica.close()

    def test_without_a_snapshot_tier_records_ship_and_replicas_rebuild(self):
        # The old path, kept for a primary with no snapshot_dir: nothing
        # to adopt, so the replica replays every record and rebuilds at
        # the boundaries the primary rebuilt at.
        db = chain_database()
        primary, replica = ViewServer(db), ViewServer(db)
        name = self._pair(primary, replica)
        trace = {"modes": [], "boundaries": [], "records": []}
        for _ in self._drive(primary, replica, name, trace):
            pass
        assert trace["boundaries"] == self.BOUNDARIES
        assert trace["modes"] == ["delta"] * len(self.SHIPS)
        assert primary.dynamic_snapshot_version(name) is None
        assert replica.total_builds() == primary.total_builds() == 4
        assert trace["records"][-1] == list(range(1, 24))
        primary.close()
        replica.close()


class TestShardedFanOut:
    def _sharded(self, telemetry=False):
        rows_r = [(i, i % 7) for i in range(40)]
        rows_s = [(i % 7, i) for i in range(40)]
        db = Database(
            [Relation("R", 2, rows_r), Relation("S", 2, rows_s)]
        )
        server = ShardedViewServer(
            db, 3, {"R": 0}, telemetry=telemetry
        )
        return db, server

    def test_routed_deltas_land_on_owning_shard(self):
        db, server = self._sharded()
        name = server.register(VIEW_TEXT, tau=4.0)
        applied = server.apply_deltas(
            "R", inserts=[(5, 6), (11, 6)], deletes=[(12, 5)]
        )
        assert applied == {name: 3}
        # Versioned on the shards the delta reached, not on the others.
        owners = {server.shard_of(name, (a,)) for a in (5, 11, 12)}
        for index, shard in enumerate(server.shards):
            assert shard.delta_version(name) == (index in owners)
        view = parse_view(VIEW_TEXT)
        updated = db.replace(
            Relation(
                "R",
                2,
                [row for row in db["R"] if row != (12, 5)]
                + [(5, 6), (11, 6)],
            )
        )
        for a in (5, 11, 12):
            assert server.answer(name, (a,)) == oracle_answer(
                view, updated, (a,)
            )
        server.close()

    def test_a_delta_joins_rows_the_reduction_dropped(self):
        # Each shard registers over a semijoin-reduced copy of S: the
        # shard holding no R row keeps no S row. A delta versions the
        # view over the shard's whole slice, so a new R row still joins.
        db = Database(
            [Relation("R", 2, [(1, 1)]), Relation("S", 2, [(1, 5), (2, 6)])]
        )
        server = ShardedViewServer(db, 2, {"R": 0})
        name = server.register(VIEW_TEXT, tau=4.0)
        key = next(
            a
            for a in range(2, 100)
            if server.shard_of(name, (a,)) != server.shard_of(name, (1,))
        )
        reduced = server.shards[server.shard_of(name, (key,))]
        assert len(reduced.registration(name).database["S"]) == 0
        assert server.apply_deltas("R", inserts=[(key, 2)]) == {name: 1}
        assert server.answer(name, (key,)) == [(2, 6)]
        assert server.answer(name, (1,)) == [(1, 5)]
        server.close()

    def test_replicated_relation_broadcasts(self):
        db, server = self._sharded()
        name = server.register(VIEW_TEXT, tau=4.0)
        applied = server.apply_deltas("S", inserts=[(6, 999)])
        # Effective once per shard S is replicated to.
        assert applied == {name: server.n_shards}
        assert (6, 999) in {
            tuple(row[-2:]) for row in server.answer(name, (6,))
        } or any(
            row[-1] == 999 for row in server.answer(name, (6,))
        )
        server.close()


class TestUpdateStream:
    def test_deterministic_and_effective(self):
        db = triangle_database(30, 90, seed=11)
        view = triangle_view("bff")
        ops = update_stream(view, db, 120, update_fraction=0.3, seed=5)
        assert ops == update_stream(
            view, db, 120, update_fraction=0.3, seed=5
        )
        live = {r.name: set(map(tuple, r.rows)) for r in db}
        saw_update = saw_query = False
        for op in ops:
            if op[0] == "query":
                saw_query = True
                continue
            saw_update = True
            _, relation, inserts, deletes = op
            for row in inserts:
                assert row not in live[relation]
                live[relation].add(row)
            for row in deletes:
                assert row in live[relation]
                live[relation].remove(row)
        assert saw_update and saw_query

    @staticmethod
    def _mixed_stream(seed):
        """``update_stream`` as the e2e ``dynamic_mixed`` workload draws it."""
        db = triangle_database(30, 600, seed=seed)
        view = triangle_view("bbf")
        ops = update_stream(
            view, db, 250, update_fraction=0.2, seed=seed, skew=1.1,
            delta_size=4, delete_fraction=0.3,
        )
        return db, view, ops

    @pytest.mark.parametrize(
        "seed, digest", [(11, "1813fc7e57593da9"), (40, "a30e6cb407076415")]
    )
    def test_streams_without_same_delta_collisions_are_unchanged(
        self, seed, digest
    ):
        # Digests taken before the collision fix: it draws no extra
        # random number, so seeds that never collided keep their stream.
        _, _, ops = self._mixed_stream(seed)
        assert hashlib.sha256(repr(ops).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("seed", [155, 295, 392])
    def test_no_row_on_both_sides_of_one_delta(self, seed):
        # These seeds used to re-draw a just-deleted victim as an insert
        # of the same delta (295, 392) or delete one of the delta's own
        # inserts (155); an applier running inserts before deletes then
        # disagreed with the generator's bookkeeping from there on.
        db, view, ops = self._mixed_stream(seed)
        dynamic = DynamicRepresentation(view, db, tau=8.0)
        live = {r.name: set(map(tuple, r.rows)) for r in db}
        for op in ops:
            if op[0] != "update":
                continue
            _, relation, inserts, deletes = op
            assert not set(inserts) & set(deletes)
            assert dynamic.apply_deltas(relation, inserts, deletes) == len(
                inserts
            ) + len(deletes)
            live[relation] = (live[relation] - set(deletes)) | set(inserts)
            assert set(dynamic.current_database()[relation].rows) == (
                live[relation]
            )

    def test_served_stream_matches_evolving_oracle(self):
        db = chain_database()
        view = parse_view(VIEW_TEXT)
        server = ViewServer(db)
        name = server.register(VIEW_TEXT, tau=4.0)
        ops = update_stream(
            view, db, 60, update_fraction=0.4, seed=3, delta_size=2
        )
        current = {r.name: list(map(tuple, r.rows)) for r in db}
        for op in ops:
            if op[0] == "update":
                _, relation, inserts, deletes = op
                server.apply_deltas(relation, inserts, deletes)
                rows = [
                    row
                    for row in current[relation]
                    if row not in set(deletes)
                ]
                rows.extend(inserts)
                current[relation] = rows
            else:
                oracle_db = Database(
                    [
                        Relation(rel, 2, rows)
                        for rel, rows in current.items()
                    ]
                )
                assert server.answer(name, op[1]) == oracle_answer(
                    view, oracle_db, op[1]
                )
        server.close()

    def test_parameter_validation(self):
        db = chain_database()
        view = parse_view(VIEW_TEXT)
        with pytest.raises(ParameterError):
            update_stream(view, db, -1)
        with pytest.raises(ParameterError):
            update_stream(view, db, 5, update_fraction=1.5)
        with pytest.raises(ParameterError):
            update_stream(view, db, 5, delta_size=0)


class TestDurableLogHygiene:
    def test_log_lines_are_schema_stamped_json(self, tmp_path):
        server = ViewServer(chain_database(), snapshot_dir=tmp_path)
        name = server.register(VIEW_TEXT, tau=4.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        label = server._dynamic_state(name).label
        store = DynamicSnapshotStore(tmp_path / "dynamic")
        lines = store.log_path(label).read_text().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["schema"] == 1
        assert payload["view"] == name
        server.close()

    def test_corrupt_log_line_is_typed(self, tmp_path):
        server = ViewServer(chain_database(), snapshot_dir=tmp_path)
        name = server.register(VIEW_TEXT, tau=4.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        label = server._dynamic_state(name).label
        server.close()
        store = DynamicSnapshotStore(tmp_path / "dynamic")
        with store.log_path(label).open("a") as handle:
            handle.write("not json\n")
        with pytest.raises(SnapshotError, match="malformed"):
            store.read_log(label)

    def test_malformed_middle_line_stays_a_hard_error(self, tmp_path):
        server = ViewServer(chain_database(), snapshot_dir=tmp_path)
        name = server.register(VIEW_TEXT, tau=4.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        label = server._dynamic_state(name).label
        server.close()
        store = DynamicSnapshotStore(tmp_path / "dynamic")
        path = store.log_path(label)
        good = path.read_text()
        path.write_text('{"deletes": [], "inserts": [[104, 1\n' + good)
        before = path.read_bytes()
        with pytest.raises(SnapshotError, match="malformed delta log .* line 1"):
            store.read_log(label)
        with pytest.raises(SnapshotError, match="malformed"):
            store.recover_log(label)
        restarted = ViewServer(chain_database(), snapshot_dir=tmp_path)
        with pytest.raises(SnapshotError, match="malformed"):
            restarted.register(VIEW_TEXT, tau=4.0)
        assert restarted.views() == ()
        # Damage is never "repaired" away.
        assert path.read_bytes() == before
        restarted.close()


class TestTornLogTail:
    """A kill mid-append leaves a torn final line; warm start survives it."""

    DELTAS = [
        ("R", [(1, 3)], []),
        ("S", [(4, 9)], [(4, 7)]),
        ("R", [(104, 1), (2, 6)], [(1, 2)]),
    ]

    def _logged(self, tmp_path):
        """A closed primary's snapshot dir, its label, and per-version dbs."""
        db = chain_database()
        origin = tmp_path / "origin"
        server = ViewServer(db, snapshot_dir=origin)
        name = server.register(
            VIEW_TEXT, tau=4.0, rebuild_fraction=float("inf")
        )
        states = [db]
        for relation, inserts, deletes in self.DELTAS:
            server.apply_deltas(relation, inserts=inserts, deletes=deletes)
            states.append(server._dynamic_state(name).current_database())
        label = server._dynamic_state(name).label
        server.close()
        return origin, label, states

    def _check(self, server, name, db):
        view = parse_view(VIEW_TEXT)
        for a in (1, 2, 3, 4, 104):
            assert server.answer(name, (a,)) == oracle_answer(view, db, (a,))

    def test_kill_at_every_byte_of_the_last_record(self, tmp_path):
        origin, label, states = self._logged(tmp_path)
        log = DynamicSnapshotStore(origin / "dynamic").log_path(label)
        data = log.read_bytes()
        last = data.rindex(b"\n", 0, len(data) - 1) + 1
        k = len(self.DELTAS)
        landed = set()
        for cut in range(last, len(data)):
            scratch = tmp_path / f"cut-{cut}"
            shutil.copytree(origin, scratch)
            store = DynamicSnapshotStore(scratch / "dynamic")
            store.log_path(label).write_bytes(data[:cut])
            warm = ViewServer(chain_database(), snapshot_dir=scratch)
            name = warm.register(
                VIEW_TEXT, tau=4.0, rebuild_fraction=float("inf")
            )
            version = warm.delta_version(name)
            assert version in (k - 1, k), cut
            landed.add(version)
            assert warm.total_builds() == 0
            self._check(warm, name, states[version])
            # The repaired log takes the next append on a fresh line...
            assert store.log_path(label).read_bytes().endswith(b"\n")
            warm.apply_deltas("S", inserts=[(3, 77)])
            after = warm._dynamic_state(name).current_database()
            warm.close()
            # ...and a restart round-trips it.
            again = ViewServer(chain_database(), snapshot_dir=scratch)
            name = again.register(
                VIEW_TEXT, tau=4.0, rebuild_fraction=float("inf")
            )
            assert again.delta_version(name) == version + 1
            self._check(again, name, after)
            again.close()
            shutil.rmtree(scratch)
        # Only the cut that spares everything but the newline keeps k.
        assert landed == {k - 1, k}

    def test_recovery_is_counted_exactly_once(self, tmp_path):
        origin, label, states = self._logged(tmp_path)
        log = DynamicSnapshotStore(origin / "dynamic").log_path(label)
        complete = log.read_bytes()
        log.write_bytes(complete + b'{"deletes": [], "inserts": [[104, 1')

        def torn_count(server, name):
            return server.telemetry.registry.counter_value(
                "delta_log_torn_total", view=name
            )

        first = ViewServer(
            chain_database(), snapshot_dir=origin, telemetry=Telemetry()
        )
        name = first.register(
            VIEW_TEXT, tau=4.0, rebuild_fraction=float("inf")
        )
        assert first.delta_version(name) == len(self.DELTAS)
        assert torn_count(first, name) == 1
        assert log.read_bytes() == complete
        first.close()
        second = ViewServer(
            chain_database(), snapshot_dir=origin, telemetry=Telemetry()
        )
        name = second.register(
            VIEW_TEXT, tau=4.0, rebuild_fraction=float("inf")
        )
        assert torn_count(second, name) == 0
        second.close()

    def test_replicas_skip_but_never_truncate(self, tmp_path):
        origin, label, states = self._logged(tmp_path)
        log = DynamicSnapshotStore(origin / "dynamic").log_path(label)
        torn = log.read_bytes() + b'{"deletes": [], "ins'
        log.write_bytes(torn)
        replica = ReplicaServer(chain_database(), snapshot_dir=origin)
        name = replica.register(
            VIEW_TEXT, tau=4.0, rebuild_fraction=float("inf")
        )
        assert replica.delta_version(name) == len(self.DELTAS)
        self._check(replica, name, states[-1])
        assert log.read_bytes() == torn
        replica.close()


class TestLazyVersions:
    """A version records what it is; how to read it is built on first read."""

    @pytest.fixture
    def contexts(self, monkeypatch):
        from repro.core.context import ViewContext

        built = []
        original = ViewContext.__init__

        def counting(self, view, db, previous=None):
            built.append(view.name)
            original(self, view, db, previous)

        monkeypatch.setattr(ViewContext, "__init__", counting)
        return built

    def test_unread_versions_build_nothing(self, contexts):
        server = ViewServer(chain_database())
        name = server.register(
            VIEW_TEXT, tau=4.0, rebuild_fraction=float("inf")
        )
        # The first delta versions the view: its build is the one
        # context the versions after it may derive from.
        assert server.apply_deltas("R", inserts=[(1, 50)]) == {name: 1}
        del contexts[:]
        for value in range(1, 10):
            assert server.apply_deltas("R", inserts=[(1, 50 + value)]) == {
                name: 1
            }
        assert server.delta_version(name) == 10
        assert contexts == []
        # Resident and accounted for without being materialised.
        serving = server.representation(name)
        assert serving.kernel_ready is True  # a fact of the class, unbuilt
        assert serving.space_report().materialized_tuples == 16
        assert contexts == []
        first = server.answer(name, (1,))
        assert len(contexts) == 1
        assert server.answer(name, (1,)) == first
        assert server.answer(name, (2,)) == [(3, 6)]
        assert len(contexts) == 1
        server.close()

    def test_versions_never_enter_the_cache(self):
        # A version is owned by its Epochs hold, not by an LRU: a dynamic
        # view never appears in the cache; what is live is read from the
        # state's live_versions() / the dynamic_live_versions gauge.
        server = ViewServer(chain_database(), telemetry=True)
        name = server.register(
            VIEW_TEXT, tau=4.0, rebuild_fraction=float("inf")
        )
        server.apply_deltas("R", inserts=[(1, 50)])
        state = server._dynamic_state(name)

        def gauge():
            return server.telemetry.gauge(
                "dynamic_live_versions", view=name
            ).value

        for value in range(1, 5):
            server.apply_deltas("R", inserts=[(1, 50 + value)])
        assert state.live_versions() == (5,) and gauge() == 1
        cursor = server.open(name, (1,))
        server.apply_deltas("R", inserts=[(1, 99)])
        assert state.live_versions() == (5, 6) and gauge() == 2
        cursor.close()
        assert state.live_versions() == (6,) and gauge() == 1
        assert not [key for key in server.cache.keys() if key[0] == name]
        assert server.resident(name) and server.demote(name) == 0
        assert server.representation(name) is state.epochs.current()[1]
        server.close()

    def test_dynamic_version_churn_leaves_static_structures_resident(self):
        # A frozen version takes no LRU slot: a delta must not evict a
        # static view from a one-entry cache, and dynamic answers cost
        # the cache no miss, insertion or eviction.
        server = ViewServer(chain_database(), max_entries=1)
        static = server.register(VIEW_TEXT, tau=4.0, name="static")
        dynamic = server.register(
            VIEW_TEXT, tau=4.0, name="dynamic", rebuild_fraction=float("inf")
        )
        expected = server.answer(static, (1,))
        assert server.resident(static)
        # Versioning the dynamic one builds its version 0 beside the
        # cache, not in it.
        assert server.apply_deltas("R", inserts=[(1, 76)], views=[dynamic])
        assert server.resident(static)
        builds = server.total_builds()
        before = server.cache_stats
        assert server.apply_deltas(
            "R", inserts=[(1, 77)], views=[dynamic]
        ) == {dynamic: 1}
        for _ in range(3):
            server.answer(dynamic, (1,))
        assert server.resident(static)
        assert server.answer(static, (1,)) == expected
        assert server.total_builds() == builds
        churn = server.cache_stats.delta(before)
        assert (churn.misses, churn.evictions, churn.insertions) == (0, 0, 0)
        server.close()

    def test_two_threads_first_reading_one_dirty_version(self, contexts):
        db = triangle_database(14, 60, seed=5)
        server = ViewServer(db)
        name = server.register(
            triangle_view("bff"), tau=4.0, rebuild_fraction=float("inf")
        )
        row = next(iter(db["R"]))
        server.apply_deltas("R", deletes=[row])
        expected = oracle_answer(
            triangle_view("bff"),
            server._dynamic_state(name).current_database(),
            (row[0],),
        )
        del contexts[:]
        barrier = threading.Barrier(2)
        results, errors = [], []

        def read():
            try:
                barrier.wait(timeout=10)
                results.append(server.answer(name, (row[0],)))
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert not errors
        assert results == [expected, expected]
        assert len(contexts) == 1
        server.close()

    def test_two_threads_first_reading_two_consecutive_versions(
        self, contexts
    ):
        # Both versions derive from the same predecessor at once: each
        # builds one context, and neither leaks into the other's answer.
        view = triangle_view("bff")
        db = triangle_database(14, 60, seed=5)
        server = ViewServer(db)
        name = server.register(
            view, tau=4.0, rebuild_fraction=float("inf")
        )
        x, y = next(iter(db["R"]))
        versions, expected = [], []
        # A new z value moves the shared domain, then closes a triangle.
        for relation, row in (("S", (y, 99)), ("T", (99, x))):
            server.apply_deltas(relation, inserts=[row])
            versions.append(server.representation(name))
            expected.append(
                oracle_answer(
                    view,
                    server._dynamic_state(name).current_database(),
                    (x,),
                )
            )
        assert versions[0] is not versions[1]
        assert (y, 99) in expected[1] and (y, 99) not in expected[0]
        del contexts[:]
        barrier = threading.Barrier(2)
        results, errors = [None, None], []

        def read(index):
            try:
                barrier.wait(timeout=10)
                results[index] = versions[index].answer((x,))
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=read, args=(index,)) for index in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert not errors
        assert results == expected
        assert len(contexts) == 2
        server.close()


class TestAtomicBatches:
    """A delta batch applies whole or not at all (found by the engine
    machine's shrinking and by hand at the parent commit)."""

    def test_a_wrong_arity_row_refuses_the_whole_batch(self, tmp_path):
        db = chain_database()
        primary = ViewServer(db, snapshot_dir=tmp_path)
        name = primary.register(VIEW_TEXT, tau=4.0, rebuild_fraction=10.0)
        primary.save_dynamic_snapshot(name)
        replica = ReplicaServer(db, snapshot_dir=tmp_path)
        replica.register(VIEW_TEXT, tau=4.0, rebuild_fraction=10.0)
        log = DynamicSnapshotStore(tmp_path / "dynamic").log_path(
            primary._dynamic_state(name).label
        )
        # (1000, 2) would join S(2, 5): a stray row would answer.
        with pytest.raises(SchemaError, match="arity"):
            primary.apply_deltas("R", inserts=[(1000, 2), (1, 2, 3)])
        # Nothing buffered, published, logged or shipped.
        assert primary.delta_version(name) == 0
        assert log.read_text() == ""
        assert ship_deltas(primary, replica) == {name: ("delta", 0)}
        assert primary.apply_deltas("R", inserts=[(2, 9)]) == {name: 1}
        ship_deltas(primary, replica)
        view = parse_view(VIEW_TEXT)
        updated = db.replace(Relation("R", 2, list(db["R"]) + [(2, 9)]))
        for a in (1, 2, 1000):
            expected = oracle_answer(view, updated, (a,))
            assert primary.answer(name, (a,)) == expected
            assert replica.answer(name, (a,)) == expected
        primary_answer = primary.answer(name, (1000,))
        assert primary_answer == []
        primary.close()
        restarted = ViewServer(db, snapshot_dir=tmp_path)
        restarted.register(VIEW_TEXT, tau=4.0)
        assert restarted.delta_version(name) == 1
        assert restarted.answer(name, (1000,)) == primary_answer
        restarted.close()
        replica.close()

    def test_a_wrong_arity_row_refuses_the_batch_on_every_shard(self):
        db = Database(
            [
                Relation("R", 2, [(i, i % 7) for i in range(40)]),
                Relation("S", 2, [(i % 7, i) for i in range(40)]),
            ]
        )
        server = ShardedViewServer(db, 4, {"R": 0})
        name = server.register(VIEW_TEXT, tau=4.0)
        # The good row's shard comes first, the bad row's last: a
        # per-shard check would publish the good row before refusing.
        good = next(a for a in range(100, 200) if server.shard_of(name, (a,)) == 0)
        bad = next(a for a in range(100, 200) if server.shard_of(name, (a,)) == 3)
        with pytest.raises(SchemaError, match="arity"):
            server.apply_deltas("R", inserts=[(good, 1), (bad, 1, 1)])
        assert [shard.delta_version(name) for shard in server.shards] == [0] * 4
        assert server.answer(name, (good,)) == []
        server.close()

    def test_a_row_twice_in_one_batch_counts_once(self):
        # The engine machine's shrunk counterexample: the second insert
        # of a row already buffered changed nothing but counted 1.
        server = ViewServer(chain_database())
        name = server.register(VIEW_TEXT, tau=4.0, rebuild_fraction=10.0)
        assert server.apply_deltas("R", inserts=[(0, 0), (0, 0)]) == {name: 1}
        state = server._dynamic_state(name)
        assert state.dynamic.pending_updates == 1
        assert server.apply_deltas("R", deletes=[(0, 0), (0, 0)]) == {name: 1}
        assert state.dynamic.pending_updates == 2
        server.close()


    def test_a_row_deleted_in_two_calls_is_deleted_once(self):
        # The engine machine's shrunk counterexample on an older tree:
        # the second delete of a buffered-deleted row published a new
        # version that changed nothing.
        server = ViewServer(chain_database())
        name = server.register(VIEW_TEXT, tau=4.0, rebuild_fraction=10.0)
        assert server.apply_deltas("R", deletes=[(2, 3)]) == {name: 1}
        assert server.apply_deltas("R", deletes=[(2, 3)]) == {name: 0}
        assert server.apply_deltas("R", inserts=[(7, 7)]) == {name: 1}
        assert server.apply_deltas("R", inserts=[(7, 7)]) == {name: 0}
        assert server.delta_version(name) == 2
        assert server._dynamic_state(name).dynamic.pending_updates == 2
        server.close()


class TestHarnessAlias:
    def test_register_dynamic_versions_at_once_for_the_replica(self, tmp_path):
        # ``register_dynamic`` is ``register`` plus versioning at once,
        # kept for benchmarks/e2e alone: it writes the version-0 dynamic
        # snapshot that the harness's replica registration warm-starts
        # from, and a restart through it warm-starts too.
        db = chain_database()
        primary = ViewServer(db, snapshot_dir=tmp_path)
        name = primary.register_dynamic(
            VIEW_TEXT, tau=4.0, name="dyn", rebuild_fraction=10.0
        )
        assert primary.dynamic_views() == ("dyn",)
        assert [p.name for p in (tmp_path / "dynamic").glob("*.snap")]
        replica = ReplicaServer(db, snapshot_dir=tmp_path)
        assert replica.register_dynamic(
            VIEW_TEXT, tau=4.0, name="dyn", rebuild_fraction=10.0
        ) == name
        assert replica.hydrate() == 1
        assert replica.total_builds() == 0
        primary.apply_deltas("R", inserts=[(1, 3)])
        assert ship_deltas(primary, replica) == {name: ("delta", 1)}
        assert replica.answer(name, (1,)) == primary.answer(name, (1,))
        primary.close()
        warm = ViewServer(db, snapshot_dir=tmp_path)
        warm.register_dynamic(VIEW_TEXT, tau=4.0, name="dyn")
        assert warm.delta_version(name) == 1 and warm.total_builds() == 0
        warm.close()
        replica.close()
