"""Codec v4: a compressed state's view and database are one source section.

* real v3 bytes written by the last v3 tree (``tests/data/pr32_v3/``, see
  its README for the recipe) — a compressed blob with a non-empty
  dictionary and a dirty dynamic blob — still decode, with and without a
  resident context, to a fresh build's answers; the compressed one
  re-encodes as v4 and decodes to the same columns;
* adoption: a warm load onto a resident context unpickles no database
  (equal source bytes are the proof); a v4 source one row off is refused
  — a cache miss, rebuilt and overwritten; a source of other bytes but
  equal states still adopts;
* each version's sections, as ``payload_sections`` reports them.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from legacy_codec import doctored, payload_of, v3_state
from oracle import oracle_accesses, oracle_answer
from repro.core import snapshot as snap
from repro.core.context import ViewContext
from repro.core.dynamic import DynamicRepresentation
from repro.core.snapshot import (
    SNAPSHOT_VERSION,
    database_fingerprint,
    decode_snapshot,
    encode_snapshot,
    inspect_snapshot,
    payload_sections,
    source_section,
)
from repro.core.structure import CompressedRepresentation
from repro.engine import ViewServer
from repro.exceptions import SnapshotError
from repro.query.parser import parse_view
from repro.workloads import triangle_database, triangle_view
from test_codec_v3 import DYNAMIC_VIEW, fixture_database

DATA = Path(__file__).parent / "data"
V3 = DATA / "pr32_v3"


def flat(rep):
    """The dictionary's one flat form: index, ids, bits."""
    dictionary = rep.dictionary
    return dictionary.index, dictionary.nodes, dictionary.bits


@pytest.fixture
def spy(monkeypatch):
    """Calls of the database / source decoders, by name."""
    calls = []
    for name in ("database_from_state", "source_states"):
        real = getattr(snap, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(snap, name, counted)
    return calls


# ----------------------------------------------------------------------
# compatibility: bytes the last v3 tree wrote
# ----------------------------------------------------------------------
def test_a_parent_written_v3_compressed_blob_decodes_and_becomes_v4():
    written = (V3 / "bbf_tau2.snap").read_bytes()
    assert inspect_snapshot(written)["version"] == 3
    view, db = triangle_view("bbf"), fixture_database()
    fresh = CompressedRepresentation(view, db, 2.0)
    context = ViewContext(view, db)
    alone = decode_snapshot(written)
    shared = decode_snapshot(written, database_fingerprint(db), context=context)
    assert shared.ctx is context and alone.ctx is not context
    assert fresh.stats.dictionary_entries > 100
    accesses = oracle_accesses(view, db, limit=20)
    for access in accesses:
        expected = list(fresh.enumerate(access))
        assert expected == oracle_answer(view, db, access)
        assert list(alone.enumerate(access)) == expected
        assert list(shared.enumerate(access)) == expected
    # Written back out in the v3 shape it is the parent's state, key for key.
    assert v3_state(alone.snapshot_state()) == payload_of(written)[1]
    todays = encode_snapshot(alone)
    assert inspect_snapshot(todays)["version"] == SNAPSHOT_VERSION == 4
    again = decode_snapshot(todays)
    assert encode_snapshot(again) == todays
    columns = fresh.snapshot_state()["columns"]
    for rep in (alone, shared, again):
        assert rep.snapshot_state()["columns"] == columns
        assert flat(rep) == flat(fresh)


def test_a_parent_written_v3_dynamic_blob_decodes_and_becomes_v4():
    written = (V3 / "dynamic_bff_tau4.snap").read_bytes()
    assert inspect_snapshot(written)["version"] == 3
    assert payload_of(written)[1]["structure"]["db"] is None
    view, db = parse_view(DYNAMIC_VIEW), fixture_database()
    fresh = DynamicRepresentation(view, db, tau=4.0)
    fresh.apply_deltas("R", inserts=[(0, 12), (5, 5)])
    fresh.apply_deltas("S", deletes=[(0, 0)], inserts=[(12, 12)])
    dynamic = decode_snapshot(written)
    assert dynamic.is_dirty and dynamic.pending_updates == fresh.pending_updates
    assert dynamic.structure.db is dynamic.base_database()
    # A dynamic snapshot adopts no context, from any codec.
    with pytest.raises(SnapshotError, match="cannot adopt"):
        decode_snapshot(written, context=ViewContext(view, db))
    todays = encode_snapshot(dynamic)
    assert inspect_snapshot(todays)["version"] == 4
    again = decode_snapshot(todays)
    assert encode_snapshot(again) == todays
    current = fresh.current_database()
    accesses = [(value,) for value in range(14)]
    assert any(oracle_answer(view, current, access) for access in accesses)
    for access in accesses:
        expected = list(fresh.enumerate(access))
        assert expected == oracle_answer(view, current, access)
        assert list(dynamic.enumerate(access)) == expected
        assert list(again.enumerate(access)) == expected


# ----------------------------------------------------------------------
# adoption: equal bytes, or equal states
# ----------------------------------------------------------------------
@pytest.fixture
def setup():
    return triangle_view("bbf"), triangle_database(nodes=25, edges=120, seed=5)


def test_a_warm_load_onto_a_resident_context_unpickles_no_database(
    setup, tmp_path, spy
):
    view, db = setup
    server = ViewServer(db, max_entries=None, snapshot_dir=tmp_path)
    name = server.register(view, tau=2.0)
    cold = {tau: server.representation(name, tau) for tau in (2.0, 8.0)}
    assert server.demote(name) == 2
    warm = {tau: server.representation(name, tau) for tau in (2.0, 8.0)}
    assert server.cache_stats.disk_hits == 2
    assert spy == []
    for tau, rep in warm.items():
        assert rep is not cold[tau] and rep.ctx is cold[tau].ctx
        assert flat(rep) == flat(cold[tau])
    # Control: the same blob with no context decodes its source, once.
    blob = encode_snapshot(cold[2.0])
    assert payload_of(blob)[1]["source"] == cold[2.0].ctx.source()
    decode_snapshot(blob)
    assert spy == ["source_states", "database_from_state"]


def one_row_off(state):
    view_data, db_data = pickle.loads(state["source"])
    name, arity, rows = db_data[0]
    db_data[0] = (name, arity, rows[1:])
    state["source"] = source_section((view_data, db_data))


def test_a_source_one_row_off_is_refused_and_through_the_cache_a_miss(
    setup, tmp_path
):
    view, db = setup
    fingerprint = database_fingerprint(db)
    planted = doctored(
        encode_snapshot(CompressedRepresentation(view, db, tau=8.0)), one_row_off
    )
    # Re-CRC'd: every header check passes; only the comparison can tell.
    assert inspect_snapshot(planted)["complete"]
    assert decode_snapshot(planted, fingerprint).db.total_tuples() == (
        db.total_tuples() - 1
    )
    with pytest.raises(SnapshotError, match="another view or database"):
        decode_snapshot(planted, fingerprint, context=ViewContext(view, db))
    server = ViewServer(db, snapshot_dir=tmp_path)
    name = server.register(view, tau=8.0)
    path = server.snapshot_store.path_for(
        server.registration(name).snapshot_label(8.0)
    )
    path.write_bytes(planted)
    served = server.representation(name)
    stats = server.cache_stats
    assert (stats.misses, stats.disk_hits, stats.disk_writes) == (1, 0, 1)
    assert server.total_builds() == 1
    assert path.read_bytes() != planted
    for access in oracle_accesses(view, db, limit=8):
        assert list(served.enumerate(access)) == oracle_answer(view, db, access)
    server.demote(name)
    assert server.representation(name).ctx is served.ctx
    assert server.cache_stats.disk_hits == 1


def test_a_source_of_other_bytes_but_equal_states_still_adopts(setup, spy):
    view, db = setup
    context = ViewContext(view, db)
    rep = CompressedRepresentation(view, db, tau=4.0, context=context)

    def repickled(state):
        # Another pickler's bytes for the same values: memo on, protocol 2.
        state["source"] = pickle.dumps(pickle.loads(state["source"]), protocol=2)

    other = doctored(encode_snapshot(rep), repickled)
    assert payload_of(other)[1]["source"] != context.source()
    shared = decode_snapshot(other, context=context)
    assert shared.ctx is context
    assert spy == ["source_states"]  # compared, never rebuilt
    assert flat(shared) == flat(rep)
    for access in oracle_accesses(view, db, limit=8):
        assert list(shared.enumerate(access)) == oracle_answer(view, db, access)
    # Written again over the context, the source is the context's bytes.
    assert payload_of(encode_snapshot(shared))[1]["source"] == context.source()


def test_a_malformed_source_is_a_typed_refusal(setup):
    view, db = setup
    blob = encode_snapshot(CompressedRepresentation(view, db, tau=4.0))
    context = ViewContext(view, db)
    for bad in (b"not a pickle", pickle.dumps((1, 2, 3)), None):

        def edit(state, bad=bad):
            state["source"] = bad

        for kwargs in ({}, {"context": context}):
            with pytest.raises(SnapshotError):
                decode_snapshot(doctored(blob, edit), **kwargs)


# ----------------------------------------------------------------------
# where the bytes go, per version
# ----------------------------------------------------------------------
STRUCTURE = ["tau", "alpha", "weights", "stats"]
COLUMNS = ["columns.byteorder", "columns.tree", "columns.dictionary"]


@pytest.mark.parametrize(
    "version, blob, sections",
    [
        (
            2,
            DATA / "pr23_v2" / "bbf_tau2.snap",
            ["view", "db", "tau", "alpha", "weights", "tree", "dictionary"]
            + ["stats", "layout.tree", "layout.dictionary"],
        ),
        (3, V3 / "bbf_tau2.snap", ["view", "db"] + STRUCTURE + COLUMNS),
        (4, None, ["source"] + STRUCTURE + COLUMNS),
    ],
)
def test_each_version_reports_its_own_sections(version, blob, sections):
    if blob is None:
        rep = CompressedRepresentation(triangle_view("bbf"), fixture_database(), 2.0)
        blob = encode_snapshot(rep)
    else:
        blob = blob.read_bytes()
    assert inspect_snapshot(blob)["version"] == version
    assert [name for name, _ in payload_sections(blob)] == sections


def test_a_v4_blob_is_no_larger_than_its_v3_twin():
    # The nested section's framing against two section keys: a few bytes.
    written = (V3 / "bbf_tau2.snap").read_bytes()
    todays = encode_snapshot(decode_snapshot(written))
    assert abs(len(todays) - len(written)) <= 16

