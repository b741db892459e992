"""Codec v3 / v4: what is refused, what is still read, what the CLI shows.

* every malformed-but-CRC-valid structure section fails typed — a
  ``SnapshotError`` naming the section, never a ``ValueError`` /
  ``IndexError`` and never a structure that answers;
* real bytes written by the PR 23 tree (``tests/data/pr23_v2/``, see its
  README for the recipe) — a ``bbf`` and an ``fff`` compressed blob, a
  decomposed one, a server directory with two static snapshots and a
  dirty dynamic snapshot, meta and delta log — still decode, answer
  oracle-identically, re-encode as today's version (v4) and round-trip,
  and the directory warm-starts with zero builds;
* a dynamic state stores its base database once;
* ``repro snapshot inspect`` prints where a payload's bytes go.
"""

from __future__ import annotations

import shutil
import sys
from array import array
from pathlib import Path

import pytest

from legacy_codec import doctored, legacy_blob, legacy_state, payload_of
from oracle import oracle_accesses, oracle_answer
from repro.__main__ import main
from repro.core.dynamic import DynamicRepresentation
from repro.core.snapshot import (
    SNAPSHOT_VERSION,
    decode_snapshot,
    encode_snapshot,
    inspect_snapshot,
    load_snapshot,
    payload_sections,
    source_section,
    source_states,
    view_state,
)
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine import ViewServer
from repro.exceptions import SnapshotError
from repro.query.parser import parse_view
from repro.workloads import triangle_database, triangle_view

FIXTURES = Path(__file__).parent / "data" / "pr23_v2"
DYNAMIC_VIEW = "Q^bff(a, b, c) = R(a, b), S(b, c)"


def fixture_database() -> Database:
    """The database ``tests/data/pr23_v2`` was written over."""

    def edges(a, b):
        return sorted(
            {(i % 13, (a * i + b * (i // 13)) % 13) for i in range(60)}
        )

    return Database(
        [
            Relation("R", 2, edges(1, 2)),
            Relation("S", 2, edges(3, 1)),
            Relation("T", 2, edges(5, 4)),
        ]
    )


# ----------------------------------------------------------------------
# robustness: one doctored payload per way a section can be wrong
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def built():
    view = triangle_view("bff")
    db = triangle_database(16, 70, seed=81)
    rep = CompressedRepresentation(view, db, tau=2.0)
    state = rep.snapshot_state()["columns"]
    # The cases below lean on these: more than one bucket, a split node,
    # child ids that need no more than a byte.
    assert len(state["dictionary"]["access"]) > 1
    assert 0 in state["tree"]["leaf"] and state["tree"]["count"] > 2
    assert state["tree"]["left"][0] == "b"
    return encode_snapshot(rep)


def repacked(packed, edit):
    """A packed ``(typecode, item size, bytes)`` column with values edited."""
    code, itemsize, blob = packed
    values = array(code, blob).tolist()
    edit(values)
    return code, itemsize, array(code, values).tobytes()


def set_item(index, value):
    def edit(values):
        values[index] = value

    return edit


def tree_edit(name, change):
    def edit(state):
        tree = state["columns"]["tree"]
        tree[name] = change(tree[name], tree)

    return edit


def dict_edit(name, change):
    def edit(state):
        section = state["columns"]["dictionary"]
        section[name] = change(section[name], section)

    return edit


def drop(section, name):
    def edit(state):
        del state["columns"][section][name]

    return edit


def set_byteorder(state):
    state["columns"]["byteorder"] = "middle"


TREE_CASES = {
    "left-bytes-not-a-multiple-of-the-item-size": (
        tree_edit("left", lambda p, t: ("h", 2, p[2] + b"\0" * (1 - len(p[2]) % 2))),
        r"tree columns \(left\): not a whole number of 2-byte items",
    ),
    "left-child-id-past-the-last-node": (
        tree_edit("left", lambda p, t: repacked(p, set_item(0, t["count"]))),
        r"tree columns \(left\): child id out of range",
    ),
    "right-child-id-pointing-back": (
        tree_edit("right", lambda p, t: repacked(p, set_item(-1, 0))),
        r"tree columns \(right\): child id out of range",
    ),
    "right-child-id-below-minus-one": (
        tree_edit("right", lambda p, t: repacked(p, set_item(0, -2))),
        r"tree columns \(right\): child id out of range",
    ),
    "right-one-entry-short": (
        tree_edit("right", lambda p, t: repacked(p, lambda v: v.pop())),
        r"tree columns: not \d+ entries in every column",
    ),
    "low-one-value-short": (
        tree_edit("low", lambda p, t: repacked(p, lambda v: v.pop())),
        r"tree columns \(low\): \d+ values for \d+ points of width 2",
    ),
    "high-one-value-long": (
        tree_edit("high", lambda p, t: repacked(p, lambda v: v.append(0))),
        r"tree columns \(high\)",
    ),
    "leaf-mask-of-the-wrong-length": (
        tree_edit("leaf", lambda mask, t: mask + b"\x01"),
        r"tree columns \(leaf\): not a 0/1 mask",
    ),
    "leaf-mask-with-a-third-value": (
        tree_edit("leaf", lambda mask, t: b"\x02" + mask[1:]),
        r"tree columns \(leaf\): not a 0/1 mask",
    ),
    "leaf-mask-disagreeing-with-the-beta-points": (
        tree_edit("leaf", lambda mask, t: mask.replace(b"\x00", b"\x01", 1)),
        r"tree columns \(beta\)",
    ),
    "cost-one-entry-short": (
        tree_edit("cost", lambda p, t: ("d", 8, p[2][8:])),
        r"tree columns: not \d+ entries in every column",
    ),
    "cost-in-single-precision": (
        tree_edit("cost", lambda p, t: ("f", 4, p[2])),
        r"tree columns \(cost\): unknown typecode 'f'",
    ),
    "left-in-an-unsigned-typecode": (
        tree_edit("left", lambda p, t: ("B", 1, p[2])),
        r"tree columns \(left\): unknown typecode 'B'",
    ),
    "left-item-size-not-the-typecodes": (
        tree_edit("left", lambda p, t: ("b", 2, p[2])),
        r"tree columns \(left\): unknown typecode 'b' of item size 2",
    ),
    "left-not-a-packed-array": (
        tree_edit("left", lambda p, t: p[2]),
        r"malformed columns",
    ),
    "root-not-the-first-node": (
        tree_edit("root", lambda root, t: 1),
        r"tree columns \(root\): 1 of \d+ nodes",
    ),
    "boxes-one-node-short": (
        tree_edit("boxes", lambda boxes, t: boxes[:-1]),
        r"tree columns: not \d+ entries in every column",
    ),
    "width-not-the-views": (
        tree_edit("width", lambda width, t: 1),
        r"tree columns",
    ),
    "count-off-by-one": (
        tree_edit("count", lambda count, t: count + 1),
        r"tree columns",
    ),
    "a-missing-column": (drop("tree", "high"), r"malformed columns: KeyError"),
    "an-unknown-byte-order": (
        set_byteorder,
        r"columns \(byteorder\): unknown byte order 'middle'",
    ),
}

DICT_CASES = {
    "offsets-that-descend": (
        dict_edit("offsets", lambda p, s: repacked(p, lambda v: v.reverse())),
        r"dictionary columns \(offsets\)",
    ),
    "offsets-that-overrun-the-ids": (
        dict_edit("offsets", lambda p, s: repacked(p, set_item(-1, 127))),
        r"dictionary columns \(offsets\)",
    ),
    "offsets-not-starting-at-zero": (
        dict_edit("offsets", lambda p, s: repacked(p, set_item(0, 1))),
        r"dictionary columns \(offsets\)",
    ),
    "one-offset-too-few": (
        dict_edit("offsets", lambda p, s: repacked(p, lambda v: v.pop(1))),
        r"dictionary columns \(offsets\)",
    ),
    "offsets-bytes-not-a-multiple-of-the-item-size": (
        dict_edit("offsets", lambda p, s: ("i", 4, p[2][:5])),
        r"dictionary columns \(offsets\): not a whole number of 4-byte",
    ),
    "a-node-id-past-the-last-node": (
        dict_edit("nodes", lambda p, s: repacked(p, set_item(0, 127))),
        r"dictionary columns \(nodes\): node id out of range",
    ),
    "a-negative-node-id": (
        dict_edit("nodes", lambda p, s: repacked(p, set_item(0, -1))),
        r"dictionary columns \(nodes\): node id out of range",
    ),
    "nodes-in-an-unknown-typecode": (
        dict_edit("nodes", lambda p, s: ("u", 2, p[2])),
        r"dictionary columns \(nodes\): unknown typecode 'u'",
    ),
    "bits-one-byte-short": (
        dict_edit("bits", lambda bits, s: bits[:-1]),
        r"dictionary columns \(bits\): not \d+ bytes",
    ),
    "bits-not-bytes": (
        dict_edit("bits", lambda bits, s: list(bits)),
        r"dictionary columns \(bits\)",
    ),
    "a-repeated-access": (
        dict_edit("access", lambda a, s: [a[0]] + a[:-1]),
        r"dictionary columns \(access\): repeated access tuple",
    ),
    "access-not-a-list": (
        dict_edit("access", lambda a, s: tuple(a)),
        r"dictionary columns \(offsets\)",
    ),
    "an-unhashable-access": (
        dict_edit("access", lambda a, s: [list(a[0])] + a[1:]),
        r"malformed columns: TypeError",
    ),
    "a-missing-column": (
        drop("dictionary", "nodes"),
        r"malformed columns: KeyError",
    ),
}


@pytest.mark.parametrize("case", sorted(TREE_CASES))
def test_a_malformed_tree_section_fails_typed(built, case):
    edit, message = TREE_CASES[case]
    with pytest.raises(SnapshotError, match=message):
        decode_snapshot(doctored(built, edit))


@pytest.mark.parametrize("case", sorted(DICT_CASES))
def test_a_malformed_dictionary_section_fails_typed(built, case):
    edit, message = DICT_CASES[case]
    with pytest.raises(SnapshotError, match=message):
        decode_snapshot(doctored(built, edit))


def test_the_doctoring_itself_is_harmless(built):
    restored = decode_snapshot(doctored(built, lambda state: None))
    assert encode_snapshot(restored) == built


def test_arrays_written_in_the_other_byte_order_are_swapped(built):
    other = {"little": "big", "big": "little"}[sys.byteorder]

    def swapped(packed):
        code, itemsize, blob = packed
        values = array(code, blob)
        values.byteswap()
        return code, itemsize, values.tobytes()

    def edit(state):
        columns = state["columns"]
        columns["byteorder"] = other
        for name in ("left", "right", "low", "high", "beta", "cost"):
            columns["tree"][name] = swapped(columns["tree"][name])
        for name in ("offsets", "nodes"):
            columns["dictionary"][name] = swapped(columns["dictionary"][name])

    restored = decode_snapshot(doctored(built, edit))
    assert encode_snapshot(restored) == built


def test_columns_take_the_narrowest_typecode_that_holds_them():
    view = triangle_view("fff")
    seen = set()
    for nodes, edges, tau in ((6, 14, 4.0), (16, 70, 1.0), (40, 500, 0.5)):
        rep = CompressedRepresentation(
            view, triangle_database(nodes, edges, seed=81), tau
        )
        tree = rep.snapshot_state()["columns"]["tree"]
        links = "b" if tree["count"] < 128 else "h"
        seen.add(links)
        itemsize = {"b": 1, "h": 2}[links]
        assert tree["left"][:2] == tree["right"][:2] == (links, itemsize)
        assert tree["low"][0] == tree["high"][0] == tree["beta"][0] == "b"
        assert tree["cost"][:2] == ("d", 8)
        assert len(tree["left"][2]) == tree["count"] * tree["left"][1]
        restored = decode_snapshot(encode_snapshot(rep))
        assert list(restored.enumerate(())) == list(rep.enumerate(()))
    assert seen == {"b", "h"}


# ----------------------------------------------------------------------
# compatibility: bytes the PR 23 tree wrote
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["bbf_tau2.snap", "fff_tau4.snap"])
def test_a_parent_written_compressed_blob_loads_and_becomes_v3(name):
    written = (FIXTURES / name).read_bytes()
    assert inspect_snapshot(written)["version"] == 2
    sections = dict(payload_sections(written))
    assert {"tree", "dictionary", "layout.tree", "layout.dictionary"} <= set(
        sections
    )
    restored = decode_snapshot(written)
    assert restored._tree is None and restored._dictionary is None
    view, db = restored.view, restored.db
    assert sorted(db["R"].rows) == sorted(fixture_database()["R"].rows)
    accesses = oracle_accesses(view, db, limit=12)
    assert accesses
    for access in accesses:
        assert list(restored.enumerate(access)) == oracle_answer(view, db, access)
    # The one-form instance holds every fact the blob did, twice over:
    # written back out in the v2 shape it is the parent's state.
    assert legacy_state(restored, 2) == payload_of(written)[1]
    todays = encode_snapshot(restored)
    assert inspect_snapshot(todays)["version"] == SNAPSHOT_VERSION == 4
    assert len(todays) < 0.75 * len(written)
    sections = dict(payload_sections(todays))
    assert not {"tree", "dictionary", "layout.tree"} & set(sections)
    assert {"columns.tree", "columns.dictionary"} <= set(sections)
    again = decode_snapshot(todays)
    assert encode_snapshot(again) == todays
    for access in accesses:
        assert list(again.enumerate(access)) == oracle_answer(view, db, access)


def test_a_v1_blob_of_the_same_structure_loads_to_the_same_columns():
    written = (FIXTURES / "bbf_tau2.snap").read_bytes()
    restored = decode_snapshot(written)
    v1 = decode_snapshot(legacy_blob(restored, 1))
    assert encode_snapshot(v1) == encode_snapshot(restored)


def test_a_parent_written_decomposed_blob_loads_and_becomes_v3():
    written = (FIXTURES / "decomposed_path4.snap").read_bytes()
    assert inspect_snapshot(written)["version"] == 2
    restored = decode_snapshot(written)
    view, db = restored.view, restored.db
    accesses = oracle_accesses(view, db, limit=8)
    assert accesses
    todays = encode_snapshot(restored)
    assert inspect_snapshot(todays)["version"] == SNAPSHOT_VERSION
    assert len(todays) < len(written)
    again = decode_snapshot(todays)
    assert encode_snapshot(again) == todays
    for access in accesses:
        expected = oracle_answer(view, db, access)
        assert sorted(restored.enumerate(access)) == expected
        assert sorted(again.enumerate(access)) == expected
    for bag in again.bags.values():
        assert bag.representation._dictionary is None


@pytest.fixture
def server_directory(tmp_path):
    directory = tmp_path / "snapshots"
    shutil.copytree(FIXTURES / "server_dir", directory)
    return directory


def test_a_parent_written_directory_warm_starts_with_no_build(server_directory):
    # Written by ViewServer(fixture_database(), snapshot_dir=...) at the
    # PR 23 tree: triangle bff as "V" at τ = 1, 2; DYNAMIC_VIEW as "Q" at
    # τ = 4 with one delta applied, its snapshot saved dirty, and one
    # more delta logged after the snapshot.
    db = fixture_database()
    static = {
        path.name: path.read_bytes() for path in server_directory.glob("*.snap")
    }
    assert len(static) == 2
    assert all(inspect_snapshot(blob)["version"] == 2 for blob in static.values())
    server = ViewServer(db, max_entries=None, snapshot_dir=server_directory)
    view = triangle_view("bff")
    server.register(view, tau=2.0, name="V")
    loaded = [server.representation("V", tau) for tau in (1.0, 2.0)]
    assert server.cache_stats.disk_hits == 2
    assert server.cache_stats.disk_writes == 0
    assert all(rep._tree is None and rep._dictionary is None for rep in loaded)
    for access in oracle_accesses(view, db, limit=12):
        assert server.answer("V", access) == oracle_answer(view, db, access)
    name = server.register(DYNAMIC_VIEW, tau=4.0, name="Q")
    assert server.delta_version(name) == 2
    assert server.total_builds() == 0
    current = Database(
        [
            Relation("R", 2, db["R"].rows | {(0, 12), (5, 5)}),
            Relation("S", 2, (db["S"].rows - {(0, 0)}) | {(12, 12)}),
            db["T"],
        ]
    )
    dynamic_view = parse_view(DYNAMIC_VIEW)
    accesses = [(value,) for value in range(13)]
    assert any(oracle_answer(dynamic_view, current, a) for a in accesses)
    for access in accesses:
        assert server.answer(name, access) == oracle_answer(
            dynamic_view, current, access
        )
    server.close()
    assert static == {
        path.name: path.read_bytes() for path in server_directory.glob("*.snap")
    }


def test_a_parent_written_dirty_dynamic_snapshot_becomes_v3(server_directory):
    (path,) = (server_directory / "dynamic").glob("*.snap")
    assert inspect_snapshot(path.read_bytes())["version"] == 2
    dynamic = load_snapshot(path)
    assert isinstance(dynamic, DynamicRepresentation)
    # Two rows were inserted before the save; (5, 5) was already in R.
    assert dynamic.is_dirty and dynamic.pending_updates == 1
    todays = encode_snapshot(dynamic)
    assert inspect_snapshot(todays)["version"] == SNAPSHOT_VERSION
    assert len(todays) < len(path.read_bytes())
    again = decode_snapshot(todays)
    assert encode_snapshot(again) == todays
    assert again.pending_updates == 1
    view, current = again.view, again.current_database()
    for access in [(value,) for value in range(13)]:
        expected = oracle_answer(view, current, access)
        assert list(dynamic.enumerate(access)) == expected
        assert list(again.enumerate(access)) == expected


# ----------------------------------------------------------------------
# a dynamic state stores its base database once
# ----------------------------------------------------------------------
def test_a_dynamic_state_stores_its_base_database_once():
    view = triangle_view("bbf")
    dynamic = DynamicRepresentation(view, triangle_database(12, 40, seed=7), 2.0)
    state = dynamic.snapshot_state()
    assert dynamic.structure.db is dynamic.base_database()
    # v4: the inner source holds the view alone.
    inner = state["structure"]["source"]
    assert state["db"] and source_states(state["structure"])[1] is None
    assert inner == source_section((view_state(dynamic.structure.view), None))
    blob = encode_snapshot(dynamic)
    sections = dict(payload_sections(blob))
    assert sections["structure.source"] < len(inner) + 16 < sections["db"]
    restored = decode_snapshot(blob)
    assert restored.structure.db is restored.base_database()
    assert encode_snapshot(restored) == blob
    # On its own, a state that points at an enclosing database is refused.
    with pytest.raises(SnapshotError, match="enclosing"):
        CompressedRepresentation.from_snapshot_state(state["structure"])
    # A normalised view's structure is over a rewritten database: kept.
    constants = parse_view("C^bf(x, y) = R(x, y), S(y, 3)")
    db = Database(
        [
            Relation("R", 2, [(1, 2), (2, 3), (4, 3)]),
            Relation("S", 2, [(2, 3), (3, 3), (3, 4)]),
        ]
    )
    rewritten = DynamicRepresentation(constants, db, tau=2.0)
    assert rewritten.structure.db is not rewritten.base_database()
    assert source_states(rewritten.snapshot_state()["structure"])[1] is not None
    assert list(decode_snapshot(encode_snapshot(rewritten)).enumerate((1,))) == list(
        rewritten.enumerate((1,))
    )


# ----------------------------------------------------------------------
# tooling: the CLI shows where the bytes go
# ----------------------------------------------------------------------
def test_snapshot_inspect_prints_the_payloads_sections(tmp_path, capsys):
    parents = FIXTURES / "fff_tau4.snap"
    assert main(["snapshot", "inspect", "--file", str(parents)]) == 0
    out = capsys.readouterr().out
    assert "format version: 2" in out
    for section in ("tree", "dictionary", "layout.tree", "layout.dictionary"):
        assert f"  section {section}: " in out
    todays = tmp_path / "todays.snap"
    todays.write_bytes(encode_snapshot(decode_snapshot(parents.read_bytes())))
    assert main(["snapshot", "inspect", "--file", str(todays)]) == 0
    out = capsys.readouterr().out
    assert "format version: 4" in out
    assert "  section columns.tree: " in out
    assert "  section columns.dictionary: " in out
    assert "  section tree: " not in out and "layout" not in out
    assert "  section view: " not in out and "  section db: " not in out
    sizes = dict(payload_sections(todays.read_bytes()))
    assert f"  section source: {sizes['source']} bytes" in out
    # A payload cut short still has a header to show, and no sections.
    todays.write_bytes(todays.read_bytes()[:-10])
    assert main(["snapshot", "inspect", "--file", str(todays)]) == 0
    out = capsys.readouterr().out
    assert "TRUNCATED" in out and "section" not in out
