"""Codecs v1 – v3 as older trees wrote them — a writer for tests.

``src/`` reads versions 1 to 4 and writes only 4, so the old write
side lives here: v3's plain ``"view"`` / ``"db"`` sections where v4
has one ``"source"``, and the node records, ``(node, access, bit)``
triples and 64-bit ``"layout"`` of a v1 / v2 compressed state,
transcribed from the ``to_state`` methods that produced them
(``DelayBalancedTree``, ``HeavyDictionary``, ``TreeColumns``,
``DictColumns`` at commit ``45a8229``). Real bytes written by those
trees are under ``tests/data/``; this module is for the cases that need
an old blob of a structure built *here*.
"""

from __future__ import annotations

import pickle
import zlib
from array import array
from typing import Dict

from repro.core import snapshot as snap


def _int64(values) -> bytes:
    return array("q", values).tobytes()


def tree_records(tree) -> Dict:
    """``DelayBalancedTree.to_state()`` of codec v1 / v2."""
    return {
        "tau": tree.tau,
        "alpha": tree.alpha,
        "root": tree.root.id if tree.root is not None else None,
        "nodes": [
            (
                node.interval.low,
                node.interval.high,
                node.level,
                node.cost,
                node.beta,
                node.left.id if node.left is not None else None,
                node.right.id if node.right is not None else None,
            )
            for node in tree.nodes
        ],
    }


def dictionary_triples(dictionary):
    """``HeavyDictionary.to_state()`` of codec v1 / v2."""
    return sorted(
        (node_id, access, bit) for (node_id, access), bit in dictionary.items()
    )


def layout_state(layout) -> Dict:
    """``CompiledLayout.to_state()`` of codec v2: 64-bit columns."""
    tree, dictionary = layout.tree, layout.dictionary
    return {
        "tree": {
            "root": tree.root,
            "width": tree.width,
            "count": len(tree.left),
            "left": _int64(tree.left),
            "right": _int64(tree.right),
            "low": _int64([i for point in tree.low for i in point]),
            "high": _int64([i for point in tree.high for i in point]),
            "beta": [
                (node_id, point)
                for node_id, point in enumerate(tree.beta)
                if point is not None
            ],
            "boxes": tree.boxes,
        },
        "dictionary": sorted(
            (access, _int64(dictionary.nodes[lo:hi]), dictionary.bits[lo:hi])
            for access, (lo, hi) in dictionary.index.items()
        ),
    }


def v3_state(state: Dict) -> Dict:
    """A v4 compressed state as codec v3 held it: view and database apart."""
    state = dict(state)
    state["view"], state["db"] = snap.source_states(state)
    del state["source"]
    return state


def legacy_state(rep, version: int) -> Dict:
    """A compressed representation's state as codec ``version`` (1 or 2)."""
    state = v3_state(rep.snapshot_state())
    del state["columns"]
    state["tree"] = tree_records(rep.tree)
    state["dictionary"] = dictionary_triples(rep.dictionary)
    if version == 2:
        state["layout"] = layout_state(rep._layout)
    return state


def frame(kind: str, fingerprint: str, version: int, state) -> bytes:
    """A snapshot blob of ``state`` under a fresh CRC."""
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    kind_bytes, print_bytes = kind.encode("utf-8"), fingerprint.encode("utf-8")
    return b"".join(
        (
            snap._HEADER_PREFIX.pack(snap.SNAPSHOT_MAGIC, version),
            snap._U16.pack(len(kind_bytes)),
            kind_bytes,
            snap._U16.pack(len(print_bytes)),
            print_bytes,
            snap._TRAILER.pack(zlib.crc32(payload), len(payload)),
            payload,
        )
    )


def legacy_blob(rep, version: int) -> bytes:
    """``encode_snapshot(rep)`` as a tree of codec ``version`` wrote it."""
    return frame(
        "compressed", snap._own_fingerprint(rep), version,
        legacy_state(rep, version),
    )


def payload_of(blob: bytes):
    """``(header fields, unpickled state)`` of a blob, CRC unchecked."""
    header = snap._parse_header(blob)
    return header, pickle.loads(blob[header[-1] :])


def doctored(blob: bytes, edit) -> bytes:
    """``blob`` with ``edit(state)`` applied, re-pickled under a fresh CRC."""
    (version, kind, fingerprint, *_), state = payload_of(blob)
    edit(state)
    return frame(kind, fingerprint, version, state)
