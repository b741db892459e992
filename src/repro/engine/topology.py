"""Routing tables: rendezvous placement of the bound-value space.

The sharded facade splits the bound-value space across a fixed set of
shards. A key's owner is chosen by *rendezvous hashing* (highest random
weight): every shard is a named node, and a key ranks all of them by a
restart-stable per-``(node, key)`` weight and lands on the maximum.
Placement is **restart-stable** — weights derive from
:func:`stable_hash` and CRC32 of node names, never from process-salted
``hash`` — so a restarted server routes every key to the shard whose
``shard-<id>`` snapshots were built from it.
"""

from __future__ import annotations

import zlib
from typing import Sequence, Tuple

from repro.exceptions import ParameterError


def stable_hash(value: object) -> int:
    """An equality-consistent, restart-stable hash of one bound value.

    Routing must agree with ``==`` (equal values answer identically on an
    unsharded server, so they must pin the same shard) and ideally not
    move across process restarts. Python's builtin ``hash`` is
    equality-consistent by contract but salted per process for strings,
    while textual hashing is restart-stable but blind to equality
    (``1`` vs ``1.0``, or ``(1,)`` vs ``(1.0,)``). So: strings and bytes
    hash via CRC32 of their contents, tuples via a CRC fold of their
    elements' ``stable_hash`` (restart-stable all the way down), and
    everything else — numbers, user types, exotic containers — via the
    builtin ``hash``. The fallback keeps equality-consistency always;
    restart stability there is only as strong as the value's own
    ``__hash__`` (exact for numbers, salted for e.g. frozensets of
    strings).
    """
    if value is None:
        # hash(None) derives from id() before Python 3.13 — a fresh
        # process would route NULL keys to a different shard.
        return zlib.crc32(b"None")
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return zlib.crc32(bytes(value))
    if isinstance(value, tuple):
        # Fold element hashes so equal tuples of equal (possibly
        # mixed-type) elements agree, e.g. (1,) and (1.0,).
        acc = len(value)
        for element in value:
            acc = zlib.crc32(stable_hash(element).to_bytes(4, "big"), acc)
        return acc
    return hash(value) & 0xFFFFFFFF


def rendezvous_choice(candidates: Sequence[str], key_hash: int) -> str:
    """The highest-random-weight winner among ``candidates`` for one key.

    The weight of ``(node, key)`` is the CRC32 of the node's name seeded
    with the key's hash — restart-stable, uniform enough per node, and
    independent across nodes, which is all rendezvous hashing needs. The
    node name breaks exact weight ties deterministically.
    """
    if not candidates:
        raise ParameterError("rendezvous over an empty candidate set")
    seed = zlib.crc32((key_hash & 0xFFFFFFFF).to_bytes(4, "big"))
    return max(
        candidates,
        key=lambda node: (zlib.crc32(node.encode("utf-8"), seed), node),
    )


class RoutingTable:
    """A rendezvous placement of keys on a fixed list of shards.

    ``roots`` are the shard names; :meth:`fresh` names ``n`` of them
    ``"0"…"n-1"``. A key lands on the rendezvous winner among them.
    """

    def __init__(self, roots: Sequence[str]):
        self.roots: Tuple[str, ...] = tuple(str(node) for node in roots)
        if not self.roots:
            raise ParameterError("a routing table needs at least one shard")
        if len(set(self.roots)) != len(self.roots):
            raise ParameterError(f"duplicate root shards in {self.roots!r}")
        self._index = {root: i for i, root in enumerate(self.roots)}

    @classmethod
    def fresh(cls, n_shards: int) -> "RoutingTable":
        """A table of ``n_shards`` shards named ``"0"…"n-1"``."""
        if n_shards < 1:
            raise ParameterError(f"n_shards must be >= 1, got {n_shards}")
        return cls([str(i) for i in range(n_shards)])

    @property
    def shard_ids(self) -> Tuple[str, ...]:
        """The shards, in routing order."""
        return self.roots

    @property
    def n_shards(self) -> int:
        """How many shards the table routes to."""
        return len(self.roots)

    def shard_for(self, value: object) -> str:
        """The shard owning one bound value (rendezvous over the roots)."""
        return rendezvous_choice(self.roots, stable_hash(value))

    def index_for(self, value: object) -> int:
        """The :attr:`shard_ids` index owning one bound value."""
        return self._index[self.shard_for(value)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoutingTable(shards={list(self.roots)!r})"
