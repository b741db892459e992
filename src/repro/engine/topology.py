"""Routing tables: versioned rendezvous placement of the bound-value space.

Modulo placement (``stable_hash(v) % n``) freezes the topology at
construction: changing the shard count remaps nearly every key, so a hot
shard has nowhere to go without a full repartition. This module replaces
it with *hierarchical rendezvous hashing* (highest random weight):

* Every shard is a named node. A key ranks all candidate nodes by a
  restart-stable per-``(node, key)`` weight and lands on the maximum —
  no modulus anywhere, so membership changes only move the keys whose
  winning node changed.
* A :class:`RoutingTable` arranges the nodes as a shallow tree: the
  initial shards are the roots, and splitting a shard replaces that
  *leaf* with two children. Resolution descends by rendezvous at every
  level, so a split remaps **only the split shard's keys** (they
  re-rendezvous between its two children); every other shard's key set
  is untouched by construction, and at most ``1/n`` of all keys move.
* Tables are **versioned** (each split bumps the version) and
  **serializable** (:meth:`to_state` / :meth:`from_state` round-trip
  plain data), and placement is **restart-stable**: weights derive from
  :func:`stable_hash` and CRC32 of node names, never from process-salted
  ``hash``.

:class:`~repro.engine.sharding.ShardedViewServer` keeps one live table
per topology version; in-flight cursors pin the version they opened
under while new requests take the newest table (the drain protocol).
"""

from __future__ import annotations

import json
import zlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
    """A versioned, serializable rendezvous placement of keys on shards.

    The table is a two-tier tree: ``roots`` are the initial shard names,
    and ``splits`` maps a split shard to its (recursively splittable)
    children. A key resolves by rendezvous among the roots, then among
    the children of every split node it lands on; the leaves are the
    live shards (:attr:`shard_ids`, in deterministic depth-first order).

    Tables are immutable: :meth:`split` returns a *new* table with the
    version bumped, which is what lets a server keep several versions
    live at once while in-flight cursors drain.
    """

    def __init__(
        self,
        roots: Sequence[str],
        splits: Optional[Mapping[str, Sequence[str]]] = None,
        version: int = 1,
    ):
        self.roots: Tuple[str, ...] = tuple(str(node) for node in roots)
        if not self.roots:
            raise ParameterError("a routing table needs at least one shard")
        if len(set(self.roots)) != len(self.roots):
            raise ParameterError(f"duplicate root shards in {self.roots!r}")
        if version < 1:
            raise ParameterError(f"version must be >= 1, got {version}")
        self.version = int(version)
        self.splits: Dict[str, Tuple[str, ...]] = {}
        seen = set(self.roots)
        for parent, children in dict(splits or {}).items():
            children = tuple(str(child) for child in children)
            if len(children) < 2:
                raise ParameterError(
                    f"split of {parent!r} needs >= 2 children, "
                    f"got {children!r}"
                )
            for child in children:
                if child in seen:
                    raise ParameterError(
                        f"shard name {child!r} appears twice in the table"
                    )
                seen.add(child)
            self.splits[str(parent)] = children
        for parent in self.splits:
            if parent not in seen:
                raise ParameterError(
                    f"split parent {parent!r} is not a node of the table"
                )
        self._leaves = tuple(self._walk_leaves())
        self._index = {leaf: i for i, leaf in enumerate(self._leaves)}

    @classmethod
    def fresh(cls, n_shards: int) -> "RoutingTable":
        """Version-1 table of ``n_shards`` root shards named ``"0"…"n-1"``."""
        if n_shards < 1:
            raise ParameterError(f"n_shards must be >= 1, got {n_shards}")
        return cls([str(i) for i in range(n_shards)])

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _walk_leaves(self):
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            children = self.splits.get(node)
            if children is None:
                yield node
            else:
                stack.extend(reversed(children))

    @property
    def shard_ids(self) -> Tuple[str, ...]:
        """The live shards (leaves), in deterministic depth-first order."""
        return self._leaves

    @property
    def n_shards(self) -> int:
        """How many live shards the table currently routes to."""
        return len(self._leaves)

    def is_leaf(self, shard_id: str) -> bool:
        """Whether ``shard_id`` is a live shard (not split away)."""
        return str(shard_id) in self._index

    def children(self, shard_id: str) -> Tuple[str, ...]:
        """The split children of one node (empty tuple for leaves)."""
        return self.splits.get(str(shard_id), ())

    def index_of(self, shard_id: str) -> int:
        """Position of one live shard within :attr:`shard_ids`."""
        try:
            return self._index[str(shard_id)]
        except KeyError:
            raise ParameterError(
                f"shard {shard_id!r} is not a live shard of routing-table "
                f"version {self.version}"
            ) from None

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def shard_for(self, value: object) -> str:
        """The live shard owning one bound value (hierarchical rendezvous)."""
        key_hash = stable_hash(value)
        node = rendezvous_choice(self.roots, key_hash)
        while node in self.splits:
            node = rendezvous_choice(self.splits[node], key_hash)
        return node

    def index_for(self, value: object) -> int:
        """The :attr:`shard_ids` index owning one bound value."""
        return self._index[self.shard_for(value)]

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def split(self, shard_id: str) -> "RoutingTable":
        """A new table (version + 1) with one leaf split into two children.

        Children are named ``<parent>.0`` and ``<parent>.1``. Only the
        split shard's keys re-rendezvous (between the two children);
        every other leaf keeps its exact key set, so splitting one shard
        of ``n`` moves at most ``1/n`` of all keys.
        """
        shard_id = str(shard_id)
        if shard_id not in self._index:
            raise ParameterError(
                f"cannot split {shard_id!r}: not a live shard of "
                f"routing-table version {self.version} "
                f"(live: {list(self._leaves)!r})"
            )
        splits = {parent: list(kids) for parent, kids in self.splits.items()}
        splits[shard_id] = [f"{shard_id}.0", f"{shard_id}.1"]
        return RoutingTable(self.roots, splits, version=self.version + 1)

    # ------------------------------------------------------------------
    # serialization (plain data; restart-stable placement by design)
    # ------------------------------------------------------------------
    def to_state(self) -> Dict:
        """The table as plain data (version, roots, split tree)."""
        return {
            "version": self.version,
            "roots": list(self.roots),
            "splits": {
                parent: list(children)
                for parent, children in sorted(self.splits.items())
            },
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "RoutingTable":
        """Rebuild a table from :meth:`to_state` data (same placement)."""
        return cls(
            state["roots"],
            state.get("splits", {}),
            version=state.get("version", 1),
        )

    def to_json(self) -> str:
        """Canonical JSON form of :meth:`to_state` (restart-stable)."""
        return json.dumps(self.to_state(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RoutingTable":
        """Rebuild a table serialized by :meth:`to_json`."""
        return cls.from_state(json.loads(text))

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutingTable):
            return NotImplemented
        return (
            self.version == other.version
            and self.roots == other.roots
            and self.splits == other.splits
        )

    def __hash__(self) -> int:
        return hash(
            (self.version, self.roots, tuple(sorted(self.splits.items())))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoutingTable(version={self.version}, "
            f"shards={list(self._leaves)!r})"
        )


def assignment_of(
    table: RoutingTable, values
) -> Dict[str, List]:
    """Group ``values`` by the shard each one lands on (diagnostics/CLI)."""
    owners: Dict[str, List] = {shard: [] for shard in table.shard_ids}
    for value in values:
        owners[table.shard_for(value)].append(value)
    return owners
