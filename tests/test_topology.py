"""Rendezvous routing tables: placement stability is the whole contract.

Three properties carry the sharded facade's placement:

* **restart stability** — ``stable_hash`` (and therefore every routing
  decision) must not depend on ``PYTHONHASHSEED``, or a restarted
  server would route the same keys to different shards than the one
  that built the snapshots. Verified in real subprocesses.
* **equality consistency** — values that compare equal (``1``, ``1.0``,
  ``True``) must hash alike, since relations dedupe rows by equality.
* **a pinned placement** — the owner of every key is a golden mapping.
  Moving keys between shards changes every shard's database
  fingerprint, so existing ``shard-<id>`` snapshot directories would
  refuse to warm-start.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine.topology import (
    RoutingTable,
    rendezvous_choice,
    stable_hash,
)
from repro.exceptions import ParameterError

KEYS = [
    *range(200),
    *(f"user-{i}" for i in range(50)),
    *((i, f"k{i}") for i in range(50)),
]

#: The owners of ``range(100)`` then ``user-0`` … ``user-24`` over a
#: 4-shard table, one digit per key: the placement every shard's
#: snapshots were fingerprinted under.
GOLDEN_KEYS = [*range(100), *(f"user-{i}" for i in range(25))]
GOLDEN_PLACEMENT = (
    "0000111122223333111100003333222233332222111100002222333300001111"
    "222233330000111133332222111100001111"
    "1313020202020213131313130"
)


def _run_seeded(script: str, hash_seed: str) -> str:
    """Run ``script`` in a fresh interpreter under one PYTHONHASHSEED."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH", "")) if part
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestStableHash:
    def test_equal_values_hash_alike(self):
        assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)
        assert stable_hash((1,)) == stable_hash((1.0,))
        assert stable_hash((1, "a")) == stable_hash((1.0, "a"))

    def test_distinct_values_spread(self):
        hashes = {stable_hash(key) for key in KEYS}
        assert len(hashes) > len(KEYS) * 0.95

    def test_restart_stable_across_hash_seeds(self):
        """The satellite contract, verified in real interpreters.

        ``PYTHONHASHSEED`` randomizes ``hash(str)`` per process; a
        placement function built on it would scatter a restarted
        server's keys. Two subprocesses with different seeds must agree
        on every hash — including the equality-consistency edge cases
        ``1`` vs ``1.0`` and ``(1,)`` vs ``(1.0,)``.
        """
        script = (
            "import json, sys\n"
            "from repro.engine.topology import stable_hash\n"
            "probes = [\n"
            "    'a', 'user-17', b'bytes', 0, 1, -1, 2**40,\n"
            "    (1, 'a'), ('x', ('y', 3)), (), None,\n"
            "    1.0, (1.0,), (1,), True,\n"
            "]\n"
            "print(json.dumps([stable_hash(p) for p in probes]))\n"
            "assert stable_hash(1) == stable_hash(1.0)\n"
            "assert stable_hash((1,)) == stable_hash((1.0,))\n"
        )
        outputs = [
            json.loads(_run_seeded(script, seed)) for seed in ("0", "42")
        ]
        assert outputs[0] == outputs[1]

    def test_routing_table_placement_is_restart_stable(self):
        """Whole-table placement agrees across differently-seeded runs."""
        script = (
            "import json\n"
            "from repro.engine.topology import RoutingTable\n"
            "table = RoutingTable.fresh(5)\n"
            "keys = [*range(100), *(f'user-{i}' for i in range(25))]\n"
            "print(json.dumps({str(k): table.shard_for(k) for k in keys}))\n"
        )
        outputs = [
            json.loads(_run_seeded(script, seed)) for seed in ("1", "7777")
        ]
        assert outputs[0] == outputs[1]


class TestRendezvousChoice:
    def test_deterministic_and_total(self):
        candidates = ("0", "1", "2", "3")
        for key in KEYS:
            first = rendezvous_choice(candidates, stable_hash(key))
            assert first in candidates
            assert first == rendezvous_choice(candidates, stable_hash(key))

    def test_reasonably_balanced(self):
        candidates = ("0", "1", "2", "3")
        counts = {c: 0 for c in candidates}
        for key in KEYS:
            counts[rendezvous_choice(candidates, stable_hash(key))] += 1
        assert min(counts.values()) > 0
        assert max(counts.values()) < len(KEYS) * 0.6


class TestRoutingTable:
    def test_fresh_table_shape(self):
        table = RoutingTable.fresh(4)
        assert table.n_shards == 4
        assert table.shard_ids == ("0", "1", "2", "3")

    def test_validation_errors(self):
        with pytest.raises(ParameterError):
            RoutingTable.fresh(0)
        with pytest.raises(ParameterError):
            RoutingTable([])
        with pytest.raises(ParameterError):
            RoutingTable(["0", "0"])

    def test_placement_is_pinned(self):
        table = RoutingTable.fresh(4)
        placement = "".join(table.shard_for(key) for key in GOLDEN_KEYS)
        assert placement == GOLDEN_PLACEMENT

    def test_index_for_matches_shard_for(self):
        table = RoutingTable.fresh(4)
        for key in KEYS[:50]:
            assert (
                table.shard_ids[table.index_for(key)] == table.shard_for(key)
            )
