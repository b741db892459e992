"""The paper's primary contribution: tunable compressed representations.

* :mod:`repro.core.structure` — :class:`CompressedRepresentation`, the
  Theorem 1 data structure (delay-balanced tree + heavy-pair dictionary).
* :mod:`repro.core.decomposed` — :class:`DecomposedRepresentation`, the
  Theorem 2 structure combining per-bag Theorem 1 structures over a
  V_b-connex tree decomposition.
* :mod:`repro.core.constant_delay` — the constant-delay fast paths of
  Propositions 1 and 4.
* :mod:`repro.core.representation` — the read contract all of them (and
  the baselines, and :mod:`repro.core.dynamic`'s read side) inherit.
* The supporting internals: tuple spaces (:mod:`repro.core.domain`),
  f-intervals and their box decomposition (:mod:`repro.core.intervals`),
  the AGM cost model (:mod:`repro.core.cost`), balanced splitting
  (:mod:`repro.core.splitting`),
  the delay-balanced tree (:mod:`repro.core.balanced_tree`) and the heavy
  valuation dictionary (:mod:`repro.core.dictionary`).
"""

from repro.core.domain import Domain, TupleSpace
from repro.core.context import ViewContext, AtomBinding
from repro.core.intervals import FInterval, box_decomposition
from repro.core.cost import CostModel
from repro.core.splitting import split_interval
from repro.core.balanced_tree import (
    DelayBalancedTree,
    TreeNode,
    build_delay_balanced_tree,
)
from repro.core.dictionary import build_dictionary
from repro.core.snapshot import (
    SnapshotStore,
    database_fingerprint,
    decode_snapshot,
    encode_snapshot,
    inspect_snapshot,
    inspect_snapshot_file,
    load_snapshot,
    save_snapshot,
)
from repro.core.structure import CompressedRepresentation
from repro.core.projection import ProjectedRepresentation
from repro.core.dynamic import DynamicRepresentation
from repro.core.decomposed import DecomposedRepresentation
from repro.core.constant_delay import FullyBoundStructure, ConnexConstantDelayStructure

__all__ = [
    "Domain",
    "TupleSpace",
    "ViewContext",
    "AtomBinding",
    "FInterval",
    "box_decomposition",
    "CostModel",
    "split_interval",
    "TreeNode",
    "DelayBalancedTree",
    "build_delay_balanced_tree",
    "build_dictionary",
    "SnapshotStore",
    "database_fingerprint",
    "decode_snapshot",
    "encode_snapshot",
    "inspect_snapshot",
    "inspect_snapshot_file",
    "load_snapshot",
    "save_snapshot",
    "CompressedRepresentation",
    "ProjectedRepresentation",
    "DynamicRepresentation",
    "DecomposedRepresentation",
    "FullyBoundStructure",
    "ConnexConstantDelayStructure",
]
