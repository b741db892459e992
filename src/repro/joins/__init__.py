"""Join processing substrate.

* :mod:`repro.joins.generic_join` — a worst-case-optimal join in the
  NPRR/generic-join family. It enumerates one variable at a time in a fixed
  order, intersecting the sorted candidate streams of the participating
  tries; its running time matches the AGM bound for any fractional cover,
  and its output arrives in lexicographic order of the variable order —
  both properties the compressed representation relies on (Propositions 6
  and 9). It is the value-space reference join: the columnar kernel
  (:mod:`repro.core.kernel`) is its index-space twin, and is what the
  compressed representation builds and serves with.
* :mod:`repro.joins.hash_join` — a classic pairwise hash-join evaluator,
  used as an independent oracle in tests and by the materialized baseline.
* :mod:`repro.joins.semijoin` — semijoin filtering for the bottom-up passes
  of Theorem 2 and the factorized representations.
"""

from repro.joins.generic_join import (
    JoinCounter,
    generic_join,
    join_is_nonempty,
)
from repro.joins.hash_join import evaluate_by_hash_join, hash_join
from repro.joins.semijoin import semijoin

__all__ = [
    "JoinCounter",
    "generic_join",
    "join_is_nonempty",
    "hash_join",
    "evaluate_by_hash_join",
    "semijoin",
]
