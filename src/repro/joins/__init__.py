"""Join processing substrate.

* :mod:`repro.joins.generic_join` — :class:`JoinCounter`, the logical
  step counter of every measured enumeration. The worst-case-optimal
  join itself is the columnar kernel's
  (:func:`repro.core.kernel.join_rows`): it enumerates one variable at a
  time in a fixed order, intersecting the sorted runs of the
  participating atoms, so its running time matches the AGM bound for
  any fractional cover and its output arrives in lexicographic order of
  the variable order — both properties the compressed representation
  relies on (Propositions 6 and 9). Its value-space twin, the generic
  join over sorted tries, is the tests' executable spec
  (``tests/reference_index.py``).
* :mod:`repro.joins.hash_join` — a classic pairwise hash-join evaluator,
  used as an independent oracle in tests.
* :mod:`repro.joins.semijoin` — semijoin filtering for the bottom-up passes
  of Theorem 2 and the factorized representations.
"""

from repro.joins.generic_join import JoinCounter
from repro.joins.hash_join import evaluate_by_hash_join, hash_join
from repro.joins.semijoin import semijoin

__all__ = [
    "JoinCounter",
    "hash_join",
    "evaluate_by_hash_join",
    "semijoin",
]
