"""The two extremal baselines of Section 2.3.

* :class:`~repro.baselines.materialized.MaterializedView` — materialize
  ``Q(D)`` and index it by the bound variables: optimal delay, worst space.
* :class:`~repro.baselines.lazy.LazyView` — store nothing beyond linear
  indexes and evaluate each access request from scratch with a worst-case
  optimal join: optimal space, worst delay.

The compressed representations explore the continuum between these two,
and both ends are built from the same parts: the context's one sorted
index per atom (:meth:`~repro.core.context.ViewContext.columns`) and the
kernel's join (:func:`~repro.core.kernel.join_rows`). The lazy end is the
one-leaf structure, the materialised end the output a build materialises.
"""

from repro.baselines.materialized import MaterializedView
from repro.baselines.lazy import LazyView

__all__ = ["MaterializedView", "LazyView"]
