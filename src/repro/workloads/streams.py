"""Access-request streams: the serving engine's workload side.

A serving system sees a *stream* of access requests, not a single one —
popular bound values recur (Zipf-style popularity), some requests miss
entirely, and requests arrive in batches. :func:`request_stream` produces
such a stream for any adorned view: productive access tuples are the
distinct bound-variable projections of the true result (computed once by
the independent hash-join evaluator), drawn with Zipf-skewed popularity,
interleaved with deterministic misses.

Everything is seeded and deterministic, like the rest of
:mod:`repro.workloads`.
"""

from __future__ import annotations

import asyncio
import random
from typing import AsyncIterator, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.database.catalog import Database
from repro.exceptions import ParameterError
from repro.joins.hash_join import evaluate_by_hash_join
from repro.query.adorned import AdornedView
from repro.workloads.generators import zipf_cumulative_weights


def productive_accesses(view: AdornedView, db: Database) -> List[Tuple]:
    """Sorted distinct access tuples with at least one answer.

    These are the bound-variable projections of ``Q(D)``, computed by the
    pairwise hash-join evaluator (no shared code with the compressed
    structures, so streams are usable as an oracle workload too).
    """
    bound_positions = [
        i for i, ch in enumerate(view.pattern) if ch == "b"
    ]
    keys = {
        tuple(row[i] for i in bound_positions)
        for row in evaluate_by_hash_join(view.query, db)
    }
    return sorted(keys)


def request_stream(
    view: AdornedView,
    db: Database,
    n_requests: int,
    seed: int = 0,
    skew: float = 1.0,
    miss_rate: float = 0.0,
) -> List[Tuple]:
    """A seeded stream of ``n_requests`` access tuples for one view.

    Parameters
    ----------
    skew:
        Zipf exponent of the popularity distribution over the productive
        access tuples: 0 is uniform, 1+ concentrates the stream on a few
        heavy hitters (which is what makes a representation cache and
        batch deduplication pay off).
    miss_rate:
        Fraction of requests (in expectation) drawn as guaranteed misses —
        access tuples outside the productive set, as a real traffic mix
        would contain.
    """
    if n_requests < 0:
        raise ParameterError(f"n_requests must be >= 0, got {n_requests}")
    if skew < 0:
        raise ParameterError(f"skew must be >= 0, got {skew}")
    if not 0.0 <= miss_rate <= 1.0:
        raise ParameterError(f"miss_rate must be in [0, 1], got {miss_rate}")
    keys = productive_accesses(view, db)
    n_bound = sum(1 for ch in view.pattern if ch == "b")
    if not keys and miss_rate < 1.0:
        # Nothing is productive: the whole stream is misses by necessity.
        miss_rate = 1.0
    elif keys and n_bound == 0 and miss_rate > 0.0:
        # A non-parametric view has exactly one access tuple, (), and it
        # is productive here — a guaranteed miss cannot exist, so an
        # explicitly requested miss mix is unsatisfiable, not overridable.
        # (With no productive keys, () itself is the miss and streams fine.)
        raise ParameterError(
            "a view with no bound variables has () as its only access "
            f"tuple; miss_rate {miss_rate} is unsatisfiable"
        )
    rng = random.Random(seed)
    key_set = set(keys)
    cum_weights = zipf_cumulative_weights(len(keys), skew)
    stream: List[Tuple] = []
    for _ in range(n_requests):
        if rng.random() < miss_rate or not keys:
            # Rejection-sample so the miss guarantee holds even when the
            # database itself contains negative values.
            while True:
                miss = tuple(
                    -1 - rng.randrange(1_000_000) for _ in range(n_bound)
                )
                if miss not in key_set:
                    break
            stream.append(miss)
        else:
            stream.append(rng.choices(keys, cum_weights=cum_weights)[0])
    return stream


def topk_requests(
    view: AdornedView,
    db: Database,
    n_requests: int,
    seed: int = 0,
    skew: float = 1.0,
    limits: Sequence[Optional[int]] = (1, 5, 25),
    miss_rate: float = 0.0,
    name: Optional[str] = None,
    measure: bool = False,
) -> List:
    """A seeded top-k request mix: Zipf-skewed accesses with cursor limits.

    The cursor-plane counterpart of :func:`request_stream`: each access
    tuple is wrapped in an :class:`~repro.engine.api.AccessRequest`
    whose ``limit`` is drawn uniformly from ``limits`` (``None`` entries
    mean "the full answer", letting one mix interleave top-k and
    unbounded requests). ``name`` overrides the serving name the
    requests refer to (default: the view's own name, which matches a
    ``register(view)`` without an explicit name).
    """
    from repro.engine.api import AccessRequest

    if not limits:
        raise ParameterError("limits must name at least one page size")
    for limit in limits:
        if limit is not None and limit < 0:
            raise ParameterError(f"limits must be >= 0, got {limit}")
    accesses = request_stream(
        view, db, n_requests, seed=seed, skew=skew, miss_rate=miss_rate
    )
    rng = random.Random(seed + 0x7BC)
    view_name = name if name is not None else view.name
    return [
        AccessRequest(
            view=view_name,
            access=access,
            limit=rng.choice(list(limits)),
            measure=measure,
        )
        for access in accesses
    ]


def prefix_batch_requests(
    view: AdornedView,
    db: Database,
    n_requests: int,
    seed: int = 0,
    skew: float = 1.0,
    prefix_len: int = 1,
    limits: Sequence[Optional[int]] = (None,),
    name: Optional[str] = None,
    measure: bool = False,
) -> List:
    """A seeded request batch whose access tuples share bound prefixes.

    The shared-scan workload shape: the productive access tuples are
    grouped by their first ``prefix_len`` bound values, groups are drawn
    with Zipf-``skew`` popularity (largest groups first, so skew
    concentrates traffic on prefix-heavy neighborhoods, where repeated
    requests — what a batch deduplicates — are likeliest), and members
    are drawn uniformly within the chosen group. ``prefix_len=0`` degenerates to
    one all-encompassing empty-prefix group (a uniform draw over every
    productive access — the no-sharing-beyond-duplicates baseline).
    Each access is wrapped in an :class:`~repro.engine.api.AccessRequest`
    with a ``limit`` drawn uniformly from ``limits`` (``None`` = full
    answer), so one batch mixes top-k and unbounded requests; ``name``
    overrides the serving name as in :func:`topk_requests`.
    """
    from repro.engine.api import AccessRequest

    if n_requests < 0:
        raise ParameterError(f"n_requests must be >= 0, got {n_requests}")
    if skew < 0:
        raise ParameterError(f"skew must be >= 0, got {skew}")
    if not limits:
        raise ParameterError("limits must name at least one page size")
    for limit in limits:
        if limit is not None and limit < 0:
            raise ParameterError(f"limits must be >= 0, got {limit}")
    n_bound = sum(1 for ch in view.pattern if ch == "b")
    if not 0 <= prefix_len <= n_bound:
        raise ParameterError(
            f"prefix_len must be in [0, {n_bound}], got {prefix_len}"
        )
    keys = productive_accesses(view, db)
    if not keys:
        raise ParameterError(
            f"view {view.name!r} has no productive access tuples to batch"
        )
    groups: dict = {}
    for key in keys:
        groups.setdefault(key[:prefix_len], []).append(key)
    # Largest group first: Zipf rank 1 lands on the heaviest prefix.
    ordered = sorted(groups.values(), key=lambda g: (-len(g), g[0]))
    cum_weights = zipf_cumulative_weights(len(ordered), skew)
    rng = random.Random(seed)
    view_name = name if name is not None else view.name
    page_sizes = list(limits)
    return [
        AccessRequest(
            view=view_name,
            access=rng.choice(
                rng.choices(ordered, cum_weights=cum_weights)[0]
            ),
            limit=rng.choice(page_sizes),
            measure=measure,
        )
        for _ in range(n_requests)
    ]


def update_stream(
    view: AdornedView,
    db: Database,
    n_requests: int,
    update_fraction: float = 0.2,
    seed: int = 0,
    skew: float = 1.0,
    delta_size: int = 1,
    delete_fraction: float = 0.3,
) -> List[Tuple]:
    """A seeded mixed update+query stream for one dynamic view.

    The dynamic-serving workload shape: a sequence of operations, each
    either ``("query", access)`` — a Zipf-``skew`` draw over the base
    database's productive access tuples, exactly like
    :func:`request_stream` — or ``("update", relation, inserts,
    deletes)``, a small delta against one of the view's base relations,
    sized ``delta_size`` rows with ``delete_fraction`` of them deletes.
    The generator tracks the evolving relation contents, so every
    emitted delete names a row that is actually present at that point
    and every insert is genuinely new, and no row sits on both sides of
    one delta, so appliers agree whatever order they take the sides in
    (each delta is *effective* — :meth:`ViewServer.apply_deltas
    <repro.engine.server.ViewServer.apply_deltas>` counts all of it).
    Insert rows mutate one column of an existing row — half the time to
    a fresh value, half to a value borrowed from another row — so new
    tuples keep joining instead of raining into the void. Deterministic
    per seed; values stay in the integer domain, so deltas round-trip
    the JSON event log.
    """
    if n_requests < 0:
        raise ParameterError(f"n_requests must be >= 0, got {n_requests}")
    if not 0.0 <= update_fraction <= 1.0:
        raise ParameterError(
            f"update_fraction must be in [0, 1], got {update_fraction}"
        )
    if not 0.0 <= delete_fraction <= 1.0:
        raise ParameterError(
            f"delete_fraction must be in [0, 1], got {delete_fraction}"
        )
    if delta_size < 1:
        raise ParameterError(f"delta_size must be >= 1, got {delta_size}")
    if skew < 0:
        raise ParameterError(f"skew must be >= 0, got {skew}")
    keys = productive_accesses(view, db)
    if not keys:
        raise ParameterError(
            f"view {view.name!r} has no productive accesses to stream"
        )
    cum_weights = zipf_cumulative_weights(len(keys), skew)
    relations = sorted({atom.relation for atom in view.atoms})
    live: dict = {}
    present: dict = {}
    for name in relations:
        rows = [tuple(row) for row in db[name]]
        live[name] = rows
        present[name] = set(rows)
    fresh = 1 + max(
        (
            value
            for rows in live.values()
            for row in rows
            for value in row
            if isinstance(value, int)
        ),
        default=0,
    )
    rng = random.Random(seed)
    ops: List[Tuple] = []
    for _ in range(n_requests):
        if rng.random() >= update_fraction:
            access = rng.choices(keys, cum_weights=cum_weights)[0]
            ops.append(("query", access))
            continue
        relation = relations[rng.randrange(len(relations))]
        rows = live[relation]
        inserts: List[Tuple] = []
        deletes: List[Tuple] = []
        for _ in range(delta_size):
            if rows and rng.random() < delete_fraction:
                victim = rows.pop(rng.randrange(len(rows)))
                present[relation].discard(victim)
                if victim in inserts:
                    # One of this delta's own inserts: the pair would
                    # annihilate in the applier, so emit neither half.
                    inserts.remove(victim)
                else:
                    deletes.append(victim)
                continue
            if rows:
                template = list(rows[rng.randrange(len(rows))])
            else:
                template = [0] * db[relation].arity
            column = rng.randrange(len(template)) if template else 0
            if template:
                if rng.random() < 0.5 or len(rows) < 2:
                    template[column] = fresh
                    fresh += 1
                else:
                    donor = rows[rng.randrange(len(rows))]
                    template[column] = donor[column]
            row = tuple(template)
            if row in present[relation] or row in deletes:
                # A borrowed value reproduced an existing row — or one
                # this very delta deletes, which appliers (inserts
                # first, then deletes) would drop again; burn a fresh
                # value instead so the insert stays effective.
                template[column] = fresh
                fresh += 1
                row = tuple(template)
            rows.append(row)
            present[relation].add(row)
            inserts.append(row)
        ops.append(("update", relation, tuple(inserts), tuple(deletes)))
    return ops


def batched(
    stream: Iterable[Sequence], batch_size: int
) -> Iterator[List[Tuple]]:
    """Chunk a request stream into serving batches of ``batch_size``."""
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    pending: List[Tuple] = []
    for access in stream:
        pending.append(tuple(access))
        if len(pending) >= batch_size:
            yield pending
            pending = []
    if pending:
        yield pending


async def arrivals(
    stream: Iterable[Sequence],
    batch_size: int,
    rate: Optional[float] = None,
    seed: int = 0,
) -> AsyncIterator[List[Tuple]]:
    """An async arrival process over a request stream: the serving workload.

    Yields ``batch_size`` batches like :func:`batched`, but as an async
    iterator suitable for
    :meth:`~repro.engine.async_server.AsyncViewServer.serve_stream`. With
    ``rate`` set, batches arrive as a seeded Poisson process of that many
    batches per second (exponential inter-arrival sleeps) — the knob that
    turns a replay into an open-loop load test. ``rate=None`` yields
    batches back to back (closed loop: the consumer's backpressure is the
    only pacing).
    """
    if rate is not None and rate <= 0:
        raise ParameterError(f"rate must be positive, got {rate}")
    rng = random.Random(seed)
    for chunk in batched(stream, batch_size):
        if rate is not None:
            await asyncio.sleep(rng.expovariate(rate))
        yield chunk
