"""Process-parallel structure builds: real cores for CPU-bound work.

The thread pool that serves requests cannot speed up *builds*: tree and
dictionary construction are pure Python and serialize on the GIL. This
module moves builds to a ``ProcessPoolExecutor``. The snapshot codec is
what makes that possible — and cheap: a worker process receives the
plain-data build spec (view state, database state, τ, cover weights),
builds the structure, and returns the *encoded snapshot*; the parent
decodes it. Nothing with locks, indexes or closures ever crosses the
process boundary, and the wire format is the exact same versioned codec
the disk tier persists (:mod:`repro.core.snapshot`).

Degradation is graceful by design: any failure to spawn workers or to
ship work (a sandboxed platform without working ``fork``/``spawn``, a
broken pool after a worker died, an unpicklable value inside a
relation) permanently falls back to in-process builds — correctness
never depends on multiprocessing being available.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.snapshot import (
    database_from_state,
    database_state,
    decode_snapshot,
    encode_snapshot,
    view_from_state,
    view_state,
)
from repro.core.context import ViewContext
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.engine.locking import named_lock
from repro.exceptions import ParameterError
from repro.query.adorned import AdornedView


def build_snapshot_blob(
    view_data: Dict,
    db_data: List[Tuple[str, int, List[Tuple]]],
    tau: float,
    weights_items: Optional[Tuple[Tuple[int, float], ...]],
) -> bytes:
    """Worker entry point: build one structure, return its snapshot.

    Module-level (picklable by reference) and plain-data in and out —
    the only function that ever runs in a build worker.
    """
    view = view_from_state(view_data)
    db = database_from_state(db_data)
    weights = dict(weights_items) if weights_items is not None else None
    representation = CompressedRepresentation(view, db, tau=tau, weights=weights)
    return encode_snapshot(representation)


class ParallelBuilder:
    """A shared pool of build workers with permanent in-process fallback.

    One instance is meant to be shared by every server that builds
    against the same machine (the sharded facade hands one to all its
    per-shard servers), so ``max_workers`` bounds total build
    parallelism, not per-server parallelism.

    Thread-safe: the engine calls :meth:`build` concurrently from cache
    miss paths and from prebuild fan-outs.
    """

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ParameterError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = max_workers
        self._lock = named_lock("parallel.builder")
        self._executor: Optional[ProcessPoolExecutor] = None
        self._broken = False
        # Observability: how builds actually ran, for benchmarks/tests.
        self.process_builds = 0
        self.fallback_builds = 0

    @property
    def is_broken(self) -> bool:
        """True once the pool failed and the builder fell back for good."""
        with self._lock:
            return self._broken

    def _executor_or_none(self) -> Optional[ProcessPoolExecutor]:
        with self._lock:
            if self._broken:
                return None
            if self._executor is None:
                try:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.max_workers
                    )
                except (OSError, ValueError, RuntimeError):
                    self._broken = True
                    return None
            return self._executor

    def submit(
        self,
        view: AdornedView,
        db: Database,
        tau: float,
        weights: Optional[Mapping[int, float]] = None,
    ) -> Optional["Future[bytes]"]:
        """Ship one build to a worker; None means build in-process instead.

        Failures *inside* the returned future (a worker dying mid-build)
        are the caller's to handle — :meth:`build` does, and is the API
        almost everything should use.
        """
        executor = self._executor_or_none()
        if executor is None:
            return None
        items = (
            tuple(sorted(weights.items())) if weights is not None else None
        )
        try:
            return executor.submit(
                build_snapshot_blob,
                view_state(view),
                database_state(db),
                float(tau),
                items,
            )
        except (BrokenProcessPool, RuntimeError, pickle.PicklingError, OSError):
            self._mark_broken()
            return None

    def build(
        self,
        view: AdornedView,
        db: Database,
        tau: float,
        weights: Optional[Mapping[int, float]] = None,
        context: Optional[ViewContext] = None,
    ) -> CompressedRepresentation:
        """Build one structure on a worker process, in-process on failure.

        The worker builds its own tries (nothing with tries crosses the
        process boundary); the structure handed back shares the
        parent's ``context`` when one is given.
        """
        future = self.submit(view, db, tau, weights)
        if future is not None:
            try:
                blob = future.result()
            except (BrokenProcessPool, pickle.PicklingError, OSError):
                # The pool (or the argument shipping) is unusable; the
                # build itself was never the problem — run it here.
                self._mark_broken()
            else:
                with self._lock:
                    self.process_builds += 1
                return decode_snapshot(blob, context=context)
        with self._lock:
            self.fallback_builds += 1
        return CompressedRepresentation(
            view, db, tau=tau, weights=weights, context=context
        )

    def _mark_broken(self) -> None:
        with self._lock:
            self._broken = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the worker pool down (idempotent; builder stays usable
        in fallback mode)."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._broken = True
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelBuilder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
