"""Structure builds on worker processes, handed back as snapshot blobs.

No server builds through this module: a server builds in its own
process, where a higher τ is cut from the live lower-τ base (Theorem 1)
instead of built again. What is left is the pool the benchmark's
parallel-build probe times. A worker receives the plain-data build spec
(view state, database state, τ), builds the structure and returns its
*encoded snapshot*; the caller decodes it with
:func:`~repro.core.snapshot.decode_snapshot`. Nothing with locks,
indexes or closures crosses the process boundary, and the wire format
is the versioned codec the disk tier persists
(:mod:`repro.core.snapshot`).

:meth:`ParallelBuilder.submit` returns ``None`` when the pool cannot
start (a sandbox without working ``fork``/``spawn``), after it broke or
after :meth:`ParallelBuilder.close`; the caller then builds in-process.
"""

from __future__ import annotations

import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Tuple

from repro.core.snapshot import (
    database_from_state,
    database_state,
    encode_snapshot,
    view_from_state,
    view_state,
)
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.engine.locking import named_lock
from repro.exceptions import ParameterError
from repro.query.adorned import AdornedView


def build_snapshot_blob(
    view_data: Dict,
    db_data: List[Tuple[str, int, List[Tuple]]],
    tau: float,
) -> bytes:
    """Worker entry point: build one structure, return its snapshot.

    Module-level (picklable by reference) and plain-data in and out —
    the only function that ever runs in a build worker.
    """
    view = view_from_state(view_data)
    db = database_from_state(db_data)
    return encode_snapshot(CompressedRepresentation(view, db, tau=tau))


class ParallelBuilder:
    """A pool of ``max_workers`` build processes, started on first use.

    Thread-safe. Once the pool fails to start, breaks or is closed,
    every :meth:`submit` returns ``None``.
    """

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ParameterError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self._max_workers = max_workers
        self._lock = named_lock("parallel.builder")
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False

    def submit(
        self, view: AdornedView, db: Database, tau: float
    ) -> Optional["Future[bytes]"]:
        """Ship one build to a worker: a future of its snapshot blob, or
        ``None`` when there is no pool to ship to.

        An error inside the build (an invalid ``tau``, say) surfaces
        from ``future.result()``.
        """
        with self._lock:
            if self._closed:
                return None
            if self._executor is None:
                try:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self._max_workers
                    )
                except (OSError, ValueError, RuntimeError):
                    self._closed = True
                    return None
            executor = self._executor
        try:
            return executor.submit(
                build_snapshot_blob,
                view_state(view),
                database_state(db),
                float(tau),
            )
        except (BrokenProcessPool, RuntimeError, pickle.PicklingError, OSError):
            self.close()
            return None

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelBuilder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
