"""Read replicas: serve registered views purely from shipped snapshots.

The paper's compressed representation is small by construction —
``O(|D|^(τ-width tradeoff))`` cells against a potentially huge result —
which makes the *structure* the natural unit of replication: ship the
fingerprinted snapshot bytes (:mod:`repro.core.snapshot`), not the
result set and not the build. A :class:`ReplicaServer` is a
:class:`~repro.engine.server.ViewServer` with the build path removed:

* **Hydration is the only population path.** A cache miss consults the
  snapshot directory; a valid snapshot decodes and serves. If no usable
  snapshot exists, serving fails with
  :class:`~repro.exceptions.SnapshotError` — deliberately *fatal, not a
  fallback*. A replica that silently rebuilt would need the full
  database and builder resources, would hide a broken shipping pipeline
  behind quietly burned CPU, and could serve a structure built from a
  *different* database state than its siblings. Failing loudly keeps
  replicas cheap and the pipeline honest.
* **Replicas never write snapshots.** Hydrated entries are already
  ``on_disk``, so eviction demotes nothing and the snapshot directory
  stays a pure input — several replicas can share one shipped directory
  (or a read-only mount) without trampling each other.
* The primary makes structures shippable with
  :meth:`RepresentationCache.demote_all
  <repro.engine.cache.RepresentationCache.demote_all>` (flush every
  resident to the disk tier); the snapshot store's database fingerprint
  refuses snapshots built from a different database state, so a stale
  replica fails loudly instead of answering from the past.
* **Versioned views follow the same rule.** A registration is a
  sequence of versions: a replica's registration warm-starts from the
  primary's dynamic snapshot when the view has one, and converges
  through :func:`~repro.engine.dynamic_serving.ship_deltas` — small
  delta records between the primary's rebuild boundaries (the first of
  them versions a never-updated view over its hydrated structure), and
  at a boundary the snapshot the primary wrote there. So the amortized
  rebuild runs once, on the primary, and
  :meth:`ReplicaServer.total_builds` stays 0. Every build of either
  kind goes through :meth:`~repro.engine.server.ViewServer._build`,
  which a replica refuses: that one override is the whole difference.

:class:`~repro.engine.async_server.AsyncViewServer` rotates read
batches across replicas, round-robin.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Union

from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.engine.server import Registration, ViewServer
from repro.engine.telemetry import Telemetry
from repro.exceptions import ParameterError, SnapshotError

__all__ = ["ReplicaServer"]


class ReplicaServer(ViewServer):
    """A snapshot-hydrated, build-refusing :class:`ViewServer`.

    Parameters
    ----------
    db:
        The database the shipped snapshots were built from. Only its
        fingerprint and relation sizes are consulted (registration
        resolves τ against them; hydration verifies the fingerprint);
        enumeration runs off the decoded structures.
    snapshot_dir:
        The shipped snapshot directory — required; a replica without one
        could never serve anything.
    max_entries / max_cells:
        Cache bounds as for :class:`ViewServer`; evictions simply drop
        entries (they are already on disk), and a later request
        re-hydrates.
    telemetry:
        As for :class:`ViewServer`; replicas additionally record
        ``replica_hydrations_total`` (eager warm-ups) and
        ``replica_refusals_total`` (requests that found no usable
        snapshot and failed loudly).

    Example
    -------
    Primary builds and ships; replica hydrates and serves::

        primary = ViewServer(db, snapshot_dir=shared)
        name = primary.register(VIEW, tau=8)
        primary.representation(name)      # build once
        primary.cache.demote_all()        # make every resident shippable

        replica = ReplicaServer(db, snapshot_dir=shared)
        replica.register(VIEW, tau=8)     # same knobs -> same labels
        replica.hydrate()                 # decode, never build
        replica.answer(name, access)      # zero builds, ever
    """

    def __init__(
        self,
        db: Database,
        snapshot_dir: Union[str, Path],
        max_entries: Optional[int] = 8,
        max_cells: Optional[int] = None,
        telemetry: Union[Telemetry, bool, None] = None,
    ):
        if snapshot_dir is None:
            raise ParameterError(
                "a ReplicaServer needs a snapshot_dir: replicas hydrate "
                "from shipped snapshots and never build"
            )
        super().__init__(
            db,
            max_entries=max_entries,
            max_cells=max_cells,
            snapshot_dir=snapshot_dir,
            telemetry=telemetry,
        )
        # The dynamic tier follows the same one-way contract: replicas
        # read the primary's snapshots/meta/delta log, never write them.
        self._dynamic_sink = None

    def _build(
        self, registration: Registration, tau: float, context, base=None
    ) -> CompressedRepresentation:
        # Every build of a registration, versioned or not, comes here,
        # and only when no usable snapshot or resident structure exists
        # — on a replica that is a shipping failure, not a reason to burn
        # CPU rebuilding from a database this process may not even hold
        # in full.
        if self.telemetry is not None:
            self.telemetry.counter(
                "replica_refusals_total", view=registration.name
            ).inc()
        raise SnapshotError(
            f"replica refuses to build {registration.name!r} (tau={tau!r}): "
            f"no usable snapshot under label "
            f"{registration.snapshot_label(tau)!r} in "
            f"{self.snapshot_store.directory} — ship one from the primary "
            "(cache.demote_all(), or save_dynamic_snapshot for a "
            "versioned view) or re-point the replica"
        )

    def hydrate(self, names: Optional[Iterable[str]] = None) -> int:
        """Decode every (or the named) registered view's structure now.

        Eager warm-up: after ``hydrate()`` the first request of each view
        pays no decode. Raises :class:`~repro.exceptions.SnapshotError`
        on the first view whose snapshot is missing, corrupt, or built
        from a different database — fatal by design. Returns the number
        of structures hydrated.
        """
        targets = tuple(names) if names is not None else self.views()
        if self.telemetry is None:
            for name in targets:
                self.representation(name)
            return len(targets)
        with self.telemetry.trace("hydrate") as span:
            for name in targets:
                self.representation(name)
                self.telemetry.counter(
                    "replica_hydrations_total", view=name
                ).inc()
            span.annotate(views=list(targets))
        return len(targets)
