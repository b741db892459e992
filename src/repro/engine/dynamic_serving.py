"""Dynamic serving: versioned delta application over live view servers.

:class:`~repro.core.dynamic.DynamicRepresentation` answers the §8
update problem for a single structure; this module makes updates a
*serving* primitive. A dynamic view registered with
:meth:`ViewServer.register_dynamic
<repro.engine.server.ViewServer.register_dynamic>` is served through a
sequence of immutable **versions**: every effective delta
(:meth:`ViewServer.apply_deltas
<repro.engine.server.ViewServer.apply_deltas>`) freezes a new
point-in-time serving view, new requests open against it, and cursors
already open keep enumerating the version they pinned — the
:mod:`repro.engine.epoch` drain protocol, the one the sharded facade
uses for live resharding (``split_shard``). A drained version's cache
entry is retired; nothing is ever evicted out from under an open cursor.

Pieces, in dependency order:

* :class:`DeltaRecord` — one applied delta as a small, versioned,
  plain-data record: the unit of the durable event log and of
  primary→replica shipping. Payloads round-trip through JSON, so rows
  are restricted to JSON-representable values (numbers, strings,
  booleans, ``None``) — the same constraint the CLI's tuple syntax
  imposes.
* :class:`FrozenDynamicView` — the immutable serving view of one
  version: the inner compressed structure while the buffers were clean,
  or a lazily-evaluated point-in-time database while dirty (always the
  reference path — the delta overlay has no compiled kernel form).
* :class:`DynamicViewState` — the per-view serving state: the live
  :class:`~repro.core.dynamic.DynamicRepresentation`, the
  :class:`~repro.engine.epoch.Epochs` of its frozen versions, and the
  in-memory delta history.
* :class:`DynamicSnapshotStore` — the durable half, under
  ``snapshot_dir/dynamic/``: the representation snapshot, a sidecar
  meta record carrying the serving version and **per-relation** origin
  fingerprints, and the append-only delta event log (JSONL). Warm start
  compares fingerprints relation by relation, so churn in one relation
  refuses only the structures that reference it; the log replays deltas
  applied after the last snapshot, and the amortized-rebuild boundary
  rewrites the snapshot so replay stays short.
* :func:`ship_deltas` — primary→replica shipping: send the delta
  records the replica has not seen, or fall back to full snapshot
  re-hydration past a churn threshold (or on any version gap).

See ``docs/DYNAMIC_SERVING.md`` for the end-to-end story and the
churn-storm runbook.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.baselines.lazy import LazyView
from repro.core.dynamic import DynamicRepresentation
from repro.core.snapshot import load_snapshot, save_snapshot
from repro.core.structure import (
    CompressedRepresentation,
    resume_strictly_after,
)
from repro.database.catalog import Database
from repro.engine.epoch import Epochs
from repro.engine.locking import named_lock
from repro.exceptions import ParameterError, SnapshotError
from repro.joins.generic_join import JoinCounter
from repro.measure.space import SpaceReport
from repro.query.adorned import AdornedView

__all__ = [
    "DeltaRecord",
    "DynamicSnapshotStore",
    "DynamicViewState",
    "FrozenDynamicView",
    "ship_deltas",
]

#: Schema stamp on every delta-log line; bumping it invalidates replay.
DELTA_LOG_SCHEMA = 1

#: Default replica-shipping fallback: past this many pending records a
#: full snapshot re-hydration beats replaying the delta stream.
DEFAULT_CHURN_THRESHOLD = 256


@dataclass(frozen=True)
class DeltaRecord:
    """One applied delta: the unit of the event log and of shipping.

    ``version`` is the serving version the delta *created* on the
    primary; replicas apply records strictly in version order, so a gap
    means the stream is unusable and the replica must re-hydrate.
    """

    view: str
    relation: str
    version: int
    inserts: Tuple[Tuple, ...] = ()
    deletes: Tuple[Tuple, ...] = ()

    def payload(self) -> Dict:
        """The record as JSON-ready plain data (schema-stamped)."""
        return {
            "schema": DELTA_LOG_SCHEMA,
            "view": self.view,
            "relation": self.relation,
            "version": self.version,
            "inserts": [list(row) for row in self.inserts],
            "deletes": [list(row) for row in self.deletes],
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "DeltaRecord":
        """Rebuild a record from :meth:`payload` data; typed on mismatch."""
        try:
            if payload["schema"] != DELTA_LOG_SCHEMA:
                raise SnapshotError(
                    f"delta record schema {payload['schema']!r} is not "
                    f"the supported {DELTA_LOG_SCHEMA}"
                )
            return cls(
                view=str(payload["view"]),
                relation=str(payload["relation"]),
                version=int(payload["version"]),
                inserts=tuple(tuple(row) for row in payload["inserts"]),
                deletes=tuple(tuple(row) for row in payload["deletes"]),
            )
        except SnapshotError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotError(
                f"malformed delta record: {error}"
            ) from error


class FrozenDynamicView:
    """An immutable point-in-time serving view of a dynamic view.

    Exactly one backing is set: ``structure`` (the buffers were clean —
    full Theorem 1 guarantees, kernel routing included) or ``database``
    (the buffers were dirty — worst-case optimal lazy evaluation over
    the materialized post-delta database, reference path only).
    Deltas applied after the freeze never reach this object, which is
    what lets cursors drain a retired version untouched.
    """

    #: Clean freezes seek through the inner structure; dirty freezes
    #: degrade to a skip-scan, exactly like the live dynamic wrapper.
    supports_resume = True

    def __init__(
        self,
        view: AdornedView,
        structure: Optional[CompressedRepresentation] = None,
        database: Optional[Database] = None,
    ):
        if (structure is None) == (database is None):
            raise ValueError(
                "a frozen dynamic view wraps exactly one of structure "
                "and database"
            )
        self.view = view
        self._structure = structure
        self._lazy = (
            LazyView(view, database) if database is not None else None
        )

    @property
    def kernel_ready(self) -> bool:
        """Clean freezes inherit the structure's kernel; dirty ones don't."""
        if self._structure is None:
            return False
        return self._structure.kernel_ready

    def enumerate(
        self, access: Sequence, counter: Optional[JoinCounter] = None
    ) -> Iterator[Tuple]:
        """Enumerate the frozen version's answers in lexicographic order."""
        if self._structure is not None:
            return self._structure.enumerate(access, counter=counter)
        return self._lazy.enumerate(access, counter=counter)

    def enumerate_from(
        self,
        access: Sequence,
        start_values: Sequence,
        counter: Optional[JoinCounter] = None,
    ) -> Iterator[Tuple]:
        """Enumerate answers with free tuple lexicographically >= start."""
        if self._structure is not None:
            return self._structure.enumerate_from(
                access, start_values, counter=counter
            )
        start = tuple(start_values)
        return (
            row
            for row in self._lazy.enumerate(access, counter=counter)
            if not row < start
        )

    def enumerate_after(
        self,
        access: Sequence,
        last: Sequence,
        counter: Optional[JoinCounter] = None,
    ) -> Iterator[Tuple]:
        """Enumerate strictly after ``last`` (resume token re-entry)."""
        return resume_strictly_after(
            self.enumerate_from(access, last, counter=counter), tuple(last)
        )

    def space_report(self) -> SpaceReport:
        """Space of the frozen backing (cache accounting reads this)."""
        if self._structure is not None:
            return self._structure.space_report()
        total = sum(
            len(relation) for relation in self._lazy.db
        )
        return SpaceReport(materialized_tuples=total)


@dataclass(frozen=True)
class DeltaOutcome:
    """What one delta application did, for the server to act on.

    ``applied == 0`` with ``version`` unchanged is the no-op contract:
    no new serving version, no cache churn, no log append. ``skipped``
    marks a shipped record the receiver had already applied. ``retired``
    holds the ``(generation, view)`` payloads of the versions the new
    one drained out.
    """

    applied: int
    version: int
    skipped: bool = False
    record: Optional[DeltaRecord] = None
    rebuilt: bool = False
    retired: Tuple[Tuple[int, FrozenDynamicView], ...] = ()


class DynamicViewState:
    """Versioned serving state of one dynamic view (pin-count drained).

    The live :class:`~repro.core.dynamic.DynamicRepresentation` is the
    single writer-side object; every serving version is an immutable
    freeze of it, published into :attr:`epochs` with its cache
    generation as a ``(generation, view)`` payload. Opening a cursor
    pins the *current* version, the cursor's close hook releases it,
    and a non-current version retires the moment its pins drain (the
    :mod:`repro.engine.epoch` protocol). The state's lock orders
    strictly before the server registry lock (generation allocation
    nests inside it).
    """

    def __init__(
        self,
        name: str,
        view: AdornedView,
        tau: float,
        dynamic: DynamicRepresentation,
        version: int,
        generation: int,
        label: Optional[str],
        origin_relations: Dict[str, str],
        rebuild_fraction: float = 0.1,
    ):
        self.name = name
        self.view = view
        self.tau = float(tau)
        self.label = label
        #: Rebuild knob re-used verbatim on re-hydration rebuilds.
        self.rebuild_fraction = float(rebuild_fraction)
        #: Relations the view references — the delta routing surface.
        self.relations = frozenset(
            atom.relation for atom in view.atoms
        )
        #: Per-relation fingerprints of the database the view was first
        #: registered against; every snapshot save re-stamps these, so a
        #: restart always verifies against the *origin*, pre-delta data.
        self.origin_relations = dict(origin_relations)
        self.dynamic = dynamic
        # Reentrant: deltas publish into the epochs from inside it.
        self._lock = named_lock("server.dynamic", reentrant=True)
        #: The serving versions: pins, current, retirement.
        self.epochs = Epochs(
            self._lock, version, (generation, self._freeze_locked())
        )
        self._events: List[DeltaRecord] = []

    def _freeze_locked(self) -> FrozenDynamicView:
        """An immutable serving view of the representation's state now."""
        if self.dynamic.is_dirty:
            return FrozenDynamicView(
                self.view, database=self.dynamic.current_database()
            )
        return FrozenDynamicView(
            self.view, structure=self.dynamic.structure
        )

    def check_tau(self, tau: Optional[float]) -> None:
        """Refuse a per-request τ other than the registration's."""
        if tau is not None and float(tau) != self.tau:
            raise ParameterError(
                f"dynamic view {self.name!r} serves at its registration "
                f"tau={self.tau:g}; per-request tau pins are not "
                "supported under deltas"
            )

    def pin_count(self) -> int:
        """Total pins across all live versions (the gauge's value)."""
        return self.epochs.pins()

    def live_versions(self) -> Tuple[int, ...]:
        """Versions still serving or draining, oldest first."""
        return self.epochs.live()

    def current_version(self) -> int:
        """The version new requests open against."""
        return self.epochs.current()[0]

    def current_database(self) -> Database:
        """The view's logical database now: base plus buffered deltas."""
        with self._lock:
            return self.dynamic.current_database()

    def records_since(self, version: int) -> Tuple[DeltaRecord, ...]:
        """The in-memory delta records applied after ``version``."""
        with self._lock:
            return tuple(
                record
                for record in self._events
                if record.version > version
            )

    # ------------------------------------------------------------------
    # delta application
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        relation: str,
        inserts: Sequence[Sequence],
        deletes: Sequence[Sequence],
        next_generation: Callable[[], int],
        forced_version: Optional[int] = None,
    ) -> DeltaOutcome:
        """Apply one delta and advance the serving version atomically.

        ``forced_version`` is the replica-ingest mode: the delta is a
        shipped :class:`DeltaRecord` and must extend the version stream
        contiguously — an already-applied version is skipped, a gap
        raises :class:`~repro.exceptions.SnapshotError` (the caller
        falls back to re-hydration). Without it (the primary path), an
        ineffective delta is a complete no-op: no version bump, no new
        serving view, nothing for the caller to publish.
        """
        with self._lock:
            current = self.current_version()
            if forced_version is not None:
                if forced_version <= current:
                    return DeltaOutcome(
                        applied=0, version=current, skipped=True
                    )
                if forced_version != current + 1:
                    raise SnapshotError(
                        f"delta stream gap on {self.name!r}: record "
                        f"version {forced_version} cannot extend local "
                        f"version {current} — re-hydrate from a "
                        "fresh snapshot"
                    )
            rebuilds_before = self.dynamic.rebuilds
            applied = self.dynamic.apply_deltas(relation, inserts, deletes)
            if not applied and forced_version is None:
                return DeltaOutcome(applied=0, version=current)
            retired = self.epochs.publish(
                current + 1, (next_generation(), self._freeze_locked())
            )
            record = DeltaRecord(
                view=self.name,
                relation=relation,
                version=current + 1,
                inserts=tuple(tuple(row) for row in inserts),
                deletes=tuple(tuple(row) for row in deletes),
            )
            self._events.append(record)
            return DeltaOutcome(
                applied=applied,
                version=current + 1,
                record=record,
                rebuilt=self.dynamic.rebuilds > rebuilds_before,
                retired=retired,
            )

    def replace(
        self,
        dynamic: DynamicRepresentation,
        version: int,
        generation: int,
    ) -> Tuple[Tuple[int, FrozenDynamicView], ...]:
        """Swap in a re-hydrated representation (replica fallback path).

        Returns the retired payloads of drained old versions; pinned
        versions keep draining against their frozen views as usual.
        """
        with self._lock:
            self.dynamic = dynamic
            self._events.clear()
            return self.epochs.publish(
                version, (generation, self._freeze_locked())
            )

    def save_to(self, store: "DynamicSnapshotStore") -> int:
        """Write the representation snapshot + meta; returns its version.

        Runs under the state lock so a concurrently applied delta can
        never tear the snapshot between the representation's state and
        the version the meta record claims it captures.
        """
        with self._lock:
            version = self.current_version()
            store.save(
                self.label, self.dynamic, version, self.origin_relations
            )
            return version


class DynamicSnapshotStore:
    """The durable half of dynamic serving, under one directory.

    Three files per dynamic view (named by the same restart-stable
    slug+digest scheme as :class:`~repro.core.snapshot.SnapshotStore`):

    * ``<label>.snap`` — the encoded
      :class:`~repro.core.dynamic.DynamicRepresentation` (codec kind
      ``"dynamic"``), rewritten at registration and at every amortized
      rebuild boundary;
    * ``<label>.meta.json`` — the serving version the snapshot captures
      plus the **per-relation origin fingerprints**, the unit warm
      start verifies at;
    * ``<label>.deltas.jsonl`` — the append-only delta event log, one
      :class:`DeltaRecord` payload per line. Restart replays the suffix
      with versions past the meta's; replicas never append.
    """

    SNAP_SUFFIX = ".snap"
    META_SUFFIX = ".meta.json"
    LOG_SUFFIX = ".deltas.jsonl"

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def _base(self, label: str) -> Path:
        slug = (
            re.sub(r"[^A-Za-z0-9._-]+", "_", label)[:64].strip("._")
            or "dynamic"
        )
        digest = hashlib.sha256(label.encode("utf-8")).hexdigest()[:16]
        return self.directory / f"{slug}-{digest}"

    def snapshot_path(self, label: str) -> Path:
        """Where one label's representation snapshot lives."""
        return self._base(label).with_suffix(self.SNAP_SUFFIX)

    def meta_path(self, label: str) -> Path:
        """Where one label's sidecar meta record lives."""
        base = self._base(label)
        return base.with_name(base.name + self.META_SUFFIX)

    def log_path(self, label: str) -> Path:
        """Where one label's delta event log lives."""
        base = self._base(label)
        return base.with_name(base.name + self.LOG_SUFFIX)

    def save(
        self,
        label: str,
        dynamic: DynamicRepresentation,
        version: int,
        relations: Dict[str, str],
    ) -> None:
        """Write the snapshot and its meta record (atomically, each)."""
        save_snapshot(self.snapshot_path(label), dynamic)
        meta = {
            "schema": DELTA_LOG_SCHEMA,
            "version": int(version),
            "relations": dict(relations),
        }
        path = self.meta_path(label)
        path.parent.mkdir(parents=True, exist_ok=True)
        scratch = path.with_name(path.name + ".tmp")
        scratch.write_text(json.dumps(meta, indent=2, sort_keys=True))
        scratch.replace(path)

    def load_meta(self, label: str) -> Optional[Dict]:
        """The meta record, or None when absent/unreadable (cold start)."""
        try:
            meta = json.loads(self.meta_path(label).read_text())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(meta, dict)
            or meta.get("schema") != DELTA_LOG_SCHEMA
            or not isinstance(meta.get("relations"), dict)
        ):
            return None
        return meta

    def load(self, label: str) -> DynamicRepresentation:
        """Decode the representation snapshot (SnapshotError if unusable)."""
        restored = load_snapshot(self.snapshot_path(label))
        if not isinstance(restored, DynamicRepresentation):
            raise SnapshotError(
                f"dynamic snapshot for {label!r} decoded to "
                f"{type(restored).__name__}, not a DynamicRepresentation"
            )
        return restored

    def append_log(self, label: str, record: DeltaRecord) -> None:
        """Append one delta record to the view's event log."""
        path = self.log_path(label)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            line = json.dumps(record.payload(), sort_keys=True)
        except (TypeError, ValueError) as error:
            raise SnapshotError(
                f"delta rows must be JSON-representable to be durable: "
                f"{error}"
            ) from error
        with path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def read_log(self, label: str) -> List[DeltaRecord]:
        """Every logged record, in file order (missing log → empty)."""
        path = self.log_path(label)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return []
        records: List[DeltaRecord] = []
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except ValueError as error:
                raise SnapshotError(
                    f"malformed delta log {path} line {number}: {error}"
                ) from error
            records.append(DeltaRecord.from_payload(payload))
        return records

    def truncate_log(self, label: str) -> None:
        """Start the event log over (cold re-registration resets history)."""
        path = self.log_path(label)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")


def ship_deltas(
    primary,
    replica,
    names: Optional[Sequence[str]] = None,
    churn_threshold: int = DEFAULT_CHURN_THRESHOLD,
) -> Dict[str, Tuple[str, int]]:
    """Converge a replica's dynamic views onto the primary's versions.

    For each dynamic view (``names`` or every one the primary serves),
    the records past the replica's version are shipped and applied in
    order. Past ``churn_threshold`` pending records — or on any version
    gap the replica reports — shipping falls back to the snapshot path:
    the primary writes a fresh snapshot and the replica re-hydrates
    from it. Returns ``{name: (mode, records_pending)}`` with mode
    ``"delta"`` or ``"snapshot"``; per-view shipping time lands in the
    primary's ``delta_ship_seconds`` histogram.
    """
    targets = tuple(names) if names is not None else primary.dynamic_views()
    results: Dict[str, Tuple[str, int]] = {}
    for name in targets:
        started = time.perf_counter()
        pending = primary.delta_records_since(
            name, replica.delta_version(name)
        )
        if len(pending) > churn_threshold:
            mode = "snapshot"
            primary.save_dynamic_snapshot(name)
            replica.rehydrate_dynamic([name])
        else:
            try:
                replica.apply_delta_records(pending)
                mode = "delta"
            except SnapshotError:
                # A gap (e.g. the replica hydrated past the in-memory
                # history): the stream cannot converge — re-hydrate.
                mode = "snapshot"
                primary.save_dynamic_snapshot(name)
                replica.rehydrate_dynamic([name])
        results[name] = (mode, len(pending))
        telemetry = primary.telemetry
        if telemetry is not None:
            from repro.engine.telemetry import LATENCY_BUCKETS

            telemetry.histogram(
                "delta_ship_seconds", buckets=LATENCY_BUCKETS, view=name
            ).observe(time.perf_counter() - started)
    return results
