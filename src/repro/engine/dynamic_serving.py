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
:mod:`repro.engine.epoch` drain protocol. A version is owned by its
:class:`~repro.engine.epoch.Epochs` entry, never by the representation
cache: it lives exactly as long as it is current or pinned, and no LRU
pressure can evict it out from under an open cursor.

Pieces, in dependency order:

* :class:`DeltaRecord` — one applied delta as a small, versioned,
  plain-data record: the unit of the durable event log and of
  primary→replica shipping. Payloads round-trip through JSON, so rows
  are restricted to JSON-representable values (numbers, strings,
  booleans, ``None``) — the same constraint the CLI's tuple syntax
  imposes.
* :class:`~repro.core.dynamic.FrozenDynamicView` (re-exported here) —
  the immutable serving view of one version, defined beside the
  representation it freezes; what it captures at publish time and what
  it builds on first read is ``docs/ARCHITECTURE.md#dirty-path``.
* :class:`DynamicViewState` — the per-view serving state: the live
  :class:`~repro.core.dynamic.DynamicRepresentation`, the
  :class:`~repro.engine.epoch.Epochs` of its frozen versions, and the
  in-memory delta records since its last snapshot.
* :class:`DynamicSnapshotStore` — the durable half, under
  ``snapshot_dir/dynamic/``: the representation snapshot, a sidecar
  meta record carrying the serving version and **per-relation** origin
  fingerprints, and the append-only delta event log (JSONL). Warm start
  compares fingerprints relation by relation, so churn in one relation
  refuses only the structures that reference it; the log replays deltas
  applied after the last snapshot, and the amortized-rebuild boundary
  rewrites the snapshot so replay stays short.
* :func:`ship_deltas` — primary→replica shipping: a replica behind the
  primary's durable snapshot re-hydrates from it (the snapshot a
  rebuild boundary or the churn threshold wrote), any other one
  receives the delta records it has not seen.

See ``docs/DYNAMIC_SERVING.md`` for the end-to-end story and the
churn-storm runbook.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.dynamic import DynamicRepresentation, FrozenDynamicView
from repro.core.snapshot import (
    atomic_write,
    label_path,
    load_snapshot,
    read_jsonl,
    save_snapshot,
)
from repro.database.catalog import Database
from repro.engine.epoch import Epochs
from repro.engine.locking import named_lock
from repro.exceptions import ParameterError, SnapshotError
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


@dataclass(frozen=True)
class DeltaOutcome:
    """What one delta application did, for the server to act on.

    ``applied == 0`` without a ``record`` is the no-op contract — an
    ineffective delta, or a shipped record the receiver had already
    applied: no new serving version, no log append.
    """

    applied: int
    record: Optional[DeltaRecord] = None
    rebuilt: bool = False


class DynamicViewState:
    """Versioned serving state of one dynamic view (pin-count drained).

    The live :class:`~repro.core.dynamic.DynamicRepresentation` is the
    single writer-side object; every serving version is an immutable
    freeze of it (a :class:`~repro.core.dynamic.FrozenDynamicView`),
    published into :attr:`epochs` as that version's payload. Opening a
    cursor pins the *current* version, the cursor's close hook releases
    it, and a non-current version retires the moment its pins drain (the
    :mod:`repro.engine.epoch` protocol) — dropping the epochs' reference
    is the whole teardown. The state's lock orders strictly before the
    server registry lock.
    """

    def __init__(
        self,
        name: str,
        view: AdornedView,
        tau: float,
        dynamic: DynamicRepresentation,
        version: int,
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
        self.epochs = Epochs(self._lock, version, dynamic.freeze())
        self._events: List[DeltaRecord] = []

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
        """The in-memory delta records applied after ``version``.

        Only records past the last snapshot are held (:meth:`save_to`).
        """
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
        forced_version: Optional[int] = None,
    ) -> DeltaOutcome:
        """Apply one delta and advance the serving version atomically.

        ``forced_version`` is the replica-ingest mode: the delta is a
        shipped :class:`DeltaRecord` and must extend the version stream
        contiguously — an already-applied version is skipped, a gap
        raises :class:`~repro.exceptions.SnapshotError` (the caller
        falls back to re-hydration). Without it (the primary path), an
        ineffective delta is a complete no-op: no version bump, no new
        serving view, nothing for the caller to log.
        """
        with self._lock:
            current = self.current_version()
            if forced_version is not None:
                if forced_version <= current:
                    return DeltaOutcome(applied=0)
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
                return DeltaOutcome(applied=0)
            self.epochs.publish(current + 1, self.dynamic.freeze())
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
                record=record,
                rebuilt=self.dynamic.rebuilds > rebuilds_before,
            )

    def replace(self, dynamic: DynamicRepresentation, version: int) -> None:
        """Swap in a re-hydrated representation (a replica adopting one).

        Drained old versions retire; pinned ones keep draining against
        their frozen views as usual.
        """
        with self._lock:
            self.dynamic = dynamic
            self._events.clear()
            self.epochs.publish(version, dynamic.freeze())

    def save_to(self, store: "DynamicSnapshotStore") -> int:
        """Write the representation snapshot + meta; returns its version.

        Runs under the state lock so a concurrently applied delta can
        never tear the snapshot between the representation's state and
        the version the meta record claims it captures. The in-memory
        records end here: a replica behind the snapshot adopts it
        (:func:`ship_deltas`), so nothing it covers ships again.
        """
        with self._lock:
            version = self.current_version()
            store.save(
                self.label, self.dynamic, version, self.origin_relations
            )
            self._events.clear()
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

    def snapshot_path(self, label: str) -> Path:
        """Where one label's representation snapshot lives."""
        # with_suffix (not a plain append) cuts the name at its last dot;
        # kept so directories written by earlier versions still warm-start.
        return label_path(self.directory, label, "").with_suffix(
            self.SNAP_SUFFIX
        )

    def meta_path(self, label: str) -> Path:
        """Where one label's sidecar meta record lives."""
        return label_path(self.directory, label, self.META_SUFFIX)

    def log_path(self, label: str) -> Path:
        """Where one label's delta event log lives."""
        return label_path(self.directory, label, self.LOG_SUFFIX)

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
        atomic_write(
            self.meta_path(label),
            json.dumps(meta, indent=2, sort_keys=True).encode("utf-8"),
        )

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
        """Append one delta record to the view's event log.

        A delta is durable once its log line is complete — terminating
        newline included; a line cut short by a kill is a torn append
        that the next warm start drops (:meth:`recover_log`). No fsync:
        that is the ROADMAP durability item.
        """
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
        """Every complete logged record, in file order (missing log → empty).

        Read-only: a torn final line (see :meth:`append_log`) is skipped,
        never repaired — replicas read a log the primary may be appending
        to. A malformed line that is *not* last raises
        :class:`~repro.exceptions.SnapshotError`.
        """
        return self._read_log(label)[0]

    def _read_log(self, label: str):
        """``(records, tail, torn)`` as :func:`~repro.core.snapshot.read_jsonl`."""
        path = self.log_path(label)
        try:
            lines, tail, torn = read_jsonl(path)
        except OSError:
            return [], None, False
        except ValueError as error:
            number, detail = error.args
            raise SnapshotError(
                f"malformed delta log {path} line {number}: {detail}"
            ) from error
        records = [DeltaRecord.from_payload(payload) for _, payload in lines]
        return records, tail, torn

    def recover_log(self, label: str) -> Tuple[List[DeltaRecord], bool]:
        """:meth:`read_log` for the log's owner; ``(records, torn?)``.

        Leaves the file ending on a line boundary, so the next
        :meth:`append_log` cannot glue onto a fragment: a torn final line
        is truncated away (and reported), an unterminated line that
        parses is kept and terminated.
        """
        records, tail, torn = self._read_log(label)
        if tail is not None:
            with self.log_path(label).open("r+b") as handle:
                if torn:
                    handle.truncate(tail)
                else:
                    handle.seek(0, 2)
                    handle.write(b"\n")
        return records, torn

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

    One rule per dynamic view (``names`` or every one the primary
    serves): **if the primary's durable dynamic snapshot is newer than
    the replica's version, the replica re-hydrates from it** (decode,
    then replay the log suffix after it); otherwise the records past the
    replica's version ship and apply in order. The primary rewrites that
    snapshot at every amortized-rebuild boundary, so a replica adopts
    the primary's compaction instead of rebuilding on its own. Past
    ``churn_threshold`` pending records the primary first writes a fresh
    snapshot, which the rule then adopts; a version gap the replica
    reports does the same. Records the primary no longer holds (it
    restarted since the replica's version) re-hydrate the replica from
    the snapshot it has. A primary without a snapshot tier always ships
    records, and a replica replaying them rebuilds where the primary
    did.

    Returns ``{name: (mode, records_pending)}`` with mode ``"delta"`` or
    ``"snapshot"``; per-view shipping time lands in the primary's
    ``delta_ship_seconds`` histogram.
    """
    targets = tuple(names) if names is not None else primary.dynamic_views()
    results: Dict[str, Tuple[str, int]] = {}
    for name in targets:
        started = time.perf_counter()
        version = replica.delta_version(name)
        current = primary.delta_version(name)
        pending = primary.delta_records_since(name, version)
        if len(pending) > churn_threshold:
            primary.save_dynamic_snapshot(name)
        snapshot = primary.dynamic_snapshot_version(name)
        mode = "snapshot"
        # Records converge the replica only if the primary holds all of
        # them — a primary restarted since holds none from before its
        # restart; the snapshot and the log suffix after it still do.
        if (snapshot is None or snapshot <= version) and (
            current <= version + len(pending)
        ):
            try:
                replica.apply_delta_records(pending)
                mode = "delta"
            except SnapshotError:
                # A gap (e.g. the replica hydrated past the in-memory
                # history): the stream cannot converge — re-hydrate.
                primary.save_dynamic_snapshot(name)
        if mode == "snapshot":
            replica.rehydrate_dynamic([name])
        results[name] = (mode, len(pending))
        telemetry = primary.telemetry
        if telemetry is not None:
            from repro.engine.telemetry import LATENCY_BUCKETS

            telemetry.histogram(
                "delta_ship_seconds", buckets=LATENCY_BUCKETS, view=name
            ).observe(time.perf_counter() - started)
    return results
