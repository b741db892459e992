"""Telemetry that survives restarts: metrics and traces.

Every layer of the engine computes rich signals — per-access delay gaps,
cache hit/miss/disk-tier counters, shared-scan dedup ratios, per-shard
routing counts, async queue depths — and, before this module, dropped
them on the floor. The observed delay-gap distribution is the paper's
delay, measured: it shows whether the τ a view was registered at (fixed,
or chosen once from a Section 6 space or delay budget) delivers the
delay it promised.

Two pieces:

* :class:`MetricsRegistry` — thread-safe counters, gauges, and
  histograms with **fixed** bucket boundaries (:data:`GAP_BUCKETS` for
  logical delay gaps, :data:`LATENCY_BUCKETS` for wall-clock seconds),
  labeled by view/shard/op. :class:`Telemetry` wraps a registry
  with lightweight span tracing (``with telemetry.trace(op, view=...)``)
  and an optional durable store. Servers take ``telemetry=`` and
  instrument themselves; with ``telemetry=None`` (the default) every
  hook short-circuits, so serving without telemetry pays nothing.
* :class:`TelemetryStore` — versioned, schema-checked JSONL persistence
  (one file per process session, conventionally under
  ``snapshot_dir/telemetry/``). Restarts append new session files; the
  reader **merges across sessions** — counters and histogram buckets
  sum, gauges take the latest write — so per-view serving history is
  durable. Malformed or version-mismatched lines raise
  :class:`~repro.exceptions.TelemetryError` (stamped with file and line)
  instead of silently skewing history.

The schema of every metric (names, labels, bucket bounds), the JSONL
record format, and how to choose τ are documented in
``docs/OPERATIONS.md``.
"""

from __future__ import annotations

import bisect
import json
import time
import uuid
import warnings
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.snapshot import read_jsonl
from repro.engine.locking import named_lock
from repro.exceptions import ParameterError, TelemetryError

TELEMETRY_SCHEMA = 1

#: Fixed bucket upper bounds for logical delay gaps (join-counter steps
#: between consecutive outputs). Powers of two: gaps span orders of
#: magnitude across τ.
GAP_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
)

#: Fixed bucket upper bounds for wall-clock latencies, in seconds
#: (100µs .. 10s; an implicit +inf overflow bucket catches the rest).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelItems = Tuple[Tuple[str, Any], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelItems:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = named_lock("telemetry.counter")
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ParameterError(
                f"counters only go up; got inc({amount!r})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time level that can move both ways (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = named_lock("telemetry.gauge")
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the level."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Move the level by ``delta`` (negative to decrease)."""
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        """The current level."""
        with self._lock:
            return self._value


class Histogram:
    """Fixed-boundary bucketed distribution (thread-safe).

    ``bounds`` are ascending bucket *upper* bounds; one implicit +inf
    overflow bucket is appended, so ``counts`` has ``len(bounds) + 1``
    entries. Boundaries are fixed at creation — two sessions observing
    the same metric always produce mergeable buckets.
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ParameterError(
                f"histogram bounds must be ascending and non-empty, "
                f"got {bounds!r}"
            )
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = named_lock("telemetry.histogram")

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        # bisect_left finds the first bound >= value, which is exactly
        # the "value <= upper bound" bucket; past the last bound it
        # returns len(bounds) — the +inf overflow slot.
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total observations recorded."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    @property
    def counts(self) -> Tuple[int, ...]:
        """Per-bucket counts (last entry is the +inf overflow bucket)."""
        with self._lock:
            return tuple(self._counts)

    def percentile(self, q: float) -> float:
        """The bucket upper bound covering quantile ``q`` (0 < q <= 1).

        Returns the smallest bound whose cumulative count reaches
        ``q × count`` — a conservative (upper) estimate, deterministic
        for integer-valued observations like step gaps. The overflow
        bucket reports ``inf``; an empty histogram reports 0.0.
        """
        if not 0.0 < q <= 1.0:
            raise ParameterError(f"quantile must be in (0, 1], got {q!r}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total <= 0:
            return 0.0
        target = q * total
        cumulative = 0
        for bound, bucket in zip(self.bounds, counts):
            cumulative += bucket
            if cumulative >= target:
                return bound
        return float("inf")

    def merge_counts(
        self, counts: Sequence[int], total_sum: float, total_count: int
    ) -> None:
        """Fold another session's buckets in (bounds must already match)."""
        with self._lock:
            if len(counts) != len(self._counts):
                raise TelemetryError(
                    f"histogram bucket count mismatch: have "
                    f"{len(self._counts)}, merging {len(counts)}"
                )
            for i, c in enumerate(counts):
                self._counts[i] += int(c)
            self._sum += float(total_sum)
            self._count += int(total_count)


class MetricsRegistry:
    """Get-or-create registry of labeled counters, gauges, histograms.

    Metrics are keyed by ``(name, sorted label items)``; creation is
    serialized, every metric instance synchronizes itself, so concurrent
    serving threads hammer the same counters safely. :meth:`snapshot`
    produces the JSON-ready structure :class:`TelemetryStore` persists;
    :meth:`merge_snapshot` folds one back in (the restart-merge path).
    """

    def __init__(self) -> None:
        self._lock = named_lock("telemetry.registry")
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter ``name{labels}``, created on first use."""
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter()
            return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge ``name{labels}``, created on first use."""
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge()
            return metric

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        """The histogram ``name{labels}``, created with ``buckets``.

        Later calls must agree on the boundaries — fixed buckets are
        what keeps sessions mergeable — or raise
        :class:`~repro.exceptions.TelemetryError`.
        """
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(buckets)
            elif metric.bounds != tuple(float(b) for b in buckets):
                raise TelemetryError(
                    f"histogram {name!r} re-declared with different "
                    f"buckets: {metric.bounds!r} vs {tuple(buckets)!r}"
                )
            return metric

    def counter_value(self, name: str, **labels: Any) -> int:
        """The counter's current value, 0 if it was never created."""
        with self._lock:
            metric = self._counters.get((name, _label_key(labels)))
        return metric.value if metric is not None else 0

    def find_histogram(
        self, name: str, **labels: Any
    ) -> Optional[Histogram]:
        """The histogram if it exists — a peek that never creates one."""
        with self._lock:
            return self._histograms.get((name, _label_key(labels)))

    def snapshot(self) -> Dict[str, List[Dict[str, Any]]]:
        """A JSON-ready copy of every metric (see ``docs/OPERATIONS.md``)."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": c.value}
                for (name, labels), c in counters
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": g.value}
                for (name, labels), g in gauges
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": dict(labels),
                    "buckets": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for (name, labels), h in histograms
            ],
        }

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a persisted snapshot in: counts sum, gauges overwrite."""
        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"], **entry["labels"]).inc(
                int(entry["value"])
            )
        for entry in snapshot.get("gauges", ()):
            self.gauge(entry["name"], **entry["labels"]).set(
                float(entry["value"])
            )
        for entry in snapshot.get("histograms", ()):
            self.histogram(
                entry["name"], buckets=entry["buckets"], **entry["labels"]
            ).merge_counts(entry["counts"], entry["sum"], entry["count"])


@dataclass
class Span:
    """One traced operation: what ran, with which labels, for how long."""

    op: str
    labels: Dict[str, Any]
    started: float
    seconds: float = 0.0
    annotations: Dict[str, Any] = field(default_factory=dict)

    def annotate(self, **fields: Any) -> "Span":
        """Attach explainability fields to the span (returns self)."""
        self.annotations.update(fields)
        return self


_RECORD_KINDS = ("metrics", "event")


def _validate_record(
    record: Any, source: str, line_number: int
) -> Dict[str, Any]:
    """One schema-checked record, or :class:`TelemetryError` saying why."""

    def bad(reason: str) -> TelemetryError:
        return TelemetryError(
            f"{source}:{line_number}: bad telemetry record: {reason}"
        )

    if not isinstance(record, dict):
        raise bad(f"expected an object, got {type(record).__name__}")
    if record.get("schema") != TELEMETRY_SCHEMA:
        raise bad(
            f"schema {record.get('schema')!r} != {TELEMETRY_SCHEMA}"
        )
    kind = record.get("kind")
    if kind not in _RECORD_KINDS:
        raise bad(f"unknown kind {kind!r} (expected one of {_RECORD_KINDS})")
    if not isinstance(record.get("session"), str):
        raise bad("missing session id")
    if not isinstance(record.get("seq"), int):
        raise bad("missing integer seq")
    if not isinstance(record.get("ts"), (int, float)):
        raise bad("missing numeric ts")
    payload = record.get(kind)
    if not isinstance(payload, dict):
        raise bad(f"missing {kind!r} payload object")
    return record


class TelemetryStore:
    """Versioned JSONL persistence for one process's telemetry session.

    Each store instance appends to its own session file
    (``<directory>/<session>.jsonl``); a restarted server starts a new
    session file in the same directory, and :meth:`load` /
    :meth:`merged_registry` read *all* session files, so history
    accumulates across restarts instead of being overwritten. Every
    record carries ``schema``/``session``/``seq``/``ts``; malformed or
    version-mismatched lines raise
    :class:`~repro.exceptions.TelemetryError`. The conventional location
    is ``snapshot_dir/telemetry/``.
    """

    def __init__(
        self, directory: Union[str, Path], session: Optional[str] = None
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.session = session or uuid.uuid4().hex[:12]
        self.path = self.directory / f"{self.session}.jsonl"
        self._lock = named_lock("telemetry.store")
        self._seq = 0

    def _append(self, kind: str, payload: Mapping[str, Any]) -> Dict:
        with self._lock:
            self._seq += 1
            record = {
                "schema": TELEMETRY_SCHEMA,
                "kind": kind,
                "session": self.session,
                "seq": self._seq,
                "ts": time.time(),
                kind: dict(payload),
            }
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def write_metrics(self, snapshot: Mapping[str, Any]) -> Dict:
        """Persist one cumulative metrics snapshot (latest-per-session wins)."""
        return self._append("metrics", snapshot)

    def write_event(self, event: Mapping[str, Any]) -> Dict:
        """Persist one point event."""
        return self._append("event", event)

    @classmethod
    def load(cls, directory: Union[str, Path]) -> List[Dict[str, Any]]:
        """Every schema-checked record across all session files.

        Ordered by ``(ts, session, seq)`` so interleaved sessions replay
        in wall-clock order. An absent directory is simply empty history.
        A session killed mid-append leaves a torn final line: it is
        skipped with a warning (read-only — the file is that session's).
        """
        root = Path(directory)
        records: List[Dict[str, Any]] = []
        if not root.is_dir():
            return records
        for path in sorted(root.glob("*.jsonl")):
            try:
                lines, _, torn = read_jsonl(path)
            except ValueError as error:
                line_number, detail = error.args
                raise TelemetryError(
                    f"{path}:{line_number}: not JSON: {detail}"
                ) from None
            if torn:
                warnings.warn(f"{path}: skipped a torn final line")
            records.extend(
                _validate_record(parsed, str(path), line_number)
                for line_number, parsed in lines
            )
        records.sort(key=lambda r: (r["ts"], r["session"], r["seq"]))
        return records

    @classmethod
    def merged_registry(
        cls, directory: Union[str, Path]
    ) -> Tuple[MetricsRegistry, List[Dict[str, Any]]]:
        """(registry merged across sessions, events in replay order).

        Metric snapshots are cumulative *within* a session, so only the
        latest snapshot of each session is folded in — then counters and
        histogram buckets sum across sessions and gauges take the last
        session's level. This is what ``repro metrics show`` replays.
        """
        records = cls.load(directory)
        latest: Dict[str, Dict[str, Any]] = {}
        events: List[Dict[str, Any]] = []
        for record in records:
            if record["kind"] == "metrics":
                session = record["session"]
                held = latest.get(session)
                if held is None or record["seq"] >= held["seq"]:
                    latest[session] = record
            else:
                events.append(record)
        registry = MetricsRegistry()
        for record in sorted(
            latest.values(), key=lambda r: (r["ts"], r["session"])
        ):
            registry.merge_snapshot(record["metrics"])
        return registry, events


class Telemetry:
    """The engine's telemetry facade: registry + spans + durable store.

    Hand one instance to any server (``ViewServer(db, telemetry=t)``,
    sharded/async/replica alike — they share it, so one registry sees
    the whole stack). With ``directory=None`` everything stays
    in-memory; with a directory, events persist immediately and
    :meth:`flush` writes cumulative metric snapshots a restart can
    merge. Servers never flush or close it: the caller who made the
    instance calls :meth:`close`.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.registry = MetricsRegistry()
        self.store: Optional[TelemetryStore] = (
            TelemetryStore(directory) if directory is not None else None
        )
        # Bounded rings: the durable record is the store, not these.
        self.spans: Deque[Span] = deque(maxlen=256)
        self.events: Deque[Dict[str, Any]] = deque(maxlen=1024)

    # -- registry passthroughs ----------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        """See :meth:`MetricsRegistry.counter`."""
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """See :meth:`MetricsRegistry.gauge`."""
        return self.registry.gauge(name, **labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        """See :meth:`MetricsRegistry.histogram`."""
        return self.registry.histogram(name, buckets=buckets, **labels)

    # -- tracing and events -------------------------------------------
    @contextmanager
    def trace(self, op: str, **labels: Any) -> Iterator[Span]:
        """Span context manager: times ``op`` into ``span_seconds{op}``.

        The yielded :class:`Span` lands in :attr:`spans` (a bounded
        ring) on exit; annotate it for explainability
        (``span.annotate(reason=...)``).
        """
        span = Span(op=op, labels=dict(labels), started=time.time())
        started = time.perf_counter()
        try:
            yield span
        finally:
            span.seconds = time.perf_counter() - started
            self.histogram(
                "span_seconds", buckets=LATENCY_BUCKETS, op=op
            ).observe(span.seconds)
            self.spans.append(span)

    def event(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Record one explainable point event, durably when persisted."""
        payload = {"op": op, **fields}
        self.counter("events_total", op=op).inc()
        self.events.append(payload)
        if self.store is not None:
            self.store.write_event(payload)
        return payload

    # -- persistence ---------------------------------------------------
    def flush(self) -> Optional[Dict[str, Any]]:
        """Persist a cumulative metrics snapshot (None when in-memory)."""
        if self.store is None:
            return None
        return self.store.write_metrics(self.registry.snapshot())

    def close(self) -> None:
        """Final flush — call when the owning server shuts down."""
        self.flush()

