"""The representation cache: bounded, LRU-evicting, cell-accounted.

A served view is a long-lived artifact (the covers/factorized-results
literature treats the compressed representation itself as the thing a
system keeps around), so the engine caches built
:class:`~repro.core.structure.CompressedRepresentation` instances across
requests. Entries are keyed by ``(view key, τ)`` — the same view served at
two different points of the space/delay tradeoff is two distinct
structures.

Size is accounted in the library's implementation-independent *cells*
(:mod:`repro.measure.space`): an entry charges the cells the structure
owns beyond the shared input tuples — its atoms' index plus the tree,
dictionary and any materialized tuples (``total_cells − base_tuples``).
Eviction is least-recently-used, triggered by either bound: a maximum
entry count or a maximum total cell budget. A single entry larger than
the cell budget is still admitted (and everything else evicted) — the
alternative is rebuilding it on every request, which is strictly worse.

The cache is internally synchronized: every public operation holds the
cache lock, and :meth:`RepresentationCache.get_or_build` provides the
single-build guarantee (at most one thread ever runs the factory for a
given key; late arrivals wait on the builder's event, then read the
freshly cached entry). Builds and cell measurement run *outside* the
lock — only bookkeeping is serialized — and a publish re-checks for a
resident entry so that an eviction or invalidation racing a build in
flight can never double-count cells: ``total_cells`` always equals the
sum of :func:`representation_cells` over the current residents.

**Disk tier** — give the cache a
:class:`~repro.core.snapshot.SnapshotStore` and entries become durable:
``get_or_build`` consults the store before running the factory (a warm
start decodes instead of rebuilding), writes a snapshot after each
successful build, and eviction *demotes* entries to disk rather than
discarding them outright. Snapshot I/O runs outside the cache lock; a
failed write degrades to memory-only behavior, and a corrupted or
wrong-database snapshot is treated as a miss (the store's fingerprint
check refuses to decode it).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, List, Optional, Tuple, Union

from repro.core.context import ViewContext
from repro.core.snapshot import SnapshotStore
from repro.core.structure import CompressedRepresentation
from repro.engine.locking import named_lock
from repro.engine.telemetry import MetricsRegistry
from repro.exceptions import ParameterError, SnapshotError

#: A disk-tier label, or a callable formatting it — called on a miss only.
Label = Union[str, Callable[[], str], None]


@dataclass
class CacheStats:
    """Counters describing one cache's lifetime behavior."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0
    disk_hits: int = 0
    disk_writes: int = 0

    @property
    def requests(self) -> int:
        """Total lookups: hits plus misses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from memory (0.0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0

    def delta(self, before: "CacheStats") -> "CacheStats":
        """The counters accumulated since the ``before`` snapshot."""
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            evictions=self.evictions - before.evictions,
            insertions=self.insertions - before.insertions,
            disk_hits=self.disk_hits - before.disk_hits,
            disk_writes=self.disk_writes - before.disk_writes,
        )

    def add(self, other: "CacheStats") -> "CacheStats":
        """Accumulate another counter set into this one (returns self)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.insertions += other.insertions
        self.disk_hits += other.disk_hits
        self.disk_writes += other.disk_writes
        return self


@dataclass
class _Entry:
    representation: CompressedRepresentation
    cells: int = field(default=0)
    snapshot_label: Optional[str] = field(default=None)
    on_disk: bool = field(default=False)


def representation_cells(representation: CompressedRepresentation) -> int:
    """Cells an instance owns beyond the shared input tuples."""
    report = representation.space_report()
    return report.total_cells - report.base_tuples


class RepresentationCache:
    """Thread-safe bounded cache of built compressed representations.

    Parameters
    ----------
    max_entries:
        Maximum number of cached structures; ``None`` means unbounded.
    max_cells:
        Maximum total cells across cached structures (see
        :func:`representation_cells`); ``None`` means unbounded.
    snapshot_store:
        Optional :class:`~repro.core.snapshot.SnapshotStore` enabling the
        disk tier: warm loads on miss, snapshot writes on build, and
        demotion (rather than discard) on eviction.
    metrics:
        Optional :class:`~repro.engine.telemetry.MetricsRegistry`; every
        :class:`CacheStats` mutation is mirrored into
        ``cache_<counter>_total`` counters there (hits, misses,
        evictions, insertions, disk hits, disk writes). ``None`` costs
        nothing.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_cells: Optional[int] = None,
        snapshot_store: Optional[SnapshotStore] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ParameterError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        if max_cells is not None and max_cells < 1:
            raise ParameterError(f"max_cells must be >= 1, got {max_cells}")
        self.max_entries = max_entries
        self.max_cells = max_cells
        self.snapshot_store = snapshot_store
        self.stats = CacheStats()
        # Pre-resolved telemetry counters: the hot path pays one guarded
        # dict lookup plus an atomic increment, nothing more.
        self._metric_counters = (
            {
                counted: metrics.counter(f"cache_{counted}_total")
                for counted in (
                    "hits",
                    "misses",
                    "evictions",
                    "insertions",
                    "disk_hits",
                    "disk_writes",
                )
            }
            if metrics is not None
            else None
        )
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._total_cells = 0
        self._lock = named_lock("cache", reentrant=True)
        self._building: "OrderedDict[Hashable, threading.Event]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    # mapping-ish interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Tuple[Hashable, ...]:
        """Keys from least- to most-recently used."""
        with self._lock:
            return tuple(self._entries.keys())

    @property
    def total_cells(self) -> int:
        """Cells currently held across all entries."""
        with self._lock:
            return self._total_cells

    def cells_of(self, key: Hashable) -> Optional[int]:
        """The resident entry's cell count, or None when not resident."""
        with self._lock:
            entry = self._entries.get(key)
            return entry.cells if entry is not None else None

    def stats_snapshot(self) -> CacheStats:
        """A consistent point-in-time copy of the lifetime counters."""
        with self._lock:
            return replace(self.stats)

    def _bump(self, counted: str, amount: int = 1) -> None:
        """Mirror one :class:`CacheStats` mutation into the registry."""
        if self._metric_counters is not None:
            self._metric_counters[counted].inc(amount)

    # ------------------------------------------------------------------
    # cache operations
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[CompressedRepresentation]:
        """The cached structure for ``key``, refreshing its recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                self._bump("misses")
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self._bump("hits")
            return entry.representation

    def peek(self, key: Hashable) -> Optional[CompressedRepresentation]:
        """Like :meth:`get` but touching neither recency nor stats."""
        with self._lock:
            entry = self._entries.get(key)
            return entry.representation if entry is not None else None

    def put(
        self,
        key: Hashable,
        representation: CompressedRepresentation,
        snapshot_label: Optional[str] = None,
    ) -> List[Hashable]:
        """Insert (or replace) an entry; returns the keys evicted for it.

        The cell measurement (a pass over the rows the first time their
        context is measured, memoised after) runs outside the lock;
        only the bookkeeping is serialized. With a disk
        tier, evicted entries are demoted to snapshots (also outside the
        lock) instead of discarded.
        """
        cells = representation_cells(representation)
        with self._lock:
            evicted = self._publish(
                key,
                representation,
                cells,
                self._label_for(key, snapshot_label),
                on_disk=False,
            )
        self._demote(evicted)
        return [victim for victim, _ in evicted]

    def _label_for(self, key: Hashable, snapshot_label: Label) -> Optional[str]:
        if self.snapshot_store is None:
            return None
        if callable(snapshot_label):
            return snapshot_label()
        # repr of the standard key shapes (tuples of names and numbers)
        # is restart-stable, so the default label round-trips a reboot.
        return snapshot_label if snapshot_label is not None else repr(key)

    def _publish(
        self,
        key: Hashable,
        representation: CompressedRepresentation,
        cells: int,
        snapshot_label: Optional[str] = None,
        on_disk: bool = False,
    ) -> List[Tuple[Hashable, _Entry]]:
        # Caller holds the lock. Popping any resident entry first is what
        # keeps the accounting exact when a build in flight races an
        # eviction or a concurrent replacement: the new charge is only
        # added after the old one (if any) has been subtracted.
        old = self._entries.pop(key, None)
        if old is not None:
            self._total_cells -= old.cells
        self._entries[key] = _Entry(
            representation,
            cells,
            snapshot_label=snapshot_label,
            on_disk=on_disk,
        )
        self._total_cells += cells
        self.stats.insertions += 1
        self._bump("insertions")
        return self._evict()

    def get_or_build(
        self,
        key: Hashable,
        factory: Callable[[], CompressedRepresentation],
        snapshot_label: Label = None,
        context: Optional[ViewContext] = None,
    ) -> CompressedRepresentation:
        """The cached structure for ``key``, building it on a miss.

        At most one thread ever runs ``factory`` for a given key: late
        arrivals block on the builder's event and then read the freshly
        cached entry (or claim the build themselves if the builder failed
        or its entry was already evicted). The factory runs outside the
        cache lock, so concurrent builds of *different* keys — and all
        reads — proceed unhindered.

        With a disk tier, a miss first consults the snapshot store under
        ``snapshot_label`` (default: ``repr(key)``; a callable is called
        on a miss only, so a hit never formats a label): a valid
        snapshot is decoded instead of built — the warm-start path — and
        a fresh build is snapshotted before it is published. Corrupt or
        wrong-database snapshots count as plain misses. ``context`` is
        the resident :class:`~repro.core.context.ViewContext` a decoded
        structure shares instead of rebuilding its index; a snapshot
        that does not match it is a plain miss as well.
        """
        missed = False
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    if not missed:
                        # A wait-then-hit call already recorded its miss;
                        # one call is one request, not two.
                        self.stats.hits += 1
                        self._bump("hits")
                    return entry.representation
                if not missed:
                    # One logical miss per call, however many retries the
                    # build race takes.
                    self.stats.misses += 1
                    self._bump("misses")
                    missed = True
                event = self._building.get(key)
                if event is None:
                    event = threading.Event()
                    self._building[key] = event
                    claimed = True
                else:
                    claimed = False
            if not claimed:
                event.wait()
                continue  # the builder published (or failed); re-check
            try:
                label = self._label_for(key, snapshot_label)
                built = self._warm_load(label, context)
                from_disk = built is not None
                if not from_disk:
                    built = factory()
                cells = representation_cells(built)
                on_disk = from_disk
                if not from_disk and label is not None:
                    # Snapshot before publishing: once the entry is
                    # visible, eviction can race the write, and a
                    # demotion would only duplicate it.
                    on_disk = self.snapshot_store.save(label, built)
                with self._lock:
                    if from_disk:
                        self.stats.disk_hits += 1
                        self._bump("disk_hits")
                    elif on_disk:
                        self.stats.disk_writes += 1
                        self._bump("disk_writes")
                    evicted = self._publish(
                        key,
                        built,
                        cells,
                        label,
                        on_disk=on_disk,
                    )
                self._demote(evicted)
                return built
            finally:
                with self._lock:
                    del self._building[key]
                event.set()

    def _warm_load(
        self, label: Optional[str], context: Optional[ViewContext]
    ) -> Optional[CompressedRepresentation]:
        """The decoded snapshot on a disk hit, None otherwise."""
        if label is None:  # no disk tier
            return None
        try:
            return self.snapshot_store.load(label, context)
        except SnapshotError:
            # Corrupt, truncated, version-mismatched, or built from a
            # different database or view: a miss, not a serving failure.
            return None

    def demote_all(self) -> int:
        """Flush every resident, not-yet-on-disk entry to the disk tier.

        The replica hook: a server about to ship its structures to a
        replica demotes its residents so the snapshots on disk are
        complete — warm loads and replica hydration then cover
        everything the cache held. Entries stay resident and are
        marked ``on_disk`` (a later eviction will not write them again).
        Snapshot I/O runs outside the lock; returns snapshots written.
        Without a disk tier this is a no-op.
        """
        if self.snapshot_store is None:
            return 0
        with self._lock:
            pending = [
                (key, entry)
                for key, entry in self._entries.items()
                if not entry.on_disk and entry.snapshot_label is not None
            ]
        written = 0
        for key, entry in pending:
            if self.snapshot_store.save(
                entry.snapshot_label, entry.representation
            ):
                written += 1
                with self._lock:
                    # Only mark the entry if it is still the resident one
                    # (a concurrent rebuild replaces the _Entry object).
                    if self._entries.get(key) is entry:
                        entry.on_disk = True
                    self.stats.disk_writes += 1
                    self._bump("disk_writes")
        return written

    def _demote(self, evicted: List[Tuple[Hashable, _Entry]]) -> None:
        """Write evicted entries to the disk tier (outside the lock)."""
        if self.snapshot_store is None:
            return
        written = 0
        for _, entry in evicted:
            if entry.on_disk or entry.snapshot_label is None:
                continue
            if self.snapshot_store.save(
                entry.snapshot_label, entry.representation
            ):
                written += 1
        if written:
            with self._lock:
                self.stats.disk_writes += written
                self._bump("disk_writes", written)

    def _evict(self) -> List[Tuple[Hashable, _Entry]]:
        evicted: List[Tuple[Hashable, _Entry]] = []
        while self._over_budget():
            victim = next(iter(self._entries))  # least recently used
            entry = self._entries.pop(victim)
            self._total_cells -= entry.cells
            self.stats.evictions += 1
            self._bump("evictions")
            evicted.append((victim, entry))
        return evicted

    def _over_budget(self) -> bool:
        if len(self._entries) <= 1:
            return False  # an oversized singleton is admitted regardless
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            return True
        if self.max_cells is not None and self._total_cells > self.max_cells:
            return True
        return False

    def invalidate_matching(
        self,
        predicate: Callable[[Hashable], bool],
        drop_snapshot: bool = True,
    ) -> int:
        """Atomically drop every entry whose key satisfies ``predicate``.

        The match and removal happen under one lock acquisition, so a
        concurrent build or eviction can neither slip a matching key in
        behind the sweep nor have the sweep iterate a stale key list —
        the race a snapshot-then-invalidate loop over :meth:`keys` is
        open to. Snapshot removal (like all snapshot I/O) runs outside
        the lock. Returns the number of entries dropped.
        """
        with self._lock:
            victims = [key for key in self._entries if predicate(key)]
            removed: List[_Entry] = []
            for key in victims:
                entry = self._entries.pop(key)
                self._total_cells -= entry.cells
                removed.append(entry)
        if drop_snapshot and self.snapshot_store is not None:
            for entry in removed:
                if entry.snapshot_label is not None:
                    self.snapshot_store.remove(entry.snapshot_label)
        return len(removed)

    def clear(self) -> None:
        """Drop every resident entry (the disk tier is untouched)."""
        with self._lock:
            self._entries.clear()
            self._total_cells = 0
