"""Epochs: pin a version, publish a new one, retire the old one on drain.

Every versioned resource in the engine follows one protocol. A reader
**pins** the current version and keeps whatever the version carries
(its *payload*) for as long as it reads; a writer **publishes** a new
version, which new readers take from then on; a version that is no
longer current **retires** the moment its pin count drains to zero —
and only then may its owner tear the payload's resources down. Dynamic
serving versions (:mod:`repro.engine.dynamic_serving`) are the one
instance; :class:`Epochs` is the only place their pin count is read or
written, and :class:`Hold` is the only place pins are handed to
cursors.

Lock discipline: an :class:`Epochs` borrows its owner's lock instead of
creating one, so the engine's lock names — and with them the runtime
lock-order graph — are exactly the owners'. Every method takes that
lock itself; an owner that publishes from inside its own critical
section therefore needs a reentrant lock. ``publish`` and ``release``
*return* the retired payloads rather than calling back, so teardown
(cache invalidation, snapshot demotion — both do I/O) runs after the
lock is dropped. ``docs/ARCHITECTURE.md`` tells the whole story once.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Epochs", "Hold", "NO_HOLD"]


class Epochs:
    """The live versions of one resource, with their payloads and pins.

    ``lock`` is the owner's (see the module docstring). The current
    version and every pinned version are *live*; anything else has been
    retired and handed back to the owner exactly once.
    """

    def __init__(self, lock, version: int, payload):
        self._lock = lock
        self._current = version
        # version -> [payload, pins]
        self._live: Dict[int, list] = {version: [payload, 0]}

    def pin(self, n: int = 1) -> Tuple[int, object]:
        """Take ``n`` pins on the current version; (version, payload)."""
        with self._lock:
            entry = self._live[self._current]
            entry[1] += n
            return self._current, entry[0]

    def release(self, version: int, n: int = 1) -> Tuple:
        """Drop ``n`` pins; the payloads this retired (at most one).

        Releasing the current version never retires it, and releasing a
        version that is not live (already retired, never published) is
        a no-op.
        """
        with self._lock:
            entry = self._live.get(version)
            if entry is None:
                return ()
            entry[1] = max(0, entry[1] - n)
            if entry[1] or version == self._current:
                return ()
            del self._live[version]
            return (entry[0],)

    def publish(self, version: int, payload) -> Tuple:
        """Make ``version`` current; the payloads this retired.

        Every other version without pins retires now; pinned ones keep
        draining. Publishing over a live version swaps its payload (the
        old one retires, its pins carry over to the new one).
        """
        with self._lock:
            retired = []
            replaced = self._live.get(version)
            if replaced is not None:
                retired.append(replaced[0])
            self._live[version] = [payload, replaced[1] if replaced else 0]
            self._current = version
            drained = [
                old
                for old, entry in self._live.items()
                if old != version and not entry[1]
            ]
            retired += [self._live.pop(old)[0] for old in drained]
            return tuple(retired)

    def hold(self, n: int, retired: Callable[[Tuple], object]) -> "Hold":
        """Pin the current version ``n`` times on behalf of ``n`` cursors.

        ``retired`` receives what each later release retires (possibly
        nothing) — the owner's teardown. See :class:`Hold`.
        """
        version, payload = self.pin(n)

        def release(count: int = 1) -> None:
            retired(self.release(version, count))

        return Hold(release, n, version, payload)

    def current(self) -> Tuple[int, object]:
        """(version, payload) new readers would get, without a pin."""
        with self._lock:
            return self._current, self._live[self._current][0]

    def get(self, version: int):
        """The payload of a live version, or ``None`` once retired."""
        with self._lock:
            entry = self._live.get(version)
            return None if entry is None else entry[0]

    def pins(self, version: Optional[int] = None) -> int:
        """Pins on one version (0 if not live), or on all of them."""
        with self._lock:
            if version is None:
                return sum(entry[1] for entry in self._live.values())
            entry = self._live.get(version)
            return 0 if entry is None else entry[1]

    def live(self) -> Tuple[int, ...]:
        """Live versions, oldest first: the current one plus the pinned."""
        with self._lock:
            return tuple(sorted(self._live))


class Hold:
    """Pins (and cursors) in flight while a serving call opens cursors.

    ``with epochs.hold(n, retired) as hold:`` owns ``n`` pins on
    ``hold.version`` / ``hold.payload``. The block appends every cursor
    it opens to ``hold.opened`` and finally hands the pins over with
    :meth:`keep`: each kept cursor's close hook releases one. If the
    block raises — anything, ``BaseException`` included — every opened
    cursor is closed, and whatever pins no cursor carries are released
    on the way out either way. A bare ``Hold()`` owns no pins and only
    does the closing: batch-wide cleanup across groups. A resource
    without versions opens under :data:`NO_HOLD`.
    """

    __slots__ = ("version", "payload", "opened", "_release", "_owed")

    def __init__(
        self,
        release: Optional[Callable[..., object]] = None,
        owed: int = 0,
        version: Optional[int] = None,
        payload=None,
    ):
        self.version = version
        self.payload = payload
        self.opened: List = []
        self._release = release
        self._owed = owed

    def keep(self, cursors: Sequence) -> Sequence:
        """Hand one owed pin to each cursor (released by its close hook)."""
        self.opened += cursors
        self._owed -= len(cursors)
        for cursor in cursors:
            cursor.add_close_hook(self._release)
        return cursors

    def __enter__(self) -> "Hold":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is not None:
                for cursor in self.opened:
                    cursor.close()
        finally:
            if self._owed > 0:
                self._release(self._owed)


class _NoHold(nullcontext):
    """The hold of a resource that has no versions to pin.

    Shaped like :class:`Hold` so a serving call is written once for
    versioned and unversioned resources alike, but stateless: nothing
    is pinned, kept cursors get no close hook, nothing is closed on the
    way out — one shared instance, :data:`NO_HOLD`, serves every call.
    """

    def keep(self, cursors: Sequence) -> Sequence:
        """Nothing to hand over: the cursors as they came."""
        return cursors


NO_HOLD = _NoHold()
