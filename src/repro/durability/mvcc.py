"""MVCC snapshot epochs: the clock readers pin and writers advance.

Every committed write batch advances a global **epoch**.  The
:class:`EpochManager` is the tiny kernel underneath the engine's
concurrency story:

* A **writer** calls :meth:`begin` inside the engine's write mutex (epochs
  are allocated in commit order), applies its changes, makes its WAL
  record durable, and then :meth:`publish`\\ es the epoch.  Publication is
  *ordered*: epoch ``W`` waits until ``W-1`` is published, so the visible
  history is a prefix — a reader can never observe commit ``W`` without
  ``W-1``.  Because the fsync happens between apply and publish (outside
  the mutex), concurrent committers overlap their durability barriers —
  that is what makes group commit effective.
* A **reader** enters :meth:`pinned`, which hands it the latest published
  epoch ``E`` and registers the pin.  Everything the reader streams is
  filtered against ``E``: records created after ``E`` are invisible,
  records deleted at or before ``E`` are gone, records deleted *after*
  ``E`` are still visible.  Readers therefore never wait for writers on
  other indexes at all, and on their own index only for the short
  structural latch — not for the fsync.
* **Version GC**: a deleted record's physical index entries can only be
  reclaimed once no pinned reader might still need them.
  :meth:`safe_epoch` is the horizon — ``min(pinned) - 1`` while readers
  are pinned, the current epoch otherwise — computed atomically with the
  pin registry, so a concurrent pin either blocks the purge or is new
  enough not to need the record.

The versions live in :class:`~repro.rebuilding.RebuildingIndex`, the one
record store of every kind but ``key``.  It learns the epochs from one
thread-local, not from an argument threaded through every write hook:
:func:`write_epoch` (the commit applying on this thread) and
:func:`read_epoch` (this thread's innermost :meth:`pinned` epoch).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

#: this thread's ``write`` (applying commit) and ``read`` (innermost pin) epochs
_LOCAL = threading.local()


def write_epoch() -> Optional[int]:
    """The epoch of the commit applying on this thread, or ``None``."""
    return getattr(_LOCAL, "write", None)


def read_epoch() -> Optional[int]:
    """The epoch of this thread's innermost pin, or ``None`` (the current state)."""
    return getattr(_LOCAL, "read", None)


class EpochManager:
    """The global epoch clock: ordered publication, reader pins, GC horizon."""

    def __init__(self, start: int = 0) -> None:
        #: the condition's lock, taken bare where nothing waits or notifies
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._current = start   # highest *published* epoch
        self._next = start      # highest *begun* epoch
        self._pins: Dict[int, int] = {}   # epoch -> pinned reader count
        #: epoch -> monotonic time its earliest live pin registered (for
        #: the epoch-pin age gauge: an old pin is what holds back GC)
        self._pin_started: Dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # the writer side
    # ------------------------------------------------------------------ #
    @property
    def current(self) -> int:
        """The latest published epoch (what a new reader pins)."""
        return self._current

    def begin(self) -> int:
        """Allocate the next epoch (call inside the engine's write mutex)."""
        with self._cond:
            self._next += 1
            return self._next

    def publish(self, epoch: int) -> None:
        """Make ``epoch`` visible; waits until every predecessor published.

        A begun epoch **must** be published exactly once, success or
        failure (a failed commit publishes an empty epoch) — otherwise
        every later commit waits forever.  The engine guarantees this with
        a ``finally``.
        """
        with self._cond:
            while self._current != epoch - 1:
                self._cond.wait()
            self._current = epoch
            self._cond.notify_all()

    def advance_to(self, epoch: int) -> None:
        """Jump the clock forward (recovery aligning to recorded epochs)."""
        with self._cond:
            if epoch > self._current:
                self._current = epoch
            if self._current > self._next:
                self._next = self._current
            self._cond.notify_all()

    def quiesce(self) -> None:
        """Wait until every begun epoch is published (checkpoint barrier)."""
        with self._cond:
            while self._current != self._next:
                self._cond.wait()

    # -- the applying commit's epoch, visible to write hooks ------------- #
    def set_write_epoch(self, epoch: int) -> None:
        _LOCAL.write = epoch

    def clear_write_epoch(self) -> None:
        _LOCAL.write = None

    def write_epoch(self) -> Optional[int]:
        """The epoch of the commit applying on this thread, or ``None``."""
        return write_epoch()

    # ------------------------------------------------------------------ #
    # the reader side
    # ------------------------------------------------------------------ #
    def pinned(self) -> "Pin":
        """Pin the latest published epoch for the scope; ``as`` gives it.

        While pinned, version GC keeps every record version the epoch can
        see (see :meth:`safe_epoch`), and this thread's reads see that
        epoch (:func:`read_epoch`).  Pins nest freely; each scope re-pins
        the then-current epoch, and leaving it restores the outer one.
        """
        return Pin(self)

    def pinned_count(self) -> int:
        """How many reader pins are currently registered."""
        with self._cond:
            return sum(self._pins.values())

    def oldest_pinned(self) -> Optional[int]:
        with self._cond:
            return min(self._pins) if self._pins else None

    def pin_age_s(self) -> Optional[float]:
        """Seconds the oldest live reader pin has been held (``None``: no pins).

        The gauge the ``metrics`` export serves: a growing age means some
        reader is holding back the version-GC horizon.
        """
        with self._cond:
            if not self._pin_started:
                return None
            return round(time.monotonic() - min(self._pin_started.values()), 6)

    # ------------------------------------------------------------------ #
    # the GC horizon
    # ------------------------------------------------------------------ #
    def safe_epoch(self) -> int:
        """Versions with ``deleted_epoch <= safe_epoch()`` may be purged.

        Atomic with the pin registry: a reader pinning concurrently either
        registered first (and lowers the horizon) or pins an epoch at
        least as new as the one this horizon was computed from — in which
        case every purgeable version was already invisible to it.
        """
        with self._cond:
            if self._pins:
                return min(self._pins) - 1
            return self._current

    def as_dict(self) -> Dict[str, Optional[int]]:
        """Clock state as plain data (the server's ``stats`` response)."""
        with self._cond:
            return {
                "current": self._current,
                "begun": self._next,
                "pinned": sum(self._pins.values()),
                "oldest_pinned": min(self._pins) if self._pins else None,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EpochManager(current={self._current}, begun={self._next}, "
            f"pins={self.pinned_count()})"
        )


class Pin:
    """One reader pin (what :meth:`EpochManager.pinned` returns).

    A plain context object: entering registers the then-current epoch in
    the pin registry and makes it this thread's :func:`read_epoch`;
    leaving restores the outer epoch and unregisters.  The unpin notifies
    nobody — only :meth:`~EpochManager.publish` and
    :meth:`~EpochManager.quiesce` wait on the clock, and no pin changes
    what they wait for.
    """

    __slots__ = ("_epochs", "epoch", "_outer")

    def __init__(self, epochs: EpochManager) -> None:
        self._epochs = epochs

    def __enter__(self) -> int:
        epochs = self._epochs
        with epochs._lock:
            epoch = self.epoch = epochs._current
            pins = epochs._pins
            pins[epoch] = pins.get(epoch, 0) + 1
            if epoch not in epochs._pin_started:
                epochs._pin_started[epoch] = time.monotonic()
        self._outer, _LOCAL.read = getattr(_LOCAL, "read", None), epoch
        return epoch

    def __exit__(self, *exc: Any) -> None:
        _LOCAL.read = self._outer
        epochs, epoch = self._epochs, self.epoch
        with epochs._lock:
            left = epochs._pins.get(epoch, 0) - 1
            if left > 0:
                epochs._pins[epoch] = left
            else:
                epochs._pins.pop(epoch, None)
                epochs._pin_started.pop(epoch, None)
