"""Crash recovery: replay the WAL tail past the last checkpoint.

The engine's persistence story has two layers:

* the **checkpoint** — a full catalog serialization through the storage
  backend (``Engine.checkpoint``), stamped with the ``durable_epoch`` it
  covers and followed by a WAL truncate;
* the **WAL tail** — every commit acknowledged after that checkpoint.

``Engine.open`` restores the checkpointed catalog first, then calls
:func:`replay_wal` to re-apply the tail.  Replay is idempotent against
the crash windows that matter:

* crash *before* the checkpoint's sidecar replace: the previous
  checkpoint + the full WAL replay to the same state;
* crash *between* the checkpoint and the WAL truncate: the log still
  holds operations the checkpoint already contains — their recorded
  epochs are ``<= durable_epoch``, so the filter skips them;
* crash *during replay*: nothing was checkpointed or truncated, so the
  next recovery replays the identical prefix again.

Replay re-applies operations through the normal engine write path (same
structures, same I/O accounting, no logging — the WAL is attached only
after replay), and realigns the epoch clock to each record's logged epoch
so that a re-checkpoint after a partial recovery cannot double-apply.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple

from repro.durability.wal import WriteAheadLog


def _advance_uids(records: Iterable[Any]) -> None:
    # replayed records re-enter the process with their original uids; the
    # fresh-record counters must skip past them exactly as a catalog
    # restore does
    from repro.engine.core import _advance_uid_counters

    _advance_uid_counters(list(records))


def apply_op(engine: Any, op: Tuple[Any, ...]) -> None:
    """Re-apply one logged operation through the engine's write surface."""
    kind = op[0]
    if kind == "insert":
        _advance_uids(op[2])
        engine.insert(op[1], *op[2])
    elif kind == "delete":
        engine.delete(op[1], *op[2])
    elif kind == "update":
        _advance_uids([op[3]])
        engine.update(op[1], op[2], op[3])
    elif kind == "bulk":
        _advance_uids(op[2])
        engine.bulk_load(op[1], op[2])
    elif kind == "create":
        entry, records = op[1], op[2]
        _advance_uids(records)
        engine.create(entry["name"], entry["kind"], records, **entry["params"])
    elif kind == "drop":
        engine.drop_index(op[1])
    else:
        raise ValueError(f"unknown WAL operation kind {kind!r}")


def replay_wal(engine: Any, wal: WriteAheadLog, durable_epoch: int) -> int:
    """Replay every record with ``epoch > durable_epoch``; returns the count.

    Must run before the WAL is attached to the engine (so replayed
    operations are not re-logged).  The epoch clock is advanced to each
    record's logged epoch *before* applying, so the commit the replay
    performs gets the identical epoch it had in the crashed process —
    which keeps a later ``durable_epoch`` comparison exact even when the
    log has epoch gaps (failed commits publish empty epochs).
    """
    if getattr(engine, "wal", None) is not None:
        raise RuntimeError("detach the WAL before replaying into the engine")
    replayed = 0
    for record in wal.records():
        if record.epoch <= durable_epoch:
            continue
        engine._epochs.advance_to(record.epoch - 1)
        apply_op(engine, record.op)
        replayed += 1
    return replayed
