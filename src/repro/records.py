"""Record identity: the one definition of "the same stored record".

The package's record dataclasses (:class:`~repro.interval.Interval`,
:class:`~repro.classes.hierarchy.ClassObject`,
:class:`~repro.metablock.geometry.PlanarPoint`) carry a
serialization-stable, process-unique ``uid``; everything that needs to
recognise a record again — the planner's union deduplication, the write
path's duplicate detection, tombstone sets — keys on it through
:func:`record_key`, so the *same* stored record reached twice deduplicates
while value-identical records stay distinct, on every backend.
"""

from __future__ import annotations

from typing import Any, Iterable, Set

from repro.errors import DuplicateError


def record_key(record: Any) -> Any:
    """A deduplication identity for a logical record.

    Records with a ``uid`` key by it; ``(key, value)`` pairs key by
    ``(key, record_key(value))``; anything else falls back to ``repr``.
    """
    uid = getattr(record, "uid", None)
    if uid is not None:
        return uid
    if isinstance(record, tuple) and len(record) == 2:
        return (record[0], record_key(record[1]))
    return (type(record).__name__, repr(record))


def fresh_record_keys(
    items: Iterable[Any], existing: Iterable[Any] = (), context: str = "bulk_load batch"
) -> Set[Any]:
    """The identity keys of ``items``, validated process-unique.

    Raises :class:`~repro.errors.DuplicateError` (a ``ValueError``) when the
    batch repeats a key internally or collides with ``existing`` — the guard every
    bulk-loading structure applies *before* touching any blocks, so a
    duplicate can never be half-indexed.
    """
    keys = [record_key(item) for item in items]
    fresh = set(keys)
    existing = existing if isinstance(existing, (set, frozenset, dict)) else set(existing)
    if len(fresh) != len(keys) or fresh & set(existing):
        raise DuplicateError(
            f"duplicate record uids in {context}; records carry a "
            "process-unique uid, so loading the same object twice would "
            "silently double-index it"
        )
    return fresh
