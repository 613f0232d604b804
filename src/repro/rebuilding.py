"""Global rebuilding: the one write policy over structures the paper leaves static.

The paper's structures are static or semi-dynamic — Lemma 4.1's blocked
PST and Theorem 3.2's metablock tree are built once, Theorem 3.7 adds
inserts, Section 5 leaves deletes open — and where a static piece must be
maintained it is rebuilt wholesale (Lemma 4.4).  :class:`RebuildingIndex`
is that technique, written once.  Its users: the ``point`` kind (an
:class:`~repro.pst.ExternalPST`, no native write), the
:class:`~repro.core.ExternalIntervalManager` of the ``interval``,
``collection`` and ``constraint`` kinds (a metablock tree that inserts
natively but cannot delete) and the :class:`~repro.core.ClassIndexer` of
the ``class`` kind (B+-tree schemes write natively, ``combined`` only
inserts).  The wrapped structure's native ``insert`` / ``delete`` are
optional hooks; what it lacks, the core supplies:

* **inserts** accumulate in a one-block side log; when it holds ``B``
  records the structure is rebuilt.  Queries read the log (one extra I/O)
  through the query's ``matches`` oracle.
* **deletes** tombstone the stored *version*, not the uid, so re-inserting
  a uid (the same object, or a same-uid update) costs an insert, not a
  rebuild — the very version that died is simply un-tombstoned.  Reads
  drop dead versions with no I/O; once
  :func:`~repro.analysis.complexity.rebuild_due` fires, a global rebuild
  sweeps them away.  A stored record is a dead version's copy when the
  two are :func:`~repro.values.identical` — type for type, payload and
  uid included, which is what a decoded page gives back of a domain value,
  so the match is exact on every backend (``==`` would call a ``1.0``
  payload a copy of a ``1``).
* **bulk loads** are one rebuild — the static constructor *is* the bulk
  build.

Every rebuild's I/Os are charged to the shared disk — ``O((n/B) log_B n)``
amortized over the ``Θ(B)`` side-log inserts or ``Θ(n)`` deletes between
rebuilds — and bumps :attr:`RebuildingIndex.generation`, which the
planner folds into its plan-cache key.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.analysis.complexity import rebuild_due
from repro.errors import DuplicateError
from repro.records import fresh_record_keys, record_key
from repro.values import identical

#: a native write of the wrapped structure: ``hook(structure, record)``
Hook = Callable[[Any, Any], Any]


class RebuildingIndex:
    """Live-record store + tombstones + side log + threshold-triggered rebuilds.

    Parameters
    ----------
    disk:
        The storage backend shared with the wrapped structure.
    build:
        ``records -> structure`` factory invoked for the initial
        construction and for every global rebuild (e.g.
        ``lambda pts: ExternalPST(disk, pts)``).
    items:
        Initial records, bulk-built immediately.
    insert, delete:
        The structure's native writes, ``hook(structure, record)``; absent,
        inserts go to the side log and deletes tombstone.
    """

    supports_deletes = True
    supports_bulk_load = True

    def __init__(
        self,
        disk: Any,
        build: Callable[[List[Any]], Any],
        items: Iterable[Any] = (),
        *,
        insert: Optional[Hook] = None,
        delete: Optional[Hook] = None,
    ) -> None:
        self.disk = disk
        self._build = build
        self._insert = insert
        self._delete = delete
        initial = list(items)
        fresh_record_keys(initial, context="the initial records")
        #: the live records by identity key, insertion-ordered — the one
        #: record store of every index built on this core
        self._live: Dict[Any, Any] = {record_key(r): r for r in initial}
        #: key -> the dead versions of that uid still physically stored
        self._tombstones: Dict[Any, List[Any]] = {}
        self._dead = 0
        #: side-log records (inserted, not yet built into the structure)
        self._pending: List[Any] = []
        self._log_block_id: Optional[int] = None
        #: bumped on every global rebuild — the planner's cache generation
        #: key folds this in, so cached plans over the structure re-plan
        #: after a reorganisation
        self.generation = 0
        self.inner: Any = build(initial)

    # ------------------------------------------------------------------ #
    # the MutableIndex surface
    # ------------------------------------------------------------------ #
    def insert(self, item: Any) -> None:
        """Insert one record: revive the dead version it is, else write it
        natively, else append it to the side log (rebuilding when full)."""
        key = record_key(item)
        if key in self._live:
            raise DuplicateError(
                f"record uid {key!r} is already indexed ({item!s}); records "
                "carry a process-unique uid, so inserting the same object "
                "twice would silently double-index it"
            )
        if self._revive(key, item):
            self._live[key] = item
            return
        if self._insert is not None:
            # bookkeeping last: a native insert that raises (e.g. an
            # incomparable endpoint) must not leave a phantom live record
            self._insert(self.inner, item)
            self._live[key] = item
            return
        self._live[key] = item
        self._pending.append(item)
        self._write_log()
        if len(self._pending) >= self.disk.block_size:
            try:
                self.rebuild()
            except BaseException:
                # the build rejected the fold-in (e.g. an incomparable
                # record): undo this insert so the raise leaves the index
                # exactly as it was.  Remove by identity — value equality
                # could evict an equal-but-distinct earlier pending record
                self._pending = [p for p in self._pending if p is not item]
                del self._live[key]
                self._write_log()
                raise

    def delete(self, item: Any) -> bool:
        """Delete one record (matched by identity); ``True`` when present."""
        key = record_key(item)
        if key not in self._live:
            return False
        stored = self._live.pop(key)
        if self._delete is not None:
            self._delete(self.inner, stored)
            return True
        if any(p is stored for p in self._pending):
            self._pending = [p for p in self._pending if p is not stored]
            self._write_log()
            return True
        self._tombstones.setdefault(key, []).append(stored)
        self._dead += 1
        resident = len(self._live) - len(self._pending)
        if rebuild_due(self._dead, resident, self.disk.block_size):
            self.rebuild()
        return True

    def bulk_load(
        self,
        items: Iterable[Any],
        alongside: Optional[Callable[[List[Any]], Any]] = None,
    ) -> int:
        """Absorb a batch in one global rebuild (the static bulk build).

        The batch is validated and the replacement built before the old
        structure is freed, so a failing batch raises with the index
        intact.  ``alongside(live)``, when given, rebuilds a companion
        structure over the same records at that point; if it raises, the
        replacement is freed and nothing has changed.
        """
        new = list(items)
        fresh_record_keys(new, self._live)
        live = list(self._live.values()) + new
        replacement = self._build(live)
        if alongside is not None:
            try:
                alongside(live)
            except BaseException:
                replacement.destroy()
                raise
        self._install(replacement)
        self._live.update((record_key(r), r) for r in new)
        return len(new)

    # ------------------------------------------------------------------ #
    # rebuild machinery
    # ------------------------------------------------------------------ #
    def rebuild(self) -> None:
        """Globally rebuild the structure from the live records (I/Os charged).

        With side-log records to fold in — never built, so a build may
        reject one — the replacement is built *before* the old structure
        is freed, and a failing build leaves the index answering from the
        old structure and the log (peak space ``2 · O(n/B)``).  Over
        resident records only, the build cannot fail on them, and the old
        structure is freed first to keep peak space at ``O(n/B)``.
        """
        live = list(self._live.values())
        if not self._pending:
            self.inner.destroy()
            self.inner = None
        self._install(self._build(live))

    def _install(self, replacement: Any) -> None:
        """Free the old structure, install ``replacement``, reset the overlays."""
        if self.inner is not None:
            self.inner.destroy()
        self.inner = replacement
        self._tombstones = {}
        self._dead = 0
        self._pending = []
        self._free_log()
        self.generation += 1

    def _revive(self, key: Any, item: Any) -> bool:
        """Un-tombstone a dead version of ``item``'s uid identical to it: its
        stored copy reads exactly as ``item`` would."""
        stale = self._tombstones.get(key, [])
        copies = [i for i, v in enumerate(stale) if identical(v, item)]
        if not copies:
            return False
        del stale[copies[0]]
        if not stale:
            del self._tombstones[key]
        self._dead -= 1
        return True

    def _write_log(self) -> None:
        """Persist the pending records to the one-block side log (one I/O)."""
        if self._log_block_id is None:
            block = self.disk.allocate(records=list(self._pending))
            self._log_block_id = block.block_id
        else:
            block = self.disk.read(self._log_block_id)
            block.records = list(self._pending)
            self.disk.write(block)

    def _free_log(self) -> None:
        if self._log_block_id is not None:
            self.disk.free(self._log_block_id)
            self._log_block_id = None

    def destroy(self) -> None:
        """Free every block (``Engine.drop_index`` calls this)."""
        self.inner.destroy()
        self._free_log()
        self._live = {}

    # ------------------------------------------------------------------ #
    # the read path: dead versions filtered out, side log overlaid
    # ------------------------------------------------------------------ #
    def live(self, items: Iterator[Any]) -> Iterator[Any]:
        """``items`` the structure reported, minus dead versions — ``items``
        itself while nothing is dead, so the read path gains no layer."""
        if not self._tombstones:
            return items
        return filter(self._keep(), items)

    def live_blocks(self, blocks: Iterator[Any]) -> Iterator[Any]:
        """:meth:`live` a batch at a time (one per block read).  A page
        batch (:class:`~repro.io.disk.Batch`) is tested on its uid column;
        only a row whose uid has a dead version is built, to match it."""
        if not self._tombstones:
            return blocks
        keep, dead = self._keep(), self._tombstones

        def live(batch: Any) -> Any:
            uids = None if type(batch) is list else batch.uids()
            if uids is None:
                return [item for item in batch if keep(item)]
            return batch.subset(
                [i for i, uid in enumerate(uids) if uid not in dead or keep(batch.row(i))]
            )

        return map(live, blocks)

    def _keep(self) -> Callable[[Any], bool]:
        """The per-record filter: one membership test unless the uid died."""
        dead, live = self._tombstones, self._live

        def keep(item: Any) -> bool:
            key = record_key(item)
            if key not in dead:
                return True
            return key in live and not any(identical(v, item) for v in dead[key])

        return keep

    def stream(self, q: Any) -> Iterator[Any]:
        """Stream the structure's live answer, then the matching side log."""
        yield from self.live(self.inner.stream(q))
        if self._pending and self._log_block_id is not None:
            block = self.disk.read(self._log_block_id)
            matches = getattr(q, "matches", None)
            for item in block.records:
                if matches is None or matches(item):
                    yield item

    def query(self, q: Any) -> Any:
        """Answer ``q`` lazily with the overlay applied (current answers)."""
        from repro.engine.result import QueryResult

        return QueryResult.of(self, q)

    def supports(self, q: Any) -> bool:
        return bool(self.inner.supports(q))

    def cost(self, q: Any) -> Any:
        """The structure's bound plus the one side-log block."""
        from repro.engine.protocols import Bound

        inner = self.inner.cost(q)
        if not self._pending:
            return inner
        return inner + Bound("1 (side log)", 1.0)

    # ------------------------------------------------------------------ #
    # accounting / introspection
    # ------------------------------------------------------------------ #
    def items(self) -> List[Any]:
        """Every live record, in insertion order."""
        return list(self._live.values())

    @property
    def live_count(self) -> int:
        """Number of live records — what the cost bounds use."""
        return len(self._live)

    def block_count(self) -> int:
        return int(self.inner.block_count()) + (1 if self._log_block_id is not None else 0)

    def io_stats(self) -> Any:
        return self.disk.stats

    def __len__(self) -> int:
        return self.live_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RebuildingIndex({type(self.inner).__name__}, live={self.live_count}, "
            f"pending={len(self._pending)}, dead={self._dead})"
        )
