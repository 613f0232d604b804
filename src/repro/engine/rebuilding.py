"""Global-rebuilding dynamization: a write surface for static structures.

The paper analyses several structures as *static* — the blocked priority
search tree of Lemma 4.1, the metablock tree of Theorem 3.2 — and, where it
needs them maintained, rebuilds them wholesale (Lemma 4.4).
:class:`RebuildingIndex` packages that technique as a generic adapter
implementing the :class:`~repro.engine.protocols.MutableIndex` surface on
top of *any* static index:

* **inserts** accumulate in a one-block side log on disk; when the log
  fills (``B`` records) the whole structure is rebuilt from live + pending
  records.  Queries read the log (at most one extra I/O) and post-filter it
  through the query's ``matches`` oracle, so answers are always current.
* **deletes** tombstone the record's identity; query streams filter
  tombstoned records out for free.  Once tombstones reach
  :data:`~repro.analysis.complexity.REBUILD_FRACTION` of the live set, a
  global rebuild sweeps them away.
* **bulk loads** go straight to one rebuild — the static constructor *is*
  the bulk build.

Every rebuild runs through the shared disk, so its I/Os are charged to the
counters: a rebuild costs ``O((n/B) log_B n)`` I/Os, amortized over the
``Θ(B)`` inserts or ``Θ(n)`` deletes between rebuilds that makes
``O((n/B²) log_B n)`` extra I/Os per insert and ``O((1/B) log_B n)`` per
delete, and queries keep the inner structure's bound plus one side-log
block.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional

from repro.analysis.complexity import rebuild_due
from repro.engine.protocols import Bound
from repro.engine.result import QueryResult
from repro.errors import DuplicateError
from repro.records import fresh_record_keys, record_key


class RebuildingIndex:
    """Tombstone deletes + side-log inserts + threshold-triggered rebuilds.

    Parameters
    ----------
    disk:
        The storage backend shared with the inner structure.
    build:
        ``items -> index`` factory invoked for the initial construction and
        for every global rebuild (e.g. ``lambda pts: ExternalPST(disk, pts)``).
    items:
        Initial records, bulk-built immediately.
    """

    supports_deletes = True
    supports_bulk_load = True

    def __init__(
        self,
        disk: Any,
        build: Callable[[List[Any]], Any],
        items: Iterable[Any] = (),
    ) -> None:
        self.disk = disk
        self._build = build
        initial = list(items)
        self._keys = fresh_record_keys(initial, context="the initial items")
        self._inner_items: List[Any] = initial
        self._tombstones: set = set()
        self._pending: List[Any] = []
        self._log_block_id: Optional[int] = None
        #: bumped on every global rebuild — the planner's cache generation
        #: key folds this in, so cached plans over this index re-plan after
        #: a threshold-triggered reorganisation
        self.generation = 0
        self.inner = build(initial)

    # ------------------------------------------------------------------ #
    # the MutableIndex surface
    # ------------------------------------------------------------------ #
    def insert(self, item: Any) -> None:
        """Insert via the side log; rebuild when a block's worth is pending."""
        key = record_key(item)
        if key in self._keys:
            raise DuplicateError(
                f"record uid {key!r} is already indexed; records carry a "
                "process-unique uid, so inserting the same object twice "
                "would silently double-index it"
            )
        self._keys.add(key)
        self._pending.append(item)
        self._write_log()
        if len(self._pending) >= self.disk.block_size:
            try:
                self._rebuild()
            except BaseException:
                # the build rejected the fold-in (e.g. an incomparable
                # record): undo this insert so the raise leaves the index
                # exactly as it was before the call.  Remove by identity —
                # value equality could evict an equal-but-distinct earlier
                # pending record (uid is excluded from record equality)
                for i, pending in enumerate(self._pending):
                    if pending is item:
                        del self._pending[i]
                        break
                self._keys.discard(key)
                self._write_log()
                raise

    def delete(self, item: Any) -> bool:
        """Delete one record (matched by identity); ``True`` when present."""
        key = record_key(item)
        if key not in self._keys:
            return False
        self._keys.discard(key)
        for i, pending in enumerate(self._pending):
            if record_key(pending) == key:
                del self._pending[i]
                self._write_log()
                return True
        self._tombstones.add(key)
        live = len(self._inner_items) - len(self._tombstones)
        if rebuild_due(len(self._tombstones), live, self.disk.block_size):
            self._rebuild()
        return True

    def bulk_load(self, items: Iterable[Any]) -> int:
        """Absorb a batch in one global rebuild (the static bulk build).

        The replacement structure is built before the old one is
        destroyed, so a failing batch raises with the index intact.
        """
        new = list(items)
        fresh = fresh_record_keys(new, self._keys)
        live = self.items() + new
        replacement = self._build(live)
        self._swap_inner(replacement, live)
        self._keys |= fresh
        return len(new)

    # ------------------------------------------------------------------ #
    # rebuild machinery
    # ------------------------------------------------------------------ #
    def items(self) -> List[Any]:
        """Every live record (inner minus tombstones, plus pending)."""
        return [
            item
            for item in self._inner_items
            if record_key(item) not in self._tombstones
        ] + list(self._pending)

    @property
    def live_count(self) -> int:
        """Number of live records — what the cost bounds use."""
        return len(self._keys)

    def _rebuild(self) -> None:
        """Rebuild the inner structure from the live records (I/Os charged).

        The replacement is built *before* the old structure is destroyed —
        insert-triggered rebuilds fold in the unvalidated side-log records,
        and a build they crash must leave the index answering queries from
        the old structure + overlay rather than bricked.  Peak space is
        transiently ``2 · O(n/B)``, the standard global-rebuilding
        trade-off.
        """
        live = self.items()
        self._swap_inner(self._build(live), live)

    def _swap_inner(self, replacement: Any, live: List[Any]) -> None:
        """Install a freshly built inner structure and reset the overlays."""
        self.generation += 1
        if self.inner is not None and self.inner is not replacement:
            destroy = getattr(self.inner, "destroy", None)
            if callable(destroy):
                destroy()
        self.inner = replacement
        self._inner_items = live
        self._tombstones = set()
        self._pending = []
        if self._log_block_id is not None:
            self.disk.free(self._log_block_id)
            self._log_block_id = None

    def _write_log(self) -> None:
        """Persist the pending records to the one-block side log (one I/O)."""
        if self._log_block_id is None:
            block = self.disk.allocate(records=list(self._pending))
            self._log_block_id = block.block_id
        else:
            block = self.disk.read(self._log_block_id)
            block.records = list(self._pending)
            self.disk.write(block)

    def destroy(self) -> None:
        """Free every block (``Engine.drop_index`` calls this)."""
        destroy = getattr(self.inner, "destroy", None)
        if callable(destroy):
            destroy()
        if self._log_block_id is not None:
            self.disk.free(self._log_block_id)
            self._log_block_id = None
        self._inner_items = []
        self._pending = []
        self._tombstones = set()
        self._keys = set()

    # ------------------------------------------------------------------ #
    # the read surface (delegated, with tombstone/side-log overlay)
    # ------------------------------------------------------------------ #
    def stream(self, q: Any) -> Iterator[Any]:
        """Stream the inner answer minus tombstones, plus matching pending."""
        tombstones = self._tombstones
        for item in self.inner.stream(q):
            if record_key(item) not in tombstones:
                yield item
        if self._pending and self._log_block_id is not None:
            block = self.disk.read(self._log_block_id)
            matches = getattr(q, "matches", None)
            for item in block.records:
                if matches is None or matches(item):
                    yield item

    def query(self, q: Any) -> QueryResult:
        """Answer ``q`` lazily with the overlay applied (current answers)."""
        return QueryResult.of(self, q)

    def supports(self, q: Any) -> bool:
        return self.inner.supports(q)

    def cost(self, q: Any) -> Bound:
        """The inner structure's bound plus the one side-log block."""
        inner = self.inner.cost(q)
        if not self._pending:
            return inner
        return inner + Bound("1 (side log)", 1.0)

    def block_count(self) -> int:
        return self.inner.block_count() + (1 if self._log_block_id is not None else 0)

    def io_stats(self):
        return self.disk.stats

    def __len__(self) -> int:
        return self.live_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RebuildingIndex({type(self.inner).__name__}, live={self.live_count}, "
            f"pending={len(self._pending)}, tombstones={len(self._tombstones)})"
        )
