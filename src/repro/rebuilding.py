"""Global rebuilding: the one write policy and version store over the paper's structures.

The paper's structures are static or semi-dynamic — Lemma 4.1's blocked
PST and Theorem 3.2's metablock tree are built once, Theorem 3.7 adds
inserts, Section 5 leaves deletes open — and where a static piece must be
maintained it is rebuilt wholesale (Lemma 4.4).  :class:`RebuildingIndex`
is that technique, written once.  Its users: the ``point`` kind (an
:class:`~repro.pst.ExternalPST`, no native write), the
:class:`~repro.core.ExternalIntervalManager` of the ``interval``,
``collection`` and ``constraint`` kinds (a metablock tree that inserts
natively but cannot delete, with endpoint B+-trees kept beside it) and
the :class:`~repro.core.ClassIndexer` of the ``class`` kind (B+-tree
schemes write natively, ``combined`` only inserts).  The wrapped
structure's native ``insert`` / ``delete`` are optional hooks; what it
lacks, the core supplies:

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
  build — and every B+-tree kept beside ``inner`` is repacked from the
  same stored versions: a bulk load writes each block once, reads none.
* **versions**: the core is the one version store of every kind but
  ``key``.  A write inside an engine commit tags the version it writes
  with the commit's epoch (``born``), the one it kills with ``died``, and
  leaves every removal to :meth:`purge`, which the engine calls with the
  GC horizon after the commit is published.  Reads see the reader's
  pinned epoch — the current state unpinned — and pay no filter while no
  stored row needs one.  A dead version a pin still sees and a rebuild
  keeps it; re-inserting it adds a life to its tag, so no row is stored
  twice.  (A ``key`` pair has no identity to version: the B+-tree is a
  multiset, and a delete may name a key alone.)

Every rebuild's I/Os are charged to the shared disk — ``O((n/B) log_B n)``
amortized over the ``Θ(B)`` side-log inserts or ``Θ(n)`` deletes between
rebuilds — and bumps :attr:`RebuildingIndex.generation`, which the
planner folds into its plan-cache key.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.complexity import Bound, rebuild_due
from repro.durability.mvcc import read_epoch, write_epoch
from repro.errors import DuplicateError
from repro.records import fresh_record_keys, record_key
from repro.values import identical

#: a native write of the wrapped structure: ``hook(structure, record)``
Hook = Callable[[Any, Any], Any]


class Version:
    """A stored row and its lives, ``[born, died)`` epoch ``spans``
    (``died`` is ``None`` while it lives; ``born`` 0: before every pin)."""

    __slots__ = ("record", "spans")

    def __init__(self, record: Any, born: int, died: Optional[int] = None) -> None:
        self.record = record
        self.spans: List[Tuple[int, Optional[int]]] = [(born, died)]

    @property
    def dead(self) -> bool:
        return self.spans[-1][1] is not None

    def seen_at(self, epoch: int) -> bool:
        """Whether a reader pinned at ``epoch`` sees this version."""
        return any(born <= epoch and (died is None or epoch < died) for born, died in self.spans)


class RebuildingIndex:
    """Live-record and version store + tombstones + side log + threshold-triggered rebuilds.

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
        #: key -> the versions of that uid some pin may still tell apart
        self._young: Dict[Any, List[Version]] = {}
        #: key -> dead versions no pin sees, still stored in ``inner``
        self._tombstones: Dict[Any, List[Any]] = {}
        self._dead = 0
        #: side-log records (inserted, not yet built into the structure)
        self._pending: List[Any] = []
        self._log_block_id: Optional[int] = None
        #: B+-trees kept beside ``inner`` over the same records:
        #: ``(tree, key)``, see :meth:`beside`
        self._beside: List[Tuple[Any, Callable[[Any], Any]]] = []
        #: bumped on every global rebuild — the planner's cache generation
        #: key folds this in, so cached plans over the structure re-plan
        #: after a reorganisation
        self.generation = 0
        self.inner: Any = build(initial)

    def beside(self, tree: Any, key: Callable[[Any], Any]) -> Any:
        """Keep B+-tree ``tree`` over the stored versions (keyed ``key(record)``)
        beside ``inner``: it gets every insert, its deletes wait for
        :meth:`purge`, a bulk load repacks it as it rebuilds ``inner``, and
        its blocks count and free with this core's.  Returns ``tree``."""
        self._beside.append((tree, key))
        return tree

    # ------------------------------------------------------------------ #
    # the MutableIndex surface
    # ------------------------------------------------------------------ #
    def insert(self, item: Any) -> None:
        """Insert one record: give a dead version it is a new life, else
        write it natively, else append it to the side log (rebuilding when
        full)."""
        key = record_key(item)
        if key in self._live:
            raise DuplicateError(
                f"record uid {key!r} is already indexed ({item!s}); records "
                "carry a process-unique uid, so inserting the same object "
                "twice would silently double-index it"
            )
        epoch = write_epoch()
        version = self._young_copy(key, item) if epoch is not None else None
        if version is not None and epoch is not None:
            version.spans.append((epoch, None))  # its rows are all still stored
            self._live[key] = item
            return
        if not self._revive(key, item):
            if self._insert is not None:
                # bookkeeping last: a native insert that raises (e.g. an
                # incomparable endpoint) must not leave a phantom live record
                self._insert(self.inner, item)
            else:
                self._log(key, item)
        for tree, side in self._beside:
            tree.insert(side(item), item)
        self._live[key] = item
        if epoch is not None:
            self._young.setdefault(key, []).append(Version(item, epoch))

    def _log(self, key: Any, item: Any) -> None:
        """Append ``item`` to the side log, rebuilding when it is full."""
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
        """Delete one record (matched by identity); ``True`` when present.

        Inside an engine commit the stored version is only tagged dead
        (:meth:`purge` removes it); outside one it goes at once."""
        key = record_key(item)
        if key not in self._live:
            return False
        stored = self._live.pop(key)
        epoch = write_epoch()
        if epoch is None:
            if self._retire(key, stored):
                self._rebuild_if_due()
            return True
        versions = self._young.setdefault(key, [])
        current = [v for v in versions if not v.dead]
        if current:
            current[0].spans[-1] = (current[0].spans[-1][0], epoch)
        else:
            versions.append(Version(stored, 0, epoch))
        return True

    def bulk_load(self, items: Iterable[Any]) -> int:
        """Load a batch in one global rebuild (the static bulk build).

        The batch is validated and the replacement built before the old
        structure is freed, so a failing batch raises with the index
        intact.  The trees kept beside are repacked from the same stored
        versions once the old structure is gone: the build compared every
        key they sort.
        """
        new = list(items)
        fresh_record_keys(new, self._live)
        epoch = write_epoch()
        # a batch record that is a dead version some pin still sees lives
        # on in that version's row: it is not stored a second time
        shared = [self._young_copy(record_key(r), r) if epoch is not None else None for r in new]
        fresh = [r for r, version in zip(new, shared) if version is None]
        stored = self._stored() + fresh
        self._install(self._build(stored))
        for tree, side in self._beside:
            tree.rebuild((side(r), r) for r in stored)
        for r, version in zip(new, shared):
            key = record_key(r)
            self._live[key] = r
            if version is not None and epoch is not None:
                version.spans.append((epoch, None))
            elif epoch is not None:
                self._young.setdefault(key, []).append(Version(r, epoch))
        return len(new)

    # ------------------------------------------------------------------ #
    # versions: tags, purge
    # ------------------------------------------------------------------ #
    def _young_copy(self, key: Any, item: Any) -> Optional[Version]:
        """The tagged version of ``item``'s uid identical to it, if any."""
        return next((v for v in self._young.get(key, ()) if identical(v.record, item)), None)

    def _stored(self) -> List[Any]:
        """What a rebuild keeps: the live records, then the dead versions
        some pin still sees."""
        dead = [v.record for versions in self._young.values() for v in versions if v.dead]
        return list(self._live.values()) + dead

    def purge(self, safe_epoch: int) -> None:
        """Remove every version no reader pinned after ``safe_epoch`` sees
        and untag every one all of them see (the engine's GC, after each
        publish and in a checkpoint; the caller holds the index latch).

        The dead go in the order they died, each counted as stored until
        its turn, so a purge crosses :func:`rebuild_due` where the same
        deletes would have one by one without a pin."""
        if not self._young:
            return
        doomed: List[Tuple[Any, Version]] = []
        for key, versions in list(self._young.items()):
            for v in versions:
                spans = [s for s in v.spans if s[1] is None or s[1] > safe_epoch]
                if spans:
                    v.spans = spans
                else:
                    doomed.append((key, v))  # tagged dead until its turn below
            kept = [v for v in versions if len(v.spans) > 1 or v.dead or v.spans[0][0] > safe_epoch]
            if kept:
                self._young[key] = kept
            else:
                del self._young[key]
        waiting = sum(v.dead for versions in self._young.values() for v in versions)
        doomed.sort(key=lambda kv: kv[1].spans[-1][1] or 0)
        for key, v in doomed:
            versions = self._young[key]
            versions.remove(v)
            if not versions:
                del self._young[key]
            waiting -= 1
            if self._retire(key, v.record):
                self._rebuild_if_due(waiting)

    def _retire(self, key: Any, record: Any) -> bool:
        """Remove a version no reader sees: from the trees beside, the side
        log or natively; else tombstone it in ``inner`` (``True``)."""
        for tree, side in self._beside:
            tree.delete(side(record), match=lambda v: identical(v, record))
        at = next((i for i, p in enumerate(self._pending) if identical(p, record)), None)
        if at is not None:
            del self._pending[at]
            self._write_log()
            return False
        if self._delete is not None:
            self._delete(self.inner, record)
            return False
        self._tombstones.setdefault(key, []).append(record)
        self._dead += 1
        return True

    # ------------------------------------------------------------------ #
    # rebuild machinery
    # ------------------------------------------------------------------ #
    def _rebuild_if_due(self, waiting: int = 0) -> None:
        """Rebuild once tombstones are due against the live rows out of the
        side log and the ``waiting`` dead versions."""
        resident = len(self._live) + waiting - len(self._pending)
        if rebuild_due(self._dead, resident, self.disk.block_size):
            self.rebuild()

    def rebuild(self) -> None:
        """Globally rebuild the structure from the stored versions (I/Os charged).

        With side-log records to fold in — never built, so a build may
        reject one — the replacement is built *before* the old structure
        is freed, and a failing build leaves the index answering from the
        old structure and the log (peak space ``2 · O(n/B)``).  Over
        resident records only, the build cannot fail on them, and the old
        structure is freed first to keep peak space at ``O(n/B)``.
        """
        stored = self._stored()
        if not self._pending:
            self.inner.destroy()
            self.inner = None
        self._install(self._build(stored))

    def _install(self, replacement: Any) -> None:
        """Free the old structure, install ``replacement``, reset the overlays."""
        if self.inner is not None:
            self.inner.destroy()
        self.inner = replacement
        self._tombstones = {}
        self._dead = 0
        self._pending = []
        self._write_log()
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
        """Persist the pending records as a fresh side-log block (one write;
        none while nothing is pending)."""
        if self._log_block_id is not None:
            self.disk.free(self._log_block_id)
        self._log_block_id = self.disk.allocate(records=self._pending).block_id if self._pending else None

    def destroy(self) -> None:
        """Free every block (``Engine.drop_index`` calls this)."""
        self.inner.destroy()
        for tree, _ in self._beside:
            tree.destroy()
        self._pending, self._live, self._young = [], {}, {}
        self._write_log()

    # ------------------------------------------------------------------ #
    # the read path: the reader's versions, side log overlaid
    # ------------------------------------------------------------------ #
    def live(self, items: Iterator[Any], beside: bool = False) -> Iterator[Any]:
        """``items`` the structure reported (a tree kept beside it, with
        ``beside``), as the reader's epoch sees them — ``items`` itself
        while no stored row needs a test, so the read path gains no layer."""
        keep = self._keep(beside)
        return items if keep is None else filter(keep, items)

    def live_blocks(self, blocks: Iterator[Any], beside: bool = False) -> Iterator[Any]:
        """:meth:`live` a batch at a time (one per block read).  A page
        batch (:class:`~repro.io.disk.Batch`) is tested on its uid column;
        only a row whose uid has a tagged or dead version is built."""
        keep = self._keep(beside)
        if keep is None:
            return blocks
        young, dead = self._young, {} if beside else self._tombstones

        def live(batch: Any, keep: Callable[[Any], bool] = keep) -> Any:
            uids = None if type(batch) is list else batch.uids()
            if uids is None:
                return [item for item in batch if keep(item)]
            return batch.subset([
                i for i, uid in enumerate(uids)
                if (uid not in young and uid not in dead) or keep(batch.row(i))
            ])

        return map(live, blocks)

    def _keep(self, beside: bool) -> Optional[Callable[[Any], bool]]:
        """The per-record filter at the reading thread's pinned epoch, or
        ``None`` when every stored row is live at every epoch.  A tree
        beside ``inner`` holds no tombstoned row: only tags concern it."""
        young, live = self._young, self._live
        dead = {} if beside else self._tombstones
        if not young and not dead:
            return None
        epoch = read_epoch()

        def keep(item: Any) -> bool:
            key = record_key(item)
            versions = young.get(key)
            if versions is None:
                return key not in dead or identical(live.get(key), item)
            if epoch is None:
                return identical(live.get(key), item)
            return any(v.seen_at(epoch) and identical(v.record, item) for v in versions)

        return keep

    def stream(self, q: Any) -> Iterator[Any]:
        """Stream the structure's answer and the matching side log, as the
        reader's epoch sees them."""
        return self.live(chain(self.inner.stream(q), self._logged(q)))

    def _logged(self, q: Any) -> Iterator[Any]:
        if self._pending and self._log_block_id is not None:
            block = self.disk.read(self._log_block_id)
            matches = getattr(q, "matches", None)
            for item in block.records():
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
    def uids(self) -> Any:
        """The live records' identity keys (a view)."""
        return self._live.keys()

    @property
    def live_count(self) -> int:
        """Number of live records — what the cost bounds use."""
        return len(self._live)

    def block_count(self) -> int:
        return (
            int(self.inner.block_count())
            + sum(int(tree.block_count()) for tree, _ in self._beside)
            + (1 if self._log_block_id is not None else 0)
        )

    def io_stats(self) -> Any:
        return self.disk.stats

    def __len__(self) -> int:
        return self.live_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RebuildingIndex({type(self.inner).__name__}, live={self.live_count}, "
            f"pending={len(self._pending)}, dead={self._dead}, young={len(self._young)})"
        )
