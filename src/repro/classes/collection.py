"""Indexing a collection of objects (the paper's building block).

"We use the term *index a collection* when we build a B+-tree on a
collection of objects" (Section 2.2).  Every class-indexing scheme in the
paper is an arrangement of such indexed collections; this thin wrapper keeps
the object-record handling in one place.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List

from repro.btree import BPlusTree
from repro.classes.hierarchy import ClassObject
from repro.values import identical


class CollectionIndex:
    """A B+-tree over the ``key`` attribute of a collection of objects."""

    def __init__(self, disk, objects: Iterable[ClassObject] = (), name: str = "collection") -> None:
        self.disk = disk
        self.name = name
        self.tree = BPlusTree.bulk_load(disk, ((obj.key, obj) for obj in objects), name=name)

    # -- updates --------------------------------------------------------- #
    def insert(self, obj: ClassObject) -> None:
        """Insert one object (``O(log_B n)`` I/Os)."""
        self.tree.insert(obj.key, obj)

    def delete(self, obj: ClassObject) -> bool:
        """Delete this very version of one object; ``True`` when it was present.

        Matching :func:`~repro.values.identical` records — the uid and
        every field — means deleting one of several value-equal objects
        removes exactly the record asked for, never an equal twin, and a
        dead version of a uid goes while its live version stays.
        """
        return self.tree.delete(obj.key, match=lambda v: identical(v, obj))

    def destroy(self) -> None:
        """Free every block of the underlying tree (rebuilds use this)."""
        self.tree.destroy()

    # -- queries --------------------------------------------------------- #
    def range_query(self, low: Any, high: Any) -> List[ClassObject]:
        """All objects with ``low <= key <= high`` (``O(log_B n + t/B)`` I/Os)."""
        return list(self.iter_range(low, high))

    def iter_range(self, low: Any, high: Any) -> Iterator[ClassObject]:
        """Stream the objects with ``low <= key <= high``, leaf by leaf."""
        for _, obj in self.tree.iter_range(low, high):
            yield obj

    # -- accounting ------------------------------------------------------ #
    def block_count(self) -> int:
        return self.tree.block_count()

    def __len__(self) -> int:
        return len(self.tree)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CollectionIndex(name={self.name!r}, n={len(self.tree)})"
