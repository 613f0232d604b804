"""The simple class index of Theorem 2.6 (a range tree of B+-trees).

``label-class`` embeds the classes on a line such that every full extent is
a contiguous range of class values (Proposition 2.5).  ``index-classes``
(Fig. 6) then builds, conceptually, a balanced binary search tree over the
``c`` classes in that order and indexes one collection per tree node: the
union of the extents of the classes below that node.

* A full-extent query on class ``C`` covers a contiguous range of classes,
  which decomposes into at most ``2·ceil(log2 c)`` canonical nodes of the
  binary tree; querying each node's B+-tree gives query I/O
  ``O(log2 c · log_B n + t/B)``.
* An object of class ``X`` lives in the collections of the ``O(log2 c)``
  nodes on the root-to-leaf path of ``X``, which gives the
  ``O((n/B)·log2 c)`` space and ``O(log2 c · log_B n)`` update bounds.

The binary tree over class positions is represented implicitly by recursive
halving of the position range (a segment-tree skeleton), which is exactly
the shape the proof of Theorem 2.6 uses.

Only the *covered* nodes exist — those in the canonical cover of some
class's descendant range: the hierarchy is fixed at construction, so no
query can read any other.  Theorem 2.6 is unaffected: its bounds are upper
bounds, a query visits the nodes it always did, and an object stays
reachable because every ancestor's cover holds one node of its path.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Tuple

from repro.classes.collection import CollectionIndex
from repro.classes.hierarchy import ClassHierarchy, ClassObject


class SimpleClassIndex:
    """Range-tree-of-B+-trees class index (Theorem 2.6)."""

    def __init__(self, disk, hierarchy: ClassHierarchy, objects: Iterable[ClassObject] = ()) -> None:
        self.disk = disk
        self.hierarchy = hierarchy
        ordered = hierarchy.classes_by_value()
        self._position: Dict[str, int] = {cls: i for i, cls in enumerate(ordered)}
        self._count = len(ordered)

        # position range (inclusive) of the descendants of each class:
        # contiguous because label-class nests descendant ranges
        self._class_span: Dict[str, Tuple[int, int]] = {}
        for cls in hierarchy.classes():
            positions = [self._position[d] for d in hierarchy.descendants(cls)]
            self._class_span[cls] = (min(positions), max(positions))

        # one collection index per covered canonical node, a node being its
        # half-open position range (lo, hi)
        spans = self._class_span.values()
        covered = sorted({node for lo, hi in spans for node in self._canonical_cover(lo, hi + 1)})
        self._collections: Dict[Tuple[int, int], CollectionIndex] = dict.fromkeys(covered)
        grouped: Dict[Tuple[int, int], List[ClassObject]] = {node: [] for node in covered}
        for obj in objects:
            for node in self._path_nodes(self._position[obj.class_name]):
                grouped[node].append(obj)
        for node, members in grouped.items():
            self._collections[node] = CollectionIndex(disk, members, name=f"simple:{node[0]}-{node[1]}")
        #: the collections' summed size, kept by the writes (a query's bound reads it)
        self._size = sum(len(members) for members in grouped.values())

    # ------------------------------------------------------------------ #
    # implicit binary tree over class positions
    # ------------------------------------------------------------------ #
    def _path_nodes(self, position: int) -> List[Tuple[int, int]]:
        """The covered canonical nodes containing ``position``, root first."""
        out: List[Tuple[int, int]] = []
        lo, hi = 0, self._count
        while lo < hi:
            if (lo, hi) in self._collections:
                out.append((lo, hi))
            if hi - lo == 1:
                break
            mid = (lo + hi) // 2
            if position < mid:
                hi = mid
            else:
                lo = mid
        return out

    def _canonical_cover(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """Minimal set of canonical nodes covering positions ``[lo, hi)``."""
        out: List[Tuple[int, int]] = []

        def visit(node_lo: int, node_hi: int) -> None:
            if node_lo >= hi or node_hi <= lo or node_lo >= node_hi:
                return
            if lo <= node_lo and node_hi <= hi:
                out.append((node_lo, node_hi))
                return
            mid = (node_lo + node_hi) // 2
            visit(node_lo, mid)
            visit(mid, node_hi)

        visit(0, self._count)
        return out

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, obj: ClassObject) -> None:
        """Insert into the (at most ``O(log2 c)``) collections on the class's path."""
        for node in self._path_nodes(self._position[obj.class_name]):
            self._collections[node].insert(obj)
            self._size += 1

    def delete(self, obj: ClassObject) -> bool:
        found = False
        for node in self._path_nodes(self._position[obj.class_name]):
            if self._collections[node].delete(obj):
                self._size -= 1
                found = True
        return found

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, class_name: str, low: Any, high: Any) -> List[ClassObject]:
        """Attribute range query against the full extent of ``class_name``."""
        return list(self.iter_query(class_name, low, high))

    def iter_query(self, class_name: str, low: Any, high: Any) -> Iterator[ClassObject]:
        """Stream the answer, canonical node by canonical node."""
        span_lo, span_hi = self._class_span[class_name]
        for node in self._canonical_cover(span_lo, span_hi + 1):
            yield from self._collections[node].iter_range(low, high)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def destroy(self) -> None:
        """Free every block of every node collection (rebuilds use this)."""
        for collection in self._collections.values():
            collection.destroy()

    def block_count(self) -> int:
        return sum(c.block_count() for c in self._collections.values())

    def collections(self) -> Dict[Tuple[int, int], CollectionIndex]:
        return dict(self._collections)

    def copies_per_object(self) -> int:
        """Most collections any object is stored in (``O(log2 c)``)."""
        if self._count == 0:
            return 0
        return max(len(self._path_nodes(i)) for i in range(self._count))

    def __len__(self) -> int:
        return self._size
