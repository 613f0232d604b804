"""The combined class index of Theorem 4.7.

``rake-and-contract`` (Lemma 4.6) turns the class hierarchy into *pieces*:

* every **raked** class gets an explicit B+-tree over its full extent, so a
  query on it is a plain one-dimensional range search
  (``O(log_B n + t/B)`` I/Os);
* every **contracted** thick path gets one 3-sided structure
  (:class:`~repro.metablock.ThreeSidedMetablockTree`, Lemma 4.4) storing, for
  each path node, the objects of the extents accumulated at that node with
  the node's path position as the y coordinate.  A query on a path class is
  the 3-sided query ``attribute in [a1, a2], position >= class position``
  (``O(log_B n + log2 B + t/B)`` I/Os).

Because every extent is copied into at most ``log2 c`` pieces (Lemma 4.6),
space is ``O((n/B) log2 c)`` blocks and an insert touches at most
``log2 c`` structures, giving the amortized insert bound
``O(log2 c (log_B n + (log_B n)^2/B))`` of Theorem 4.7.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.classes.collection import CollectionIndex
from repro.classes.decomposition import (
    HierarchyDecomposition,
    PathPiece,
    RakePiece,
    label_edges,
    rake_and_contract,
)
from repro.classes.hierarchy import ClassHierarchy, ClassObject
from repro.metablock.geometry import PlanarPoint
from repro.metablock.three_sided import ThreeSidedMetablockTree


class CombinedClassIndex:
    """Class index with query I/O independent of the hierarchy size (Theorem 4.7)."""

    def __init__(self, disk, hierarchy: ClassHierarchy, objects: Iterable[ClassObject] = ()) -> None:
        self.disk = disk
        self.hierarchy = hierarchy
        self.labeling = label_edges(hierarchy)
        self.decomposition: HierarchyDecomposition = rake_and_contract(hierarchy, self.labeling)

        # map class -> every (piece_id, position) its extent participates in
        self._extent_locations = self.decomposition.extent_locations
        self._query_plan = self.decomposition.query_plan

        # group the initial objects per piece, then bulk build each structure
        initial: Dict[int, List[Tuple[Any, Optional[int], ClassObject]]] = {
            piece.piece_id: [] for piece in self.decomposition.pieces
        }
        for obj in objects:
            for piece_id, position in self._extent_locations[obj.class_name]:
                initial[piece_id].append((obj.key, position, obj))

        self._structures: Dict[int, object] = {}
        for piece in self.decomposition.pieces:
            entries = initial[piece.piece_id]
            if isinstance(piece, RakePiece):
                collection = CollectionIndex(
                    disk,
                    (obj for _, _, obj in entries),
                    name=f"combined:rake:{piece.owner}",
                )
                self._structures[piece.piece_id] = collection
            else:
                assert isinstance(piece, PathPiece)
                points = [
                    PlanarPoint(key, position, payload=obj) for key, position, obj in entries
                ]
                self._structures[piece.piece_id] = ThreeSidedMetablockTree(disk, points)
        #: the pieces' summed size, kept by ``insert`` (a query's bound reads it)
        self._size = sum(len(structure) for structure in self._structures.values())

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, obj: ClassObject) -> None:
        """Insert an object into every piece holding its class's extent."""
        if obj.class_name not in self._extent_locations:
            raise KeyError(f"unknown class {obj.class_name!r}")
        for piece_id, position in self._extent_locations[obj.class_name]:
            structure = self._structures[piece_id]
            before = len(structure)
            try:
                if isinstance(structure, CollectionIndex):
                    structure.insert(obj)
                else:
                    structure.insert(PlanarPoint(obj.key, position, payload=obj))
            finally:
                # a piece that counted the object before raising keeps it counted
                self._size += len(structure) - before

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, class_name: str, low: Any, high: Any) -> List[ClassObject]:
        """Attribute range query against the full extent of ``class_name``."""
        return list(self.iter_query(class_name, low, high))

    def iter_query(self, class_name: str, low: Any, high: Any) -> Iterator[ClassObject]:
        """Stream the answer; rake pieces stream leaf by leaf, path pieces
        produce their 3-sided answer on demand, as the objects the points
        carry (no point is built)."""
        if class_name not in self._query_plan:
            raise KeyError(f"unknown class {class_name!r}")
        piece_id, position = self._query_plan[class_name]
        structure = self._structures[piece_id]
        if isinstance(structure, CollectionIndex):
            return structure.iter_range(low, high)
        return chain.from_iterable(structure.iter_3sided_blocks(low, high, position, payloads=True))

    # ------------------------------------------------------------------ #
    # introspection / accounting
    # ------------------------------------------------------------------ #
    def destroy(self) -> None:
        """Free every block of every piece structure (rebuilds use this)."""
        for structure in self._structures.values():
            structure.destroy()

    def block_count(self) -> int:
        total = 0
        for structure in self._structures.values():
            total += structure.block_count()
        return total

    def copies_per_object(self) -> int:
        """Worst-case number of structures storing one object (``<= log2 c + 1``)."""
        return self.decomposition.max_copies()

    def piece_summary(self) -> List[str]:
        """Human-readable description of the decomposition (for examples/docs)."""
        out = []
        for piece in self.decomposition.pieces:
            if isinstance(piece, RakePiece):
                out.append(
                    f"rake piece {piece.piece_id}: B+-tree for {piece.owner!r} "
                    f"covering {sorted(piece.classes)}"
                )
            else:
                out.append(
                    f"path piece {piece.piece_id}: 3-sided structure over path "
                    f"{piece.nodes}"
                )
        return out

    def __len__(self) -> int:
        return self._size

