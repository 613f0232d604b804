"""The metablock tree family (the paper's primary contribution).

* :class:`~repro.metablock.static_tree.StaticMetablockTree` — Section 3.1 /
  Theorem 3.2: optimal static structure for diagonal-corner queries
  (``O(n/B)`` blocks, ``O(log_B n + t/B)`` query I/Os).
* :class:`~repro.metablock.dynamic_tree.AugmentedMetablockTree` —
  Section 3.2 / Theorem 3.7: semi-dynamic (insert-only) version with
  ``O(log_B n + (log_B n)^2/B)`` amortized insert I/Os.
* :class:`~repro.metablock.three_sided.ThreeSidedMetablockTree` —
  Lemmas 4.3–4.4: the variant that answers 3-sided queries, used by the
  class-indexing algorithm of Section 4.  It *is* the augmented tree — a
  subclass that overrides only what Lemma 4.3's five modifications change
  (the per-metablock structure, the children structure, the second TS).

One tree, then: build, insert and every reorganisation exist once, in
``static_tree`` / ``dynamic_tree``.  Answers are exact under tied
coordinates too, which the paper's general-position argument leaves out.

* :mod:`~repro.metablock.corner` — the corner structure of Lemma 3.1.
* :mod:`~repro.metablock.geometry` — points and the query taxonomy of Fig. 1.
"""

from repro.metablock.geometry import (
    DiagonalCornerQuery,
    PlanarPoint,
    ThreeSidedQuery,
    TwoSidedQuery,
)
from repro.metablock.corner import CornerStructure
from repro.metablock.static_tree import StaticMetablockTree
from repro.metablock.dynamic_tree import AugmentedMetablockTree
from repro.metablock.three_sided import ThreeSidedMetablockTree

__all__ = [
    "AugmentedMetablockTree",
    "CornerStructure",
    "DiagonalCornerQuery",
    "PlanarPoint",
    "StaticMetablockTree",
    "ThreeSidedMetablockTree",
    "ThreeSidedQuery",
    "TwoSidedQuery",
]
