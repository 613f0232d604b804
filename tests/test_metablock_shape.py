"""The shape of a bulk-built metablock tree: full metablocks, ``O(n/B^2)`` of them.

Theorem 3.2's ``O(n/B)`` space and its "report a whole metablock in ``B``
I/Os" amortisation both count metablocks of ``B^2`` points.  A build that
cut every remainder into ``B`` groups made ``B`` leaves of ``|rest|/B``
points whenever ``|rest| <= B^3`` — at ``B = 16``, leaves of a dozen points,
each paying a control block, a corner structure and a TS blocking.  The
gate: after a bulk build of each metablock tree, every metablock but the
root holds at least ``B^2/2`` points, except at most one child per parent
(a lone child, or the remainder of the last x-group).
"""

import random

import pytest

from repro.io import FileDisk, SimulatedDisk
from repro.metablock import AugmentedMetablockTree, StaticMetablockTree, ThreeSidedMetablockTree
from repro.metablock.geometry import PlanarPoint

TREES = [StaticMetablockTree, AugmentedMetablockTree, ThreeSidedMetablockTree]


def _points(n, seed):
    rnd = random.Random(seed)
    lows = [rnd.uniform(0, 1000) for _ in range(n)]
    return [PlanarPoint(lo, lo + rnd.expovariate(1 / 20), payload=i) for i, lo in enumerate(lows)]


def _sizes(n, B):
    return sorted({B * B + 1, 2 * B * B + 1, 6 * B * B + 50, B ** 3 + 1, n})


def assert_full_metablocks(tree):
    half = tree.capacity / 2
    for mb in tree.iter_metablocks():
        thin = [len(child.points) for child in mb.children if len(child.points) < half]
        assert len(thin) <= 1, (len(mb.children), thin)


@pytest.mark.parametrize("B", [4, 8, 16])
@pytest.mark.parametrize("cls", TREES, ids=lambda c: c.__name__)
def test_every_metablock_below_the_root_is_at_least_half_full(cls, B):
    for n in _sizes(10_000, B):
        tree = cls(SimulatedDisk(B), _points(n, seed=n + B))
        assert tree.size == n
        assert_full_metablocks(tree)
        # O(n/B^2) metablocks: each but one per parent holds B^2/2 points or more
        metablocks = sum(1 for _ in tree.iter_metablocks())
        parents = sum(1 for mb in tree.iter_metablocks() if mb.children)
        assert metablocks <= 1 + parents + n / (B * B / 2)


@pytest.mark.parametrize("cls", TREES, ids=lambda c: c.__name__)
def test_the_shape_holds_on_filedisk(cls):
    B = 8
    disk = FileDisk(block_size=B)
    try:
        for n in _sizes(3_000, B):
            assert_full_metablocks(cls(disk, _points(n, seed=n)))
    finally:
        disk.close()
