"""A dynamic metablock's pending update points are the records of its control page.

The augmented metablock tree (and the 3-sided tree, which shares its
``DynamicMetablock``) keeps the fewer than ``B`` points inserted into a
metablock since its last level I reorganisation.  They live in the control
page the query walk reads at every visited metablock, not in a page of their
own.  Both trees, both backends, ``B`` in {2, 4, 16}, over a seeded insert
run that reaches level I and level II reorganisations and a leaf split:

* after every insert, each metablock's control page (read with ``peek``)
  holds exactly its pending points, by uid and in order;
* every block in use belongs to some metablock's control page, its
  organisations or its TD structure, and ``organisation_block_count``
  counts exactly those;
* a query reads no page outside the control pages and organisations of the
  metablocks whose control page it read.

And, over a seeded bulk prefix and inserts that fill TD structures (``B`` in
{2, 3, 4, 8, 16}), a query reads the TD structure of a metablock only where
a TS structure or the 3-sided ``children_pst`` stood in for its children.
"""

import random
from collections import Counter

import pytest

from repro.io import FileDisk, SimulatedDisk
from repro.metablock import AugmentedMetablockTree, ThreeSidedMetablockTree
from repro.metablock.corner import CornerStructure
from repro.metablock.geometry import PlanarPoint


def _structure_blocks(structure):
    """The block ids of a corner structure or a blocked PST."""
    if structure is None:
        return []
    if isinstance(structure, CornerStructure):
        ids = [structure._index_block_id] if structure._index_block_id is not None else []
        if structure._vertical is not None:
            ids += structure._vertical.block_ids
        for _, blocking in structure._explicit:
            ids += blocking.block_ids
        return ids
    return list(structure._block_ids)


def owned_blocks(mb):
    """Every block id a metablock holds: its control page, its organisations
    (blockings, corner structure or PST, TS, the 3-sided children PST) and
    its TD structure."""
    ids = [mb.control_block_id]
    for name in ("vertical", "horizontal", "ts", "ts_right"):
        blocking = getattr(mb, name, None)
        if blocking is not None:
            ids += blocking.block_ids
    for name in ("corner", "td_corner", "children_pst"):
        ids += _structure_blocks(getattr(mb, name, None))
    if mb.td_update_block_id is not None:
        ids.append(mb.td_update_block_id)
    return ids


def _workload(B, diagonal, seed):
    """Bulk points (a root over two leaves), then inserts that fill the root
    and split a leaf, then a uniform tail; and a list of queries."""
    rnd = random.Random(seed)
    cap = B * B

    def point(x, height):
        return PlanarPoint(x, x + height if diagonal else height, payload=rnd.random())

    bulk = [point(rnd.uniform(0, 1000), rnd.uniform(0, 60)) for _ in range(3 * cap)]
    inserts = []
    # low points inside one leaf's x range: they sink to it and split it
    for i in range(2 * cap + B):
        inserts.append(point(300 + 0.01 * i / cap, rnd.uniform(0, 0.005)))
    # points above everything: they stay at the root until it pushes down
    for _ in range(cap + B):
        inserts.append(PlanarPoint(rnd.uniform(0, 1000), 1200 + rnd.uniform(0, 60)))
    inserts += [point(rnd.uniform(0, 1000), rnd.uniform(0, 60)) for _ in range(2 * B + 1)]
    rnd.shuffle(inserts)
    if diagonal:
        queries = [rnd.uniform(-10, 1070) for _ in range(4)] + [300.001]
    else:
        queries = []
        for _ in range(4):
            x1 = rnd.uniform(-10, 1000)
            queries.append((x1, x1 + rnd.uniform(0, 400), rnd.uniform(0, 70)))
        queries.append((299.0, 301.0, 0.001))
    return bulk, inserts, queries


def _counting(tree_cls, calls):
    class Counting(tree_cls):
        def _level_one_reorganisation(self, mb):
            calls["level_one"] += 1
            super()._level_one_reorganisation(mb)

        def _level_two_reorganisation(self, mb):
            calls["level_two"] += 1
            super()._level_two_reorganisation(mb)

        def _split_leaf(self, leaf):
            calls["leaf_split"] += leaf.parent is not None
            super()._split_leaf(leaf)

    return Counting


class _ReadLog:
    """The block ids ``disk`` reads while it is installed."""

    def __init__(self, disk):
        self.disk, self.ids = disk, []

    def __enter__(self):
        read, read_run = self.disk.read, self.disk.read_run

        def logged_read(block_id):
            self.ids.append(block_id)
            return read(block_id)

        def logged_run(block_ids):
            self.ids.extend(block_ids)
            return read_run(block_ids)

        self.disk.read, self.disk.read_run = logged_read, logged_run
        return self

    def __exit__(self, *exc):
        del self.disk.read, self.disk.read_run


def _assert_pending_on_control_pages(tree):
    for mb in tree.iter_metablocks():
        stored = tree.disk.peek(mb.control_block_id).records()
        assert [p.uid for p in stored] == [p.uid for p in mb.update_points]
        assert len(stored) < tree.B


def _assert_every_block_owned(tree):
    owned = [bid for mb in tree.iter_metablocks() for bid in owned_blocks(mb)]
    assert len(owned) == len(set(owned)) == tree.block_count()
    assert set(owned) == set(tree.disk.block_ids())
    for mb in tree.iter_metablocks():
        assert len(owned_blocks(mb)) == mb.organisation_block_count()


def _assert_queries_read_only_visited_metablocks(tree, queries):
    by_control = {mb.control_block_id: mb for mb in tree.iter_metablocks()}
    for q in queries:
        with _ReadLog(tree.disk) as log:
            if isinstance(tree, ThreeSidedMetablockTree):
                tree.query_3sided(*q)
            else:
                tree.diagonal_query(q)
        visited = [by_control[bid] for bid in log.ids if bid in by_control]
        allowed = {bid for mb in visited for bid in owned_blocks(mb)}
        assert set(log.ids) <= allowed


@pytest.fixture(params=["memory", "file"])
def make_disk(request, tmp_path):
    disks = []

    def make(B):
        if request.param == "memory":
            disk = SimulatedDisk(B)
        else:
            disk = FileDisk(str(tmp_path / f"pages-{B}.bin"), block_size=B)
        disks.append(disk)
        return disk

    yield make
    for disk in disks:
        if isinstance(disk, FileDisk):
            disk.close()


@pytest.mark.parametrize("B", [2, 4, 16])
@pytest.mark.parametrize("tree_cls", [AugmentedMetablockTree, ThreeSidedMetablockTree])
def test_pending_points_ride_in_the_control_page(tree_cls, B, make_disk):
    bulk, inserts, queries = _workload(B, tree_cls is AugmentedMetablockTree, seed=41 + B)
    calls = Counter()
    tree = _counting(tree_cls, calls)(make_disk(B), bulk)
    _assert_pending_on_control_pages(tree)
    for i, point in enumerate(inserts):
        tree.insert(point)
        _assert_pending_on_control_pages(tree)
        if i % B == 0:
            _assert_queries_read_only_visited_metablocks(tree, queries)
    assert any(mb.update_points for mb in tree.iter_metablocks())
    _assert_every_block_owned(tree)
    _assert_queries_read_only_visited_metablocks(tree, queries)
    tree.check_invariants()
    # the run is only worth checking while it reaches every write path
    assert calls["level_one"] >= 1
    assert calls["level_two"] >= 1
    assert calls["leaf_split"] >= 1


def _td_pages(mb):
    """The pages of ``mb``'s TD structure: its update block and the blocks of
    its corner structure (augmented tree) or PST (3-sided tree)."""
    ids = _structure_blocks(mb.td_corner)
    if mb.td_update_block_id is not None:
        ids.append(mb.td_update_block_id)
    return ids


def _shortcut_pages(mb):
    """The pages whose read shows that the walk let a structure stand in for
    ``mb``'s children: their TS structures, and the 3-sided ``children_pst``."""
    ids = _structure_blocks(getattr(mb, "children_pst", None))
    for child in mb.children:
        for name in ("ts", "ts_right"):
            blocking = getattr(child, name, None)
            if blocking is not None:
                ids += blocking.block_ids
    return ids


def _reached_children(mb, q, diagonal):
    """The children of ``mb`` whose subtree may hold a point of query ``q``."""
    x1, x2, y0 = (float("-inf"), q, q) if diagonal else q
    return [c for c in mb.children if c.subtree_min_x is not None and c.subtree_min_x <= x2
            and c.subtree_max_x >= x1 and c.subtree_max_y >= y0]


def _td_workload(B, diagonal, seed):
    """Seeded bulk points, inserts that descend past the root into TD
    structures, and queries."""
    rnd = random.Random(seed)
    cap = B * B

    def point():
        x = rnd.uniform(0, 1000)
        return PlanarPoint(x, x + rnd.uniform(0, 500) if diagonal else rnd.uniform(0, 60),
                           payload=rnd.random())

    bulk = [point() for _ in range(8 * cap + 3 * B)]
    inserts = [point() for _ in range(3 * cap + B)]
    if diagonal:
        queries = [rnd.uniform(-10, 1070) for _ in range(12)]
    else:
        queries = []
        for _ in range(12):
            x1 = rnd.uniform(-10, 1000)
            queries.append((x1, x1 + rnd.uniform(0, 1000), rnd.uniform(0, 60)))
    return bulk, inserts, queries


@pytest.mark.parametrize("B", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("tree_cls", [AugmentedMetablockTree, ThreeSidedMetablockTree])
def test_td_is_read_only_where_a_shortcut_stood_in_for_the_children(tree_cls, B, make_disk):
    """TD(M) holds what went under M's children since their TS structures
    (and the 3-sided ``children_pst``) were built, so a query reads it only
    where one of those stood in for a child it did not enter: it read such
    a page, or skipped a child that may hold a point of the query (a TS
    whose top lies below the query reads no page).  Where the walk enters
    every child it reaches their points there."""
    diagonal = tree_cls is AugmentedMetablockTree
    bulk, inserts, queries = _td_workload(B, diagonal, seed=4400 + B)
    tree = tree_cls(make_disk(B), bulk)
    stored = list(bulk)
    td_reads = checked = 0
    for i, point in enumerate(inserts):
        tree.insert(point)
        stored.append(point)
        if tree.td_holders == 0 or i % B:
            continue
        checked += 1
        owner = {bid: mb for mb in tree.iter_metablocks() for bid in _td_pages(mb)}
        for q in queries:
            with _ReadLog(tree.disk) as log:
                answer = tree.query_3sided(*q) if not diagonal else tree.diagonal_query(q)
            if diagonal:
                expected = [p.uid for p in stored if p.x <= q and p.y >= q]
            else:
                expected = [p.uid for p in stored if q[0] <= p.x <= q[1] and p.y >= q[2]]
            assert sorted(p.uid for p in answer) == sorted(expected)
            read = set(log.ids)
            for mb in {owner[bid] for bid in read if bid in owner}:
                td_reads += 1
                assert read & set(_shortcut_pages(mb)) or any(
                    c.control_block_id not in read for c in _reached_children(mb, q, diagonal)
                ), "TD read where every child was entered"
    assert tree.td_holders > 0
    assert checked and td_reads, "the run never read a TD structure"
