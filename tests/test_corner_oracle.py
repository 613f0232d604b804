"""The corner structure chooses C* in one sweep; this pins it to the four-set loop.

Step 3 of Lemma 3.1 used to collect ``S_i``, ``Δ+_i`` and both halves of
``Δ−_i`` over all of ``S`` for every candidate corner; it now counts them
on one x-sorted copy (two bisections and one pass over a prefix).  The
property below keeps the old loop as the oracle: on tie-heavy point sets
of up to ``2B^2`` points (coordinates drawn from a few values, so equal
``(x, y)`` pairs recur under distinct uids, and x-values recur across
vertical block boundaries) both choose the same explicit corners, and every
``FileDisk`` page of the structure — vertical blocks, explicit answers,
index block — is the same page, byte for byte, whichever built it.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.io import FileDisk
from repro.metablock import CornerStructure
from repro.metablock import blocking as blk
from repro.metablock.geometry import PlanarPoint


def _four_set_build(self):
    """The construction the sweep replaced, verbatim but for ``_answer``."""
    points = self._points
    if not points:
        return
    self._vertical = blk.build_vertical(self.disk, points)
    bounds = self._vertical.bounds
    rightmost_left_boundary = bounds[-1][0]
    candidates = sorted({b[1] for b in bounds[:-1]}, reverse=True)
    candidates = [c for c in candidates if c < rightmost_left_boundary]

    explicit_corners = [rightmost_left_boundary]
    for c in candidates:
        cj = explicit_corners[-1]
        s_i = [p for p in points if p.x <= c and p.y >= c]
        delta_plus = [p for p in points if p.x <= c and c <= p.y < cj]
        delta_minus_1 = [p for p in points if c < p.x <= cj and p.y >= cj]
        delta_minus_2 = [p for p in points if c < p.x <= cj and p.y < cj]
        if len(delta_minus_1) + len(delta_minus_2) + len(delta_plus) > len(s_i):
            explicit_corners.append(c)

    for corner in explicit_corners:
        answer = [p for p in points if p.x <= corner and p.y >= corner]
        if answer:
            blocking = blk.build_horizontal(self.disk, answer)
        else:
            blocking = blk.Blocking([], [])
        self._explicit.append((corner, blocking))

    index_records = [corner for corner, _ in self._explicit]
    index_block = self.disk.allocate(
        records=index_records,
        capacity=max(self.disk.block_size, 2 * len(index_records) + 2),
    )
    self._index_block_id = index_block.block_id


@contextmanager
def _oracle(use):
    if not use:
        yield
        return
    with mock.patch.object(CornerStructure, "_build", _four_set_build):
        yield


def _build(B, points, use_oracle):
    """The explicit corners and every raw page of a corner structure."""
    disk = FileDisk(block_size=B)
    with _oracle(use_oracle):
        cs = CornerStructure(disk, points)
    block_ids = list(cs._vertical.block_ids)
    for _, blocking in cs._explicit:
        block_ids.extend(blocking.block_ids)
    block_ids.append(cs._index_block_id)
    out = [corner for corner, _ in cs._explicit], [disk._extent(bid)[2] for bid in block_ids]
    disk.close()
    return out


@st.composite
def tied_points(draw):
    """``B`` and up to ``2B^2`` points on a small grid, many of them tied."""
    B = draw(st.sampled_from([2, 3, 4, 8, 16]))
    values = draw(st.integers(2, 3 * B))
    coordinate = st.integers(0, values - 1).map(float)
    pairs = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=2 * B * B))
    # a point set of the diagonal corner problem lies at y >= x; draw some
    # sets that way and some across it (a metablock's corner may see both)
    if draw(st.booleans()):
        pairs = [(min(x, y), max(x, y)) for x, y in pairs]
    return B, [PlanarPoint(x, y, payload=i) for i, (x, y) in enumerate(pairs)]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(tied_points())
def test_the_sweep_chooses_the_four_set_loops_corners_and_pages_on_filedisk(case):
    B, points = case
    corners, pages = _build(B, points, use_oracle=False)
    assert (corners, pages) == _build(B, points, use_oracle=True)
