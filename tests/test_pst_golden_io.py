"""Golden query-I/O table for the blocked priority search tree alone (Lemma 4.1).

Per ``B`` and per data set — seeded untied floats, and integers on a small
grid where x and y tie — the table pins ``block_count()`` after the build
and, for each query of a fixed list (3-sided windows, 2-sided quadrants, the
window that holds everything and one that holds nothing), the I/Os it reads
and the size of its answer, on a :class:`SimulatedDisk`.

Recorded at commit b931b2b, where a node's page was scanned record by record.
The column scan that replaced it reads exactly the same pages (a node's y
test is a prefix of its page, and the descent stops where the record scan's
``min_y`` test stopped), so no entry moved.
"""

import random

import pytest

from repro.io import SimulatedDisk
from repro.metablock.geometry import PlanarPoint
from repro.pst import ExternalPST


def _workload(B, tied):
    """Seeded points and queries: ``("3", x1, x2, y0)`` and ``("2", x_max, y_min)``."""
    rnd = random.Random(4100 + 2 * B + tied)
    top = 50 if tied else 1000.0
    draw = (lambda: rnd.randint(0, top)) if tied else (lambda: rnd.uniform(0, top))
    points = [PlanarPoint(draw(), draw(), payload=i) for i in range(2000)]
    queries = []
    for _ in range(8):
        x1, y0 = draw(), draw()
        queries.append(("3", x1, x1 + rnd.choice([0, top / 20, top / 4]), y0))
    queries += [("2", draw(), draw()) for _ in range(4)]
    queries += [("3", -1, top + 1, -1), ("3", top / 2, top / 2, -1), ("3", 0, top, top + 1)]
    return points, queries


def measure(B, tied):
    points, queries = _workload(B, tied)
    disk = SimulatedDisk(B)
    pst = ExternalPST(disk, points)
    row = {"blocks": pst.block_count(), "queries": []}
    for kind, *args in queries:
        with disk.measure() as m:
            found = pst.query_3sided(*args) if kind == "3" else pst.query_2sided(*args)
        row["queries"].append((m.ios, len(found)))
    return row


#: (B, tied) -> blocks after the build, and per query (I/Os, answer size)
GOLDEN = {
    (4, False): {"blocks": 580, "queries": [
        (22, 36), (45, 93), (9, 11), (82, 257), (9, 0), (9, 0), (7, 0), (8, 0),
        (309, 787), (326, 796), (237, 607), (30, 81), (580, 2000), (9, 0), (1, 0)]},
    (4, True): {"blocks": 517, "queries": [
        (14, 32), (15, 22), (18, 25), (13, 33), (73, 248), (23, 31), (13, 13), (10, 14),
        (81, 297), (182, 667), (47, 122), (182, 640), (517, 2000), (15, 43), (1, 0)]},
    (8, False): {"blocks": 300, "queries": [
        (8, 0), (8, 0), (11, 28), (32, 141), (14, 30), (7, 0), (7, 14), (4, 0),
        (18, 86), (145, 770), (100, 517), (33, 142), (300, 2000), (8, 0), (1, 0)]},
    (8, True): {"blocks": 268, "queries": [
        (13, 70), (64, 428), (7, 13), (58, 410), (11, 48), (9, 24), (18, 92), (20, 73),
        (21, 84), (31, 173), (78, 468), (89, 619), (268, 2000), (9, 31), (1, 0)]},
    (16, False): {"blocks": 150, "queries": [
        (9, 53), (11, 64), (6, 14), (7, 13), (39, 324), (14, 87), (8, 0), (7, 15),
        (67, 676), (62, 669), (112, 1188), (89, 937), (150, 2000), (7, 0), (1, 0)]},
    (16, True): {"blocks": 145, "queries": [
        (36, 392), (36, 364), (27, 262), (4, 4), (10, 30), (7, 35), (39, 459), (14, 106),
        (27, 282), (86, 1113), (106, 1317), (4, 27), (145, 2000), (9, 44), (1, 0)]},
}


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("B", [4, 8, 16])
def test_query_ios_match_the_recorded_table(B, tied):
    assert measure(B, tied) == GOLDEN[B, tied]
