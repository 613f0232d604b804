"""Page format 2, pinned by its bytes.

Every other codec test checks the encoder against its own decoder, so a
change to both that moves a column layout would pass them and then
misdecode the pages already on disk.  Here a fixed set of blocks — every
column tag (``- N q d V S I P T``, a ``T`` page nesting ``(float,
Interval)`` entries, ±inf and ``Fraction`` keys, an int beyond int64)
under each header tag (0 empty, 1 JSON, 2 one ``V`` value) — encodes to
bytes whose sha256 is written below.  A digest may change only with
``PAGE_FORMAT``.
"""

import hashlib
import math
from fractions import Fraction

import pytest

from repro.classes.hierarchy import ClassObject
from repro.interval import Interval
from repro.io import pagecodec
from repro.metablock.geometry import PlanarPoint
from tests.domain import same


def _intervals():
    return [Interval(1.5, 4.0, None, 11), Interval(2.0, 2.0, None, 12), Interval(-3.0, 7.25, None, 13)]


#: name -> (capacity, records, header); built fresh on each call, so no
#: test sees another's objects
def _blocks():
    ivs = _intervals()
    return {
        "empty": (4, [], {}),
        "nones": (4, [None, None, None], {"leaf": True, "next": None}),
        "ints": (4, [0, -1, 2**63 - 1, -(2**63)], {}),
        "floats": (4, [0.5, -0.0, math.inf, -math.inf], {"leaf": True, "next": 7}),
        "beyond_int64": (4, [2**63, 5], {}),
        "mixed": (6, [1, 2.0, "s", b"b", (1, [2]), {"k": None}], {}),
        "class_objects": (4, [ClassObject(1.0, "A", None, 21), ClassObject(2.5, "B", {"p": 1}, 22)], {}),
        "intervals": (4, ivs, {}),
        "intervals_int_payloads": (4, [Interval(1, 3, 7, 31), Interval(2, 9, -8, 32)], {}),
        "stab_points": (4, [PlanarPoint(iv.low, iv.high, iv, 40 + i) for i, iv in enumerate(ivs)],
                        {"is_leaf": True, "n_points": 3, "children": 0}),
        "points": (4, [PlanarPoint(0.0, 9.0, ivs[0], 51), PlanarPoint(1.0, 8.0, ivs[1], 52)], {}),
        "points_int_payloads": (4, [PlanarPoint(1, 2, 3, 61), PlanarPoint(4, 5, None, 62)], {}),
        "leaf_entries": (4, [(iv.low, iv) for iv in ivs], {"leaf": True, "next": None}),
        "internal_entries": (4, [(1.5, 3), (7.25, 9)], {"leaf": False}),
        "special_keys": (4, [(-math.inf, 1), (Fraction(1, 3), 2), (math.inf, 3)], {"leaf": True, "next": 2}),
        "pst_node": (4, [PlanarPoint(2.0, 5.0, None, 71)],
                     {"split_x": Fraction(1, 3), "left": 4, "right": None, "min_y": -math.inf}),
        "catalog_root": (4, [], {"entries": [{"name": "c", "kind": ("collection",)}], "format": 1}),
    }


GOLDEN = {
    "beyond_int64": "f4060d3885182b96a467eb200daa9b2c30e0c7e095032f24d3a512fc2ea7f420",
    "catalog_root": "b0133a7f23aac32c5e17c2e77a21b3cf1034218c6c90abf7d0ce566be9d4b8d4",
    "class_objects": "c8941577c20e46a7b0da48378920611e17e723a7082b2c0353cbef3dd77ce8ac",
    "empty": "0b4da4f92a7cf8942685a8fe17400f09ce97eb015e9528590e2e4972557e9967",
    "floats": "eb902de54a3e7b6497dc17fdc33b41858ebbcd8269d81763a35b2ad14a6bc830",
    "internal_entries": "f988b14c8f1c5616a3d266a897b0e0267fc71f058f697ec54d4ff515a130c774",
    "intervals": "7088f92e823510c536f177ca6ed0a75bc85db7ded853a393a1d2a64ed3ed720c",
    "intervals_int_payloads": "ab4e5b1de4be0012b9bde6a33941b495dc747e83e42f58578e699dcfebc8249b",
    "ints": "f3d384d9170da89a66e68ccb97e3244e1f10038875902d31f5ed3260c2bef017",
    "leaf_entries": "1d394ddbdff70d1d56898f8ac4a759c58052f87c198e513a14f82606f04a8538",
    "mixed": "ec469679ca6b77dd5108705181b7e3961aec01787b88f5735c2c79cde12ece9e",
    "nones": "cba9c6c0bf06e7d2b2d12393febf7007bdb1b3f835d8a6454bafa70a3178f338",
    "points": "91fa090a82a96e3f54f8568c07653124d0ce56b632c7ac9dede91a5cf6e2a30a",
    "points_int_payloads": "bb0b3eb4c81d42021fcd9ca2749808f7f4095e64faeccf01774af1d242fc39a4",
    "pst_node": "b92066802a49031ecacdd55718714ac33897ceafd40eedc082236a3ad48e0506",
    "special_keys": "05a198b36d663069351d79eb91800715b19af6895e6b4fbc97b1ff4c07e0d9c8",
    "stab_points": "64368f93d7b54afcd094574b12a20fac1bf6e67099497764a2523a55982b8156",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_page_bytes_are_pinned(name):
    capacity, records, header = _blocks()[name]
    raw = pagecodec.encode(capacity, records, header)
    assert hashlib.sha256(raw).hexdigest() == GOLDEN[name]
    got_capacity, count, got_header, column = pagecodec.decode(raw)
    assert (got_capacity, count) == (capacity, len(records))
    assert same(column.tolist(), records) and same(dict(got_header), header)


def test_the_set_covers_every_column_and_header_tag():
    kinds, headers = set(), set()
    for capacity, records, header in _blocks().values():
        raw = pagecodec.encode(capacity, records, header)
        kinds.add(chr(raw[9]))
        headers.add(raw[24])
    assert kinds == set("-NqdVSIPT")
    assert headers == {0, 1, 2}
    assert sorted(GOLDEN) == sorted(_blocks())
