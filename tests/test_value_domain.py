"""The closed value domain (``repro.values``): what a record may hold.

NaN, a set and an object without ``__eq__`` are refused where a record is
built — the engine's record types check their fields in ``__post_init__``
and the engine checks the key kind's bare pairs as they enter — so every
kind refuses alike on both backends, and an index never holds a value its
pages could not give back exactly.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from repro import ClassRange, EndpointRange, Engine, FileDisk, Interval, SimulatedDisk, Stab
from repro.classes.hierarchy import ClassHierarchy, ClassObject
from repro.constraints.relation import GeneralizedRelation
from repro.constraints.terms import Constraint, GeneralizedTuple, Variable
from repro.engine.core import KINDS
from repro.errors import DomainError
from repro.metablock.geometry import PlanarPoint, ThreeSidedQuery
from repro.values import check_value
from tests.test_rebuilding import VARIANTS, _make

NAN = float("nan")


class Opaque:
    """An object without ``__eq__``: no copy of it equals it."""


def _backend(name, block_size):
    return SimulatedDisk(block_size) if name == "memory" else FileDisk(block_size=block_size)


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_a_nan_endpoint_is_refused_and_no_other_answer_moves(backend):
    """A NaN endpoint used to be stored (``high < low`` is false for NaN).
    Written first into a collection that then took 200 inserts at B = 4, it
    made 19 of 200 stabs lose a valid record, on either backend."""
    rnd = random.Random(1)
    intervals = [Interval(lo, lo + rnd.uniform(0, 20)) for lo in (rnd.uniform(0, 100) for _ in range(200))]
    engine = Engine(_backend(backend, 4))
    engine.create_collection("c", [])
    with pytest.raises(DomainError, match="NaN"):
        engine.insert("c", Interval(NAN, 50.0))
    for iv in intervals:
        engine.insert("c", iv)
    for x in (rnd.uniform(0, 100) for _ in range(200)):
        for q, hit in ((Stab(x), lambda iv: iv.low <= x <= iv.high),
                       (EndpointRange("low", x, x + 10), lambda iv: x <= iv.low <= x + 10),
                       (EndpointRange("high", x, x + 10), lambda iv: x <= iv.high <= x + 10)):
            got = sorted(r.uid for r in engine.query("c", q).all())
            assert got == sorted(iv.uid for iv in intervals if hit(iv)), q
    engine.close()


X = Variable("x")
#: record builders by field: each must refuse what is outside the domain
BUILDERS = {
    "interval endpoint": lambda bad: Interval(bad, 1.0),
    "interval payload": lambda bad: Interval(0.0, 1.0, bad),
    "point coordinate": lambda bad: PlanarPoint(0.0, bad),
    "point payload": lambda bad: PlanarPoint(0.0, 1.0, bad),
    "class key": lambda bad: ClassObject(bad, "A"),
    "class payload": lambda bad: ClassObject(1.0, "A", bad),
    "constraint constant": lambda bad: Constraint(X, "<=", bad),
    "tuple name": lambda bad: GeneralizedTuple([Constraint(X, "<=", 1)], name=bad),
    "variable name": lambda bad: Variable(bad),
    "nested payload": lambda bad: Interval(0.0, 1.0, {"k": [(1, bad)]}),
}
BAD = {"nan": NAN, "complex": 1j, "set": {1, 2}, "object": Opaque(), "int-keyed dict": {1: "a"}}
#: a constraint's constant that is no number at all stays a TypeError
FIELD_CASES = [(f, b) for f in sorted(BUILDERS) for b in sorted(BAD)
               if f != "constraint constant" or b in ("nan", "complex")]


@pytest.mark.parametrize("field,bad", FIELD_CASES)
def test_every_record_field_refuses_what_is_outside_the_domain(field, bad):
    with pytest.raises(DomainError):
        BUILDERS[field](BAD[bad])


def test_what_the_domain_holds():
    for value in (None, True, -(2**100), 1.5, -0.0, "s", b"b", Fraction(1, 3),
                  (1, [2.0, {"k": None}]), Interval(0, 1)):
        check_value(value)
    for key in (math.inf, -math.inf, (1, math.inf)):
        check_value(key, finite=False)        # endpoints, keys, coordinates may be infinite
        with pytest.raises(DomainError, match="finite"):
            check_value(key)                  # a payload's floats may not


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_refuses_alike_and_stays_untouched(kind, backend):
    engine = Engine(_backend(backend, 4))
    if kind == "key":
        engine.create("ix", "key", [(float(i), i) for i in range(20)])
        attempts = [lambda bad: engine.insert("ix", bad, 1), lambda bad: engine.insert("ix", 1.0, bad),
                    lambda bad: engine.update("ix", (1.0, 1), (bad, 1)),
                    lambda bad: engine.bulk_load("ix", [(2.5, 0), (bad, 1)]),
                    lambda bad: engine.create("other", "key", [(bad, 1)])]
    else:
        engine.create("ix", kind, [_make(kind, i, i + 3, i) for i in range(20)], **VARIANTS[kind][0])
        attempts = [lambda bad: engine.insert("ix", _make(kind, bad, 2, 0)),
                    lambda bad: engine.insert("ix", _make(kind, 1, 2, bad))]
    read = KINDS[kind][1]
    before = [repr(r) for r in read(engine["ix"])]
    for attempt in attempts:
        for bad in (NAN, {1, 2}, Opaque()):
            if attempt is attempts[0] and kind != "key" and bad is not NAN:
                continue  # a set or an object has no order to be an endpoint by
            with pytest.raises(DomainError):
                attempt(bad)
    assert [repr(r) for r in read(engine["ix"])] == before
    engine.close()


#: coordinates and keys from the whole domain: infinities, rationals, ints, floats
COORDS = [-math.inf, Fraction(-7, 3), -1, 0.5, Fraction(1, 3), 2, math.inf]
#: a hierarchy whose class names are tuples (the catalog root must keep them tuples)
TUPLE_HIERARCHY = ClassHierarchy.from_edges([
    [("animal",), None], [("animal", "cat"), ("animal",)], [("animal", "dog"), ("animal",)],
    [("animal", "cat", "lion"), ("animal", "cat")], [("plant",), None],
])
TUPLE_CLASSES = TUPLE_HIERARCHY.classes()


def _answers(engine, points, objects):
    """Each query's answer next to the oracle's, for the point and class indexes."""
    corners = COORDS[::2]
    ranges = [(lo, hi) for lo, hi in itertools.product(corners, corners) if lo <= hi]
    out = []
    for (lo, hi), y in itertools.product(ranges, COORDS):
        q = ThreeSidedQuery(lo, hi, y)
        out.append((engine.query("p", q).all(), [p for p in points if q.matches(p)]))
    for (lo, hi), cls, name in itertools.product(ranges, TUPLE_CLASSES, "ks"):
        q = ClassRange(cls, lo, hi)
        oracle = dataclasses.replace(q, hierarchy=TUPLE_HIERARCHY)
        out.append((engine.query(name, q).all(), [o for o in objects if oracle.matches(o)]))
    return [(sorted(map(repr, got)), sorted(map(repr, want))) for got, want in out]


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_infinite_and_rational_coordinates_and_tuple_class_names_survive_a_checkpoint(backend, tmp_path):
    """Coordinates and keys reach page headers (the priority search tree's
    split keys) and class names the catalog root: a ``FileDisk`` stores
    every domain value there exactly, so the ``point`` kind and both class
    schemes answer like the oracle on either backend, and after a reopen."""
    path = str(tmp_path / "db.pages")
    engine = Engine(SimulatedDisk(4)) if backend == "memory" else Engine.open_or_create(path, block_size=4)
    points = [PlanarPoint(x, y, payload=i) for i, (x, y) in enumerate(itertools.product(COORDS, COORDS))]
    objects = [ClassObject(key, TUPLE_CLASSES[i % len(TUPLE_CLASSES)], payload=i)
               for i, key in enumerate(COORDS * 5)]
    engine.create_point_index("p", points[:30])
    engine.create_class_index("k", TUPLE_HIERARCHY, objects[:20], method="combined")
    engine.create_class_index("s", TUPLE_HIERARCHY, objects[:20], method="simple")
    for p in points[30:]:
        engine.insert("p", p)
    for o in objects[20:]:
        engine.insert("k", o)
        engine.insert("s", o)
    answers = _answers(engine, points, objects)
    assert all(got == want for got, want in answers) and any(want for _got, want in answers)
    engine.close()
    if backend == "file":
        with Engine.open(path) as reopened:
            assert reopened["k"].hierarchy.classes() == TUPLE_CLASSES
            assert _answers(reopened, points, objects) == answers


def test_index_parameters_outside_the_domain_are_refused_before_the_log():
    """Parameters go into the WAL's ``create`` and the checkpoint's catalog
    root: one the catalog could not store is refused before either."""
    engine = Engine(block_size=4)
    relation = GeneralizedRelation(["x"], [], name=Opaque())
    with pytest.raises(DomainError):
        engine.create_constraint_index("r", relation, "x")
    assert "r" not in engine
