"""One Hypothesis strategy over the closed value domain (``repro.values``).

``values()`` draws any domain value — ``None``, bools, ints of any size,
floats (both zeros, infinities where a key may hold one), str, bytes,
``Fraction``, tuples, lists, str-keyed dicts — with the engine's records
nested in them and carrying such values as payloads.  ``values(JSON)``
draws from the part a JSON row carries (what the wire's frames and rows
exchange).  :func:`same` is equality type for type: records field by
field (uid and payload too), floats bit for bit.
"""

import struct

from hypothesis import strategies as st

from repro.classes.hierarchy import ClassObject
from repro.constraints.terms import Constraint, GeneralizedTuple, Variable
from repro.interval import Interval
from repro.metablock.geometry import PlanarPoint

finite = st.floats(allow_nan=False, allow_infinity=False)
short_text = st.text(max_size=4)
uids = st.integers(min_value=0, max_value=2**40)

#: the leaves a JSON row carries exactly
JSON = st.one_of(st.none(), st.booleans(), st.integers(), finite, short_text)
#: every leaf: beyond int64, both zeros, bytes, rationals
LEAVES = st.one_of(
    JSON,
    st.integers(min_value=2**63, max_value=2**90),
    st.integers(min_value=-(2**90), max_value=-(2**63) - 1),
    st.sampled_from([0.0, -0.0]),
    st.binary(max_size=4),
    st.fractions(max_denominator=100),
)

#: endpoints, keys and coordinates: any order-comparable non-NaN value
numbers = st.one_of(st.integers(), st.floats(allow_nan=False), st.fractions(max_denominator=100))
keys = st.one_of(numbers, short_text)
endpoint_pairs = st.one_of(
    st.tuples(numbers, numbers).map(sorted), st.tuples(short_text, short_text).map(sorted)
)
constraints = st.builds(
    Constraint,
    st.builds(Variable, st.sampled_from("xyz")),
    st.sampled_from(["<", "<=", "=", ">=", ">"]),
    st.one_of(numbers, st.builds(Variable, st.sampled_from("xyz"))),
)


def records(payloads):
    """Each engine record type, carrying ``payloads``."""
    return st.one_of(
        st.builds(lambda ends, p, uid: Interval(ends[0], ends[1], p, uid), endpoint_pairs, payloads, uids),
        st.builds(PlanarPoint, keys, keys, payloads, uids),
        st.builds(ClassObject, keys, short_text, payloads, uids),
        st.builds(GeneralizedTuple, st.lists(constraints, max_size=3), payloads),
    )


def values(leaves=LEAVES, with_records=True):
    """Any value built from ``leaves`` (records nested, unless not asked)."""

    def grow(inner):
        containers = st.one_of(
            st.lists(inner, max_size=3),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(short_text, inner, max_size=3),
        )
        return st.one_of(containers, records(inner)) if with_records else containers

    return st.recursive(leaves, grow, max_leaves=8)


_F64 = struct.Struct("<d")


def same(a, b):
    """``a == b`` type for type: records field by field, floats bit for bit."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return _F64.pack(a) == _F64.pack(b)
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if hasattr(a, "__dict__"):  # a record: its fields, not the caches
        return same(_fields(a), _fields(b))
    return a == b


def _fields(record):
    return {k: v for k, v in vars(record).items() if not k.startswith("_")}
