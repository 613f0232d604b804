"""The closed value domain: what a record's fields and payload may hold.

* **Values** — ``None``, ``bool``, ``int`` (exact at any size), ``float``,
  ``str``, ``bytes``, :class:`~fractions.Fraction` (the constraint kind's
  rationals), and ``tuple`` / ``list`` / ``str``-keyed ``dict`` of values.
  NaN is never a value; a payload's floats are finite besides (endpoints,
  keys and coordinates may be infinite: an unbounded constraint projects
  onto one).
* **Records** — the engine's own record types, registered with
  :func:`domain_record` in :data:`RECORDS`, the one field table; each
  validated its fields when it was built, so a record is a value wherever
  it is nested.

Anything else is refused where the record holding it is constructed, with
:class:`~repro.errors.DomainError` — on every backend and for every kind
alike.  Inside the domain the page codec (:mod:`repro.io.pagecodec`) is
lossless and canonical by construction: ``decode(encode(v)) == v`` type for
type, and identical values give identical bytes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, Dict, Tuple, TypeVar

from repro.errors import DomainError

#: the one field table of the engine's record types: type -> (its tag in a
#: page's ``V`` column, its fields in encoding order)
RECORDS: Dict[type, Tuple[bytes, Tuple[str, ...]]] = {}

_ATOMS = frozenset((type(None), bool, int, str, bytes, Fraction))

T = TypeVar("T", bound=type)


def domain_record(tag: bytes, fields: Tuple[str, ...]) -> Callable[[T], T]:
    """Class decorator: admit the class's instances as values (its own
    construction checks its fields), encoded as ``tag`` and ``fields``."""

    def register(cls: T) -> T:
        RECORDS[cls] = (tag, fields)
        return cls

    return register


def check_value(value: Any, what: str = "a payload", *, finite: bool = True) -> None:
    """Raise :class:`~repro.errors.DomainError` unless ``value`` is in the
    domain; ``finite=False`` admits infinite floats (endpoints, keys,
    coordinates)."""
    kind = type(value)
    if kind in _ATOMS or kind in RECORDS:
        return
    if kind is float:
        if value - value == 0.0 or (not finite and value == value):
            return
        rule = "NaN is never a value" if value != value else "a payload's floats are finite"
        raise DomainError(f"{what} holds {value!r}: {rule}")
    if kind is tuple or kind is list:
        for item in value:
            check_value(item, what, finite=finite)
        return
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str:
                raise DomainError(f"{what} holds the dict key {key!r}: dict keys are str")
            check_value(item, what, finite=finite)
        return
    raise DomainError(
        f"{what} holds a {kind.__name__} ({value!r}), which is outside the value "
        "domain: None, bool, int, float, str, bytes, Fraction, the engine's "
        "records, and tuples, lists and str-keyed dicts of these"
    )


def identical(a: Any, b: Any) -> bool:
    """Whether domain values ``a`` and ``b`` are one value type for type —
    what gives them one page encoding.  ``==`` conflates what this keeps
    apart: ``1`` / ``1.0`` / ``True``, ``0.0`` / ``-0.0``, and a record's
    payload and uid, which its ``==`` skips."""
    if a is b:
        return True
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is float:
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if kind is tuple or kind is list:
        return len(a) == len(b) and all(map(identical, a, b))
    if kind is dict:
        return a.keys() == b.keys() and all(identical(a[k], b[k]) for k in a)
    if kind in RECORDS:
        fields_a, fields_b = a.__dict__, b.__dict__
        return all(identical(fields_a[f], fields_b[f]) for f in RECORDS[kind][1])
    return bool(a == b)
