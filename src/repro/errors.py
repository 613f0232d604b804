"""The engine's typed failures: what went wrong is the exception's *class*.

Each subclasses the builtin the call used to raise, so ``except KeyError``
/ ``ValueError`` / ``RuntimeError`` callers keep working; the wire layer
(:func:`repro.server.protocol.classify_error`) maps the class — never the
message text — to a structured ``error.code``.
"""

from __future__ import annotations


class UnknownIndexError(KeyError):
    """No index of that name in the engine's (or the cluster's) namespace."""


class ParameterError(KeyError):
    """A prepared query was run with unbound or unknown parameter names."""


class DuplicateError(ValueError):
    """The index name, or the record uid, is already taken."""


class DomainError(ValueError):
    """A value outside the closed value domain (:mod:`repro.values`): NaN, a
    set, an arbitrary object — refused where the record holding it is built."""


class StalePreparedError(RuntimeError):
    """The index a query was prepared against was dropped and re-created."""
