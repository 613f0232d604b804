# ruff: noqa
"""Seeded-bad fixture: wire-contract drift across the protocol artifacts.

COMMANDS, the one command table, the client's method surface, the
serialization registry and the error-code declaration must agree;
every drift below is one planted disagreement.
"""

COMMANDS = ("ping", "query", "insert")

ERROR_CODES = ("bad_request", "internal", "unused_code")  # seeded: wire-exhaustiveness

# misses the ``insert`` row and serves an undeclared ``stats``
COMMAND_TABLE = {  # seeded: wire-exhaustiveness
    "ping": lambda conn: {},
    "query": lambda conn, index, q: {},
    "stats": lambda conn: {},
}


class DriftClient:  # seeded: wire-exhaustiveness
    """No ``insert`` method for a declared command."""

    def ping(self):
        return None

    def query(self, q):
        return None


ERROR_TABLE = ((ValueError, "bad_request"),)


def classify_error(exc):  # seeded: wire-exhaustiveness
    for exc_type, code in ERROR_TABLE:
        if isinstance(exc, exc_type):
            return code
    return "surprise"


class AlgebraicQuery:
    pass


class Stab(AlgebraicQuery):
    pass


class Fancy(AlgebraicQuery):  # seeded: wire-exhaustiveness
    pass


def _node_registry():  # seeded: wire-exhaustiveness
    types = (Stab, Ghost)
    return {t.__name__: t for t in types}
