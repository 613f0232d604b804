# ruff: noqa
"""Seeded-bad fixture: the observability export lagging the wire contract.

Declaring ``metrics`` in ``COMMANDS`` obligates the ``Executor`` protocol,
*every* class that implements it and *every* protocol client; a
scatter-gather router that forgot the method, or a client that cannot
call it, is exactly the drift the wire-exhaustiveness rule exists to
catch.
"""

COMMANDS = ("ping", "stats", "metrics")


class Executor:
    def ping(self): ...

    def stats(self): ...

    def metrics(self): ...


class SessionExecutor(Executor):
    """Complete: one method per protocol member."""

    def ping(self):
        return {}

    def stats(self):
        return {}

    def metrics(self):
        return {}


class LaggingRouter(Executor):  # seeded: wire-exhaustiveness
    """Aggregates ``stats`` shard-by-shard but never learned ``metrics``."""

    def ping(self):
        return {}

    def stats(self):
        return {}


class LaggingClient:  # seeded: wire-exhaustiveness
    """No ``metrics`` method for the declared command."""

    def ping(self):
        return None

    def stats(self):
        return None
