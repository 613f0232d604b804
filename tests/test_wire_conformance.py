"""Runtime twin of the ``wire-exhaustiveness`` lint rule.

The static rule pins the wire contract by *reading source*; this suite
pins it by *importing the artifacts* and comparing the live surfaces:

* ``COMMANDS`` ↔ the one ``COMMAND_TABLE`` ↔ the ``Executor`` protocol,
  and the same scripted conversation answered alike by both executors
  (an in-process ``ReproServer`` and a thread-mode ``Cluster``)
* ``COMMANDS`` ↔ :class:`ReproClient` public methods
* ``_node_registry()`` keys ↔ the node types' own ``__name__`` tags,
  and every registered type round-trips through ``query_from_dict``
* ``ERROR_CODES`` ↔ what :func:`classify_error` actually returns

If either side drifts, one of the two checkers fires — the lint rule at
review time, this suite at test time — so the contract cannot rot in a
path the other checker does not see (e.g. a row added at import time
the AST walk would miss).
"""

from __future__ import annotations

import inspect

from repro import Engine, Param, SimulatedDisk, Stab
from repro.cluster import Cluster
from repro.engine.queries import _node_registry, query_from_dict
from repro.errors import DuplicateError
from repro.server.client import ReproClient, ServerError
from repro.server.core import COMMAND_TABLE, Executor, ReproServer
from repro.server.protocol import (
    COMMANDS,
    ERROR_CODES,
    ProtocolError,
    ShardUnavailableError,
    StaleHandleError,
    classify_error,
)


def converse(db: ReproClient) -> dict:
    """One scripted conversation; ``{step: outcome}`` where an outcome is
    the reply's key set, or the error code, plus what the step removed."""
    out = {}

    def step(label, cmd, **payload):
        try:
            reply = db.call(cmd, **payload)
        except ServerError as exc:
            out[label] = exc.code
            return None
        out[label] = (frozenset(reply), reply.get("removed"), reply.get("count"))
        return reply

    rows = [[float(i), float(i) + 5.0, f"p{i}", None] for i in range(10)]
    stab = Stab(2.5).to_dict()
    step("ping", "ping")
    for name in ("fluid", "temporal"):  # the code must not depend on spelling
        step(f"create {name}", "create", index=name, kind="interval")
        step(f"create {name} again", "create", index=name, kind="interval")
    step("create", "create", index="t", records=rows[:4])
    step("bulk_load", "bulk_load", index="t", records=rows[4:])
    stored = step("insert", "insert", index="t", record={
        "record": "interval", "low": 1.0, "high": 9.0, "payload": "dict-form"})
    named = [100.0, 101.0, "named", 10**12]
    step("insert keep_uids", "insert", index="t", record=named, keep_uids=True)
    step("insert keep_uids duplicate", "insert", index="t", record=named,
         keep_uids=True)
    step("query", "query", index="t", q=stab)
    step("explain", "explain", index="t", q=stab)
    handle = step("prepare", "prepare", index="t", q=Stab(Param("x")).to_dict())
    step("run", "run", handle=handle["handle"], params={"x": 2.5})
    step("run bad binding", "run", handle=handle["handle"], params={"y": 1})
    step("run unknown handle", "run", handle=999, params={"x": 2.5})
    # malformed fields: bad_request, and the index untouched
    for label, payload in {
        "limit -1": {"limit": -1}, "limit '3'": {"limit": "3"},
        "limit 2.5": {"limit": 2.5}, "limit true": {"limit": True},
    }.items():
        step(f"delete {label}", "delete", index="t", q=stab, **payload)
    step("query index list", "query", index=["t"], q=stab)
    step("query q string", "query", index="t", q="Stab")
    step("run handle string", "run", handle="1")
    step("run params list", "run", handle=handle["handle"], params=[2.5])
    step("bulk_load records object", "bulk_load", index="t", records={})
    step("insert keep_uids 1", "insert", index="t", record=named, keep_uids=1)
    step("create dynamic 'no'", "create", index="never", dynamic="no")
    step("create kind", "create", index="never", kind="btree")
    step("query never created", "query", index="never", q=stab)
    step("query untouched", "query", index="t", q=stab)
    step("query missing 'parameters'", "query", index="parameters", q=stab)
    step("delete neither selector", "delete", index="t")
    step("delete limit 2", "delete", index="t", q=stab, limit=2)
    step("delete record", "delete", index="t", record=stored["record"])
    step("delete record again", "delete", index="t", record=stored["record"])
    # a lease on an index whose *name* used to decide the error code
    step("create parameters", "create", index="parameters", records=rows[:2])
    lease = step("prepare parameters", "prepare", index="parameters", q=stab)
    step("drop", "drop", index="parameters")
    step("run dropped", "run", handle=lease["handle"])
    step("run dropped again", "run", handle=lease["handle"])
    step("stats", "stats")
    step("metrics", "metrics")
    step("shutdown", "shutdown")
    return out


#: keys a cluster reply adds to the single server's (protocol docstring)
CLUSTER_ADDS = {"shards_contacted", "shard", "cluster"}
#: step -> (keys only the server has, keys only the cluster has): the two
#: aggregate replies nest per-process facts under ``cluster`` / ``shards``
#: and stamp the frontend connection; a plan cache is a per-engine fact
DIFFERS = {
    "stats": ({"epochs", "wal", "uptime_s"}, set()),
    "metrics": ({"epochs", "slowlog"}, {"session", "shards"}),
    "run": ({"from_cache"}, set()),
}


class TestCommandSurfaces:
    def test_table_and_protocol_cover_exactly_the_declared_commands(self):
        assert set(COMMAND_TABLE) == set(COMMANDS)
        members = {n for n in vars(Executor) if not n.startswith("_")}
        served = {c for c in COMMANDS if any(
            m == c or m.startswith(c + "_") for m in members)}
        assert served == set(COMMANDS) - {"shutdown"}  # transport-only

    def test_server_and_cluster_answer_the_same_conversation_alike(self):
        with ReproServer(Engine(SimulatedDisk(16))) as server:
            with ReproClient(*server.address) as db:
                single = converse(db)
        with Cluster.create(None, shards=3, strategy="range", mode="thread") as c:
            with ReproClient(*c.address) as db:
                cluster = converse(db)
        assert {cmd.split()[0] for cmd in single} == set(COMMANDS)
        assert list(single) == list(cluster)
        for label, one in single.items():
            many = cluster[label]
            if isinstance(one, str) or isinstance(many, str):
                assert one == many, (label, one, many)  # the same error code
                continue
            lacks, adds = DIFFERS.get(label, (set(), set()))
            assert many[0] - CLUSTER_ADDS - adds == one[0] - lacks, label
            assert many[1:] == one[1:], label  # same removed / count
        assert single["create fluid again"] == "conflict"
        assert single["create temporal again"] == "conflict"
        assert single["insert keep_uids duplicate"] == "conflict"
        assert single["run bad binding"] == "bad_request"
        assert single["run unknown handle"] == "stale_handle"
        assert single["query missing 'parameters'"] == "unknown_index"
        assert single["query never created"] == "unknown_index"
        assert single["run dropped"] == single["run dropped again"] == "stale_handle"
        assert single["query untouched"] == single["query"]
        assert single["delete limit 2"][1] == 2
        malformed = [
            "delete limit -1", "delete limit '3'", "delete limit 2.5",
            "delete limit true", "query index list", "query q string",
            "run handle string", "run params list", "bulk_load records object",
            "insert keep_uids 1", "create dynamic 'no'", "create kind",
            "delete neither selector",
        ]
        assert {single[label] for label in malformed} == {"bad_request"}

    def test_client_exposes_every_command(self):
        methods = {
            name
            for name, member in inspect.getmembers(ReproClient, callable)
            if not name.startswith("_")
        }
        missing = set(COMMANDS) - methods
        assert missing == set(), (
            f"ReproClient lacks methods for declared commands: {sorted(missing)}"
        )

    def test_commands_has_no_duplicates_and_is_sorted_enough(self):
        assert len(COMMANDS) == len(set(COMMANDS))
        assert "ping" in COMMANDS and "shutdown" in COMMANDS


class TestSerializationRegistry:
    def test_registry_keys_are_the_type_names(self):
        registry = _node_registry()
        assert registry
        for tag, node_type in registry.items():
            assert tag == node_type.__name__

    def test_every_registered_type_is_reachable_from_the_wire(self):
        # a dict tagged with each registry key must dispatch to that type
        # (malformed payloads may raise ValueError — what matters is that
        # the tag is *known*, which unknown tags signal differently)
        for tag in _node_registry():
            try:
                query_from_dict({"node": tag})
            except ValueError as exc:
                assert "unknown" not in str(exc).lower(), (tag, exc)
            except TypeError:
                pass  # known tag, missing constructor args — fine

    def test_unknown_tags_are_rejected(self):
        try:
            query_from_dict({"node": "NoSuchNode"})
        except ValueError as exc:
            assert "NoSuchNode" in str(exc)
        else:  # pragma: no cover - defends the assertion above
            raise AssertionError("unknown node tag was accepted")


class TestErrorClassification:
    def test_every_declared_code_is_producible(self):
        produced = {
            classify_error(ProtocolError("bad line")),
            classify_error(StaleHandleError("lease gone")),
            classify_error(ShardUnavailableError("shard 2 down")),
            classify_error(KeyError("no index named 'x'")),
            classify_error(DuplicateError("uid 7 is already indexed")),
            classify_error(ValueError("duplicate uid 7")),
            classify_error(RuntimeError("boom")),
        }
        assert produced == set(ERROR_CODES)

    def test_classification_never_leaves_the_declared_set(self):
        exercises = [
            ProtocolError("x"),
            StaleHandleError("x"),
            ShardUnavailableError("x"),
            KeyError("parameter 'low' unbound"),
            KeyError("no index"),
            ValueError("duplicate uid"),
            ValueError("bad payload"),
            RuntimeError("prepared against a dropped index: prepare again"),
            RuntimeError("anything else"),
            OSError("disk"),
        ]
        for exc in exercises:
            assert classify_error(exc) in ERROR_CODES, exc

    def test_relayed_shard_codes_survive_classification(self):
        # a router relaying a shard's structured error keeps its code
        class Relayed(RuntimeError):
            code = "unknown_index"

        assert classify_error(Relayed("from shard")) == "unknown_index"

    def test_error_codes_are_unique_and_sorted(self):
        assert list(ERROR_CODES) == sorted(set(ERROR_CODES))
