"""``ShardRouter`` + ``ClusterFrontend`` — scatter-gather over N shards.

The frontend is a :class:`~repro.server.core.JsonLineServer` — the same
command table, validation, leases and error codes as a single
``ReproServer``, so a client cannot tell the difference — whose
:class:`~repro.server.core.Executor` is the router.  The router holds one
pooled :class:`ShardConnection` per shard and turns each validated
request into per-shard requests plus a merge.  One thread writes every
shard's request before it reads any reply (a scatter of one is a
single-shard request), so the contacted shards work side by side:

=============  ===========================================================
request        routing
=============  ===========================================================
``query``      :meth:`~repro.cluster.topology.ShardMap.shards_for_query`
               classifies the algebra tree: single-shard → one shard,
               prunable window (range strategy) → the overlapping slabs,
               otherwise broadcast.  Answers merge by **uid-deduped
               union**, a global sort for a top-level ``OrderBy`` (each
               shard pre-sorts, the router re-sorts the union), an early
               cutoff for ``Limit`` (each shard already capped, the
               router caps the union), and per-shard ``ios``/``bound``
               summed — ``bound`` gains ``+2`` per extra shard so the
               paper's ``BOUND_SLACK`` check stays valid per request
               (k per-shard slacks, not one).
``insert``     the frontend process **mints the authoritative uid** as it
               decodes the record; the router routes by partition key and
               the shard honours the uid (``keep_uids``) — one identity
               per record across the whole cluster.
``delete``     by record: the owning shard.  By query: the classified
               targets; with a ``limit`` the scatter degrades to an
               ordered walk that decrements the remaining budget so the
               cluster never over-deletes.
``bulk_load``  minted uids, split per shard, loaded side by side.
``create``     every shard gets the index (records partitioned as above);
``drop``       broadcast.
``prepare``    the lease is ``(index, q)``, ``q``'s placeholders compiled
``run``        once; ``run`` binds them locally — which both validates the
               parameters and makes the *bound* query classifiable —
               then executes as a read.  A shard
               answering ``unknown_index`` raises the same
               :class:`~repro.errors.UnknownIndexError` a dropped index
               raises in process, which the server turns into
               ``stale_handle``.
``stats``      aggregated: engine counters summed, sessions namespaced
               ``s<shard>:<id>``, plus a ``cluster`` section (topology,
               routing counters, shard health).
``shutdown``   acked, then the whole cluster drains (see
               :class:`~repro.cluster.core.Cluster`).
=============  ===========================================================

A shard dying mid-request surfaces as a structured ``shard_unavailable``
error (the supervisor's diagnosis included), never a hang or a torn
client connection.

Locking (ranked in the concurrency linter's table): ``_topology_lock``
and the supervisor's ``_spawn_lock`` are latches; each shard link's
``_rpc_lock`` is a plain leaf lock that guards only its idle pool: a
socket checked out of it is its caller's alone from the send to the
reply, so no lock is held while a shard works.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.engine.queries import Limit, OrderBy, bind_exactly, compile_params
from repro.errors import UnknownIndexError
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.server import protocol as P
from repro.server.client import ReproClient, ServerError
from repro.server.core import Executor, JsonLineServer, Payload, _Connection, _Row
from repro.cluster.topology import ShardMap


class ShardConnection:
    """A small pool of persistent client connections to one shard.

    ``send`` checks a client out and writes a request; ``receive`` reads
    the reply and checks the client back in (up to ``POOL_SIZE`` idle).
    In between the socket is the caller's alone.  A transport failure
    closes the failed socket (the pool re-dials lazily, with the client's
    own capped backoff) and propagates — the router turns it into
    ``shard_unavailable``.
    """

    POOL_SIZE = 8

    def __init__(self, shard: int, host: str, port: int) -> None:
        self.shard = shard
        self.host = host
        self.port = port
        #: guards the idle pool; never held across a send or a receive
        self._rpc_lock = threading.Lock()
        self._idle: List[ReproClient] = []

    def send(self, cmd: str, **payload: Any) -> Tuple[ReproClient, int]:
        """Write one request; ``(client, request id)`` for :meth:`receive`."""
        with self._rpc_lock:
            client = self._idle.pop() if self._idle else None
        if client is None:
            client = ReproClient(self.host, self.port, connect_retries=4)
        try:
            return client, client.send(cmd, **payload)
        except Exception:
            client.close()
            raise

    def receive(self, client: ReproClient, request_id: int) -> Dict[str, Any]:
        """The reply to a :meth:`send`; the client goes back to the pool."""
        try:
            response = client.receive(request_id)
        except ServerError:
            self._checkin(client)  # structured error; the socket is fine
            raise
        except Exception:
            client.close()
            raise
        self._checkin(client)
        return response

    def _checkin(self, client: ReproClient) -> None:
        with self._rpc_lock:
            if len(self._idle) < self.POOL_SIZE:
                self._idle.append(client)
                return
        client.close()

    def close(self) -> None:
        with self._rpc_lock:
            idle, self._idle = self._idle, []
        for client in idle:
            client.close()


#: positions of the fields in a frame's columns ``(lows, highs, uids, payloads)``
_COLUMN_FIELDS = {"low": 0, "high": 1, "uid": 2, "payload": 3}


def _column_sort_key(order: OrderBy, columns: List[List[Any]]) -> Callable[[int], Any]:
    """A sort key over *row numbers* of merged columns for a top-level OrderBy."""
    key = order.key
    if key is None:
        lows, highs, uids, _payloads = columns
        return lambda i: (lows[i], highs[i], uids[i])
    position = None if callable(key) else _COLUMN_FIELDS.get(key)
    if position is None:
        raise P.ProtocolError(
            "a routed OrderBy needs a field-name key ('low'/'high'), "
            f"not {key!r}"
        )
    return columns[position].__getitem__


def _shard_frame(resp: Dict[str, Any]) -> P.RecordFrame:
    """The records of one shard's reply as a frame (a shard that answers
    rows — one that does not know ``frames`` — has them validated here)."""
    records = resp.get("records", [])
    if isinstance(records, P.RecordFrame):
        return records
    return P.RecordFrame.of(P.records_from_wire(records))


def _merge_frames(
    frames: List[P.RecordFrame],
    *,
    dedupe: bool,
    order: Optional[OrderBy] = None,
    cap: Optional[int] = None,
) -> P.RecordFrame:
    """The shards' frames as one: concatenated in shard order, the first of
    each uid kept (``dedupe``), sorted (``order``), cut (``cap``) — by
    column; no record is built.  One frame with nothing to do to it is
    returned as it is, so its bytes go out as they came in (beside empty
    ones too); several with nothing to pick or reorder are packed from
    their joined columns, by the types their shards packed them as.
    """
    if len(frames) == 1 and order is None and cap is None:
        return frames[0]
    columns: List[List[Any]] = [[], [], [], []]
    for frame in frames:  # every frame is validated, the empty ones too
        for column, part in zip(columns, frame.columns()):
            column.extend(part)
    uids = columns[_COLUMN_FIELDS["uid"]]
    # one shard's answer is already distinct
    repeated = dedupe and len(frames) > 1 and len(set(uids)) < len(uids)
    if order is None and cap is None and not repeated:
        full = [frame for frame in frames if frame.count]
        if len(full) == 1:
            return full[0]
        kinds = {frame.kinds for frame in full}
        return P.RecordFrame.from_columns(
            *columns, kinds=kinds.pop() if len(kinds) == 1 else (None,) * 4
        )
    rows = list(range(len(uids)))
    if repeated:
        first: Dict[Any, int] = {}
        for i in rows:
            first.setdefault(uids[i], i)
        rows = list(first.values())
    if order is not None:
        rows.sort(key=_column_sort_key(order, columns), reverse=bool(order.reverse))
    if cap is not None:
        rows = rows[:max(cap, 0)]
    return P.RecordFrame.from_columns(*([column[i] for i in rows] for column in columns))


class ShardRouter(Executor):
    """Scatter-gather execution over a :class:`ShardMap` (see module doc)."""

    def __init__(
        self,
        shard_map: ShardMap,
        links: List[ShardConnection],
        *,
        supervisor: Any = None,
        persist: Optional[Callable[[], None]] = None,
    ) -> None:
        if len(links) != shard_map.shards:
            raise ValueError(
                f"map expects {shard_map.shards} shards, got {len(links)} links"
            )
        self._map = shard_map
        self._links = links
        self._supervisor = supervisor
        self._persist = persist
        #: latch: guards topology mutation (max_length) + the namespace
        self._topology_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._indexes: Set[str] = set()
        self._routing = {
            "reads": 0, "writes": 0, "shard_contacts": 0,
            "single_shard": 0, "pruned": 0, "broadcasts": 0,
        }
        #: shard id -> requests this router sent it (under ``_stats_lock``)
        self._contacts_by_shard: Dict[int, int] = {
            shard: 0 for shard in range(shard_map.shards)
        }
        self._started_monotonic = time.monotonic()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def bootstrap(self) -> Dict[str, Any]:
        """Adopt what the shards already hold (open of a persisted cluster).

        Seeds the routed namespace from the union of shard catalogs and
        advances this process's uid counters past every resident uid, so
        a restarted router can never re-mint a stored record's identity.
        """
        from repro.engine.core import advance_uid_floor

        info = self.stats()
        advance_uid_floor(int(info["engine"].get("uid_horizon", -1)))
        with self._topology_lock:
            self._indexes.update(info["engine"].get("indexes", []))
        return info

    def close(self) -> None:
        for link in self._links:
            link.close()

    # ------------------------------------------------------------------ #
    # the scatter primitive
    # ------------------------------------------------------------------ #
    def _call_shard(self, shard: int, cmd: str, **payload: Any) -> Dict[str, Any]:
        """``cmd`` to one shard (a scatter of one); its response."""
        return self._scatter([shard], cmd, lambda _shard: payload)[0][1]

    def _scatter(
        self,
        targets: List[int],
        cmd: str,
        payload_for: Callable[[int], Dict[str, Any]],
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """``cmd`` to every target; ``[(shard, response)]`` in target order.

        Every request is written before any reply is read, so the shards
        work side by side.  Every leg sent is read back, even after another
        failed, before the first failure raises (a transport failure as
        ``shard_unavailable``): no pooled socket goes back with a reply
        unread.  Each leg is a ``shard.call`` span from send to reply, its
        ``ios`` the shard's (from its reply).
        """
        parent = obs_tracer.current_span()
        route = self._route_decision(len(targets))
        # the legs overlap, so each names its parent: outside any span, one
        # ``router.scatter`` root holds them (each would nest in the last)
        with (
            obs_tracer.TRACER.span("router.scatter", cmd=cmd)
            if parent is None and obs_tracer.is_enabled() else nullcontext(parent)
        ) as parent:
            legs: List[Tuple[int, Any, ReproClient, int]] = []
            failed: Optional[Tuple[int, Exception]] = None
            for shard in targets:
                span = obs_tracer.span(
                    "shard.call", parent=parent, shard=shard, cmd=cmd, route=route
                )
                span.__enter__()
                try:
                    sent = self._links[shard].send(cmd, frames=True, **payload_for(shard))
                    legs.append((shard, span, *sent))
                except Exception as exc:  # noqa: BLE001 - raised once every leg is read
                    span.__exit__(None, None, None)
                    failed = failed or (shard, exc)
            out: List[Tuple[int, Dict[str, Any]]] = []
            for shard, span, client, request_id in legs:
                try:
                    response = self._links[shard].receive(client, request_id)
                    span.annotate(ios=response.get("ios", 0))
                    out.append((shard, response))
                except Exception as exc:  # noqa: BLE001 - raised below
                    failed = failed or (shard, exc)
                finally:
                    span.__exit__(None, None, None)
        if failed is not None:
            shard, exc = failed
            if not isinstance(exc, (ConnectionError, OSError)):
                raise exc
            if self._supervisor is not None:
                # a dead shard gets the supervisor's diagnosis (exit code,
                # drained, never started); a live-but-flaky one falls through
                self._supervisor.ensure_alive(shard, context=cmd)
            link = self._links[shard]
            raise P.ShardUnavailableError(
                f"shard {shard} at {link.host}:{link.port} failed during {cmd!r}: {exc}"
            ) from exc
        return out

    def _route_decision(self, contacted: int) -> str:
        """Classify one request's fan-out (what the routing counters count)."""
        if contacted == 1:
            return "single_shard"
        if contacted >= self._map.shards > 1:
            return "broadcast"
        return "pruned"

    def _count(self, kind: str, shards: List[int]) -> None:
        contacted = len(shards)
        with self._stats_lock:
            self._routing[kind] += 1
            self._routing["shard_contacts"] += contacted
            for shard in shards:
                self._contacts_by_shard[shard] = (
                    self._contacts_by_shard.get(shard, 0) + 1
                )
            if contacted == 1:
                self._routing["single_shard"] += 1
            elif contacted >= self._map.shards > 1:
                self._routing["broadcasts"] += 1
            else:
                self._routing["pruned"] += 1

    def _note_records(self, records: List[Any]) -> None:
        with self._topology_lock:
            grew = self._map.note_records(records)
            if grew and self._persist is not None:
                # eager persistence: the pruning window must never lag a
                # resident record across a crash
                self._persist()

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def query(self, index: str, q: Any) -> Dict[str, Any]:
        """Classify, scatter, merge one query; the response payload."""
        targets = self._map.shards_for_query(q)
        wire = P.query_to_wire(q)
        pairs = self._scatter(
            targets, "query", lambda s: {"index": index, "q": wire}
        )
        self._count("reads", [shard for shard, _resp in pairs])
        return self._merge_read(q, pairs)

    def _merge_read(
        self, q: Any, pairs: List[Tuple[int, Dict[str, Any]]]
    ) -> Dict[str, Any]:
        # peel the top-level modifier chain: every Limit caps the union,
        # the outermost OrderBy decides the final order
        cap: Optional[int] = None
        order: Optional[OrderBy] = None
        node = q
        while isinstance(node, (Limit, OrderBy)):
            if isinstance(node, Limit):
                cap = node.n if cap is None else min(cap, node.n)
            elif order is None:
                order = node
            node = node.part
        records = _merge_frames(
            [_shard_frame(resp) for _shard, resp in pairs],
            dedupe=True, order=order, cap=cap,
        )
        stats: Dict[str, Any] = {}
        for _shard, resp in pairs:
            for key, value in resp.get("stats", {}).items():
                if isinstance(value, (int, float)):
                    stats[key] = stats.get(key, 0) + value
        payload: Dict[str, Any] = {
            "ios": sum(resp.get("ios", 0) for _s, resp in pairs),
            "stats": stats,
            "records": records,
            "count": len(records),
            "shards_contacted": len(pairs),
        }
        bounds = [resp.get("bound") for _s, resp in pairs]
        if not pairs:
            payload["bound"] = 0
        elif all(b is not None for b in bounds):
            # k per-shard bounds each carry their own page slack; fold the
            # extra (k-1) slacks in so BOUND_SLACK * bound + pages still
            # dominates the summed ios
            payload["bound"] = sum(bounds) + 2 * (len(pairs) - 1)
        return payload

    def explain(self, index: str, q: Any) -> Dict[str, Any]:
        targets = self._map.shards_for_query(q) or self._map.all_shards()
        resp = self._call_shard(
            targets[0], "explain", index=index, q=P.query_to_wire(q)
        )
        plan = dict(resp.get("plan", {}))
        plan["shards"] = len(targets)
        plan["describe"] = (
            f"cluster[{len(targets)}/{self._map.shards} shards] "
            + str(plan.get("describe", ""))
        )
        return {"plan": plan}

    def prepare(self, index: str, q: Any) -> Tuple[Any, Payload]:
        with self._topology_lock:
            if index not in self._indexes:
                raise UnknownIndexError(
                    f"no index named {index!r}; the cluster serves "
                    f"{sorted(self._indexes)}"
                )
        # the lease compiles its placeholders once; every run binds with it
        compiled = compile_params(q)
        return (index, q, compiled), {"index": index, "params": sorted(compiled[1])}

    def run(self, lease: Any, params: Dict[str, Any]) -> Payload:
        index, q, compiled = lease
        bound = bind_exactly(q, compiled, params)  # strict: bad names raise
        try:
            return self.query(index, bound)
        except ServerError as exc:
            if exc.code == "unknown_index":
                # every shard lost the index this lease was planned against
                raise UnknownIndexError(*exc.args) from exc
            raise

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def insert(self, index: str, record: Any) -> Dict[str, Any]:
        self._note_records([record])
        shard = self._map.shard_for_record(record)
        wire = P.record_to_row(record)
        resp = self._call_shard(shard, "insert", index=index, record=wire,
                                keep_uids=True)
        self._count("writes", [shard])
        return {
            "record": resp.get("record", wire),
            "ios": resp.get("ios", 0),
            "shard": shard,
        }

    def delete_record(self, index: str, record: Any) -> Dict[str, Any]:
        shard = self._map.shard_for_record(record)
        resp = self._call_shard(
            shard, "delete", index=index, record=P.record_to_row(record)
        )
        self._count("writes", [shard])
        return {
            "removed": resp.get("removed", 0),
            "ios": resp.get("ios", 0),
            "shard": shard,
        }

    def delete_matching(
        self, index: str, q: Any, limit: Optional[int]
    ) -> Dict[str, Any]:
        targets = self._map.shards_for_query(q)
        wire = P.query_to_wire(q)
        pairs: List[Tuple[int, Dict[str, Any]]]
        if limit is None:
            pairs = self._scatter(
                targets, "delete", lambda s: {"index": index, "q": wire}
            )
        else:
            # a capped delete must not over-delete across shards: walk the
            # targets in order, shrinking the remaining budget as we go
            pairs = []
            remaining = limit
            for shard in targets:
                if remaining <= 0:
                    break
                resp = self._call_shard(
                    shard, "delete", index=index, q=wire, limit=remaining
                )
                pairs.append((shard, resp))
                remaining -= resp.get("removed", 0)
        self._count("writes", [shard for shard, _resp in pairs])
        return {
            "removed": sum(r.get("removed", 0) for _s, r in pairs),
            "records": _merge_frames(
                [_shard_frame(r) for _s, r in pairs], dedupe=False
            ),
            "ios": sum(r.get("ios", 0) for _s, r in pairs),
            "shards_contacted": len(pairs),
        }

    def bulk_load(self, index: str, records: List[Any]) -> Dict[str, Any]:
        self._note_records(records)
        groups = self._map.partition(records)
        targets = sorted(groups)
        pairs = self._scatter(
            targets,
            "bulk_load",
            lambda s: {
                "index": index,
                "records": P.records_to_wire(groups[s]),
                "keep_uids": True,
            },
        )
        self._count("writes", [shard for shard, _resp in pairs])
        return {
            "loaded": len(records),
            # echo in submission order with the router's authoritative uids
            "records": records,
            "ios": sum(r.get("ios", 0) for _s, r in pairs),
            "shards_contacted": len(pairs),
        }

    # ------------------------------------------------------------------ #
    # namespace
    # ------------------------------------------------------------------ #
    def create(
        self, index: str, kind: str, records: List[Any], dynamic: bool
    ) -> Dict[str, Any]:
        self._note_records(records)
        groups = self._map.partition(records)
        pairs = self._scatter(
            self._map.all_shards(),
            "create",
            lambda s: {
                "index": index,
                "kind": kind,
                "dynamic": dynamic,
                "records": P.records_to_wire(groups.get(s, [])),
                "keep_uids": True,
            },
        )
        with self._topology_lock:
            self._indexes.add(index)
        return {
            "index": index,
            "kind": kind,
            "loaded": len(records),
            "ios": sum(r.get("ios", 0) for _s, r in pairs),
        }

    def drop(self, index: str) -> Dict[str, Any]:
        pairs = self._scatter(
            self._map.all_shards(), "drop", lambda s: {"index": index}
        )
        with self._topology_lock:
            self._indexes.discard(index)
        return {
            "dropped": index,
            "ios": sum(r.get("ios", 0) for _s, r in pairs),
        }

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def ping(self) -> Payload:
        return {
            "pong": True,
            "version": P.PROTOCOL_VERSION,
            "cluster": {"shards": self._map.shards, "strategy": self._map.strategy},
        }

    def stats(self) -> Dict[str, Any]:
        pairs = self._scatter(self._map.all_shards(), "stats", lambda s: {})
        indexes: Set[str] = set()
        blocks = 0
        uid_horizon = -1
        block_size: Optional[int] = None
        numeric: Dict[str, Any] = {}
        sessions: Dict[str, Any] = {}
        retired = {"sessions": 0, "requests": 0, "ios": 0}
        per_shard: List[Dict[str, Any]] = []
        for shard, resp in pairs:
            engine = resp.get("engine", {})
            if block_size is None:
                block_size = engine.get("block_size")
            indexes.update(engine.get("indexes", []))
            blocks += engine.get("blocks", 0)
            uid_horizon = max(uid_horizon, engine.get("uid_horizon", -1))
            for key, value in engine.items():
                if key in ("block_size", "indexes", "blocks", "uid_horizon"):
                    continue
                if isinstance(value, (int, float)):
                    numeric[key] = numeric.get(key, 0) + value
            for sid, sess in resp.get("sessions", {}).items():
                sessions[f"s{shard}:{sid}"] = sess
            for key in retired:
                retired[key] += resp.get("retired", {}).get(key, 0)
            per_shard.append({
                "shard": shard,
                "epochs": resp.get("epochs"),
                "wal": resp.get("wal"),
                "uptime_s": resp.get("uptime_s"),
            })
        with self._stats_lock:
            routing = dict(self._routing)
            contacts = dict(self._contacts_by_shard)
        for entry in per_shard:
            entry["contacts"] = contacts.get(entry["shard"], 0)
        with self._topology_lock:
            topology = self._map.as_dict()
        health = (
            self._supervisor.status() if self._supervisor is not None
            else [
                {"shard": link.shard, "address": f"{link.host}:{link.port}"}
                for link in self._links
            ]
        )
        return {
            "retired": retired,
            "sessions": sessions,
            "engine": {
                "block_size": block_size,
                "indexes": sorted(indexes),
                "blocks": blocks,
                "uid_horizon": uid_horizon,
                **numeric,
            },
            "cluster": {
                "topology": topology,
                "routing": routing,
                "contacts_by_shard": {str(k): v for k, v in sorted(contacts.items())},
                "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
                "shards": health,
                "per_shard": per_shard,
            },
        }

    def metrics(self) -> Dict[str, Any]:
        """Cluster-wide ``metrics``: shard metrics plus the router's own.

        Plan-cache and WAL counters are summed across shards so the
        headline ratios describe the cluster, with each shard's full
        response preserved under ``shards`` for drill-down.
        """
        pairs = self._scatter(self._map.all_shards(), "metrics", lambda s: {})
        cache = {"entries": 0, "hits": 0, "misses": 0}
        wal = {"commits": 0, "syncs": 0, "group_absorbed": 0}
        wal_seen = False
        shards: List[Dict[str, Any]] = []
        for shard, resp in pairs:
            shard_cache = resp.get("plan_cache") or {}
            for key in cache:
                cache[key] += int(shard_cache.get(key, 0) or 0)
            shard_wal = resp.get("wal")
            if shard_wal:
                wal_seen = True
                for key in wal:
                    wal[key] += int(shard_wal.get(key, 0) or 0)
            shards.append({
                "shard": shard,
                "uptime_s": resp.get("uptime_s"),
                "plan_cache": shard_cache or None,
                "wal": shard_wal,
                "epochs": resp.get("epochs"),
                "metrics": resp.get("metrics"),
                "tracer": resp.get("tracer"),
            })
        lookups = cache["hits"] + cache["misses"]
        plan_cache: Dict[str, Any] = dict(cache)
        plan_cache["hit_ratio"] = (
            round(cache["hits"] / lookups, 6) if lookups else None
        )
        wal_summary: Optional[Dict[str, Any]] = None
        if wal_seen:
            wal_summary = dict(wal)
            wal_summary["group_absorbed_ratio"] = (
                round(wal["group_absorbed"] / wal["commits"], 6)
                if wal["commits"] else None
            )
        with self._stats_lock:
            routing = dict(self._routing)
            contacts = dict(self._contacts_by_shard)
        return {
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "plan_cache": plan_cache,
            "wal": wal_summary,
            "metrics": obs_metrics.REGISTRY.snapshot(),
            "tracer": obs_tracer.TRACER.stats_dict(),
            "cluster": {
                "routing": routing,
                "contacts_by_shard": {str(k): v for k, v in sorted(contacts.items())},
            },
            "shards": shards,
        }


class ClusterFrontend(JsonLineServer):
    """The cluster's client-facing server: the router is its executor."""

    thread_name = "repro-cluster"
    metrics_prefix = "router"

    def __init__(
        self,
        router: ShardRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        close_router: bool = False,
    ) -> None:
        super().__init__(host, port)
        self.router = router
        self._close_router = close_router

    def _on_close(self) -> None:
        if self._close_router:
            self.router.close()

    @contextmanager
    def _connection(self) -> Iterator[Executor]:
        yield self.router

    def _execute(
        self, conn: _Connection, cmd: str, row: _Row, message: Dict[str, Any]
    ) -> Payload:
        with obs_tracer.span("router.request", cmd=cmd, conn=conn.id):
            payload = super()._execute(conn, cmd, row, message)
        # the router is shared by every connection and has no session of
        # its own: replies that describe one carry the frontend connection
        if cmd == "ping":
            payload["session"] = conn.id
        elif cmd in ("stats", "metrics"):
            payload["session"] = {"id": conn.id, "requests": conn.requests}
        return payload
