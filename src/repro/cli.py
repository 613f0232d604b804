"""Command-line interface: quick demos and I/O reports from the terminal.

Usage::

    python -m repro intervals --n 5000 --block-size 16 --queries 20
    python -m repro intervals --n 5000 --backend file --buffer-pages 16
    python -m repro classes   --classes 64 --objects 5000 --method combined
    python -m repro tessellation --grid 256 --block-size 64
    python -m repro explain   --n 5000 --stab 42 --endpoint low 10 20 --limit 5
    python -m repro bulk-load --db app.pages --index temporal --file records.json
    python -m repro delete    --db app.pages --index temporal --range 10 20
    python -m repro catalog   --db app.pages
    python -m repro wal inspect --db app.pages -v

The ``bulk-load`` / ``delete`` / ``catalog`` subcommands operate on a
*persistent* database: ``--db PATH`` names a :class:`~repro.io.FileDisk`
page file whose engine catalog survives across invocations
(``Engine.open``), so records loaded by one command are queryable and
deletable by the next.

Each subcommand builds the relevant index through the
:class:`~repro.engine.Engine` facade on the selected storage backend
(``--backend memory`` is the I/O-counting :class:`SimulatedDisk`,
``--backend file`` runs the same workload against real pages in a
:class:`FileDisk`), runs a batch of lazy queries, and prints the measured
I/O cost next to the paper's bound — a terminal-sized version of the
benchmark harness.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.analysis.tessellation import GridTessellation
from repro.core import ClassIndexer
from repro.engine import And, ClassRange, EndpointRange, Engine, Range, Stab
from repro.interval import Interval
from repro.io import FileDisk, SimulatedDisk
from repro.workloads import random_class_objects, random_hierarchy, random_intervals


def _make_engine(args: argparse.Namespace) -> Engine:
    backend = (
        FileDisk(block_size=args.block_size)
        if args.backend == "file"
        else SimulatedDisk(args.block_size)
    )
    return Engine(backend, buffer_pages=getattr(args, "buffer_pages", None))


def _cmd_intervals(args: argparse.Namespace) -> int:
    with _make_engine(args) as engine:
        intervals = random_intervals(args.n, seed=args.seed, mean_length=args.mean_length)
        index = engine.create_interval_index("intervals", intervals)
        rnd = random.Random(args.seed + 1)
        batch = engine.query_many(
            ("intervals", Stab(rnd.uniform(0, 1000))) for _ in range(args.queries)
        )
        results = [(len(r.all()), r.ios, r.bound) for r in batch]
        t_avg = sum(t for t, _, _ in results) / len(results)
        ios = sum(io for _, io, _ in results) / len(results)
        bound = sum(b for _, _, b in results) / len(results)
        print(f"intervals: n={args.n} B={args.block_size} queries={args.queries} "
              f"backend={args.backend}")
        print(f"  blocks used           : {index.block_count()}")
        print(f"  avg output per query  : {t_avg:.1f} intervals")
        print(f"  avg I/Os per query    : {ios:.1f}")
        print(f"  bound log_B n + t/B   : {bound:.1f}   (ratio {ios / bound:.2f})")
        print(f"  naive scan would read : {args.n // args.block_size + 1} blocks per query")
    return 0


def _cmd_classes(args: argparse.Namespace) -> int:
    hierarchy = random_hierarchy(args.classes, seed=args.seed)
    objects = random_class_objects(hierarchy, args.objects, seed=args.seed + 1)
    with _make_engine(args) as engine:
        index = engine.create_class_index(
            "classes", hierarchy, objects, method=args.method
        )
        rnd = random.Random(args.seed + 2)
        by_size = sorted(hierarchy.classes(), key=hierarchy.subtree_size, reverse=True)
        candidates = by_size[: max(4, len(by_size) // 4)]
        batch = engine.query_many(
            ("classes", ClassRange(rnd.choice(candidates), lo, lo + 60.0))
            for lo in (rnd.uniform(0, 900) for _ in range(args.queries))
        )
        results = [(len(r.all()), r.ios, r.bound) for r in batch]
        t_avg = sum(t for t, _, _ in results) / len(results)
        ios = sum(io for _, io, _ in results) / len(results)
        bound = sum(b for _, _, b in results) / len(results)
        print(f"classes: c={args.classes} n={args.objects} B={args.block_size} "
              f"method={args.method} backend={args.backend}")
        print(f"  blocks used          : {index.block_count()}")
        print(f"  avg output per query : {t_avg:.1f} objects")
        print(f"  avg I/Os per query   : {ios:.1f}")
        print(f"  scheme bound         : {bound:.1f}")
    return 0


def _cmd_tessellation(args: argparse.Namespace) -> int:
    stats = GridTessellation(args.grid, args.block_size).measure()
    print(f"tessellation: grid={args.grid}x{args.grid} B={args.block_size}")
    print(f"  blocks per row query : {stats.row_query_blocks:.1f}")
    print(f"  optimal t/B          : {stats.optimal_blocks:.1f}")
    print(f"  ratio (~= sqrt(B))   : {stats.ratio:.1f}")
    return 0


def _compose_explain_query(args: argparse.Namespace):
    """Build the conjunction described by the ``explain`` flags."""
    parts = []
    if args.stab is not None:
        parts.append(Stab(args.stab))
    if args.range is not None:
        parts.append(Range(args.range[0], args.range[1]))
    for side, lo, hi in args.endpoint or ():
        parts.append(EndpointRange(side, float(lo), float(hi)))
    if not parts:
        parts.append(Stab(500.0))
    q = parts[0] if len(parts) == 1 else And(*parts)
    if args.order_by:
        q = q.order_by(args.order_by)
    if args.limit is not None:
        q = q.limit(args.limit)
    return q


def _cmd_explain(args: argparse.Namespace) -> int:
    q = _compose_explain_query(args)
    with _make_engine(args) as engine:
        intervals = random_intervals(args.n, seed=args.seed, mean_length=args.mean_length)
        coll = engine.create_collection("intervals", intervals)
        plan = engine.explain("intervals", q)
        print(f"query : {q!r}")
        print("plan  :")
        print("  " + plan.describe().replace("\n", "\n  "))
        print(f"predicted I/Os (t=0) : {plan.bound.pages:.1f}")
        result = engine.query("intervals", q)
        t = len(result.all())
        print(f"observed : t={t} ios={result.ios} "
              f"bound(t)={result.bound:.1f}")
        if result.plan != plan:  # user-facing invariant; must survive -O
            raise RuntimeError("executed plan differs from explain()")
        if args.cached:
            planner = coll.planner
            hits_before = planner.cache_hits
            replan = engine.explain("intervals", q)
            info = planner.cache_info()
            served = planner.cache_hits > hits_before
            print(f"cache : re-plan served from cache: {served}  "
                  f"(entries={info['entries']}, hits={info['hits']}, "
                  f"misses={info['misses']}, generation={info['generation']})")
            if replan != plan:  # cached strategy must reproduce the plan
                raise RuntimeError("cached plan differs from the fresh plan")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: run one traced request and print its span tree.

    Builds an interval collection, primes the plan cache with an untraced
    warm-up, then re-runs the request with tracing enabled and prints the
    captured tree.  The default path is a **prepared stab query** (the
    engine's fastest read path); ``--adhoc`` routes the explain-style
    composed query through the full planner instead, so the
    ``planner.plan`` / ``planner.enumerate`` spans appear too.

    The two checks under the tree are the span-accounting invariants:
    the root span's I/O must equal both the request's attributed
    :class:`~repro.io.counters.IOStats` total and the summed I/O of its
    children (sinks nest, so the tree composes), and the root's residual
    (``ios - bound``) must keep the request inside the planner's
    documented ``BOUND_SLACK * bound + BOUND_SLACK_PAGES`` allowance —
    the same gate the test suite holds every query to.  Exit status 1
    when either check fails.
    """
    from repro import obs
    from repro.engine.planner import BOUND_SLACK, BOUND_SLACK_PAGES
    from repro.engine.queries import Param

    with _make_engine(args) as engine:
        intervals = random_intervals(
            args.n, seed=args.seed, mean_length=args.mean_length
        )
        session = engine.session()
        session.create_collection("intervals", intervals)
        x = args.stab if args.stab is not None else 500.0
        prepared = None
        if not args.adhoc:
            prepared = session.prepare("intervals", Stab(Param("x")))
            session.run(prepared, x=x)  # warm-up primes the plan cache
        obs.enable()
        try:
            with obs.TRACER.capture() as cap:
                if args.adhoc:
                    result = session.query(
                        "intervals", _compose_explain_query(args)
                    )
                else:
                    result = session.run(prepared, x=x)
        finally:
            obs.disable()
    root = cap.roots[-1]
    path = "ad-hoc planner" if args.adhoc else "prepared stab"
    print(f"trace : n={args.n} B={args.block_size} backend={args.backend} "
          f"path={path}")
    for line in obs.render_span_tree(root):
        print("  " + line)
    status = 0
    total = result.stats.total
    child_ios = sum(child.io.total for child in root.children)
    ok_compose = child_ios == total == root.io.total
    print(f"  io    : request={total} root_span={root.io.total} "
          f"summed_children={child_ios}  "
          f"{'OK (tree composes)' if ok_compose else 'MISMATCH'}")
    if not ok_compose:
        status = 1
    if result.bound is not None:
        allowed = BOUND_SLACK * result.bound + BOUND_SLACK_PAGES
        ok_bound = total <= allowed
        print(f"  bound : ios={total} bound={result.bound:.3f} "
              f"residual={total - result.bound:+.3f}  "
              f"(slack allows <= {allowed:.3f})  "
              f"{'OK' if ok_bound else 'EXCEEDED'}")
        if not ok_bound:
            status = 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(root.as_dict(), fh, indent=2, sort_keys=True, default=str)
            print(file=fh)
        print(f"  wrote {args.out}")
    return status


def _render_top(payload: "dict", previous: "Optional[dict]",
                dt: Optional[float], where: str) -> List[str]:
    """One ``repro top`` frame from a ``metrics`` payload (server or cluster)."""
    metrics = payload.get("metrics") or {}
    counters = metrics.get("counters") or {}
    histograms = metrics.get("histograms") or {}
    prev_counters = ((previous or {}).get("metrics") or {}).get("counters") or {}

    lines = [f"repro top — {where}"]
    uptime = payload.get("uptime_s")
    if uptime is not None:
        lines[0] += f"   uptime {uptime:.1f}s"

    cache = payload.get("plan_cache") or {}
    if cache:
        lines.append(
            f"  plan cache : entries={cache.get('entries')} "
            f"hits={cache.get('hits')} misses={cache.get('misses')} "
            f"hit_ratio={cache.get('hit_ratio')}"
        )
    wal = payload.get("wal")
    if wal:
        lines.append(
            f"  wal        : commits={wal.get('commits')} "
            f"syncs={wal.get('syncs')} "
            f"group_absorbed={wal.get('group_absorbed')} "
            f"ratio={wal.get('group_absorbed_ratio')}"
        )
    epochs = payload.get("epochs")
    if epochs:
        age = epochs.get("pin_age_s")
        lines.append(
            f"  epochs     : current={epochs.get('current')} "
            f"pinned={epochs.get('pinned')} "
            f"pin_age={'-' if age is None else f'{age:.3f}s'}"
        )
    tracer = payload.get("tracer")
    if tracer:
        lines.append(
            f"  tracer     : enabled={tracer.get('enabled')} "
            f"spans={tracer.get('spans_started')} "
            f"roots={tracer.get('roots_finished')}"
        )
    slowlog = payload.get("slowlog")
    if slowlog and slowlog.get("threshold_ms") is not None:
        lines.append(
            f"  slow log   : threshold={slowlog.get('threshold_ms')}ms "
            f"recorded={slowlog.get('recorded')}"
        )
    cluster = payload.get("cluster")
    if cluster:
        routing = cluster.get("routing") or {}
        lines.append(f"  routing    : {routing}")
        contacts = cluster.get("contacts_by_shard") or {}
        if contacts:
            spread = " ".join(f"s{k}={v}" for k, v in sorted(contacts.items()))
            lines.append(f"  contacts   : {spread}")

    ops = {
        name.split(".ops.", 1)[1]: value
        for name, value in counters.items() if ".ops." in name
    }
    def bytes_per_op(direction: str, cmd: str) -> str:
        # same precedence as the latency histograms: the server's own
        # counters, else (a cluster frontend) the router's
        for prefix in ("server", "router"):
            handled = counters.get(f"{prefix}.ops.{cmd}")
            if handled:
                moved = counters.get(f"{prefix}.bytes_{direction}.{cmd}", 0)
                return f"{moved / handled:.0f}"
        return "-"

    if ops:
        lines.append(
            "  cmd            ops      rate        p50        p95        p99 (ms)"
            "   in B/op  out B/op"
        )
        for cmd in sorted(ops):
            total = ops[cmd]
            rate = "-"
            if dt:
                prev = sum(
                    value for name, value in prev_counters.items()
                    if ".ops." in name and name.split(".ops.", 1)[1] == cmd
                )
                rate = f"{max(total - prev, 0) / dt:.1f}/s"
            hist = (histograms.get(f"server.latency_ms.{cmd}")
                    or histograms.get(f"router.latency_ms.{cmd}") or {})
            lines.append(
                f"  {cmd:<12s} {total:>6d} {rate:>9s} "
                f"{hist.get('p50', 0.0):>10.3f} {hist.get('p95', 0.0):>10.3f} "
                f"{hist.get('p99', 0.0):>10.3f}      "
                f"{bytes_per_op('in', cmd):>9s} {bytes_per_op('out', cmd):>9s}"
            )
    return lines


def _cmd_top(args: argparse.Namespace) -> int:
    """``repro top``: a live metrics view of a running server or cluster.

    Polls the ``metrics`` wire command every ``--interval`` seconds and
    redraws a one-screen summary: per-command ops and request rates with
    latency percentiles and bytes in/out per op, plan-cache hit ratio, WAL
    group-absorption, epoch pins, routing spread (against a cluster
    frontend).  ``--once`` prints a single frame and exits — the
    scriptable/CI form; ``--json`` dumps the raw payload instead of the
    rendered table.
    """
    from repro.server import ReproClient

    host, _, port = args.connect.rpartition(":")
    previous: Optional[dict] = None
    prev_t: Optional[float] = None
    frames = 0
    with ReproClient(host or "127.0.0.1", int(port), timeout=15.0) as db:
        while True:
            payload = db.metrics()
            now = time.monotonic()
            if args.json:
                print(json.dumps(payload, indent=2, sort_keys=True, default=str))
            else:
                if frames and sys.stdout.isatty():
                    print("\x1b[H\x1b[2J", end="")
                dt = None if prev_t is None else now - prev_t
                print("\n".join(_render_top(payload, previous, dt, args.connect)),
                      flush=True)
            frames += 1
            previous, prev_t = payload, now
            if args.once or (args.count is not None and frames >= args.count):
                return 0
            time.sleep(max(args.interval, 0.1))


@contextmanager
def _terminate_as_interrupt() -> Iterator[None]:
    """Deliver SIGTERM like Ctrl-C inside the scope: a termination signal
    must run the same orderly path — stop accepting, drain, checkpoint,
    truncate the WAL, close.  An acknowledged write is durable either way,
    but a clean exit spares the next open a replay."""
    import signal

    def _terminate(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _terminate)
        except (ValueError, OSError):  # non-main thread / unsupported
            pass
    try:
        yield
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the concurrent JSON-line server over one engine.

    ``--db PATH`` reopens a persistent catalog (``Engine.open``: WAL-tail
    replay, then re-attach) and checkpoints it on shutdown; without it the
    server runs on an in-memory SimulatedDisk.  SIGINT *and* SIGTERM both
    shut down cleanly — checkpoint, WAL truncate, close — so a supervised
    server (systemd, ``kill``) loses nothing and recovers instantly.
    ``--demo N`` preloads a ``base`` interval collection so clients have
    something to query immediately.
    """
    from repro.server import ReproServer

    # a dedicated server process services every connection from its own
    # thread; the interpreter's default 5 ms switch interval makes each
    # post-I/O wakeup queue behind whoever holds the GIL, inflating
    # request latency by orders of magnitude once a dozen clients are
    # connected — hand it off faster
    sys.setswitchinterval(0.0005)

    if args.trace or args.slow_query_ms is not None:
        # the slow-query log needs span trees, so --slow-query-ms
        # implies tracing
        from repro import obs

        obs.enable()
        if args.slow_query_ms is not None:
            obs.SLOWLOG.configure(
                threshold_ms=args.slow_query_ms, path=args.slow_query_log
            )

    if args.db:
        engine = Engine.open_or_create(
            args.db, block_size=args.block_size,
            buffer_pages=args.buffer_pages, wal=not args.no_wal,
        )
    else:
        engine = Engine(SimulatedDisk(args.block_size),
                        buffer_pages=args.buffer_pages)
    if args.demo:
        engine.create_collection(
            "base", random_intervals(args.demo, seed=args.seed), dynamic=True
        )
    server = ReproServer(engine, host=args.host, port=args.port,
                         close_engine=True)
    host, port = server.address
    durability = "wal" if engine.wal is not None else "checkpoint-only"
    observability = "tracing" if args.trace or args.slow_query_ms is not None else "metrics-only"
    if args.slow_query_ms is not None:
        observability += f"+slowlog({args.slow_query_ms:g}ms)"
    print(f"repro serve: B={engine.block_size} indexes={engine.names()} "
          f"durability={durability} obs={observability} "
          f"listening on {host}:{port}", flush=True)

    try:
        with _terminate_as_interrupt():
            server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down", flush=True)
    finally:
        server.close()
    print("repro serve: stopped", flush=True)
    return 0


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    """``repro cluster serve``: N shard servers behind one scatter-gather
    frontend, speaking the identical JSON-line protocol.

    With ``--dir`` the topology persists as ``cluster.json`` (plus one
    ``shard-<i>/`` data directory per shard): an existing catalog there is
    *reopened* — same strategy, splits and pruning window — and ``--shards``
    / ``--strategy`` are ignored with a notice.  Without ``--dir`` the
    cluster is ephemeral (in-memory shards).  SIGINT/SIGTERM drain
    gracefully: frontend first, then a parallel wire shutdown of every
    shard, exiting 0 only when all of them checkpointed cleanly.
    """
    from repro.cluster import TOPOLOGY_FILE, Cluster

    # same GIL handoff tuning as ``repro serve``: the router runs one
    # frontend thread per client plus the scatter pool, and a 5 ms
    # switch interval would serialize them in multi-millisecond steps
    sys.setswitchinterval(0.0005)

    directory = args.dir
    if directory and os.path.exists(os.path.join(directory, TOPOLOGY_FILE)):
        cluster = Cluster.open(
            directory, mode="process", host=args.host, port=args.port,
            buffer_pages=args.buffer_pages,
        )
        print(
            f"repro cluster: reopening {directory} "
            f"({cluster.shard_map.describe()}); --shards/--strategy ignored",
            flush=True,
        )
    else:
        cluster = Cluster.create(
            directory, shards=args.shards, strategy=args.strategy,
            domain=(args.domain[0], args.domain[1]), mode="process",
            host=args.host, port=args.port, block_size=args.block_size,
            buffer_pages=args.buffer_pages,
        )
    cluster.start()
    host, port = cluster.address
    print(
        f"repro cluster: {cluster.shard_map.shards} shards "
        f"[{cluster.shard_map.describe()}] "
        f"dir={directory or '(ephemeral)'} listening on {host}:{port}",
        flush=True,
    )

    clean = True
    try:
        with _terminate_as_interrupt():
            cluster.serve_forever()
    except KeyboardInterrupt:
        print("repro cluster: interrupted, draining shards", flush=True)
    finally:
        clean = cluster.close()
    print(f"repro cluster: stopped ({'clean' if clean else 'UNCLEAN'} drain)",
          flush=True)
    return 0 if clean else 1


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    """``repro cluster status``: one-shot health/topology of a live cluster."""
    from repro.server import ReproClient

    host, _, port = args.connect.rpartition(":")
    with ReproClient(host or "127.0.0.1", int(port), timeout=15.0) as db:
        stats = db.stats()
    cluster = stats.get("cluster")
    if cluster is None:
        print(f"{args.connect}: a single repro server (not a cluster)")
        return 0
    topo = cluster.get("topology", {})
    print(f"cluster at {args.connect}: {topo.get('shards')} shards, "
          f"strategy={topo.get('strategy')}")
    if topo.get("splits"):
        print(f"  splits: {topo['splits']}  max_length={topo.get('max_length')}")
    per_shard = {
        entry.get("shard"): entry for entry in cluster.get("per_shard", [])
    }
    for shard in cluster.get("shards", []):
        line = (f"  shard {shard.get('shard')}: {shard.get('state', '?'):9s} "
                f"{shard.get('address')}")
        detail = per_shard.get(shard.get("shard"), {})
        if detail.get("uptime_s") is not None:
            line += f"  up={detail['uptime_s']:.1f}s"
        if detail.get("contacts") is not None:
            line += f"  contacts={detail['contacts']}"
        if shard.get("fault"):
            line += f"  fault={shard['fault']}"
        print(line)
    routing = cluster.get("routing", {})
    print(f"  routing: {routing}")
    if cluster.get("uptime_s") is not None:
        print(f"  router uptime: {cluster['uptime_s']:.1f}s")
    engine = stats.get("engine", {})
    print(f"  engine: blocks={engine.get('blocks')} reads={engine.get('reads')} "
          f"writes={engine.get('writes')} indexes={engine.get('indexes')}")
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True, default=str))
    return 0


# --------------------------------------------------------------------------- #
# the persistent-database subcommands (bulk-load / delete / catalog)
# --------------------------------------------------------------------------- #
def _read_rows(path: str) -> List[Any]:
    """Raw record rows from a JSON array or JSON-lines file (no records built)."""
    with open(path) as fh:
        text = fh.read().strip()
    try:
        rows = json.loads(text)
        # a one-line JSON-lines file parses whole: one object, or one bare
        # [low, high] pair — recognisable by its scalar (non-container)
        # elements, since rows of a multi-record array are lists/dicts
        if isinstance(rows, dict):
            rows = [rows]
        elif (isinstance(rows, list) and len(rows) == 2
              and not any(isinstance(x, (list, dict)) for x in rows)):
            rows = [rows]
        if not isinstance(rows, list):
            raise ValueError("top-level JSON value must be a list")
    except json.JSONDecodeError:
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    return rows


def _as_intervals(rows: List[Any]) -> List[Interval]:
    """Interval records from parsed rows: ``[low, high]`` or
    ``{"low": .., "high": .., "payload": ..}``."""
    out = []
    for row in rows:
        if isinstance(row, dict):
            out.append(Interval(row["low"], row["high"], payload=row.get("payload")))
        else:
            out.append(Interval(row[0], row[1]))
    return out


def _cmd_bulk_load(args: argparse.Namespace) -> int:
    # parse the file first (a typo'd --file must not create a database as a
    # side effect), but construct the records only AFTER the catalog is
    # open: the restore advances the process uid counters past every stored
    # record, so the batch built here cannot collide with resident uids
    rows = _read_rows(args.file)
    engine = Engine.open_or_create(args.db, block_size=args.block_size)
    try:
        records = _as_intervals(rows)
        if args.index not in engine:
            engine.create_collection(args.index)
        batch_size = args.batch_size or len(records) or 1
        loaded = 0
        start = time.perf_counter()
        with engine.measure() as m:
            for begin in range(0, len(records), batch_size):
                loaded += engine.bulk_load(
                    args.index, records[begin : begin + batch_size]
                )
        elapsed = time.perf_counter() - start
        index = engine[args.index]
        print(f"bulk-load: {loaded} records -> {args.index!r} in {args.db}")
        print(f"  batch size     : {batch_size}")
        print(f"  I/Os           : {m.ios} ({m.ios / max(loaded, 1):.2f} per record)")
        print(f"  wall time      : {elapsed:.3f}s")
        print(f"  records live   : {getattr(index, 'live_count', len(index))}")
        print(f"  blocks used    : {index.block_count()}")
    finally:
        engine.close()
    return 0


def _cmd_delete(args: argparse.Namespace) -> int:
    if args.stab is None and args.range is None:
        print("delete: give --stab X or --range LO HI to select victims",
              file=sys.stderr)
        return 2
    q = Stab(args.stab) if args.stab is not None else Range(*args.range)
    if not FileDisk.exists(args.db):
        # a typo'd path must fail cleanly, not leave an empty page file behind
        print(f"delete: no database at {args.db!r} (missing sidecar)", file=sys.stderr)
        return 2
    engine = Engine.open(args.db)
    try:
        res = engine.session().delete_matching(args.index, q, limit=args.limit)
        index = engine[args.index]
        print(f"delete: {len(res)} records matching {q!r} from {args.index!r}")
        print(f"  I/Os           : {res.ios}")
        print(f"  records live   : {getattr(index, 'live_count', len(index))}")
    except KeyError as exc:
        print(f"delete: {exc.args[0]}", file=sys.stderr)
        return 2
    finally:
        engine.close()
    return 0


def _wal_records(db: str) -> "Tuple[str, Optional[List[Any]]]":
    """The log next to ``db``, decoded read-only: its path and every intact
    record (``None`` when there is no log)."""
    from repro.durability.wal import read_log
    from repro.engine.core import WAL_SUFFIX

    path = db + WAL_SUFFIX
    return path, list(read_log(path)) if os.path.exists(path) else None


def _cmd_wal(args: argparse.Namespace) -> int:
    """``repro wal inspect``: decode a database's write-ahead log.

    Read-only — a torn tail (the fingerprint of a crash mid-append) is
    reported, never truncated, so the command is safe on a live server's
    log and preserves a crashed process's evidence for a later recovery.
    """
    path, records = _wal_records(args.db)
    if records is None:
        print(f"wal inspect: no log at {path!r}", file=sys.stderr)
        return 2
    file_size = os.path.getsize(path)
    intact = sum(r.length for r in records)
    print(f"wal inspect: {path} ({file_size} bytes, {len(records)} records)")
    by_kind: dict = {}
    for r in records:
        by_kind[r.op[0]] = by_kind.get(r.op[0], 0) + 1
        if args.verbose:
            kind = r.op[0]
            if kind in ("insert", "delete", "update", "bulk", "drop"):
                target = r.op[1]
            else:  # create carries its catalog entry
                target = r.op[1].get("name", "?")
            extra = ""
            if kind == "bulk":
                extra = f" ({len(r.op[2])} records)"
            elif kind == "create":
                extra = f" ({len(r.op[2])} records, kind={r.op[1].get('kind')})"
            print(f"  lsn={r.lsn:<6d} epoch={r.epoch:<6d} offset={r.offset:<10d}"
                  f" {kind:7s} {target}{extra}")
    if by_kind:
        ops = ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
        print(f"  operations     : {ops}")
    epochs = [r.epoch for r in records]
    if epochs:
        print(f"  epoch range    : {min(epochs)}..{max(epochs)}")
    if intact < file_size:
        print(f"  torn tail      : {file_size - intact} trailing bytes fail "
              "framing/checksum (crash mid-append; recovery will truncate)")
    else:
        print("  torn tail      : none")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    """``repro catalog``: list the last checkpoint's catalog, read-only.

    Nothing is opened for writing, rebuilt, replayed or synced — the sidecar's
    extent table locates the catalog root, one page read (one I/O) yields the
    entries, the WAL is decoded only to count what lies past the checkpoint —
    so, like ``wal inspect``, it is safe on the database of a live server.
    """
    from repro.engine.core import read_catalog
    from repro.io import pagecodec
    from repro.io.counters import IOStats
    from repro.io.disk import Page
    from repro.io.filedisk import decode_page

    if not FileDisk.exists(args.db):
        print(f"catalog: no database at {args.db!r} (missing sidecar)", file=sys.stderr)
        return 2
    stats = IOStats()
    try:
        sidecar = FileDisk.read_sidecar(args.db)
    except pagecodec.PageFormatError as exc:
        print(f"catalog: {exc}", file=sys.stderr)
        return 2

    def read(block_id: int) -> Page:
        offset, length = sidecar["extents"][block_id]
        with open(args.db, "rb") as fh:
            fh.seek(offset)
            raw = fh.read(length)
        stats.count(reads=1)
        return decode_page(block_id, offset, length, raw, pagecodec.DecodeTally())

    entries = [entry for entry, _ in read_catalog(read, sidecar["meta"])]
    print(f"catalog: {args.db} (B={sidecar['block_size']}, "
          f"{len(sidecar['extents'])} blocks, {stats.reads} I/O)")
    if not entries:
        print("  (empty)")
    for entry in entries:
        params = ", ".join(
            f"{k}={len(v)} classes" if k == "hierarchy" else f"{k}={v!r}"
            for k, v in sorted(entry["params"].items())
        )
        print(f"  {entry['name']:20s} kind={entry['kind']:10s} "
              f"records={entry['count']}  {params}")
    durable = int(sidecar["meta"].get("durable_epoch", 0))
    tail = sum(1 for r in _wal_records(args.db)[1] or () if r.epoch > durable)
    print(f"  wal tail       : {tail} record(s) past the checkpoint "
          f"(epoch {durable}); the listing does not include them")
    return 0


def _changed_python_files(ref: str, targets: "List[Any]") -> "List[Any]":
    """Python files changed since ``ref`` that fall under the lint targets.

    Asks git for ``diff --name-only ref`` at the repository root, keeps
    the ``.py`` paths that still exist (deletions drop out), and then
    intersects with ``targets``: a changed file survives when it *is* a
    target or sits under a target directory.  Exits with a diagnostic if
    git is unavailable or ``ref`` does not resolve.
    """
    import subprocess
    from pathlib import Path

    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        diff = subprocess.run(
            ["git", "diff", "--name-only", ref, "--"],
            capture_output=True, text=True, check=True, cwd=top,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", "") or str(exc)
        print(f"lint --diff: git failed: {detail.strip()}", file=sys.stderr)
        raise SystemExit(2)

    resolved_targets = [Path(t).resolve() for t in targets]
    changed = []
    for name in diff.splitlines():
        if not name.endswith(".py"):
            continue
        path = Path(top, name)
        if not path.is_file():
            continue
        resolved = path.resolve()
        for target in resolved_targets:
            if resolved == target or target in resolved.parents:
                changed.append(path)
                break
    return changed


def _cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: the static concurrency analyzer (see repro.analysis).

    Lints the given paths (default: the installed ``repro`` package — or
    ``src/repro`` when run from a checkout) against the concurrency rule
    catalog.  ``--fixtures DIR`` instead checks the seeded-bad corpus: the
    linter must flag exactly the ``# seeded: <rule>`` lines.  ``--check``
    makes findings (or a corpus mismatch) exit nonzero — the CI gate.
    ``--diff REF`` restricts the lint targets to Python files changed
    since REF (``git diff --name-only``) — but note the interprocedural
    rules see only the *lint targets* as the whole program, so a diff
    lint can both miss cross-file regressions and flag effects whose
    justification (an IOStats charge, a generation bump) lives in an
    unchanged file; it is a fast pre-push filter, not the CI gate.
    """
    from pathlib import Path

    from repro.analysis.lint import (
        Linter,
        check_fixture_corpus,
        render_report,
        write_json_report,
    )
    from repro.analysis.lintrules import rule_catalog

    if args.rules:
        for rule_id, description in rule_catalog().items():
            print(f"{rule_id}:\n    {description}")
        return 0

    status = 0
    if args.fixtures is not None:
        corpus = check_fixture_corpus(Path(args.fixtures))
        for path, line, rule in corpus["missed"]:  # type: ignore[union-attr]
            print(f"{path}:{line}: seeded [{rule}] violation NOT flagged")
        for path, line, rule in corpus["unexpected"]:  # type: ignore[union-attr]
            print(f"{path}:{line}: unseeded [{rule}] finding (false positive)")
        expected = corpus["expected"]
        assert isinstance(expected, list)
        print(
            f"fixture corpus: {len(expected)} seeded violation(s), "
            f"{'all flagged, no false positives' if corpus['ok'] else 'MISMATCH'}"
        )
        if not corpus["ok"]:
            status = 1

    if args.paths or args.fixtures is None:
        if args.paths:
            paths = [Path(p) for p in args.paths]
        else:
            checkout = Path("src/repro")
            paths = [checkout if checkout.is_dir() else Path(__file__).parent]
        if args.diff is not None:
            paths = _changed_python_files(args.diff, paths)
            if not paths:
                print(f"lint --diff {args.diff}: no changed Python files "
                      "under the lint targets; nothing to lint")
                return status
        linter = Linter()
        linter.lint_paths(paths)
        print(render_report(linter))
        if args.report is not None:
            write_json_report(linter, Path(args.report))
        if args.check and linter.findings:
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="I/O-efficient indexing for constraints and classes (PODS'93 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend",
            choices=["memory", "file"],
            default="memory",
            help="page store: in-memory SimulatedDisk or file-backed FileDisk",
        )
        p.add_argument(
            "--buffer-pages",
            type=int,
            default=None,
            metavar="PAGES",
            help="wrap the backend in an LRU BufferManager of this many "
                 "resident pages (the paper's O(B^2) main memory is PAGES=B)",
        )

    def add_interval_query(
        p: argparse.ArgumentParser, *, stab: str, range_: str, endpoint: str,
        after_stab: Callable[[], Any] = lambda: None,
    ) -> None:
        """The data and query flags ``explain`` and ``trace`` share (what
        :func:`_compose_explain_query` reads); only the help texts differ."""
        p.add_argument("--n", type=int, default=5_000)
        p.add_argument("--block-size", type=int, default=16)
        p.add_argument("--mean-length", type=float, default=25.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--stab", type=float, default=None, metavar="X", help=stab)
        after_stab()  # flags keep their --help order
        p.add_argument("--range", type=float, nargs=2, default=None,
                       metavar=("LO", "HI"), help=range_)
        p.add_argument("--endpoint", action="append", nargs=3, default=None,
                       metavar=("SIDE", "LO", "HI"), help=endpoint)
        p.add_argument("--order-by", choices=["low", "high"], default=None)
        p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser("intervals", help="interval-management demo (Theorem 3.2/3.7)")
    p.add_argument("--n", type=int, default=5_000)
    p.add_argument("--block-size", type=int, default=16)
    p.add_argument("--queries", type=int, default=20)
    p.add_argument("--mean-length", type=float, default=25.0)
    p.add_argument("--seed", type=int, default=0)
    add_backend(p)
    p.set_defaults(func=_cmd_intervals)

    p = sub.add_parser("classes", help="class-indexing demo (Theorems 2.6/4.7)")
    p.add_argument("--classes", type=int, default=64)
    p.add_argument("--objects", type=int, default=5_000)
    p.add_argument("--block-size", type=int, default=16)
    p.add_argument("--queries", type=int, default=20)
    p.add_argument("--method", choices=ClassIndexer.methods(), default="combined")
    p.add_argument("--seed", type=int, default=0)
    add_backend(p)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("tessellation", help="Lemma 2.7 lower-bound demo")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--block-size", type=int, default=64)
    p.set_defaults(func=_cmd_tessellation)

    p = sub.add_parser(
        "explain",
        help="show the planner's chosen plan and predicted bound for a "
             "composed query over a multi-index interval collection",
    )
    add_interval_query(
        p,
        stab="conjoin a stabbing query at X",
        range_="conjoin an intersection query",
        endpoint="conjoin an endpoint range (SIDE is 'low' or 'high'); repeatable",
    )
    p.add_argument("--cached", action="store_true",
                   help="re-plan the same query and report whether the "
                        "planner's signature-keyed plan cache served it")
    add_backend(p)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "trace",
        help="run one traced request and print its span tree, checking "
             "that the tree's I/Os compose and the bound residual holds",
    )
    add_interval_query(
        p,
        stab="stab point (default 500.0); with --adhoc this conjoins like 'explain'",
        range_="[--adhoc] conjoin an intersection query",
        endpoint="[--adhoc] conjoin an endpoint range; repeatable",
        after_stab=lambda: p.add_argument(
            "--adhoc", action="store_true",
            help="route the composed explain-style query through the full "
                 "planner instead of the prepared fast path (shows "
                 "planner.plan / planner.enumerate)"),
    )
    p.add_argument("--out", default=None, metavar="JSON",
                   help="also write the span tree as JSON (the CI trace "
                        "artifact)")
    add_backend(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "top",
        help="live metrics view of a running server/cluster: ops rates, "
             "latency percentiles, plan-cache and WAL ratios "
             "(polls the 'metrics' wire command)",
    )
    p.add_argument("--connect", default="127.0.0.1:7411", metavar="HOST:PORT")
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="seconds between polls (floor 0.1)")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (scriptable/CI form)")
    p.add_argument("--count", type=int, default=None, metavar="N",
                   help="exit after N frames")
    p.add_argument("--json", action="store_true",
                   help="dump the raw metrics payload instead of the table")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "serve",
        help="serve the engine over TCP (JSON-line protocol; MVCC snapshot "
             "reads, WAL-durable writes on persistent catalogs)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7411,
                   help="bind port (0 picks a free one; the bound address "
                        "is printed on stdout)")
    p.add_argument("--db", default=None, metavar="PATH",
                   help="serve a persistent FileDisk catalog (created if "
                        "missing; checkpointed on shutdown)")
    p.add_argument("--block-size", type=int, default=16)
    p.add_argument("--buffer-pages", type=int, default=None, metavar="PAGES",
                   help="wrap the backend in an LRU BufferManager")
    p.add_argument("--demo", type=int, default=0, metavar="N",
                   help="preload a 'base' collection of N random intervals")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-wal", action="store_true",
                   help="[--db] run without a write-ahead log: acknowledged "
                        "writes are only durable at the next checkpoint "
                        "(the pre-WAL behaviour)")
    p.add_argument("--trace", action="store_true",
                   help="enable request tracing: every request builds a "
                        "span tree (kept in the tracer's ring; exported "
                        "via 'metrics'); off by default — the disabled "
                        "tracer costs one flag test per site")
    p.add_argument("--slow-query-ms", type=float, default=None, metavar="MS",
                   help="record requests slower than MS into the "
                        "slow-query log (implies --trace)")
    p.add_argument("--slow-query-log", default=None, metavar="PATH",
                   help="[--slow-query-ms] also append slow-query records "
                        "as JSON lines to PATH")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "cluster",
        help="hash/range-partitioned multi-shard serving behind one "
             "scatter-gather frontend (same wire protocol as 'serve')",
    )
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)
    cs = cluster_sub.add_parser(
        "serve",
        help="boot N shard servers and the routing frontend; an existing "
             "--dir cluster.json is reopened with its persisted topology",
    )
    cs.add_argument("--host", default="127.0.0.1")
    cs.add_argument("--port", type=int, default=7412,
                    help="frontend bind port (0 picks a free one; the bound "
                         "address is printed on stdout); shards always bind "
                         "ephemeral loopback ports")
    cs.add_argument("--shards", type=int, default=2,
                    help="number of shard servers (ignored when --dir holds "
                         "an existing cluster catalog)")
    cs.add_argument("--strategy", choices=["hash", "range"], default="hash",
                    help="partitioning: 'hash' spreads records by uid "
                         "(reads broadcast), 'range' slabs them by low "
                         "endpoint (stab/range reads prune shards)")
    cs.add_argument("--domain", type=float, nargs=2, default=(0.0, 1000.0),
                    metavar=("LO", "HI"),
                    help="[range] endpoint domain split evenly into slabs "
                         "(shapes balance only; out-of-domain records still "
                         "belong to the edge shards)")
    cs.add_argument("--dir", default=None, metavar="DIR",
                    help="cluster directory: cluster.json topology plus one "
                         "persistent shard-<i>/ database per shard (WAL "
                         "durability); omitted = ephemeral in-memory shards")
    cs.add_argument("--block-size", type=int, default=16)
    cs.add_argument("--buffer-pages", type=int, default=None, metavar="PAGES")
    cs.set_defaults(func=_cmd_cluster_serve)
    ct = cluster_sub.add_parser(
        "status",
        help="print a live cluster's topology, shard health and routing "
             "counters (one stats round-trip)",
    )
    ct.add_argument("--connect", default="127.0.0.1:7412", metavar="HOST:PORT")
    ct.add_argument("--json", action="store_true",
                    help="also dump the full stats payload as JSON")
    ct.set_defaults(func=_cmd_cluster_status)

    def add_db(p: argparse.ArgumentParser) -> None:
        p.add_argument("--db", required=True, metavar="PATH",
                       help="persistent FileDisk page file (catalog survives "
                            "across invocations)")
        p.add_argument("--index", default="intervals",
                       help="index name inside the catalog")
        p.add_argument("--block-size", type=int, default=16,
                       help="page size B when creating a fresh database "
                            "(ignored on reopen)")

    p = sub.add_parser(
        "bulk-load",
        help="load interval records from a JSON file into a persistent "
             "collection in one bulk reorganisation per batch",
    )
    add_db(p)
    p.add_argument("--file", required=True, metavar="RECORDS",
                   help="JSON array or JSON-lines of [low, high] or "
                        '{"low":..,"high":..,"payload":..} records')
    p.add_argument("--batch-size", type=int, default=0,
                   help="records per bulk_load call; 0 (default) loads "
                        "everything in one reorganisation, which is the "
                        "cheapest in total I/O — smaller batches bound the "
                        "latency of each reorganisation at the cost of "
                        "repeated rebuilds")
    p.set_defaults(func=_cmd_bulk_load)

    p = sub.add_parser(
        "delete",
        help="delete the records matching a stab/range query from a "
             "persistent collection",
    )
    add_db(p)
    p.add_argument("--stab", type=float, default=None, metavar="X",
                   help="delete records containing X")
    p.add_argument("--range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"), help="delete records intersecting [LO, HI]")
    p.add_argument("--limit", type=int, default=None,
                   help="delete at most this many matches")
    p.set_defaults(func=_cmd_delete)

    p = sub.add_parser("catalog", help="list the persisted engine catalog of a database")
    p.add_argument("--db", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser(
        "wal",
        help="write-ahead-log tools for a persistent database",
    )
    wal_sub = p.add_subparsers(dest="wal_command", required=True)
    wi = wal_sub.add_parser(
        "inspect",
        help="decode the log next to --db read-only: records, epochs, "
             "operation mix, torn-tail diagnosis",
    )
    wi.add_argument("--db", required=True, metavar="PATH",
                    help="page file whose <PATH>.wal log to inspect")
    wi.add_argument("--verbose", "-v", action="store_true",
                    help="print every record (lsn, epoch, offset, operation)")
    wi.set_defaults(func=_cmd_wal)

    p = sub.add_parser(
        "lint",
        help="static analyzer: lock discipline, commit protocol, I/O "
             "accounting, plan-cache generations, wire exhaustiveness",
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="files or directories to lint (default: the repro "
                        "package / src/repro in a checkout)")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero on any finding (the CI gate)")
    p.add_argument("--diff", default=None, metavar="REF",
                   help="lint only Python files changed since this git ref "
                        "(intersected with PATH targets; a fast pre-push "
                        "filter — interprocedural rules see only the "
                        "changed files, so the full gate still rules)")
    p.add_argument("--fixtures", default=None, metavar="DIR",
                   help="also verify the seeded-bad fixture corpus in DIR "
                        "(every '# seeded: <rule>' line must be flagged)")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="write the JSON report (findings, suppressions, "
                        "lock graph, rule catalog) to FILE")
    p.add_argument("--rules", action="store_true",
                   help="print the rule catalog and exit")
    p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
