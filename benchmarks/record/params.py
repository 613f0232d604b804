"""Fixed parameters of the benchmark of record.

``BENCHMARK.json`` has a closed set of keys — the workloads and the
metrics' names, units, directions and bounds, read through
:func:`contract` — so everything else that defines a run lives here: data
size, page size, the shapes of the op streams.

The sizes are chosen to stay comparable with the numbers README/ROADMAP
quote (n = 10 000 intervals of mean length 20 on [0, 1000], B = 16,
t ≈ 194 records per stab).
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]

N = 10_000
BLOCK_SIZE = 16
DOMAIN: Tuple[float, float] = (0.0, 1000.0)
MEAN_LENGTH = 20.0
#: records per ``bulk_load`` request when a server is loaded over the wire
LOAD_BATCH = 2_000

#: ``embedded_class``: balanced_hierarchy(depth, fanout) = 40 classes
CLASS_DEPTH = 3
CLASS_FANOUT = 3
#: queries go to the classes with the largest full extents
CLASS_TARGETS = 10
CLASS_WIDTH = 60.0
#: ``wire_mixed`` reads: narrow low-endpoint ranges (t ≈ 5)
ENDPOINT_WIDTH = 0.5
#: ``wire_mixed`` writer: own records kept live before deletes start
LIVE_TARGET = 200
#: ``cluster_mixed``: every 4th op is a write
CLUSTER_SHARDS = 4
WRITE_EVERY = 4

#: set-up is repeated in one run and its median reported: at least
#: SETUP_REPEATS times and until SETUP_MIN_S of set-up have been seen
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 9
WARMUP_OPS = 100
#: the timed phase is cut into this many slices, and throughput and read
#: latencies are taken over the QUIET_SHARE of them with the highest
#: throughput (see ``workloads.Samples.quiet``)
SLICES = 80
QUIET_SHARE = 0.1
#: answers are verified untimed after every this many ops of a caller, which
#: bounds what the harness holds in memory
VERIFY_BATCH = 256
#: completeness against the brute-force oracle on every k-th read (every read
#: in ``--smoke``); soundness is checked on all of them.  One oracle pass is
#: n ``q.matches`` calls, ~25 embedded reads' worth of time, so at the issue's
#: k = 16 verifying took longer than measuring
ORACLE_EVERY = 64
#: ``ios_per_read`` / ``bound_ratio`` are taken over the first reads of the
#: seeded stream only, so on read-only workloads they repeat exactly no
#: matter how many ops the time box admits
COUNT_WINDOW = 1500
#: every client call carries this timeout: a hung server fails the op
CLIENT_TIMEOUT_S = 20.0
#: the traced run replays this many sampled ops at each rung of the ladder
LADDER_READS = 200
LADDER_WRITES = 60

#: ``--smoke`` shrinks the data (the time box is the caller's to shrink)
SMOKE_N_DIVISOR = 10


@functools.lru_cache(maxsize=None)
def contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place that names workloads and metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def workloads() -> List[str]:
    return [w["name"] for w in contract()["workloads"]]


def units(section: str) -> Dict[str, str]:
    """name -> unit of the ``end_to_end`` or the ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in contract()[section]}
