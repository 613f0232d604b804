"""``Cluster`` — the facade tying topology, shards, router and frontend.

One object owns the whole lifecycle::

    with Cluster.create(dir, shards=4, strategy="range") as cluster:
        host, port = cluster.address          # speak ReproClient at it
        ...
    # __exit__ closed the frontend, then gracefully drained every shard

``create`` lays down a fresh topology (persisted as ``cluster.json`` in
the cluster directory, next to the per-shard ``shard-<i>/`` data
directories); ``open`` restores one — same strategy, same split points,
same grown ``max_length`` — so a restarted cluster routes exactly like
the one that wrote the data.  ``start`` then:

1. boots the shards (:class:`~repro.cluster.supervisor.ShardSupervisor`),
2. wires one pooled :class:`~repro.cluster.router.ShardConnection` each,
3. builds the :class:`~repro.cluster.router.ShardRouter` and
   **bootstraps** it — adopting the shards' resident index names and
   advancing this process's uid counters past every stored uid (the
   router mints identities; a restart must never re-mint one),
4. binds the :class:`~repro.cluster.router.ClusterFrontend` clients talk
   to.

``close(drain=True)`` is the graceful path: frontend first (no new
requests), then a parallel wire-``shutdown`` drain of the shards — each
checkpoints, truncates its WAL and exits 0 — and a final topology save.
The CLI (``repro cluster serve``) runs exactly this on SIGTERM, which is
what the CI drain check observes.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.cluster.router import ClusterFrontend, ShardConnection, ShardRouter
from repro.cluster.supervisor import ShardSupervisor
from repro.cluster.topology import ShardMap

#: the persisted topology catalog inside a cluster directory
TOPOLOGY_FILE = "cluster.json"
TOPOLOGY_FORMAT = 1


class Cluster:
    """N shard servers + scatter-gather router behind one address."""

    def __init__(
        self,
        shard_map: ShardMap,
        *,
        directory: Optional[str] = None,
        mode: str = "process",
        host: str = "127.0.0.1",
        port: int = 0,
        block_size: int = 16,
        buffer_pages: Optional[int] = None,
    ) -> None:
        self.shard_map = shard_map
        self.directory = directory
        self.mode = mode
        self.host = host
        self.port = port
        self.block_size = block_size
        self.buffer_pages = buffer_pages
        self.supervisor: Optional[ShardSupervisor] = None
        self.router: Optional[ShardRouter] = None
        self.frontend: Optional[ClusterFrontend] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        directory: Optional[str] = None,
        *,
        shards: int = 2,
        strategy: str = "hash",
        domain: Tuple[float, float] = (0.0, 1000.0),
        splits: Optional[Sequence[float]] = None,
        mode: str = "process",
        host: str = "127.0.0.1",
        port: int = 0,
        block_size: int = 16,
        buffer_pages: Optional[int] = None,
    ) -> "Cluster":
        """A fresh cluster (topology persisted when ``directory`` given)."""
        if strategy == "range":
            if splits is not None:
                shard_map = ShardMap(shards, "range", splits=splits)
            else:
                shard_map = ShardMap.even_splits(shards, domain=domain)
        else:
            shard_map = ShardMap(shards, strategy)
        cluster = cls(
            shard_map, directory=directory, mode=mode, host=host, port=port,
            block_size=block_size, buffer_pages=buffer_pages,
        )
        if directory:
            os.makedirs(directory, exist_ok=True)
            cluster._save_topology()
        return cluster

    @classmethod
    def open(
        cls,
        directory: str,
        *,
        mode: str = "process",
        host: str = "127.0.0.1",
        port: int = 0,
        buffer_pages: Optional[int] = None,
    ) -> "Cluster":
        """Restore a persisted cluster from its ``cluster.json``."""
        path = os.path.join(directory, TOPOLOGY_FILE)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("format") != TOPOLOGY_FORMAT:
            raise ValueError(
                f"{path}: unknown topology format {data.get('format')!r} "
                f"(this build reads format {TOPOLOGY_FORMAT})"
            )
        return cls(
            ShardMap.from_dict(data),
            directory=directory,
            mode=mode,
            host=host,
            port=port,
            block_size=int(data.get("block_size", 16)),
            buffer_pages=buffer_pages,
        )

    def _save_topology(self) -> None:
        if not self.directory:
            return
        path = os.path.join(self.directory, TOPOLOGY_FILE)
        payload = {
            "format": TOPOLOGY_FORMAT,
            **self.shard_map.as_dict(),
            "block_size": self.block_size,
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            print(file=fh)
        os.replace(tmp, path)  # atomic: readers never see a torn catalog

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "Cluster":
        """Boot shards, wire the router, bind the frontend."""
        if self.frontend is not None:
            return self
        try:
            self.supervisor = ShardSupervisor(
                mode=self.mode,
                directory=self.directory,
                block_size=self.block_size,
                buffer_pages=self.buffer_pages,
            )
            handles = self.supervisor.start_shards(self.shard_map.shards)
            links = [ShardConnection(h.shard, h.host, h.port) for h in handles]
            self.router = ShardRouter(
                self.shard_map,
                links,
                supervisor=self.supervisor,
                persist=self._save_topology if self.directory else None,
            )
            self.router.bootstrap()
            self.frontend = ClusterFrontend(self.router, self.host, self.port).start()
        except BaseException:
            # a start that fails part-way (a shard that will not boot, a
            # bootstrap error, a frontend port in use) must not leave the
            # shards it did boot running with nobody holding their handles
            self.close(drain=False)
            raise
        return self

    @property
    def address(self) -> Tuple[str, int]:
        if self.frontend is None:
            raise RuntimeError("the cluster is not started")
        return self.frontend.address

    def serve_forever(self) -> None:
        """Block serving the frontend (what ``repro cluster serve`` runs)."""
        if self.frontend is None:
            raise RuntimeError("the cluster is not started")
        self.frontend.serve_forever()

    def status(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"topology": self.shard_map.as_dict()}
        if self.frontend is not None:
            host, port = self.frontend.address
            out["address"] = f"{host}:{port}"
        if self.supervisor is not None:
            out["shards"] = self.supervisor.status()
        return out

    def close(self, *, drain: bool = True) -> bool:
        """Frontend down, shards drained (or killed); True == all clean."""
        clean = True
        if self.frontend is not None:
            self.frontend.close()
            self.frontend = None
        if self.router is not None:
            self.router.close()
            self.router = None
        if self.supervisor is not None:
            if drain:
                clean = self.supervisor.drain()
            else:
                self.supervisor.kill()
            self.supervisor = None
        self._save_topology()  # the final max_length makes it to disk
        return clean

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()
