# ruff: noqa
"""Seeded-bad fixture: a cluster router holding locks the wrong way round.

The declared order is topology latch (``_topology_lock``) before the
per-link RPC lock (``_rpc_lock``): a scatter thread that grabs the pool
lock and *then* reaches back for the topology latch can deadlock against a
writer persisting a grown ``max_length`` while it scatters.  The RPC lock
guards only a connection pool, so a socket round-trip under it is
blocking under a lock like any other.
"""
import threading


class ShardConnection:
    def __init__(self, sock):
        self._rpc_lock = threading.Lock()
        self.sock = sock
        self.idle = []

    def checkout_then_reroute(self, router):
        with self._rpc_lock:
            sock = self.idle.pop()
            with router._topology_lock:  # seeded: lock-order
                router.rebalance()
        return sock

    def round_trip_under_the_pool_lock(self, payload):
        with self._rpc_lock:
            self.sock.sendall(payload)  # seeded: blocking-under-mutex
            return self.sock.recv(4096)  # seeded: blocking-under-mutex


class ShardRouter:
    def __init__(self, links):
        self._topology_lock = threading.Lock()
        self.links = links

    def rebalance(self):
        return len(self.links)

    def recv_under_latch(self, connection):
        with self._topology_lock:
            return connection.sock.recv(4096)  # seeded: blocking-under-mutex

    def classify_under_latch_is_fine(self, record):
        with self._topology_lock:
            return hash(record) % len(self.links)

    def scatter_in_order_is_fine(self, connection, payload):
        with self._topology_lock:
            targets = list(self.links)
        for target in targets:
            with connection._rpc_lock:
                sock = connection.idle.pop()
            sock.sendall(payload)
        return targets
