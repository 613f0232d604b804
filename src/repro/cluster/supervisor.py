"""``ShardSupervisor`` — starts, watches, drains the cluster's shards.

Each shard is one ordinary ``ReproServer`` over its own engine — its own
page file, its own WAL, its own commit mutex — which is the whole point:
N shards give the cluster N independent write pipelines.  The supervisor
runs them in one of two modes:

``process``
    ``python -m repro serve --port 0 --db <dir>/shard-<i>/shard.pages``
    per shard (production shape: a crash takes out one shard, its WAL
    replays on restart).  Readiness is the server's own ``listening on``
    line plus a ``ping`` round-trip.

``thread``
    In-process :class:`~repro.server.ReproServer` instances on real
    loopback sockets — the wire protocol is still fully exercised, but
    tests skip N interpreter startups.

Liveness questions go through :meth:`ensure_alive`, which raises the
protocol's :class:`~repro.server.protocol.ShardUnavailableError` with
the shard's observed state (exit code, never-started, closed) — the
router converts a mid-request connection failure into that structured
error instead of hanging or leaking a raw ``ConnectionError``.

Shutdown is a **graceful drain**: each live shard gets a wire
``shutdown`` (so it checkpoints, truncates its WAL and exits 0), in
parallel, before anything is forcibly killed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.server import protocol as P
from repro.server.client import ReproClient

MODES = ("process", "thread")


@dataclass
class ShardHandle:
    """One shard's runtime state as the supervisor sees it."""

    shard: int
    host: str = ""
    port: int = 0
    db_path: Optional[str] = None
    proc: Optional[subprocess.Popen] = None
    server: Any = None  # thread mode: the in-process ReproServer
    started: bool = False
    drained: bool = False
    #: first observed failure description (exit code, refused ping...)
    fault: Optional[str] = None

    def alive(self) -> bool:
        if not self.started or self.drained:
            return False
        if self.proc is not None:
            return self.proc.poll() is None
        if self.server is not None:
            return not self.server._closed
        return False

    def status(self) -> Dict[str, Any]:
        state = "live" if self.alive() else (
            "drained" if self.drained else
            "dead" if self.started else "unstarted"
        )
        out: Dict[str, Any] = {
            "shard": self.shard,
            "address": f"{self.host}:{self.port}" if self.started else None,
            "state": state,
        }
        if self.db_path:
            out["db"] = self.db_path
        if self.proc is not None and self.proc.poll() is not None:
            out["exit_code"] = self.proc.poll()
        if self.fault:
            out["fault"] = self.fault
        return out


def _python_env() -> Dict[str, str]:
    """The child environment with this package importable."""
    import repro

    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    return env


class ShardSupervisor:
    """Spawn/monitor/drain N shard servers (see the module docstring)."""

    def __init__(
        self,
        *,
        mode: str = "process",
        directory: Optional[str] = None,
        block_size: int = 16,
        buffer_pages: Optional[int] = None,
        start_timeout: float = 30.0,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown supervisor mode {mode!r}; know {list(MODES)}")
        self.mode = mode
        self.directory = directory
        self.block_size = block_size
        self.buffer_pages = buffer_pages
        self.start_timeout = start_timeout
        self.handles: List[ShardHandle] = []
        #: guards the handle list (status reads race shard starts/drains)
        self._spawn_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # starting
    # ------------------------------------------------------------------ #
    def start_shards(self, count: int) -> List[ShardHandle]:
        """Boot ``count`` shards and wait until each answers ``ping``.

        In process mode every child is spawned before any is waited for, so
        the interpreters start side by side; each shard's ``start_timeout``
        counts from its own spawn.  When one does not come up this raises
        with every shard spawned so far still running: they are on
        ``self.handles``, and the caller must ``kill()``.
        """
        handles = [ShardHandle(shard=i) for i in range(count)]
        with self._spawn_lock:
            self.handles = handles
        if self.mode == "process":
            deadlines = [self._spawn_process_shard(handle) for handle in handles]
            for handle, deadline in zip(handles, deadlines):
                self._await_address(handle, deadline)
        else:
            for handle in handles:
                self._start_thread_shard(handle)
        for handle in handles:
            self._probe(handle)
        return handles

    def _shard_db(self, shard: int) -> Optional[str]:
        if self.directory is None:
            return None
        shard_dir = os.path.join(self.directory, f"shard-{shard}")
        os.makedirs(shard_dir, exist_ok=True)
        return os.path.join(shard_dir, "shard.pages")

    def _spawn_process_shard(self, handle: ShardHandle) -> float:
        """Start the child of ``handle``; returns the deadline of its start."""
        db_path = self._shard_db(handle.shard)
        cmd = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--block-size", str(self.block_size),
        ]
        if db_path:
            cmd += ["--db", db_path]
        if self.buffer_pages:
            cmd += ["--buffer-pages", str(self.buffer_pages)]
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=_python_env(),
        )
        # on the handle before the child has said anything, so that kill()
        # reaches it however the start ends
        handle.db_path, handle.proc = db_path, proc
        return time.monotonic() + self.start_timeout

    def _await_address(self, handle: ShardHandle, deadline: float) -> None:
        """Read the child's output up to its ``listening on`` line."""
        proc = handle.proc
        output: List[str] = []
        while True:
            line = proc.stdout.readline()
            if "listening on" in line:
                address = line.rsplit(" ", 1)[-1].strip()
                host, port = address.rsplit(":", 1)
                handle.host, handle.port = host, int(port)
                break
            if not line:
                # end of output without an address: the child is gone (or
                # going) — reap it, and report what it printed on the way
                _wait_clean(proc, 10.0)
                raise P.ShardUnavailableError(
                    f"shard {handle.shard} failed to start (exit "
                    f"{proc.returncode}): {''.join(output).strip() or 'no output'}"
                )
            output.append(line)
            if time.monotonic() > deadline:
                raise P.ShardUnavailableError(
                    f"shard {handle.shard} did not report an address within "
                    f"{self.start_timeout}s"
                )
        handle.started = True

    def _start_thread_shard(self, handle: ShardHandle) -> None:
        from repro.engine import Engine
        from repro.io import SimulatedDisk
        from repro.server import ReproServer

        db_path = self._shard_db(handle.shard)
        if db_path:
            engine = Engine.open_or_create(
                db_path, block_size=self.block_size, buffer_pages=self.buffer_pages
            )
        else:
            engine = Engine(
                SimulatedDisk(self.block_size), buffer_pages=self.buffer_pages
            )
        server = ReproServer(engine, close_engine=True).start()
        handle.host, handle.port = server.address
        handle.db_path, handle.server, handle.started = db_path, server, True

    def _probe(self, handle: ShardHandle) -> None:
        """One ping round-trip (the client's own backoff rides the race)."""
        try:
            with ReproClient(handle.host, handle.port, timeout=10.0,
                             connect_retries=6) as probe:
                probe.ping()
        except (OSError, RuntimeError) as exc:
            handle.fault = f"readiness probe failed: {exc!r}"
            raise P.ShardUnavailableError(
                f"shard {handle.shard} at {handle.host}:{handle.port} "
                f"never became ready: {exc}"
            ) from exc

    # ------------------------------------------------------------------ #
    # watching
    # ------------------------------------------------------------------ #
    def addresses(self) -> List[Any]:
        return [(h.host, h.port) for h in self.handles]

    def ensure_alive(self, shard: int, *, context: str = "") -> None:
        """Raise a structured ``shard_unavailable`` unless ``shard`` is live."""
        with self._spawn_lock:
            handle = self.handles[shard]
            alive = handle.alive()
            status = handle.status()
        if not alive:
            detail = status.get("fault") or status["state"]
            if "exit_code" in status:
                detail += f" (exit {status['exit_code']})"
            suffix = f" during {context}" if context else ""
            raise P.ShardUnavailableError(
                f"shard {shard} at {status.get('address')} is unavailable"
                f"{suffix}: {detail}"
            )

    def status(self) -> List[Dict[str, Any]]:
        with self._spawn_lock:
            return [h.status() for h in self.handles]

    # ------------------------------------------------------------------ #
    # stopping
    # ------------------------------------------------------------------ #
    def drain(self, timeout: float = 20.0) -> bool:
        """Gracefully stop every live shard; True when all exited cleanly.

        Parallel wire ``shutdown`` per shard — a process shard
        checkpoints, truncates its WAL and exits 0; a thread shard closes
        its server (which closes its engine).  Dead shards are skipped.
        """
        clean = [True] * len(self.handles)

        def stop(handle: ShardHandle) -> None:
            if not handle.alive():
                clean[handle.shard] = not handle.started or handle.drained
                return
            try:
                if handle.proc is not None:
                    with ReproClient(handle.host, handle.port, timeout=timeout,
                                     connect_retries=0) as db:
                        db.shutdown()
                    clean[handle.shard] = _wait_clean(handle.proc, timeout)
                else:
                    handle.server.close()
            except (OSError, RuntimeError) as exc:
                handle.fault = f"drain failed: {exc!r}"
                clean[handle.shard] = False
            handle.drained = True

        threads = [
            threading.Thread(target=stop, args=(h,), daemon=True)
            for h in self.handles
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout + 5)
        return all(clean)

    def kill(self) -> None:
        """Hard stop (the drain's fallback and the tests' crash injector)."""
        for handle in self.handles:
            if handle.proc is not None and handle.proc.poll() is None:
                handle.proc.kill()
                handle.proc.wait(timeout=10)
            if handle.server is not None:
                handle.server.close()
            handle.drained = True


def _wait_clean(proc: subprocess.Popen, timeout: float) -> bool:
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return False
