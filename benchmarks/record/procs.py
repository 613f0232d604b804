"""Spawning, measuring and reaping the server processes a workload drives.

Every server binds port 0 and runs in its own session (process group), so
one ``killpg`` reaches a cluster frontend *and* its shard children on the
failure paths.  The normal path is the wire ``shutdown`` followed by
``wait``; :meth:`ServerProcess.close` falls back to the kill when that
does not finish in time, and is idempotent so callers can put it in a
``finally`` unconditionally.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.server import ReproClient

from benchmarks.record import params

SRC = params.ROOT / "src"


def _status_field(pid: int, field: str) -> Optional[str]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one process in MiB (0.0 once it is gone)."""
    value = _status_field(pid, "VmHWM")
    return int(value.split()[0]) / 1024.0 if value else 0.0


def children_of(pid: int) -> List[int]:
    """Live direct children of ``pid`` (a cluster frontend's shards)."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _status_field(int(entry), "PPid") == str(pid):
            out.append(int(entry))
    return out


def running(pid: int) -> bool:
    state = _status_field(pid, "State")
    return state is not None and not state.startswith("Z")


class ServerProcess:
    """One ``python -m repro ...`` server (and whatever it spawns)."""

    def __init__(self, args: List[str], log_path: str, *, start_timeout: float = 60.0) -> None:
        env: Dict[str, str] = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args, "--port", "0"],
            stdout=self._log, stderr=subprocess.STDOUT, env=env, start_new_session=True,
        )
        self.pid = self.proc.pid
        #: every pid this server ever owned, for the no-orphan check
        self.pids: List[int] = [self.pid]
        self.host, self.port = "", 0
        try:
            self._await_address(start_timeout)
            self.pids += children_of(self.pid)
        except BaseException:
            self.kill_group()
            raise

    def _await_address(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    if "listening on" in line and line.endswith("\n"):
                        host, port = line.rsplit(" ", 1)[-1].strip().rsplit(":", 1)
                        self.host, self.port = host, int(port)
                        return
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def client(self) -> ReproClient:
        return ReproClient(self.host, self.port, timeout=params.CLIENT_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        """Peak RSS summed over the server and its live children."""
        return sum(peak_rss_mb(pid) for pid in [self.pid, *children_of(self.pid)])

    def close(self) -> bool:
        """Wire ``shutdown`` then ``wait``; True when it exited 0 by itself."""
        if self.proc.poll() is None:
            try:
                with self.client() as db:
                    db.shutdown()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                pass
        clean = self.proc.poll() == 0
        self.kill_group()
        return clean

    def kill_group(self) -> None:
        """SIGKILL the whole process group and wait until all of it is gone."""
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        while any(running(pid) for pid in self.pids) and time.monotonic() < deadline:
            time.sleep(0.01)
        self._log.close()


def serve(db_path: str, log_path: str) -> ServerProcess:
    """``repro serve --db``: default flags — FileDisk, WAL, fsync per barrier."""
    return ServerProcess(
        ["serve", "--db", db_path, "--block-size", str(params.BLOCK_SIZE)], log_path
    )


def cluster_serve(directory: str, log_path: str) -> ServerProcess:
    """``repro cluster serve``: 4 process-mode FileDisk shards, range strategy."""
    return ServerProcess(
        ["cluster", "serve", "--shards", str(params.CLUSTER_SHARDS), "--strategy", "range",
         "--dir", directory, "--block-size", str(params.BLOCK_SIZE),
         "--domain", str(params.DOMAIN[0]), str(params.DOMAIN[1])],
        log_path,
    )


def dir_bytes(directory: str) -> int:
    """Bytes of every file under ``directory`` (pages + WAL + sidecars)."""
    total = 0
    for root, _dirs, files in os.walk(directory):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return total
