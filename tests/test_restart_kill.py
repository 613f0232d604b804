"""A restart can be killed at any point: the enumerated slice of ``Engine.open``.

``Engine.open`` restores the catalog, frees the previous incarnation,
checkpoints and only then compacts the page file.  The invariant under test
is the one :class:`~repro.io.FileDisk` states — *no byte a durable sidecar
names is rewritten, and the sidecar's ``os.replace`` is the only commit
point* — checked by dying at every durability boundary of that checkpoint
and compaction (each ``write`` / ``flush`` / ``fsync`` / ``replace`` /
``unlink``), and at the first boundaries of the *recovering* open too:
whatever was killed, the next ``Engine.open`` returns every record.

The death is simulated in-process by a shim over the file object and ``os``:
files are unbuffered underneath with the shim's own write buffer on top, so
a kill loses exactly what a dead process loses — bytes never flushed — and
tears the write it interrupts; after the kill every file operation of the
"dead" process (``with`` exits and ``finally`` blocks included) is inert.
"""

from __future__ import annotations

import builtins
import os
import shutil

import pytest

from repro import Engine, Interval, Range
from repro.durability import wal as wal_module
from repro.io import filedisk as filedisk_module
from repro.workloads import random_intervals


class Killed(BaseException):
    """The process died here (a ``BaseException``: no handler may save it)."""


class KillSwitch:
    """Counts durability boundaries while armed; dies at boundary ``at``."""

    def __init__(self, at=None, armed=False):
        self.at, self.armed = at, armed
        self.seen, self.dead = [], False

    def boundary(self, what):
        if self.dead:
            raise Killed(what)
        if self.armed:
            self.seen.append(what)
            if len(self.seen) == self.at:
                self.dead = True
                raise Killed(f"{what} #{self.at}")


class ShimFile:
    """A file whose user-space buffer dies with the process."""

    def __init__(self, switch, path, mode):
        self._switch, self._pending = switch, bytearray()
        self._raw = builtins.open(path, mode, buffering=0)

    def _drain(self):
        if self._switch.dead:
            raise Killed("after death")
        if self._pending:
            self._raw.write(bytes(self._pending))
            self._pending.clear()

    def write(self, data):
        try:
            self._switch.boundary("write")
        except Killed:
            torn = bytes(self._pending[: len(self._pending) // 2])
            self._pending.clear()
            self._raw.write(torn)  # a dying process tears the write in flight
            raise
        self._pending += data
        return len(data)

    def flush(self):
        self._switch.boundary("flush")
        self._drain()

    def seek(self, *args):
        self._drain()
        return self._raw.seek(*args)

    def read(self, *args):
        self._drain()
        return self._raw.read(*args)

    def truncate(self, *args):
        self._drain()
        return self._raw.truncate(*args)

    def tell(self):
        self._drain()
        return self._raw.tell()

    def fileno(self):
        return self._raw.fileno()

    @property
    def closed(self):
        return self._raw.closed

    def close(self):
        if not self._switch.dead:
            self._drain()
        self._raw.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@pytest.fixture
def process(monkeypatch):
    """``process(at, armed)`` installs a fresh switch: one simulated process."""
    real = {name: getattr(os, name) for name in ("fsync", "replace", "unlink")}
    checkpoint = Engine.checkpoint

    def install(at=None, armed=False):
        switch = KillSwitch(at, armed)

        def guarded(name):
            def call(*args, **kwargs):
                switch.boundary(name)
                return real[name](*args, **kwargs)
            return call

        for name in real:
            monkeypatch.setattr(os, name, guarded(name))
        for module in (filedisk_module, wal_module):
            monkeypatch.setattr(
                module, "open", lambda path, mode="r": ShimFile(switch, path, mode), raising=False
            )

        def arming(engine):
            switch.armed = True  # from here on: the checkpoint, then the compaction
            return checkpoint(engine)

        monkeypatch.setattr(Engine, "checkpoint", arming)
        return switch

    yield install
    monkeypatch.undo()


def _database(directory, tail):
    """A 40-interval collection, closed cleanly — or, with ``tail``, left
    as a crash leaves it: three acknowledged inserts only the WAL holds."""
    path = os.path.join(directory, "db.pages")
    engine = Engine.open_or_create(path, block_size=8)
    engine.create_collection("c", random_intervals(40, seed=11, mean_length=40.0))
    expected = sorted(iv.uid for iv in engine["c"].records())
    if not tail:
        engine.close()
        return path, expected
    engine.checkpoint()
    for i in range(3):
        iv = Interval(10.0 * i, 10.0 * i + 5)
        engine.insert("c", iv)
        expected.append(iv.uid)
    snapshot = os.path.join(directory, "crashed")
    os.mkdir(snapshot)
    for suffix in ("", ".meta", ".wal"):
        shutil.copy(path + suffix, os.path.join(snapshot, "db.pages" + suffix))
    engine.close()
    return os.path.join(snapshot, "db.pages"), sorted(expected)


def _copy(path, directory):
    os.makedirs(directory)
    for name in os.listdir(os.path.dirname(path)):
        if name.startswith(os.path.basename(path)):
            shutil.copy(os.path.join(os.path.dirname(path), name), directory)
    return os.path.join(directory, os.path.basename(path))


def _reopens_with(path, expected):
    engine = Engine.open(path)
    try:
        assert sorted(iv.uid for iv in engine["c"].records()) == expected
        assert sorted(iv.uid for iv in engine.query("c", Range(-1e9, 1e9)).all()) == expected
    finally:
        engine.close()
    leftovers = [n for n in os.listdir(os.path.dirname(path)) if n.endswith(".compact")]
    assert leftovers == []


@pytest.mark.parametrize("tail", [False, True], ids=["clean-close", "wal-tail"])
def test_engine_open_survives_a_kill_at_every_boundary(tmp_path, process, tail):
    pristine, expected = _database(str(tmp_path), tail)
    kinds, k = set(), 0
    while True:
        k += 1
        path = _copy(pristine, str(tmp_path / f"kill-{k}"))
        switch = process(at=k)
        try:
            survivor = Engine.open(path)
        except Killed:
            kinds.update(switch.seen)
        else:
            switch.at = None  # no boundary k: the restart ran to its end
            survivor.close()
            break
        # the recovering open is itself killed at its first boundaries
        # (the unlinks / the promoting replace of an interrupted compaction
        # when there is one, its first page write otherwise) ...
        interrupted = any(n.endswith(".compact") for n in os.listdir(os.path.dirname(path)))
        for j in (1, 2) if interrupted else (1,):
            again = _copy(path, str(tmp_path / f"kill-{k}-{j}"))
            process(at=j, armed=True)
            with pytest.raises(Killed):
                Engine.open(again)
            process()
            _reopens_with(again, expected)
        # ... and, unharmed, returns every record
        process()
        _reopens_with(path, expected)
    assert k > 20 and {"write", "flush", "fsync", "replace"} <= kinds


def test_an_interrupted_compaction_is_discarded_or_promoted(tmp_path, process):
    """The two leftover states by name: both copies present → discarded
    (sidecar copy first); the sidecar copy alone → promoted."""
    pristine, expected = _database(str(tmp_path), tail=False)
    states = {}
    k = 0
    while len(states) < 2:
        k += 1
        path = _copy(pristine, str(tmp_path / f"probe-{k}"))
        switch = process(at=k)
        try:
            Engine.open(path)
        except Killed:
            pass
        else:
            break  # ran to its end: ``states`` stays short and the assert says so
        names = {n for n in os.listdir(os.path.dirname(path)) if n.endswith(".compact")}
        if names == {"db.pages.compact", "db.pages.meta.compact"} and switch.seen[-1] == "replace":
            states.setdefault("discard", path)
        elif names == {"db.pages.meta.compact"}:
            states.setdefault("promote", path)
    assert set(states) == {"discard", "promote"}
    # discard: a kill between the two unlinks still reads as "discard"
    process(at=2, armed=True)
    with pytest.raises(Killed):
        Engine.open(states["discard"])
    assert os.path.exists(states["discard"] + ".compact")
    assert not os.path.exists(states["discard"] + ".meta.compact")
    process()
    for path in states.values():
        _reopens_with(path, expected)
