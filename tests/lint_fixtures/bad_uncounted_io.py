# ruff: noqa
"""Seeded-bad fixture: raw file/os I/O with no IOStats charge on any path.

The good twins pin the coverage logic: a charge in the same function, in
a transitive callee, or in a resolved caller all count.
"""
import os


def bare_barrier(fd):
    os.fsync(fd)  # seeded: uncounted-io


class BadPager:
    def load_block(self, offset, length):
        self._file.seek(offset)  # seeded: uncounted-io
        return self._file.read(length)  # seeded: uncounted-io


class GoodPager:
    """Charge lives in the caller: ``read`` counts what ``_load`` did."""

    def read_block(self, block_id):
        block = self._load(block_id)
        self.stats.count(reads=1)
        return block

    def _load(self, block_id):
        self._file.seek(block_id)
        return self._file.read()


class GoodBarrier:
    """Charge in the same function, next to the barrier."""

    def sync(self):
        os.fsync(self._file.fileno())
        self.stats.count(fsyncs=1)


class Drained:
    """The program's one method named ``all`` — and it charges."""

    def all(self):
        self.stats.count(reads=1)
        return []


def builtin_all_is_no_method(fh, flags):
    # a bare name is a builtin or an import, never a method: this all(...)
    # mints no edge to Drained.all, so no charge is reached
    if all(flags):
        fh.seek(0)  # seeded: uncounted-io


def charge_one(stats):
    stats.count(reads=1)


def bare_function_call_resolves(fh, stats):
    """The good twin: a bare call of a module function is an edge."""
    charge_one(stats)
    fh.seek(0)
