"""Tests for the CLI entry point and the collection-index building block."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from repro.classes.collection import CollectionIndex
from repro.classes.hierarchy import ClassObject
from repro.cli import build_parser, main
from repro.io import SimulatedDisk


class TestCollectionIndex:
    def test_bulk_build_and_range_query(self, disk):
        objects = [ClassObject(float(i), "A", payload=i) for i in range(50)]
        collection = CollectionIndex(disk, objects, name="test")
        assert len(collection) == 50
        got = sorted(o.payload for o in collection.range_query(10, 19))
        assert got == list(range(10, 20))

    def test_insert_and_delete(self, disk):
        collection = CollectionIndex(disk)
        obj = ClassObject(5.0, "A", payload="x")
        collection.insert(obj)
        assert [o.payload for o in collection.range_query(0, 10)] == ["x"]
        assert collection.delete(obj)
        assert collection.range_query(0, 10) == []
        assert not collection.delete(obj)

    def test_duplicate_keys(self, disk):
        objects = [ClassObject(7.0, "A", payload=i) for i in range(20)]
        collection = CollectionIndex(disk, objects)
        assert len(collection.range_query(7, 7)) == 20

    def test_block_count_positive(self, disk):
        collection = CollectionIndex(disk, [ClassObject(1.0, "A")])
        assert collection.block_count() >= 1

    def test_io_counted_on_shared_disk(self, disk):
        collection = CollectionIndex(disk, [ClassObject(float(i), "A") for i in range(100)])
        with disk.measure() as m:
            collection.range_query(0, 50)
        assert m.ios > 0


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_intervals_command(self, capsys):
        assert main(["intervals", "--n", "400", "--queries", "5"]) == 0
        out = capsys.readouterr().out
        assert "avg I/Os per query" in out
        assert "bound" in out

    def test_classes_command_all_methods(self, capsys):
        for method in ("simple", "combined", "single"):
            assert main(
                ["classes", "--classes", "12", "--objects", "300", "--queries", "5",
                 "--method", method]
            ) == 0
        assert "scheme bound" in capsys.readouterr().out

    def test_tessellation_command(self, capsys):
        assert main(["tessellation", "--grid", "64", "--block-size", "16"]) == 0
        out = capsys.readouterr().out
        assert "sqrt(B)" in out
        assert "4.0" in out

    def test_unknown_method_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["classes", "--method", "bogus"])

    def test_buffer_pages_accepted_on_engine_subcommands(self, capsys):
        assert main(["intervals", "--n", "300", "--queries", "3",
                     "--buffer-pages", "8"]) == 0
        assert main(["classes", "--classes", "8", "--objects", "200",
                     "--queries", "3", "--buffer-pages", "8"]) == 0
        assert "avg I/Os per query" in capsys.readouterr().out

    def test_explain_command_prints_plan_and_bound(self, capsys):
        assert main(["explain", "--n", "400", "--stab", "42",
                     "--endpoint", "low", "10", "40", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "plan" in out
        assert "Index(interval-manager)" in out
        assert "residual filter" in out
        assert "limit 5" in out
        assert "predicted I/Os" in out and "observed" in out

    def test_explain_command_union_and_file_backend(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # FileDisk writes its page file here
        assert main(["explain", "--n", "200", "--backend", "file",
                     "--endpoint", "low", "0", "50",
                     "--endpoint", "high", "10", "60"]) == 0
        assert "Index(" in capsys.readouterr().out

    def test_readme_commands_and_parser_subcommands_agree(self):
        """Every ``python -m repro ...`` line in README parses, and every
        subcommand the parser defines is shown in README at least once."""
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        documented = set()
        for line in re.findall(r"^python -m repro (.*)$", readme.replace("\\\n", " "), re.M):
            argv = shlex.split(line, comments=True)
            args = build_parser().parse_args(argv)      # SystemExit(2) on a stale line
            documented.add(" ".join(
                getattr(args, dest) for dest in ("command", "cluster_command", "wal_command")
                if getattr(args, dest, None)))
        assert documented == set(_leaf_commands(build_parser()))


def _leaf_commands(parser, prefix=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [" ".join(prefix)]
    return [leaf for name, child in subs[0].choices.items()
            for leaf in _leaf_commands(child, prefix + (name,))]
