"""The concurrency linter's own suite: corpus, clean tree, suppressions, CLI.

The acceptance gate has two halves — ``src/repro`` must lint *clean*, and
the seeded-bad corpus in ``tests/lint_fixtures/`` must be flagged *fully*
(every ``# seeded: <rule>`` line, no false positives).  Together they pin
the analyzer from both sides: it cannot rot into silence and it cannot
rot into noise.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro
import repro.analysis
from repro.analysis.lint import (
    Linter,
    check_fixture_corpus,
    lint_paths,
    render_report,
)
from repro.analysis.lintrules import Rule, rule_catalog
from repro.cli import main
from repro.cluster.supervisor import _python_env

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(repro.__file__).parent


def lint_snippet(source: str) -> Linter:
    linter = Linter()
    linter.lint_source(source, "<snippet>")
    linter.finish()
    return linter


class TestFixtureCorpus:
    def test_every_seeded_violation_is_flagged(self):
        corpus = check_fixture_corpus(FIXTURES)
        assert corpus["missed"] == [], corpus["missed"]

    def test_no_false_positives_in_corpus(self):
        corpus = check_fixture_corpus(FIXTURES)
        assert corpus["unexpected"] == [], corpus["unexpected"]

    def test_corpus_is_at_least_fifteen_violations(self):
        corpus = check_fixture_corpus(FIXTURES)
        assert len(corpus["expected"]) >= 15

    def test_corpus_covers_every_rule(self):
        corpus = check_fixture_corpus(FIXTURES)
        seeded_rules = {rule for _, _, rule in corpus["expected"]}
        assert seeded_rules == set(rule_catalog())


class TestSourceTreeIsClean:
    def test_src_repro_has_zero_findings(self):
        linter = lint_paths([SRC])
        assert linter.findings == [], render_report(linter)
        assert linter.files_checked > 50

    def test_the_commit_kernel_edge_is_in_the_static_graph(self):
        # the one edge the kernel is allowed: write mutex before latches
        linter = lint_paths([SRC])
        edges = linter.lock_edges()
        assert any(
            "mutex" in a and "latch" in b.lower() for a, b in edges
        ), edges

    def test_truncating_the_page_file_in_place_is_flagged(self, tmp_path):
        # the rewrite-in-place compaction this tree no longer has: put its
        # seek(0) + truncate() back into a scratch copy and lint that tree
        import shutil

        tree = tmp_path / "repro"
        shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
        filedisk = tree / "io" / "filedisk.py"
        source = filedisk.read_text()
        marker = "            self._write_durable(pages, live)\n"
        assert source.count(marker) == 1
        filedisk.write_text(source.replace(
            marker, "            self._file.seek(0)\n            self._file.truncate()\n" + marker
        ))
        linter = lint_paths([tree])
        assert [(Path(f.path).name, f.rule) for f in linter.findings] == [
            ("filedisk.py", "uncounted-io")
        ] * 2, render_report(linter)
        assert [f.message.split("()")[0].split()[-1] for f in linter.findings] == [
            "self._file.seek", "self._file.truncate"
        ]

    def test_dropping_the_rebuilding_cores_generation_bump_is_flagged(self, tmp_path):
        # every global rebuild of the tree swaps in the core: without its
        # bump, the swap there (and the destroy-first rebuild above it) must
        # be flagged, and nothing in the indexes wrapping the core
        import shutil

        tree = tmp_path / "repro"
        shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
        core = tree / "rebuilding.py"
        source = core.read_text()
        marker = "        self.generation += 1\n"
        assert source.count(marker) == 1
        core.write_text(source.replace(marker, ""))
        linter = lint_paths([tree])
        assert sorted((Path(f.path).name, f.rule, f.message.split("'")[1])
                      for f in linter.findings) == [
            ("rebuilding.py", "stale-plan-cache", "_install"),
            ("rebuilding.py", "stale-plan-cache", "rebuild"),
        ], render_report(linter)

    def test_known_suppressions_are_counted_not_silent(self):
        # checkpoint's sync-under-mutex, the WAL truncate barrier, and the
        # WAL recovery reads (charged wholesale, not per verb) are
        # deliberate; they must show up as audited suppressions (the
        # FileDisk sidecar loader's is not among them over the whole tree:
        # ``repro catalog``, one of its callers, charges)
        linter = lint_paths([SRC])
        rules = {f.rule for f in linter.suppressed}
        assert rules == {"blocking-under-mutex", "uncounted-io"}
        assert len(linter.suppressed) == 9


class TestSuppressionSyntax:
    def test_same_line_allow(self):
        linter = lint_snippet(
            "import os\n"
            "def f(fd, lock, stats):\n"
            "    with lock:\n"
            "        os.fsync(fd)  # lint: allow(blocking-under-mutex)\n"
            "    stats.count(fsyncs=1)\n"
        )
        assert linter.findings == []
        assert [f.rule for f in linter.suppressed] == ["blocking-under-mutex"]

    def test_preceding_comment_line_allow(self):
        linter = lint_snippet(
            "import os\n"
            "def f(fd, lock, stats):\n"
            "    with lock:\n"
            "        # lint: allow(blocking-under-mutex)\n"
            "        os.fsync(fd)\n"
            "    stats.count(fsyncs=1)\n"
        )
        assert linter.findings == []

    def test_allow_for_a_different_rule_does_not_suppress(self):
        linter = lint_snippet(
            "import os\n"
            "def f(fd, lock, stats):\n"
            "    with lock:\n"
            "        os.fsync(fd)  # lint: allow(lock-order)\n"
            "    stats.count(fsyncs=1)\n"
        )
        assert [f.rule for f in linter.findings] == ["blocking-under-mutex"]

    def test_non_adjacent_allow_does_not_suppress(self):
        linter = lint_snippet(
            "import os\n"
            "# lint: allow(blocking-under-mutex)\n"
            "def f(fd, lock, stats):\n"
            "    with lock:\n"
            "        os.fsync(fd)\n"
            "    stats.count(fsyncs=1)\n"
        )
        assert [f.rule for f in linter.findings] == ["blocking-under-mutex"]


class TestRuleMechanics:
    def test_same_named_locks_on_different_classes_do_not_cycle(self):
        # A._lock -> B nested one way, B._lock -> A the other: distinct
        # owners must keep the keys distinct, so no bogus cycle
        linter = lint_snippet(
            "class A:\n"
            "    def f(self):\n"
            "        with self._a_lock:\n"
            "            with self._b_lock:\n"
            "                pass\n"
            "    def g(self):\n"
            "        with self._b_lock:\n"
            "            with self._a_lock:\n"
            "                pass\n"
        )
        assert [f for f in linter.findings if f.rule == "lock-order"] != [], (
            "A/B-B/A on the *same* keys should cycle"
        )
        linter2 = lint_snippet(
            "class A:\n"
            "    def f(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "class B:\n"
            "    def g(self):\n"
            "        with self._lock:\n"
            "            pass\n"
        )
        assert linter2.findings == []

    def test_barrier_lock_may_fsync(self):
        linter = lint_snippet(
            "import os\n"
            "class WriteAheadLog:\n"
            "    def sync(self, fd):\n"
            "        with self._sync_lock:\n"
            "            os.fsync(fd)\n"
            "        self.stats.count(fsyncs=1)\n"
        )
        assert linter.findings == []

    def test_tracer_span_is_not_a_lock(self):
        # PR 10: a `with ....span(...)` item mints no lock token, even on
        # the lockiest-named receiver — spans are instrumentation
        linter = lint_snippet(
            "class Kernel:\n"
            "    def f(self):\n"
            "        with self._write_mutex:\n"
            "            with self._lock_tracer.span('commit.apply'):\n"
            "                with self._leaf_lock:\n"
            "                    pass\n"
            "    def g(self):\n"
            "        with self._mutex_tracer.span('session.request'):\n"
            "            with self._write_mutex:\n"
            "                pass\n"
        )
        assert linter.findings == []

    def test_span_block_does_not_shield_shared_mutation(self):
        # the flip side: if span *were* a lock, a bare += on a shared
        # counter inside it would be silently allowed
        linter = lint_snippet(
            "class Kernel:\n"
            "    def f(self, tracer):\n"
            "        with tracer.span('commit.apply'):\n"
            "            self.stats.commits += 1\n"
        )
        assert [f.rule for f in linter.findings] == [
            "unlocked-shared-mutation"
        ]

    def test_registry_extension_is_one_class(self):
        class Custom(Rule):
            id = "no-print"
            description = "toy rule: no print calls under any lock"

            def on_call(self, ctx, node, chain):
                if ctx.held and chain == "print":
                    ctx.emit(node, self.id, "print under a lock")

        linter = Linter(rules=[Custom()])
        linter.lint_source(
            "def f(lock):\n"
            "    with lock:\n"
            "        print('hi')\n",
            "<snippet>",
        )
        assert [f.rule for f in linter.finish()] == ["no-print"]


class TestEffectSummaries:
    """The interprocedural substrate: summaries, resolution, closure."""

    def test_effects_close_over_self_calls(self):
        linter = lint_snippet(
            "class Pager:\n"
            "    def read_block(self, b):\n"
            "        return self._load(b)\n"
            "    def _load(self, b):\n"
            "        self.stats.count(reads=1)\n"
        )
        program = linter.program
        assert program.reaches("<snippet>::Pager._load", "charge")
        assert program.reaches("<snippet>::Pager.read_block", "charge")

    def test_attribute_calls_are_not_self_calls(self):
        # self._file.read() is a call on the *attribute*, not on self —
        # it must not resolve to a same-class method named read
        linter = lint_snippet(
            "class Pager:\n"
            "    def read(self, b):\n"
            "        self.stats.count(reads=1)\n"
            "    def raw(self, b):\n"
            "        return self._file.read(b)\n"
        )
        assert not linter.program.reaches("<snippet>::Pager.raw", "charge")
        assert [f.rule for f in linter.findings] == ["uncounted-io"]

    def test_module_level_calls_resolve(self):
        linter = lint_snippet(
            "def charge(stats):\n"
            "    stats.count(writes=1)\n"
            "def entry(stats):\n"
            "    charge(stats)\n"
        )
        assert linter.program.reaches("<snippet>::entry", "charge")

    def test_a_bare_builtin_call_resolves_to_no_method(self):
        # all(...) next to the program's one method named ``all``: a bare
        # name is a builtin or an import, never a method — no call edge
        linter = lint_snippet(
            "class Result:\n"
            "    def all(self):\n"
            "        self.stats.count(reads=1)\n"
            "def check(fh, flags):\n"
            "    if all(flags):\n"
            "        fh.seek(0)\n"
            "def drain(fh, result):\n"
            "    result.all()\n"
            "    fh.seek(0)\n"
        )
        program = linter.program
        assert program.callees("<snippet>::check") == set()
        assert program.callees("<snippet>::drain") == {"<snippet>::Result.all"}
        assert [(f.rule, f.line) for f in linter.findings] == [("uncounted-io", 6)]

    def test_unresolved_calls_do_not_invent_effects(self):
        linter = lint_snippet(
            "def entry(helper):\n"
            "    helper.charge_everything()\n"
        )
        assert not linter.program.reaches("<snippet>::entry", "charge")

    def test_program_stats_shape(self):
        linter = lint_snippet("def f():\n    pass\n")
        stats = linter.program.stats()
        assert set(stats) == {"functions", "call_edges", "modules"}
        assert stats["functions"] == 1
        assert stats["modules"] == 1


class TestCommitProtocolRule:
    def test_append_outside_commit_kernel(self):
        linter = lint_snippet(
            "class Engine:\n"
            "    def sneak(self, op):\n"
            "        lsn = self.wal.append(0, op)\n"
            "        self.wal.sync_to(lsn)\n"
        )
        assert [f.rule for f in linter.findings] == ["commit-protocol"]
        assert "outside" in linter.findings[0].message

    def test_append_without_reachable_barrier(self):
        linter = lint_snippet(
            "class Engine:\n"
            "    def _commit(self, op):\n"
            "        self.wal.append(0, op)\n"
        )
        assert [f.rule for f in linter.findings] == ["commit-protocol"]

    def test_publish_before_barrier_is_ordered_by_line(self):
        linter = lint_snippet(
            "class Engine:\n"
            "    def _commit(self, op):\n"
            "        lsn = self.wal.append(0, op)\n"
            "        self._epochs.publish(1)\n"
            "        self.wal.sync_to(lsn)\n"
        )
        assert any(
            f.rule == "commit-protocol" and "publish" in f.message
            for f in linter.findings
        )

    def test_transitive_publish_satisfies_begin(self):
        linter = lint_snippet(
            "class Engine:\n"
            "    def _commit(self, op):\n"
            "        epoch = self._epochs.begin()\n"
            "        lsn = self.wal.append(epoch, op)\n"
            "        self.wal.sync_to(lsn)\n"
            "        self._finish(epoch)\n"
            "    def _finish(self, epoch):\n"
            "        self._epochs.publish(epoch)\n"
        )
        assert linter.findings == []


class TestStalePlanCacheRule:
    def test_swap_without_bump(self):
        linter = lint_snippet(
            "class Holder:\n"
            "    def rebuild(self, new):\n"
            "        self.inner.destroy()\n"
            "        self.inner = new\n"
        )
        assert [f.rule for f in linter.findings] == ["stale-plan-cache"]

    def test_transitive_bump_counts(self):
        linter = lint_snippet(
            "class Holder:\n"
            "    def rebuild(self, new):\n"
            "        self.inner.destroy()\n"
            "        self.inner = new\n"
            "        self._note()\n"
            "    def _note(self):\n"
            "        self.generation += 1\n"
        )
        assert linter.findings == []

    def test_teardown_methods_are_exempt(self):
        linter = lint_snippet(
            "class Holder:\n"
            "    def close(self):\n"
            "        self.inner.destroy()\n"
            "        self.inner = None\n"
        )
        assert linter.findings == []


class TestWireExhaustivenessRule:
    def test_handler_and_client_drift(self):
        linter = lint_snippet(
            'COMMANDS = ("ping", "query")\n'
            'COMMAND_TABLE = {"ping": lambda conn: {}}\n'
            "class MyClient:\n"
            "    def ping(self):\n"
            "        return COMMANDS[0]\n"
            "    def query(self, q):\n"
            "        return None\n"
        )
        findings = [f for f in linter.findings if f.rule == "wire-exhaustiveness"]
        assert len(findings) == 1
        assert "query" in findings[0].message  # the missing row

    def test_registry_must_cover_local_subclasses(self):
        linter = lint_snippet(
            "class AlgebraicQuery:\n"
            "    pass\n"
            "class Stab(AlgebraicQuery):\n"
            "    pass\n"
            "class Fancy(AlgebraicQuery):\n"
            "    pass\n"
            "def _node_registry():\n"
            "    types = (Stab,)\n"
            "    return {t.__name__: t for t in types}\n"
        )
        findings = [f for f in linter.findings if f.rule == "wire-exhaustiveness"]
        assert len(findings) == 1
        assert "Fancy" in findings[0].message

    def test_error_codes_pin_classify_returns(self):
        linter = lint_snippet(
            'ERROR_CODES = ("bad_request", "unused")\n'
            "def classify_error(exc):\n"
            '    if isinstance(exc, ValueError):\n'
            '        return "bad_request"\n'
            '    return "surprise"\n'
        )
        messages = [
            f.message for f in linter.findings if f.rule == "wire-exhaustiveness"
        ]
        assert any("unused" in m for m in messages)
        assert any("surprise" in m for m in messages)


class TestLintCli:
    def test_check_is_clean_on_the_tree(self, capsys):
        assert main(["lint", "--check", str(SRC)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_check_fails_on_a_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import os\n"
            "def f(fd, lock):\n"
            "    with lock:\n"
            "        os.fsync(fd)\n"
        )
        assert main(["lint", "--check", str(bad)]) == 1
        assert "blocking-under-mutex" in capsys.readouterr().out

    def test_fixture_corpus_gate(self, capsys):
        assert main(["lint", "--fixtures", str(FIXTURES)]) == 0
        assert "all flagged" in capsys.readouterr().out

    def test_json_report(self, tmp_path):
        import json

        report_file = tmp_path / "lint.json"
        assert main(
            ["lint", "--check", str(SRC), "--report", str(report_file)]
        ) == 0
        report = json.loads(report_file.read_text())
        assert report["findings"] == []
        assert len(report["suppressed"]) == 9
        assert report["lock_graph"]
        assert set(report["rules"]) == set(rule_catalog())
        assert report["effects"]["functions"] > 500
        assert report["effects"]["call_edges"] > 500

    def test_rules_listing(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_catalog():
            assert rule_id in out


class TestLazyImport:
    def test_importing_the_engine_and_server_leaves_the_linter_unloaded(self):
        """The engine imports ``repro.analysis`` for ``lockdep`` alone; the
        linter's modules load on first use of one of their names."""
        probe = (
            "import sys, repro.engine, repro.server; "
            "print(' '.join(m for m in sys.modules if m.startswith('repro.analysis.')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=_python_env(), capture_output=True,
            text=True, check=True, timeout=60,
        ).stdout
        loaded = out.split()
        assert "repro.analysis.lockdep" in loaded
        assert not {"repro.analysis.lint", "repro.analysis.lintrules",
                    "repro.analysis.effects"} & set(loaded)

    def test_every_exported_name_still_resolves_on_the_package(self):
        assert repro.analysis.Linter is Linter
        assert repro.analysis.rule_catalog is rule_catalog
        assert all(hasattr(repro.analysis, name) for name in repro.analysis.__all__)
        assert not hasattr(repro.analysis, "no_such_name")
