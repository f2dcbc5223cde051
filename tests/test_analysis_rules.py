"""Golden-fixture tests for the repro.analysis invariant checker.

One offending and one clean snippet per rule, the suppression/baseline
machinery, reporter stability, and a self-check asserting the shipped
tree lints clean under ``--strict``.
"""

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis.core import (
    analyze_source,
    baseline_entries,
    load_baseline,
    module_name_for,
    subtract_baseline,
)
from repro.analysis.reporters import render_json, render_text
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def lint(source, module):
    return analyze_source(textwrap.dedent(source), module=module)


def rules_fired(source, module):
    return sorted({f.rule for f in lint(source, module)})


# ----------------------------------------------------------------------
# vfs-boundary
# ----------------------------------------------------------------------


class TestVfsBoundary:
    def test_raw_open_in_engine_fires(self):
        assert rules_fired(
            """
            def load(path):
                with open(path) as handle:
                    return handle.read()
            """,
            "repro.db.engine",
        ) == ["vfs-boundary"]

    def test_os_and_pathlib_io_fire(self):
        findings = lint(
            """
            import io
            import os
            from pathlib import Path

            def sneak(path):
                fd = os.open(path, 0)
                os.fdopen(fd)
                io.open(path)
                Path(path).read_bytes()
            """,
            "repro.client.caches",
        )
        assert len([f for f in findings if f.rule == "vfs-boundary"]) == 4

    def test_vfs_mediated_io_is_clean(self):
        assert rules_fired(
            """
            def load(vfs, path):
                handle = vfs.open(path, create=False)
                return handle.read_page(0)
            """,
            "repro.db.engine",
        ) == []

    def test_pager_module_is_whitelisted(self):
        assert rules_fired(
            "handle = open('/dev/null')\n", "repro.db.pager"
        ) == []

    def test_out_of_scope_module_is_clean(self):
        assert rules_fired(
            "handle = open('/dev/null')\n", "repro.experiments.fig8"
        ) == []


# ----------------------------------------------------------------------
# crash-hygiene
# ----------------------------------------------------------------------


class TestCrashHygiene:
    def test_bare_except_fires_anywhere(self):
        assert rules_fired(
            """
            def run(step):
                try:
                    step()
                except:
                    pass
            """,
            "repro.workloads.generator",
        ) == ["crash-hygiene"]

    def test_except_base_exception_fires(self):
        assert rules_fired(
            """
            def run(step):
                try:
                    step()
                except BaseException:
                    return None
            """,
            "repro.workloads.generator",
        ) == ["crash-hygiene"]

    def test_bare_except_with_bare_reraise_is_clean(self):
        assert rules_fired(
            """
            def run(step):
                try:
                    step()
                except BaseException:
                    cleanup()
                    raise
            """,
            "repro.workloads.generator",
        ) == []

    def test_swallowed_exception_on_verification_path_fires(self):
        assert rules_fired(
            """
            def verify(proof):
                try:
                    check(proof)
                except Exception:
                    return False
            """,
            "repro.merkle.ads",
        ) == ["crash-hygiene"]

    def test_reraising_exception_on_verification_path_is_clean(self):
        assert rules_fired(
            """
            def verify(proof):
                try:
                    check(proof)
                except Exception as error:
                    raise ProofError(str(error))
            """,
            "repro.client.vfs",
        ) == []

    def test_swallowed_exception_off_verification_path_is_clean(self):
        assert rules_fired(
            """
            def best_effort(step):
                try:
                    step()
                except Exception:
                    pass
            """,
            "repro.experiments.harness",
        ) == []


# ----------------------------------------------------------------------
# proof-determinism
# ----------------------------------------------------------------------


class TestProofDeterminism:
    def test_wall_clock_in_codec_fires(self):
        assert rules_fired(
            """
            import time

            def encode_ping():
                return int(time.time()).to_bytes(8, "big")
            """,
            "repro.rpc.codec",
        ) == ["proof-determinism"]

    def test_unseeded_random_and_urandom_fire(self):
        findings = lint(
            """
            import os
            import random

            def encode_nonce():
                return os.urandom(8) + bytes([random.randrange(256)])
            """,
            "repro.merkle.proof",
        )
        assert len(
            [f for f in findings if f.rule == "proof-determinism"]
        ) == 2

    def test_set_iteration_fires(self):
        assert rules_fired(
            """
            def collect(claims):
                out = []
                for key in set(claims):
                    out.append(key)
                return out
            """,
            "repro.isp.vo",
        ) == ["proof-determinism"]

    def test_the_shared_writer_is_in_scope(self):
        # The VO's and every message's bytes are assembled by
        # repro.wire.Writer, so the rule follows them there.
        assert rules_fired(
            """
            import time

            class Writer:
                def stamp(self):
                    return self.u64(int(time.time()))
            """,
            "repro.wire",
        ) == ["proof-determinism"]

    def test_unsorted_dict_iteration_in_encode_path_fires(self):
        assert rules_fired(
            """
            def encode_files(files, buf):
                for path, proof in files.items():
                    buf.write(path.encode())
            """,
            "repro.rpc.codec",
        ) == ["proof-determinism"]

    def test_sorted_iteration_in_encode_path_is_clean(self):
        assert rules_fired(
            """
            def encode_files(files, buf):
                for path, proof in sorted(files.items()):
                    buf.write(path.encode())
            """,
            "repro.rpc.codec",
        ) == []

    def test_unsorted_dict_iteration_off_encode_path_is_clean(self):
        assert rules_fired(
            """
            def tally(files):
                total = 0
                for path, proof in files.items():
                    total += len(path)
                return total
            """,
            "repro.rpc.codec",
        ) == []

    def test_out_of_scope_module_is_clean(self):
        assert rules_fired(
            """
            import time

            def encode_stamp():
                return time.time()
            """,
            "repro.experiments.harness",
        ) == []


# ----------------------------------------------------------------------
# failpoint-names
# ----------------------------------------------------------------------


class TestFailpointNames:
    def test_undeclared_literal_fires_with_hint(self):
        findings = lint(
            """
            from repro.faults import registry as faults

            def write(data):
                faults.fire("store.apend.mid")
            """,
            "repro.merkle.persistent_store",
        )
        assert [f.rule for f in findings] == ["failpoint-names"]
        assert "store.append.mid" in findings[0].message

    def test_declared_literals_are_clean(self):
        assert rules_fired(
            """
            from repro.faults import registry as faults

            def write(data):
                faults.fire("pager.write_page.pre", page_id=1)
                return faults.mangle("pager.write_page.data", data)
            """,
            "repro.db.pager",
        ) == []

    def test_non_literal_name_is_a_warning(self):
        findings = lint(
            """
            from repro.faults import registry as faults

            def write(name):
                faults.fire(name)
            """,
            "repro.db.pager",
        )
        assert [(f.rule, f.severity) for f in findings] == [
            ("failpoint-names", "warning")
        ]

    def test_faults_package_itself_is_exempt(self):
        assert rules_fired(
            "def fire(name):\n    return fire(name)\n",
            "repro.faults.registry",
        ) == []


# ----------------------------------------------------------------------
# obs-naming
# ----------------------------------------------------------------------


class TestObsNaming:
    def test_undeclared_scope_fires_with_hint(self):
        findings = lint(
            """
            from repro.obs import metrics as obs

            def get(key):
                obs.inc("cache.inter.hits")
            """,
            "repro.client.caches",
        )
        assert [f.rule for f in findings] == ["obs-naming"]
        assert "cache.inter.hit" in findings[0].message

    def test_declared_scopes_are_clean(self):
        assert rules_fired(
            """
            from repro.obs import metrics as obs

            def get(key, vo):
                obs.inc("cache.inter.hit")
                obs.add("client.vo.bytes", 10)
                obs.observe("isp.vo.bytes", vo)
                obs.event("isp.sync_update", version=1)
                with obs.timed("client.query.latency_s"):
                    pass
            """,
            "repro.client.caches",
        ) == []

    def test_non_literal_scope_is_a_warning(self):
        findings = lint(
            """
            from repro.obs import metrics as obs

            def count(name):
                obs.inc(name)
            """,
            "repro.client.caches",
        )
        assert [(f.rule, f.severity) for f in findings] == [
            ("obs-naming", "warning")
        ]

    def test_declared_dynamic_suffix_is_clean(self):
        # f"{prefix}.session.open" with the suffix declared in
        # DYNAMIC_SCOPE_SUFFIXES needs no per-call-site suppression.
        assert rules_fired(
            """
            from repro.obs import metrics as obs

            def insert(self, session):
                obs.inc(f"{self._scope}.session.open")
            """,
            "repro.isp.sessions",
        ) == []

    def test_undeclared_dynamic_suffix_is_an_error(self):
        findings = lint(
            """
            from repro.obs import metrics as obs

            def insert(self, session):
                obs.inc(f"{self._scope}.session.vanished")
            """,
            "repro.isp.sessions",
        )
        assert [(f.rule, f.severity) for f in findings] == [
            ("obs-naming", "error")
        ]
        assert ".session.vanished" in findings[0].message
        assert "DYNAMIC_SCOPE_SUFFIXES" in findings[0].message

    def test_multi_part_fstring_stays_a_warning(self):
        # Only the exact {prefix}+literal shape is recognized; anything
        # fancier still warns as a non-literal scope.
        findings = lint(
            """
            from repro.obs import metrics as obs

            def insert(self, session, kind):
                obs.inc(f"{self._scope}.{kind}.open")
            """,
            "repro.isp.sessions",
        )
        assert [(f.rule, f.severity) for f in findings] == [
            ("obs-naming", "warning")
        ]

    def test_unrelated_receivers_are_ignored(self):
        assert rules_fired(
            """
            def bump(self, stats):
                stats.inc("whatever")
                self.totals.add("anything")
            """,
            "repro.client.caches",
        ) == []

    def test_obs_package_itself_is_exempt(self):
        assert rules_fired(
            """
            def inc(self, name):
                self.counter(name).inc(1)
            """,
            "repro.obs.metrics",
        ) == []


# ----------------------------------------------------------------------
# typed-errors
# ----------------------------------------------------------------------


class TestTypedErrors:
    @pytest.mark.parametrize(
        "statement",
        [
            "raise Exception('boom')",
            "raise RuntimeError('boom')",
            "raise AssertionError('boom')",
            "raise BaseException",
        ],
    )
    def test_untyped_raises_fire(self, statement):
        assert rules_fired(
            f"def fail():\n    {statement}\n", "repro.isp.server"
        ) == ["typed-errors"]

    def test_typed_and_contract_raises_are_clean(self):
        assert rules_fired(
            """
            from repro.errors import StorageError

            def fail(kind):
                if kind == "storage":
                    raise StorageError("missing page")
                if kind == "contract":
                    raise ValueError("bad argument")
                raise NotImplementedError
            """,
            "repro.isp.server",
        ) == []

    def test_bare_reraise_is_clean(self):
        assert rules_fired(
            """
            def fail(step):
                try:
                    step()
                except ValueError:
                    raise
            """,
            "repro.isp.server",
        ) == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------


class TestSuppressions:
    OFFENDING = """
    def fail():
        raise RuntimeError("boom")  {comment}
    """

    def test_suppression_with_rationale_silences_the_finding(self):
        source = self.OFFENDING.format(
            comment="# repro: allow(typed-errors) -- fixture rationale"
        )
        assert lint(source, "repro.isp.server") == []

    def test_suppression_without_rationale_is_itself_a_finding(self):
        source = self.OFFENDING.format(
            comment="# repro: allow(typed-errors)"
        )
        assert rules_fired(source, "repro.isp.server") == [
            "suppression-rationale"
        ]

    def test_standalone_suppression_covers_the_next_statement(self):
        assert lint(
            """
            def fail():
                # repro: allow(typed-errors) -- fixture rationale
                # continuing the rationale on a second comment line.
                raise RuntimeError("boom")
            """,
            "repro.isp.server",
        ) == []

    def test_unused_suppression_is_a_warning(self):
        findings = lint(
            "value = 1  # repro: allow(typed-errors) -- nothing here\n",
            "repro.isp.server",
        )
        assert [(f.rule, f.severity) for f in findings] == [
            ("unused-suppression", "warning")
        ]

    def test_syntax_in_a_string_literal_is_not_a_suppression(self):
        findings = lint(
            """
            DOC = "# repro: allow(typed-errors) -- quoted example"

            def fail():
                raise RuntimeError("boom")
            """,
            "repro.isp.server",
        )
        assert [f.rule for f in findings] == ["typed-errors"]


# ----------------------------------------------------------------------
# the directive grammar
# ----------------------------------------------------------------------


class TestDirectiveGrammar:
    @pytest.mark.parametrize("typo, meant", [
        ("gaurded-by(_lock)", "guarded-by"),
        ("confined_to(loop)", "confined-to"),
        ("taint-sorce", "taint-source"),
        ("alow(typed-errors) -- why", "allow"),
    ])
    def test_misspelled_directive_is_an_error(self, typo, meant):
        # A typo must not silently switch the guard off.
        findings = lint(
            f"""
            class Table:
                def __init__(self):
                    self.rows = {{}}  # repro: {typo}
            """,
            "repro.fixture",
        )
        assert [(f.rule, f.severity, f.line) for f in findings] == [
            ("unknown-directive", "error", 4)
        ]
        assert typo.split("(")[0].split()[0] in findings[0].message
        assert f"did you mean {meant!r}?" in findings[0].message

    @pytest.mark.parametrize("directive", [
        "thread-role(loop, blocking)",
        "confined-to(loop, extra)",
        "guarded-by",
        "loop-safe(now)",
        "allow()",
    ])
    def test_malformed_directive_is_an_error(self, directive):
        findings = lint(
            f"def f():  # repro: {directive}\n    return 1\n",
            "repro.fixture",
        )
        assert [f.rule for f in findings] == ["unknown-directive"]
        assert "malformed" in findings[0].message

    def test_it_is_reported_whichever_rules_run(self):
        from repro.analysis.rules import TypedErrorsRule

        findings = analyze_source(
            "value = 1  # repro: taint-sorce\n",
            module="repro.fixture", rules=[TypedErrorsRule()],
        )
        assert [f.rule for f in findings] == ["unknown-directive"]

    def test_directive_quoted_in_a_string_is_not_checked(self):
        assert lint(
            'HELP = "write  # repro: gaurded-by(_lock)  on the field"\n',
            "repro.fixture",
        ) == []

    def test_every_known_directive_parses(self):
        from repro.analysis.core import DIRECTIVES, scan_directives

        # Each usage string, with its placeholder punctuation removed,
        # is itself a well-formed instance of the directive.
        source = "".join(
            "x = 1  # repro: "
            + re.sub(r"[<>\[\]]|\.\.\.", "", spec.usage) + "\n"
            for spec in DIRECTIVES.values()
        )
        directives, problems = scan_directives("<fixture>", source)
        assert problems == []
        assert [d.name for d in directives] == list(DIRECTIVES)
        assert len(DIRECTIVES) == 10


# ----------------------------------------------------------------------
# baseline + reporters
# ----------------------------------------------------------------------


class TestBaselineAndReporters:
    def findings(self):
        return lint(
            "def fail():\n    raise RuntimeError('boom')\n",
            "repro.isp.server",
        )

    def test_baseline_roundtrip_subtracts_exactly_once(self, tmp_path):
        findings = self.findings() + self.findings()
        entries = baseline_entries(self.findings())
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(
            json.dumps({"version": 1, "findings": entries})
        )
        remaining = subtract_baseline(
            findings, load_baseline(baseline_file)
        )
        assert len(remaining) == 1  # multiset: one entry absorbs one

    def test_baseline_ignores_line_drift(self):
        drifted = [f.__class__(
            path=f.path, line=f.line + 40, rule=f.rule,
            message=f.message, severity=f.severity,
        ) for f in self.findings()]
        assert subtract_baseline(
            drifted, baseline_entries(self.findings())
        ) == []

    def test_json_reporter_is_stable_and_sorted(self):
        findings = self.findings()
        first = render_json(list(reversed(findings)))
        second = render_json(findings)
        assert first == second
        payload = json.loads(first)
        rows = [
            (f["path"], f["line"], f["rule"], f["message"])
            for f in payload["findings"]
        ]
        assert rows == sorted(rows)
        assert payload["errors"] == len(findings)

    def test_text_reporter_mentions_location_and_rule(self):
        text = render_text(self.findings())
        assert "<fixture>:2: [typed-errors]" in text
        assert "1 error(s)" in text

    def test_module_name_derivation(self):
        assert module_name_for(
            Path("src/repro/db/pager.py")
        ) == "repro.db.pager"
        assert module_name_for(
            Path("/somewhere/src/repro/faults/__init__.py")
        ) == "repro.faults"


# ----------------------------------------------------------------------
# CLI + self-check
# ----------------------------------------------------------------------


class TestCliAndSelfCheck:
    def test_shipped_tree_is_strict_clean(self, capsys):
        # The acceptance gate: zero non-suppressed findings on src/.
        exit_code = main([
            "lint", "--strict", "--no-baseline", str(SRC),
        ])
        output = capsys.readouterr().out
        assert exit_code == 0, output
        assert "clean: no findings" in output

    def test_json_output_of_shipped_tree_is_empty_and_stable(self, capsys):
        assert main([
            "lint", "--format=json", "--no-baseline", str(SRC),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"errors": 0, "findings": [], "warnings": 0}

    def test_checked_in_baseline_is_valid_and_empty(self):
        assert load_baseline(REPO_ROOT / "lint-baseline.json") == []

    def test_lint_finds_a_seeded_violation(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "db" / "rogue.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("handle = open('x')\n")
        assert main(["lint", "--no-baseline", str(bad)]) == 1
        assert "[vfs-boundary]" in capsys.readouterr().out

    def test_baseline_flag_grandfathers_a_violation(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "db" / "rogue.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("handle = open('x')\n")
        baseline = tmp_path / "baseline.json"
        assert main([
            "lint", "--write-baseline", str(baseline), str(bad),
        ]) == 0
        assert main([
            "lint", "--baseline", str(baseline), str(bad),
        ]) == 0
        capsys.readouterr()
        # Strict still passes: baselined errors are gone, no warnings.
        assert main([
            "lint", "--strict", "--baseline", str(baseline), str(bad),
        ]) == 0

    def test_missing_baseline_path_is_a_usage_error(self, tmp_path):
        assert main([
            "lint", "--baseline", str(tmp_path / "nope.json"), str(SRC),
        ]) == 2

    def test_rule_filter_runs_only_the_named_rule(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "db" / "rogue.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("handle = open('x')\n")
        assert main([
            "lint", "--no-baseline", "--rule", "vfs-boundary", str(bad),
        ]) == 1
        capsys.readouterr()
        # The violation belongs to vfs-boundary; a run filtered to a
        # different rule must not see it.
        assert main([
            "lint", "--no-baseline", "--rule", "obs-naming", str(bad),
        ]) == 0

    def test_rule_filter_skips_other_rules_suppressions(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "src" / "repro" / "db" / "rogue.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "# repro: allow(vfs-boundary) -- fixture needs a raw file\n"
            "handle = open('x')\n"
        )
        # The full run uses the suppression; a run filtered to another
        # rule must neither apply it nor report it unused.
        assert main(["lint", "--strict", "--no-baseline", str(bad)]) == 0
        assert main([
            "lint", "--strict", "--no-baseline",
            "--rule", "obs-naming", str(bad),
        ]) == 0

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert main(["lint", "--rule", "no-such-rule", str(SRC)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_effect_table_export(self, tmp_path, capsys):
        table_path = tmp_path / "effects.json"
        assert main([
            "lint", "--no-baseline",
            "--effect-table", str(table_path), str(SRC),
        ]) == 0
        payload = json.loads(table_path.read_text())
        assert payload["version"] == 1
        functions = {row["function"] for row in payload["functions"]}
        # The durable boundary is the canonical blocking function.
        assert (
            "repro.merkle.persistent_store.PersistentNodeStore.sync"
            in functions
        )
        by_name = {row["function"]: row for row in payload["functions"]}
        sync = by_name[
            "repro.merkle.persistent_store.PersistentNodeStore.sync"
        ]
        assert "fsync" in sync["effects"]
        assert sync["witness"]["chain"][0].endswith(".sync")

    def test_list_rules_names_all_six(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        output = capsys.readouterr().out
        for name in (
            "vfs-boundary", "crash-hygiene", "proof-determinism",
            "failpoint-names", "obs-naming", "typed-errors",
        ):
            assert name in output

    def test_help_documents_the_suppression_syntax(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        output = capsys.readouterr().out
        assert "repro: allow(" in output
        assert "rationale" in output
