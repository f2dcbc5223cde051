"""Golden-fixture tests for the repro.analysis invariant checker.

Offending and clean snippets for the per-module rule, the
suppression/baseline machinery, reporter stability, and the CLI,
including a self-check asserting the shipped tree lints clean under
``--strict``.
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
# suppressions
# ----------------------------------------------------------------------

#: A bare ``except:`` that swallows everything: one crash-hygiene error
#: on its ``except`` line (line 5 of the dedented fixture).
OFFENDING = """
def run(step):
    try:
        step()
    except:{comment}
        pass
"""


def offending(comment=""):
    return OFFENDING.format(comment=comment)


class TestSuppressions:
    def test_suppression_with_rationale_silences_the_finding(self):
        source = offending(
            "  # repro: allow(crash-hygiene) -- fixture rationale"
        )
        assert lint(source, "repro.isp.server") == []

    def test_suppression_without_rationale_is_itself_a_finding(self):
        source = offending("  # repro: allow(crash-hygiene)")
        assert rules_fired(source, "repro.isp.server") == [
            "suppression-rationale"
        ]

    def test_standalone_suppression_covers_the_next_statement(self):
        assert lint(
            """
            def run(step):
                try:
                    step()
                # repro: allow(crash-hygiene) -- fixture rationale
                # continuing the rationale on a second comment line.
                except:
                    pass
            """,
            "repro.isp.server",
        ) == []

    def test_unused_suppression_is_a_warning(self):
        findings = lint(
            "value = 1  # repro: allow(crash-hygiene) -- nothing here\n",
            "repro.isp.server",
        )
        assert [(f.rule, f.severity) for f in findings] == [
            ("unused-suppression", "warning")
        ]

    def test_syntax_in_a_string_literal_is_not_a_suppression(self):
        findings = lint(
            'DOC = "# repro: allow(crash-hygiene) -- quoted example"\n'
            + offending(),
            "repro.isp.server",
        )
        assert [f.rule for f in findings] == ["crash-hygiene"]


# ----------------------------------------------------------------------
# the directive grammar
# ----------------------------------------------------------------------


class TestDirectiveGrammar:
    @pytest.mark.parametrize("typo, meant", [
        ("gaurded-by(_lock)", "guarded-by"),
        ("taint_sink", "taint-sink"),
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
        "acquires(permit, blocking)",
        "releases(permit, extra)",
        "guarded-by",
        "taint-sink(now)",
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
        from repro.analysis.rules import CrashHygieneRule

        findings = analyze_source(
            "value = 1  # repro: taint-sorce\n",
            module="repro.fixture", rules=[CrashHygieneRule()],
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
        assert len(DIRECTIVES) == 7


# ----------------------------------------------------------------------
# baseline + reporters
# ----------------------------------------------------------------------


class TestBaselineAndReporters:
    def findings(self):
        return lint(offending(), "repro.isp.server")

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
        assert "<fixture>:5: [crash-hygiene]" in text
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


#: What ``--list-rules`` must name: the five rules that each caught a
#: real defect (DESIGN §6), and nothing else.
RETAINED_RULES = {
    "blocking-effect", "crash-hygiene", "guarded-by", "must-release",
    "verify-before-use",
}


def rogue_module(tmp_path, source=offending()):
    bad = tmp_path / "src" / "repro" / "db" / "rogue.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(source)
    return bad


class TestCliAndSelfCheck:
    def test_shipped_tree_is_strict_clean(self, tmp_path, capsys):
        # The acceptance gate: zero non-suppressed findings on src/,
        # with the JSON report and the effect table from the same run.
        table_path = tmp_path / "effects.json"
        exit_code = main([
            "lint", "--strict", "--no-baseline", "--format=json",
            "--effect-table", str(table_path), str(SRC),
        ])
        output = capsys.readouterr().out
        assert exit_code == 0, output
        assert json.loads(output) == {
            "errors": 0, "findings": [], "warnings": 0,
        }
        payload = json.loads(table_path.read_text())
        assert payload["version"] == 1
        by_name = {row["function"]: row for row in payload["functions"]}
        # The durable boundary is the canonical blocking function.
        sync = by_name[
            "repro.merkle.persistent_store.PersistentNodeStore.sync"
        ]
        assert "fsync" in sync["effects"]
        assert sync["witness"]["chain"][0].endswith(".sync")

    def test_checked_in_baseline_is_valid_and_empty(self):
        assert load_baseline(REPO_ROOT / "lint-baseline.json") == []

    def test_lint_finds_a_seeded_violation(self, tmp_path, capsys):
        bad = rogue_module(tmp_path)
        assert main(["lint", "--no-baseline", str(bad)]) == 1
        assert "[crash-hygiene]" in capsys.readouterr().out

    def test_baseline_flag_grandfathers_a_violation(self, tmp_path, capsys):
        bad = rogue_module(tmp_path)
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
        # Refused before any work: nothing is parsed, nothing written.
        table_path = tmp_path / "effects.json"
        assert main([
            "lint", "--baseline", str(tmp_path / "nope.json"),
            "--effect-table", str(table_path), str(SRC),
        ]) == 2
        assert not table_path.exists()

    def test_rule_filter_runs_only_the_named_rule(self, tmp_path, capsys):
        bad = rogue_module(tmp_path)
        assert main([
            "lint", "--no-baseline", "--rule", "crash-hygiene", str(bad),
        ]) == 1
        capsys.readouterr()
        # The violation belongs to crash-hygiene; a run filtered to a
        # different rule must not see it.
        assert main([
            "lint", "--no-baseline", "--rule", "guarded-by", str(bad),
        ]) == 0

    def test_rule_filter_skips_other_rules_suppressions(
        self, tmp_path, capsys
    ):
        bad = rogue_module(tmp_path, offending(
            "  # repro: allow(crash-hygiene) -- fixture swallows all"
        ))
        # The full run uses the suppression; a run filtered to another
        # rule must neither apply it nor report it unused.
        assert main(["lint", "--strict", "--no-baseline", str(bad)]) == 0
        assert main([
            "lint", "--strict", "--no-baseline",
            "--rule", "guarded-by", str(bad),
        ]) == 0

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert main(["lint", "--rule", "no-such-rule", str(SRC)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules_names_exactly_the_retained_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        output = capsys.readouterr().out
        listed = {
            line.split()[0] for line in output.splitlines()
            if line and not line.startswith(" ")
        }
        assert listed == RETAINED_RULES

    def test_help_documents_the_suppression_syntax(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        output = capsys.readouterr().out
        assert "repro: allow(" in output
        assert "rationale" in output
