"""Golden-fixture tests for the repro.analysis invariant checker.

The ``# repro:`` directive grammar, the text report, and the CLI,
including a self-check asserting the shipped tree lints clean.
``guarded-by``'s own fixtures are ``test_analysis_concurrency.py``.
"""

import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_source
from repro.analysis.cli import render_text
from repro.analysis.core import module_name_for
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def lint(source, module):
    return analyze_source(textwrap.dedent(source), module=module)


#: A guarded field written without its lock: one guarded-by error on
#: the write (line 9 of the dedented fixture).
OFFENDING = """
import threading

class Table:
    def __init__(self):
        self._lock = threading.Lock()
        self.rows = {}  # repro: guarded-by(_lock)

    def put(self, key, row):
        self.rows[key] = row
"""


# ----------------------------------------------------------------------
# the directive grammar
# ----------------------------------------------------------------------


class TestDirectiveGrammar:
    @pytest.mark.parametrize("typo, meant", [
        ("gaurded-by(_lock)", "guarded-by"),
        ("guarded_by(_lock)", "guarded-by"),
        ("gaurded(_lock)", "guarded-by"),
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
        assert [(f.rule, f.line) for f in findings] == [
            ("unknown-directive", 4)
        ]
        assert typo.split("(")[0].split()[0] in findings[0].message
        assert f"did you mean {meant!r}?" in findings[0].message

    @pytest.mark.parametrize("directive", [
        "guarded-by(a,b,c)",
        "guarded-by(@)",
        "guarded-by",
        "guarded-by()",
    ])
    def test_malformed_directive_is_an_error(self, directive):
        findings = lint(
            f"def f():  # repro: {directive}\n    return 1\n",
            "repro.fixture",
        )
        assert [f.rule for f in findings] == ["unknown-directive"]
        assert "malformed" in findings[0].message

    def test_a_leftover_allow_is_an_error(self):
        # Suppressions are gone: an allowance left in a comment must
        # fail the lint, not read as if it still switched a rule off.
        findings = lint(
            "value = 1  # repro: allow(crash-hygiene) -- was a rationale\n",
            "repro.fixture",
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("unknown-directive", 1)
        ]
        assert "'allow'" in findings[0].message

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
        assert list(DIRECTIVES) == ["guarded-by"]


# ----------------------------------------------------------------------
# the text report
# ----------------------------------------------------------------------


class TestReporters:
    def test_text_reporter_mentions_location_and_rule(self):
        text = render_text(lint(OFFENDING, "repro.fixture"))
        assert "<fixture>:10: [guarded-by] write to Table.rows" in text
        assert text.splitlines()[-1] == "1 finding(s)"

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


def rogue_module(tmp_path, source=OFFENDING):
    bad = tmp_path / "src" / "repro" / "db" / "rogue.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(textwrap.dedent(source))
    return bad


class TestCliAndSelfCheck:
    def test_shipped_tree_is_strict_clean(self, capsys):
        # The acceptance gate: no finding at all on src/.
        exit_code = main(["lint", str(SRC)])
        output = capsys.readouterr().out
        assert exit_code == 0, output
        assert output == "clean: no findings\n"

    def test_lint_finds_a_seeded_violation(self, tmp_path, capsys):
        bad = rogue_module(tmp_path)
        assert main(["lint", str(bad)]) == 1
        assert "[guarded-by]" in capsys.readouterr().out

    def test_a_leftover_directive_fails_the_run(self, tmp_path, capsys):
        bad = rogue_module(
            tmp_path, "value = 1  # repro: allow(crash-hygiene) -- old\n"
        )
        assert main(["lint", str(bad)]) == 1
        assert "[unknown-directive]" in capsys.readouterr().out

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "no-such-dir")]) == 2
        assert "no such path" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [
        "--strict", "--format=json", "--rule=guarded-by", "--list-rules",
    ])
    def test_lint_takes_no_option(self, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", option, str(SRC)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_documents_the_directive_grammar(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        output = capsys.readouterr().out
        assert "# repro: guarded-by(<lock>" in output
        assert "retired" in output
