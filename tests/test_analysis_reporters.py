"""Reporter edge cases: zero findings, unicode paths, severity counts.

The reporters promise two things CI depends on: text output is stable
and line-oriented (one finding per line plus a summary), and JSON
output is byte-stable across runs and platforms (sorted findings,
sorted keys, newline-terminated).
"""

import json

from repro.analysis.core import SEVERITY_WARNING, Finding
from repro.analysis.reporters import render_json, render_text


def finding(path="src/repro/a.py", line=3, rule="guarded-by",
            message="bad", severity=None):
    if severity is None:
        return Finding(path=path, line=line, rule=rule, message=message)
    return Finding(path=path, line=line, rule=rule, message=message,
                   severity=severity)


class TestRenderText:
    def test_zero_findings_says_clean(self):
        assert render_text([]) == "clean: no findings"

    def test_errors_and_warnings_are_counted(self):
        text = render_text([
            finding(line=9),
            finding(line=2, rule="obs-naming", message="w",
                    severity=SEVERITY_WARNING),
        ])
        lines = text.splitlines()
        # Sorted by (path, line): the warning (line 2) renders first,
        # tagged so humans can skim for hard failures.
        assert lines[0].startswith("src/repro/a.py:2: warning: ")
        assert lines[1] == "src/repro/a.py:9: [guarded-by] bad"
        assert lines[-1] == "1 error(s), 1 warning(s)"

    def test_unicode_path_and_message_survive(self):
        text = render_text([
            finding(path="src/répro/写.py", message="naïve — bad")
        ])
        assert "src/répro/写.py:3:" in text
        assert "naïve — bad" in text


class TestRenderJson:
    def test_zero_findings_payload(self):
        payload = json.loads(render_json([]))
        assert payload == {"findings": [], "errors": 0, "warnings": 0}

    def test_output_is_sorted_and_newline_terminated(self):
        out = render_json([finding(line=9), finding(line=2)])
        assert out.endswith("\n")
        payload = json.loads(out)
        assert [f["line"] for f in payload["findings"]] == [2, 9]
        # Same findings in a different order produce identical bytes.
        assert out == render_json([finding(line=2), finding(line=9)])

    def test_unicode_round_trips(self):
        payload = json.loads(render_json([
            finding(path="src/répro/写.py", message="naïve — bad")
        ]))
        assert payload["findings"][0]["path"] == "src/répro/写.py"
        assert payload["findings"][0]["message"] == "naïve — bad"

    def test_severity_counts_split(self):
        payload = json.loads(render_json([
            finding(),
            finding(line=4, severity=SEVERITY_WARNING),
        ]))
        assert payload["errors"] == 1
        assert payload["warnings"] == 1
