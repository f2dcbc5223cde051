"""Reporter edge cases: zero findings, unicode paths, baseline drift.

The reporters promise two things CI depends on: text output is stable
and line-oriented (one finding per line plus a summary), and JSON
output is byte-stable across runs and platforms (sorted findings,
sorted keys, newline-terminated).  Baseline subtraction is exercised
here too because ``--write-baseline`` / drift detection round-trips
through :func:`render_json`-style entries.
"""

import json

from repro.analysis.core import (
    SEVERITY_WARNING,
    Finding,
    baseline_entries,
    subtract_baseline,
)
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


class TestBaselineDrift:
    def test_baselined_finding_is_absorbed(self):
        current = [finding()]
        baseline = baseline_entries(current)
        assert subtract_baseline(current, baseline) == []

    def test_line_drift_does_not_invalidate_baseline(self):
        # Baseline identity is line-number-free: the same finding on a
        # different line is still grandfathered.
        baseline = baseline_entries([finding(line=3)])
        assert subtract_baseline([finding(line=77)], baseline) == []

    def test_new_finding_survives_subtraction(self):
        baseline = baseline_entries([finding()])
        drifted = finding(message="worse")
        assert subtract_baseline([drifted], baseline) == [drifted]

    def test_multiset_semantics(self):
        # One baseline entry absorbs at most one identical finding.
        baseline = baseline_entries([finding()])
        twice = [finding(line=3), finding(line=8)]
        assert subtract_baseline(twice, baseline) == [finding(line=8)]

    def test_entries_are_sorted_and_line_free(self):
        entries = baseline_entries([
            finding(path="src/z.py"), finding(path="src/a.py"),
        ])
        assert [e["path"] for e in entries] == ["src/a.py", "src/z.py"]
        assert all("line" not in e for e in entries)


class TestRenderSarif:
    def _rules(self):
        from repro.analysis.core import all_rules
        return all_rules()

    def test_empty_findings_still_lists_every_rule(self):
        from repro.analysis.reporters import render_sarif
        rules = self._rules()
        payload = json.loads(render_sarif([], rules))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["results"] == []
        ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert ids == sorted(rule.name for rule in rules)
        assert len(ids) == len(set(ids))

    def test_result_references_rule_by_index(self):
        from repro.analysis.reporters import render_sarif
        rules = self._rules()
        payload = json.loads(render_sarif(
            [finding(rule=rules[0].name)], rules
        ))
        run = payload["runs"][0]
        (result,) = run["results"]
        index = result["ruleIndex"]
        assert run["tool"]["driver"]["rules"][index]["id"] == result["ruleId"]

    def test_location_is_relative_with_srcroot_base(self):
        from repro.analysis.reporters import render_sarif
        payload = json.loads(render_sarif(
            [finding(path="src\\repro\\a.py", line=0)], []
        ))
        location = payload["runs"][0]["results"][0]["locations"][0]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == "src/repro/a.py"
        assert physical["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        # SARIF lines are 1-based; module-level findings at line 0 clamp.
        assert physical["region"]["startLine"] == 1

    def test_severity_maps_to_sarif_level(self):
        from repro.analysis.reporters import render_sarif
        payload = json.loads(render_sarif([
            finding(),
            finding(line=4, severity=SEVERITY_WARNING),
        ], []))
        levels = [r["level"] for r in payload["runs"][0]["results"]]
        assert levels == ["error", "warning"]

    def test_output_is_stable_and_newline_terminated(self):
        from repro.analysis.reporters import render_sarif
        rules = self._rules()
        a = render_sarif([finding(line=9), finding(line=2)], rules)
        b = render_sarif([finding(line=2), finding(line=9)], rules)
        assert a == b
        assert a.endswith("\n")
        lines = [
            r["locations"][0]["physicalLocation"]["region"]["startLine"]
            for r in json.loads(a)["runs"][0]["results"]
        ]
        assert lines == [2, 9]
