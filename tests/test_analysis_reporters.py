"""Text report edge cases: zero findings, ordering, unicode paths.

The report promises what CI depends on: it is stable and line-oriented
(one finding per line, sorted, plus a summary), so CI can ``cmp`` the
output of two runs under different hash seeds.
"""

from repro.analysis.cli import render_text
from repro.analysis.core import Finding


def finding(path="src/repro/a.py", line=3, rule="guarded-by",
            message="bad"):
    return Finding(path=path, line=line, rule=rule, message=message)


class TestRenderText:
    def test_zero_findings_says_clean(self):
        assert render_text([]) == "clean: no findings"

    def test_findings_are_sorted_and_counted(self):
        text = render_text([
            finding(line=9),
            finding(line=2, rule="unknown-directive", message="typo"),
        ])
        assert text.splitlines() == [
            "src/repro/a.py:2: [unknown-directive] typo",
            "src/repro/a.py:9: [guarded-by] bad",
            "2 finding(s)",
        ]

    def test_unicode_path_and_message_survive(self):
        text = render_text([
            finding(path="src/répro/写.py", message="naïve — bad")
        ])
        assert "src/répro/写.py:3:" in text
        assert "naïve — bad" in text
