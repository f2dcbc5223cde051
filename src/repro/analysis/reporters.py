"""Finding reporters: human text and machine-stable JSON.

Both render the same sorted finding list ((path, line, rule, message) —
the :class:`~repro.analysis.core.Finding` dataclass ordering), so text
output diffs cleanly between runs and CI can ``cmp`` the JSON form of
two runs under different hash seeds.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from repro.analysis.core import SEVERITY_ERROR, Finding


def render_text(findings: Sequence[Finding], *, verbose: bool = False) -> str:
    """One ``path:line: [rule] message`` line per finding + a summary."""
    lines: List[str] = []
    for finding in sorted(findings):
        prefix = "" if finding.severity == SEVERITY_ERROR else "warning: "
        lines.append(f"{finding.render()}" if not prefix else
                     f"{finding.path}:{finding.line}: warning: "
                     f"[{finding.rule}] {finding.message}")
    errors = sum(1 for f in findings if f.severity == SEVERITY_ERROR)
    warnings = len(findings) - errors
    if findings:
        lines.append(f"{errors} error(s), {warnings} warning(s)")
    else:
        lines.append("clean: no findings")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Stable JSON: sorted findings, sorted keys, newline-terminated."""
    payload = {
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "rule": f.rule,
                "severity": f.severity,
                "message": f.message,
            }
            for f in sorted(findings)
        ],
        "errors": sum(
            1 for f in findings if f.severity == SEVERITY_ERROR
        ),
        "warnings": sum(
            1 for f in findings if f.severity != SEVERITY_ERROR
        ),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
