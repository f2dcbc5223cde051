"""``python -m repro lint [paths]`` — run the invariant checker.

It takes no option.  Exit codes: 0 clean, 1 findings, 2 a missing path.
The ``lint`` subparser itself is declared here and mounted by
:mod:`repro.cli`, so the analyzer stays importable without the rest of
the CLI.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis import analyze_paths
from repro.analysis.core import Finding

_EPILOG = """\
The one rule is guarded-by: a field annotated
'# repro: guarded-by(<lock>[, writes])' is touched only with its lock
held.  A misspelled or unknown '# repro:' directive is an error.
crash-hygiene, must-release, blocking-effect and verify-before-use are
retired: the tier-1 tests named in DESIGN.md section 6 catch their
defects at run time.
"""


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.epilog = _EPILOG
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )


def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line: [rule] message`` line per finding, sorted, and
    a summary line."""
    lines = [finding.render() for finding in sorted(findings)]
    lines.append(f"{len(findings)} finding(s)" if findings
                 else "clean: no findings")
    return "\n".join(lines)


def run(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such path: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2
    findings = analyze_paths(paths)
    print(render_text(findings))
    return 1 if findings else 0
