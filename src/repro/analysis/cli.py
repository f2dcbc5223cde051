"""``python -m repro lint`` — run the invariant checker.

Exit codes: 0 clean (warnings allowed unless ``--strict``), 1 findings,
2 usage errors (unknown rule, missing path).  The ``lint`` subparser
itself is declared here and mounted by :mod:`repro.cli`, so the
analyzer stays importable without the rest of the CLI.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.analysis.core import (
    SEVERITY_ERROR,
    all_rules,
    parse_paths,
    run_rules,
)
from repro.analysis.reporters import render_json, render_text

_EPILOG = """\
suppressions:
  Findings are suppressed inline, on the offending line or on a comment
  line directly above it, and MUST carry a rationale:

      risky_call()  # repro: allow(crash-hygiene) -- recovery re-raises upstream

  A suppression without '-- rationale' is itself an error
  (suppression-rationale); one that matches no finding is a warning
  (unused-suppression), so stale allowances cannot accumulate.

retired rules:
  must-release, blocking-effect and verify-before-use are retired: the
  tier-1 tests named in DESIGN.md section 6 catch their defects at run
  time.  --list-rules prints the rules that remain.
"""


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.epilog = _EPILOG
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail on warnings too (CI mode)",
    )
    parser.add_argument(
        "--format", default="text", choices=["text", "json"],
        dest="output_format",
        help="report format; json is stable and sorted for diffing",
    )
    parser.add_argument(
        "--rule", action="append", default=None, metavar="NAME",
        dest="rules",
        help="run only this rule (repeatable); suppressions belonging "
             "to rules not selected are neither applied nor reported "
             "unused",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules with the invariant each protects",
    )


def run(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name} [{rule.severity}]")
            print(f"    {rule.description}")
            print(f"    invariant: {rule.invariant}")
        return 0

    rules = all_rules()
    if args.rules:
        by_name = {rule.name: rule for rule in rules}
        unknown = sorted(set(args.rules) - set(by_name))
        if unknown:
            print(
                f"error: unknown rule(s): {', '.join(unknown)} "
                f"(see --list-rules)",
                file=sys.stderr,
            )
            return 2
        rules = [
            by_name[name] for name in sorted(set(args.rules))
        ]

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such path: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2
    contexts, findings = parse_paths(paths)
    findings.extend(run_rules(contexts, rules))
    findings.sort()

    if args.output_format == "json":
        sys.stdout.write(render_json(findings))
    else:
        print(render_text(findings))

    errors: List = [f for f in findings if f.severity == SEVERITY_ERROR]
    if errors:
        return 1
    if args.strict and findings:
        return 1
    return 0
