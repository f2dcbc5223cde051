"""``python -m repro lint`` — run the invariant checker.

Exit codes: 0 clean (warnings allowed unless ``--strict``), 1 findings,
2 usage errors (bad baseline file, no inputs).  The ``lint`` subparser
itself is declared here and mounted by :mod:`repro.cli`, so the
analyzer stays importable without the rest of the CLI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from repro.analysis.core import (
    SEVERITY_ERROR,
    all_rules,
    baseline_entries,
    load_baseline,
    parse_paths,
    run_rules,
    subtract_baseline,
)
from repro.analysis.reporters import (
    render_json,
    render_sarif,
    render_text,
)

#: Default baseline looked up relative to the current directory.
DEFAULT_BASELINE = "lint-baseline.json"

_EPILOG = """\
suppressions:
  Findings are suppressed inline, on the offending line or on a comment
  line directly above it, and MUST carry a rationale:

      risky_call()  # repro: allow(crash-hygiene) -- recovery re-raises upstream

  A suppression without '-- rationale' is itself an error
  (suppression-rationale); one that matches no finding is a warning
  (unused-suppression), so stale allowances cannot accumulate.

baselines:
  A baseline file ({"version": 1, "findings": [{"path", "rule",
  "message"}, ...]}) grandfathers pre-existing findings; entries are
  line-number-free so pure line drift never invalidates them.  Generate
  one with --write-baseline, diff it with --format=json output.
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
        "--baseline", default=None, metavar="FILE",
        help="baseline file of grandfathered findings "
             f"(default: {DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="write current findings as a baseline and exit 0",
    )
    parser.add_argument(
        "--format", default="text", choices=["text", "json", "sarif"],
        dest="output_format",
        help="report format; json is stable and sorted for diffing, "
             "sarif (2.1.0) uploads as GitHub code-scanning alerts",
    )
    parser.add_argument(
        "--rule", action="append", default=None, metavar="NAME",
        dest="rules",
        help="run only this rule (repeatable); suppressions belonging "
             "to rules not selected are neither applied nor reported "
             "unused",
    )
    parser.add_argument(
        "--effect-table", default=None, metavar="FILE",
        dest="effect_table",
        help="also export the per-function blocking-effect table "
             "(what would stall an event-loop thread) as JSON",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules with the invariant each protects",
    )


def _write_json(path: str, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


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
    # The baseline is read before any source is: a bad --baseline is a
    # usage error, not something to discover after a full analysis.
    baseline = None
    if not (args.no_baseline or args.write_baseline):
        baseline_path = Path(args.baseline or DEFAULT_BASELINE)
        if args.baseline is not None and not baseline_path.exists():
            print(
                f"error: baseline {baseline_path} does not exist",
                file=sys.stderr,
            )
            return 2
        if baseline_path.exists():
            try:
                baseline = load_baseline(baseline_path)
            except (ValueError, json.JSONDecodeError) as error:
                print(
                    f"error: unreadable baseline {baseline_path}: {error}",
                    file=sys.stderr,
                )
                return 2
    # Parse once; the rule pass and the effect table hand the same
    # context objects to engine.Analysis.of, so they share one analysis.
    contexts, findings = parse_paths(paths)
    findings.extend(run_rules(contexts, rules))
    findings.sort()

    if args.effect_table:
        from repro.analysis.dataflow import build_effect_table

        table = build_effect_table(contexts)
        _write_json(args.effect_table, table)
        print(
            f"wrote effect table for {len(table['functions'])} "
            f"function(s) to {args.effect_table}",
            file=sys.stderr,
        )

    if args.write_baseline:
        _write_json(args.write_baseline, {
            "version": 1, "findings": baseline_entries(findings),
        })
        print(
            f"wrote {len(findings)} finding(s) to {args.write_baseline}",
            file=sys.stderr,
        )
        return 0

    if baseline is not None:
        findings = subtract_baseline(findings, baseline)

    if args.output_format == "json":
        sys.stdout.write(render_json(findings))
    elif args.output_format == "sarif":
        sys.stdout.write(render_sarif(findings, rules))
    else:
        print(render_text(findings))

    errors: List = [f for f in findings if f.severity == SEVERITY_ERROR]
    if errors:
        return 1
    if args.strict and findings:
        return 1
    return 0
