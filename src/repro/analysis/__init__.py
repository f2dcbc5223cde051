"""``repro.analysis`` — the ``guarded-by`` static check.

V²FS's serving path shares a session table, a page map and an
instrument map between handler threads and ``sync_update``.  Nothing
at run time watches every access to them, so this small analyzer, built
on the stdlib :mod:`ast`, checks that each field annotated
``# repro: guarded-by(<lock>)`` is touched with its lock held:

* :mod:`repro.analysis.core` — findings, the ``# repro:`` directive
  grammar (a misspelled or unknown directive is an error) and parsing;
* :mod:`repro.analysis.concurrency` — the ``guarded-by`` rule, checked
  one class at a time;
* :mod:`repro.analysis.cli` — ``python -m repro lint [paths]``;
* this module — the driver that runs them over a program.

Four rules were retired because tier-1 tests catch every mutant of
their defects at run time (``crash-hygiene``, ``must-release``,
``blocking-effect``, ``verify-before-use``); DESIGN.md § "Static
guarantees" names the tests.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Tuple

from repro.analysis.concurrency import check_guarded_by
from repro.analysis.core import (
    Finding,
    ModuleContext,
    parse_sources,
    read_sources,
)


def analyze_contexts(contexts: Sequence[ModuleContext]) -> List[Finding]:
    """Every module's directive findings, then ``guarded-by`` over all
    of them as one program (a subclass's base may live in another
    module); sorted."""
    findings = [f for ctx in contexts for f in ctx.directive_findings]
    findings.extend(check_guarded_by(contexts))
    return sorted(findings)


def analyze_sources(
    named_sources: Sequence[Tuple[str, str, str]],
) -> List[Finding]:
    """Analyze ``(module, path, source)`` triples as one program (the
    multi-module fixtures' entry point)."""
    contexts, findings = parse_sources(named_sources)
    return sorted(findings + analyze_contexts(contexts))


def analyze_source(
    source: str, *, module: str, path: str = "<fixture>",
) -> List[Finding]:
    """Analyze one source string (the test fixtures' entry point)."""
    return analyze_sources([(module, path, source)])


def analyze_paths(paths: Sequence[Path]) -> List[Finding]:
    """Analyze every ``*.py`` under ``paths`` as one program, reporting
    paths relative to the current directory."""
    named_sources, findings = read_sources(paths, Path.cwd())
    return sorted(findings + analyze_sources(named_sources))


__all__ = [
    "Finding",
    "ModuleContext",
    "analyze_contexts",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
]
