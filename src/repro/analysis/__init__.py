"""``repro.analysis`` — project-specific static invariant checking.

V²FS's soundness rests on boundaries that are easy to erode one edit at
a time.  This package enforces the two that no test watches globally
with a small from-scratch analyzer built on the stdlib :mod:`ast`:
``SimulatedCrash`` and failed integrity checks are never absorbed, and
shared serving state is touched under its lock.  Each rule is pinned by
a test that puts a real historical defect back into today's source:

* :mod:`repro.analysis.core` — findings, the rule registry, the
  ``# repro:`` annotation grammar, inline
  ``# repro: allow(<rule>) -- rationale`` suppressions, and the
  per-file driver;
* :mod:`repro.analysis.rules` — the per-module ``crash-hygiene`` rule;
* :mod:`repro.analysis.concurrency` — the ``guarded-by`` rule, checked
  one class at a time;
* :mod:`repro.analysis.reporters` — stable human and JSON output;
* :mod:`repro.analysis.cli` — ``python -m repro lint``.

Three rules were retired because tier-1 tests catch every mutant of
their defects at run time (``must-release``, ``blocking-effect``,
``verify-before-use``); DESIGN.md § "Static guarantees" names the
tests, and maps each kept rule to the invariant it protects.
"""

from __future__ import annotations

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    all_rules,
    analyze_paths,
    analyze_source,
    register,
)

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "register",
]
