"""``repro.analysis`` — project-specific static invariant checking.

V²FS's soundness rests on boundaries that no unit test can watch
globally: verified bytes are the only bytes that reach query results
and caches, ``SimulatedCrash`` is never absorbed, shared serving state
is touched under its lock, no lock holder blocks, and an admission
slot is released on every path.  This package enforces those
boundaries mechanically over the whole of ``src/`` with a small
from-scratch analyzer built on the stdlib :mod:`ast`.  It keeps five
rules, each pinned by a test that puts a real historical defect back
into today's source:

* :mod:`repro.analysis.core` — findings, the rule registry, the
  ``# repro:`` annotation grammar, inline
  ``# repro: allow(<rule>) -- rationale`` suppressions, baseline
  handling, and the per-file driver;
* :mod:`repro.analysis.rules` — the per-module ``crash-hygiene`` rule;
* :mod:`repro.analysis.engine` — the interprocedural engine (program
  index, one fact-collecting walk, the call-graph solver, the memo)
  under the four program rules in :mod:`~repro.analysis.concurrency`
  (``guarded-by``), :mod:`~repro.analysis.dataflow`
  (``verify-before-use``, ``blocking-effect``) and
  :mod:`~repro.analysis.ownership` (``must-release``);
* :mod:`repro.analysis.reporters` — stable human and JSON output;
* :mod:`repro.analysis.cli` — ``python -m repro lint``.

Each rule documents the paper invariant it protects; see DESIGN.md
§ "Static guarantees" for the mapping and the defect each one caught.
"""

from __future__ import annotations

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    all_rules,
    analyze_paths,
    analyze_source,
    load_baseline,
    register,
)

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "load_baseline",
    "register",
]
