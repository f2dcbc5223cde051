"""``repro.analysis`` — project-specific static invariant checking.

V²FS's soundness rests on boundaries that no unit test can watch
globally: all database I/O flows through the VFS interface, verified
bytes are the only bytes that reach query results, proof encodings are
byte-deterministic, ``SimulatedCrash`` is never absorbed, and every
failpoint call site targets a declared name.  This package enforces
those boundaries mechanically over the whole of ``src/`` with a small
from-scratch analyzer built on the stdlib :mod:`ast`:

* :mod:`repro.analysis.core` — findings, the rule registry, the
  ``# repro:`` annotation grammar, inline
  ``# repro: allow(<rule>) -- rationale`` suppressions, baseline
  handling, and the per-file driver;
* :mod:`repro.analysis.rules` — the per-module V²FS rules
  (``vfs-boundary``, ``crash-hygiene``, ``proof-determinism``,
  ``failpoint-names``, ``typed-errors``, ``obs-naming``);
* :mod:`repro.analysis.engine` — the interprocedural engine (program
  index, one fact-collecting walk, the call-graph solver, the memo)
  under the six program rules in :mod:`~repro.analysis.concurrency`
  (``guarded-by``), :mod:`~repro.analysis.dataflow`
  (``verify-before-use``, ``blocking-effect``) and
  :mod:`~repro.analysis.ownership` (``thread-confinement``,
  ``loop-blocking``, ``must-release``);
* :mod:`repro.analysis.reporters` — stable human and JSON output;
* :mod:`repro.analysis.cli` — ``python -m repro lint``.

Each rule documents the paper invariant it protects; see DESIGN.md
§ "Static guarantees" for the mapping.
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
