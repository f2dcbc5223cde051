"""``repro.sanitize`` — the two-sided concurrency checker.

The ISP serves many clients concurrently while ``sync_update`` ingests
new blocks (the paper's Fig. 13b measures exactly this interference),
so concurrency correctness is a soundness property, not a performance
nicety.  Two sides watch it:

* **static** — :mod:`repro.analysis.concurrency`, over the call graph
  and per-function lock facts of :mod:`repro.analysis.engine`, enforces
  the ``lock-order`` (no cycles in the interprocedural lock-acquisition
  graph) and ``guarded-by`` (annotated shared fields are only touched
  with their lock held) rules under ``python -m repro lint``;
* **runtime** — :mod:`repro.sanitize.runtime` provides the
  :class:`SanLock` instrumented mutex, the :class:`SanThread`
  fork/join-aware thread, and an Eraser-style lock-set tracker with
  vector-clock happens-before, armed by the concurrent stress suite
  (``python -m repro sanitize``).

Instrumented production sites import the module façade and guard with
``if san.ACTIVE:`` so the disarmed cost is one attribute load.
"""

from repro.sanitize.runtime import (
    ACTIVE,
    SanitizerReport,
    SanLock,
    SanThread,
    arm,
    assert_clean,
    disarm,
    reports,
    reset,
    track,
    track_read,
    track_write,
)

__all__ = [
    "ACTIVE",
    "SanLock",
    "SanThread",
    "SanitizerReport",
    "arm",
    "assert_clean",
    "disarm",
    "reports",
    "reset",
    "track",
    "track_read",
    "track_write",
]
