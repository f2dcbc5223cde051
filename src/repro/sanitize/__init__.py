"""``repro.sanitize`` — the runtime lock checker.

The ISP serves many clients concurrently while ``sync_update`` ingests
new blocks (the paper's Fig. 13b measures exactly this interference),
so concurrency correctness is a soundness property, not a performance
nicety.  Each of its properties has one checker, the one that sees the
serving path (DESIGN §8):

* **lock order** and **blocking under a lock** —
  :mod:`repro.sanitize.runtime`: every serving lock is a
  :class:`SanLock`, and while armed (the concurrent stress run,
  ``python -m repro chaos``) the name-level order graph is built from
  the acquisitions that actually happen, and a ``time.sleep`` or
  ``os.fsync`` made with a lock held is checked against what that lock
  allows; a cycle or a blocked holder is reported with its stacks;
* **annotated shared fields** — the static ``guarded-by`` rule in
  :mod:`repro.analysis.concurrency` (``python -m repro lint``) checks,
  one class at a time, that every access to a
  ``# repro: guarded-by(<lock>)`` field is its own class's, made with
  that lock held.

Disarmed — the shipped default — a :class:`SanLock` costs one
module-attribute load and a branch over the stdlib lock it wraps.
"""

from repro.sanitize.runtime import (
    ACTIVE,
    SanitizerReport,
    SanLock,
    arm,
    assert_clean,
    disarm,
    order_edges,
    reports,
    reset,
)

__all__ = [
    "ACTIVE",
    "SanLock",
    "SanitizerReport",
    "arm",
    "assert_clean",
    "disarm",
    "order_edges",
    "reports",
    "reset",
]
