"""``repro.sanitize`` — the runtime concurrency checker.

The ISP serves many clients concurrently while ``sync_update`` ingests
new blocks (the paper's Fig. 13b measures exactly this interference),
so concurrency correctness is a soundness property, not a performance
nicety.  One checker, :mod:`repro.sanitize.runtime`, holds its three
properties on the serving path (DESIGN §8).  Every serving lock is a
:class:`SanLock`, and while armed (the concurrent stress run,
``python -m repro chaos``, and the armed tests):

* **lock order** — the name-level order graph is built from the
  acquisitions that actually happen, and a cycle is reported with its
  stacks;
* **blocking under a lock** — a ``time.sleep`` or ``os.fsync`` made with
  a lock held is checked against what that lock allows;
* **guarded fields** — each field a class declares with
  :func:`guarded_by` is touched only by the instance's own methods with
  the declared lock held (or under its ``__init__``); ``writes`` mode
  exempts reads.

Disarmed — the shipped default — a :class:`SanLock` costs one
module-attribute load and a branch over the stdlib lock it wraps, and
no guarded class carries a descriptor.
"""

from repro.sanitize.runtime import (
    ACTIVE,
    SanitizerReport,
    SanLock,
    arm,
    assert_clean,
    disarm,
    guarded_by,
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
    "guarded_by",
    "order_edges",
    "reports",
    "reset",
]
