"""Keep the box's virtual CPUs from halting while latency is measured.

On the VM this benchmark is gated on, waking a halted vCPU goes through
the host's scheduler, and how long that takes is the host's business: a
1-byte ping-pong between two processes that both sleep between
messages measured p50 = 25 us in one minute and 2,700 us in the next
(p90 8.8 ms), and open-loop session latency followed it (p50 5 ms →
15-40 ms) while a CPU-bound probe in the same process did not move.
With one always-runnable process per otherwise idle vCPU the same
ping-pong stayed at 25-34 us.

So the two workloads whose operations are hand-offs between sleeping
threads or processes (``mixed_live_rpc``, ``serve_sessions``) run with a
:class:`VcpuKeeper`: a child that spins at ``SCHED_IDLE`` priority — it
only ever gets cycles nothing else wants, and any runnable thread
preempts it at once.  It is the user-space stand-in for booting with
``idle=poll``; what is left in the latency is the program's own work
plus scheduling *inside* the guest.  The single-threaded closed loops
never sleep, so they need no keeper (and a spinner on a sibling
hyperthread would only slow them).  ``serve_sessions`` additionally
confines generator, server and keeper to one vCPU (:func:`pin_to_cpu`).
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Optional

_SPIN = """
import os
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
parent = os.getppid()
while os.getppid() == parent:  # do not outlive the runner
    for _ in range(1000000):
        pass
"""


class VcpuKeeper:
    """Context manager: ``count`` idle-priority spinners while inside."""

    def __init__(self, count: int = 1) -> None:
        self._count = count
        self._children: list = []

    def __enter__(self) -> "VcpuKeeper":
        self._children = [
            subprocess.Popen([sys.executable, "-c", _SPIN])
            for _ in range(self._count)
        ]
        return self

    def __exit__(self, *exc_info) -> None:
        for child in self._children:
            child.kill()
        for child in self._children:
            child.wait()
        self._children = []


def last_cpu() -> Optional[int]:
    """The highest-numbered CPU this process may run on (CPU 0 tends to
    take the interrupts), or None where affinity cannot be read."""
    try:
        return max(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


def pin_to_cpu(cpu: Optional[int]) -> None:
    """Confine this process — and every thread or child it starts from
    now on — to one CPU.

    Hand-offs between threads on *different* vCPUs need an
    inter-processor interrupt, which on this VM is another trip through
    the host (session p50 drifted 1.9-3.1 ms over four minutes with the
    generator and the server on separate vCPUs).  On one vCPU a wake-up
    is a plain context switch, everything the operation costs is CPU
    time on that vCPU, and the speed probe taken there scales it: the
    same four minutes spread 5% instead of 21%.
    """
    if cpu is None:
        return
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        pass
