"""CPU-speed probe: timings scaled to a reference speed.

The box this benchmark is gated on does not run at one speed.  The same
two 2048-bit ``pow()`` calls took 33-53 ms from one second to the next
(measured for this benchmark; wall time and process CPU time moved
together, steal was ~0.3%), and whole 20 s runs came out 2x slower than
their neighbours.  No statistic of raw time is steady under that: over
12 six-second runs of one fixed loop, min, p10, p50, p90 and mean all
spread 9-22% (interquartile distance / median).

What is steady is the *ratio* between the work under test and a fixed
piece of work done right next to it.  :func:`probe` is that fixed piece
(~1 ms of big-integer ``pow``, a bytecode loop and SHA-256 — the
three kinds of work the system under test is made of).  Every timed
operation is bracketed by a probe before and after, and its duration is
scaled by ``NOMINAL_PROBE_S / mean(probe before, probe after)``.  The
prototype brought the run-to-run spread of p50 from 8.8% to 0.9% and of
p90 from 12.5% to 3.0%.

So a reported millisecond is a millisecond *at the reference speed*:
the speed at which one probe takes :data:`NOMINAL_PROBE_S`.  Raw
wall-clock medians are printed beside the scaled ones, and the traced
run reports ``speed.factor_p50`` (how slow the box ran: probe time /
nominal).  The scaling is exact for CPU-bound work, which every
closed-loop workload here is (loopback sockets, no disk); time spent
*waiting* would be mis-scaled, which is why the open-loop
``serve_sessions`` workload runs on one vCPU (awake.py): there a session
costs CPU time and context switches only, and the probes its generator
takes in idle moments scale it the same way.
"""

from __future__ import annotations

import hashlib
import time
import resource
import statistics
from typing import List

#: One probe at the reference speed.  Calibrated on the 2-core box the
#: benchmark is gated on (three medians of 15,000 probes: 0.92, 0.95,
#: 0.96 ms); changing it rescales every timing and therefore needs a
#: new baseline.
NOMINAL_PROBE_S = 0.95e-3

#: A probe this recent still describes "now" (reused instead of rerun).
_FRESH_S = 0.5e-3

_MODULUS = (1 << 511) + 111
_EXPONENT = (1 << 510) + 5
_BLOCK = b"\x5a" * 4096


def probe() -> float:
    """Run the fixed reference work once; seconds it took."""
    started = time.perf_counter()
    pow(3, _EXPONENT, _MODULUS)
    total = 0
    for value in range(8000):
        total += value * value % 7
    for _ in range(8):
        hashlib.sha256(_BLOCK).digest()
    return time.perf_counter() - started


class SpeedMeter:
    """Scales intervals to the reference speed; remembers every probe."""

    def __init__(self) -> None:
        self.probes_s: List[float] = []
        self._last_s = 0.0
        self._last_end = float("-inf")

    def probe(self) -> float:
        self._last_s = probe()
        self._last_end = time.perf_counter()
        self.probes_s.append(self._last_s)
        return self._last_s

    def fresh(self) -> float:
        """The last probe if it has only just finished, else a new one."""
        if time.perf_counter() - self._last_end <= _FRESH_S:
            return self._last_s
        return self.probe()

    def factor_p50(self) -> float:
        """How slow the box ran: median probe time / nominal."""
        return statistics.median(self.probes_s) / NOMINAL_PROBE_S

    def note(self, raw_p50_s: float) -> str:
        """The raw numbers behind a scaled run, for the human reader."""
        return (f"raw wall clock: op_p50 {1e3 * raw_p50_s:.3f} ms, CPU "
                f"speed factor (probe/nominal) p50 {self.factor_p50():.3f}")

    @staticmethod
    def scale(before_s: float, after_s: float) -> float:
        """Multiplier taking a raw duration to reference-speed seconds."""
        return NOMINAL_PROBE_S / ((before_s + after_s) / 2.0)


class ScaledStopwatch:
    """Sums reference-speed seconds over bracketed segments (set-up)."""

    def __init__(self, meter: SpeedMeter) -> None:
        self._meter = meter
        self.scaled_s = 0.0
        self.raw_s = 0.0
        self._before_s = 0.0
        self._started = 0.0

    def __enter__(self) -> "ScaledStopwatch":
        self._before_s = self._meter.fresh()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        raw = time.perf_counter() - self._started
        after_s = self._meter.probe()
        self.raw_s += raw
        self.scaled_s += raw * SpeedMeter.scale(self._before_s, after_s)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
