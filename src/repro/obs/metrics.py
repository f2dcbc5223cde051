"""Process-wide metrics registry: counters, gauges and histograms.

Every count the paper's figures are built from — pages requested, VO
bytes shipped, cache hits, OCalls charged — flows through one
:class:`MetricsRegistry` under a name declared in
:mod:`repro.obs.catalog`.  Experiment scripts read deltas of the same
registry the production code writes, so a figure can never drift from
the instrumentation it claims to summarize.

Usage mirrors the failpoint registry::

    from repro.obs import metrics as obs

    obs.inc("cache.inter.hit")              # counter += 1
    obs.add("client.vo.bytes", vo_bytes)    # counter += n
    obs.observe("isp.vo.bytes", vo_bytes)   # histogram sample
    obs.set_gauge("store.nodes", count)     # last-value gauge
    obs.event("isp.sync_update", version=3) # ring-buffer trace event

Hot paths guard with ``if obs.ACTIVE:`` exactly like ``faults.ACTIVE``;
with the registry disabled every entry point returns before allocating
anything, so instrumentation left in place costs one attribute load and
one branch.  Counter and histogram updates take a per-instrument
``threading.Lock``: RPC handler threads and ``sync_update`` ingestion
record into the same instruments concurrently (Fig. 13b), and a
read-modify-write under the GIL can still lose increments between
bytecodes.  The instrument *map* is guarded by the registry's
:class:`~repro.sanitize.runtime.SanLock` for writes only — steady-state
lookups are lock-free dict reads, which is safe because instruments are
created once and never replaced (the ``guarded_by`` declaration, which
the armed :mod:`repro.sanitize` checker enforces).
"""

from __future__ import annotations

import json
import time
from threading import Lock
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import catalog
from repro.obs.trace import TraceBuffer
from repro.sanitize.runtime import SanLock, guarded_by

#: Fast module-level gate mirroring the process-wide registry's enabled
#: flag (kept in sync by :func:`enable`/:func:`disable`).
ACTIVE = True

#: Schema tag stamped into every exported payload.
SCHEMA = "repro.obs/v1"

#: Default histogram boundaries for byte/count-valued samples.
SIZE_BUCKETS: Tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
)

#: Default histogram boundaries for second-valued samples (timers).
TIME_BUCKETS: Tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 60.0,
)


def _check_declared(name: str) -> None:
    if not catalog.is_declared(name):
        hint = catalog.suggest(name)
        raise ValueError(
            f"metric scope {name!r} is not declared in "
            "repro.obs.catalog.SCOPES"
            + (f" (did you mean {hint[0]!r}?)" if hint else "")
        )


class Counter:
    """A monotonically increasing count (float-valued for seconds)."""

    __slots__ = ("name", "value", "_acquire", "_release")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        lock = Lock()
        self._acquire = lock.acquire
        self._release = lock.release

    def inc(self, value: float = 1) -> None:
        # += on a float attribute is LOAD/ADD/STORE — three bytecodes a
        # preempting handler thread can interleave with, losing counts.
        # Pre-bound acquire/release rather than ``with``: the context-
        # manager protocol on a C lock costs more than the lock itself
        # (250 vs 105 ns), and this is the hottest line of the registry.
        self._acquire()
        try:
            self.value += value
        finally:
            self._release()


class Gauge:
    """A last-value-wins measurement.

    ``set`` is a single attribute store (one bytecode, atomic under the
    GIL) and last-value-wins semantics make interleavings benign, so
    gauges carry no lock.
    """

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-boundary bucketed distribution with count and sum.

    ``buckets[i]`` counts samples ``<= boundaries[i]``; samples above
    the last boundary land in ``overflow``.  Boundaries are fixed at
    creation, so merged or diffed snapshots always line up.
    """

    __slots__ = ("name", "boundaries", "buckets", "overflow",
                 "count", "total", "_lock")
    kind = "histogram"

    def __init__(self, name: str,
                 boundaries: Sequence[float] = SIZE_BUCKETS) -> None:
        self.name = name
        self.boundaries: Tuple[float, ...] = tuple(boundaries)
        if list(self.boundaries) != sorted(set(self.boundaries)):
            raise ValueError("histogram boundaries must be sorted/unique")
        self.buckets: List[int] = [0] * len(self.boundaries)
        self.overflow = 0
        self.count = 0
        self.total: float = 0.0
        self._lock = Lock()

    def observe(self, value: float) -> None:
        # The lock keeps count/total/buckets mutually consistent; the
        # bucket-sum == count invariant is what validate_payload checks.
        with self._lock:
            self.count += 1
            self.total += value
            for i, bound in enumerate(self.boundaries):
                if value <= bound:
                    self.buckets[i] += 1
                    return
            self.overflow += 1

    def snapshot(self) -> Dict[str, Any]:
        """A mutually consistent copy for export."""
        with self._lock:
            return {
                "boundaries": list(self.boundaries),
                "buckets": list(self.buckets),
                "overflow": self.overflow,
                "count": self.count,
                "total": self.total,
            }


@guarded_by(_instruments=("_lock", "writes"))
class MetricsRegistry:
    """Named instruments plus a trace ring, instantiable per test."""

    def __init__(self, enabled: bool = True,
                 trace_capacity: int = 4096) -> None:
        self.enabled = enabled
        self.trace = TraceBuffer(trace_capacity)
        self._lock = SanLock("obs.registry")
        self._instruments: Dict[str, Any] = {}

    # -- instrument creation (locked; lookups are lock-free) -----------

    def _get(self, name: str, cls: type, *args: Any) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    _check_declared(name)
                    instrument = cls(name, *args)
                    self._instruments[name] = instrument
        if instrument.kind is not cls.kind:
            raise ValueError(
                f"scope {name!r} is already a {instrument.kind}, "
                f"not a {cls.kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  boundaries: Optional[Sequence[float]] = None) -> Histogram:
        if boundaries is None:
            boundaries = (
                TIME_BUCKETS if name.endswith("_s") else SIZE_BUCKETS
            )
        return self._get(name, Histogram, boundaries)

    # -- recording ------------------------------------------------------
    # Steady state (instrument exists, right kind) is one dict lookup
    # and an in-place add; the slow path validates names and kinds.

    def inc(self, name: str, value: float = 1) -> None:
        if self.enabled:
            instrument = self._instruments.get(name)
            if instrument is not None and instrument.kind == "counter":
                instrument.inc(value)
            else:
                self.counter(name).inc(value)

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            instrument = self._instruments.get(name)
            if instrument is not None and instrument.kind == "gauge":
                instrument.value = value
            else:
                self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            instrument = self._instruments.get(name)
            if instrument is not None and instrument.kind == "histogram":
                instrument.observe(value)
            else:
                self.histogram(name).observe(value)

    def event(self, name: str, **fields: Any) -> None:
        if self.enabled:
            _check_declared(name)
            self.trace.emit(time.monotonic(), name, fields)

    # -- reading --------------------------------------------------------

    def value(self, name: str) -> float:
        """Current value of a counter or gauge (0 if never touched)."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return 0
        if instrument.kind not in ("counter", "gauge"):
            raise ValueError(f"scope {name!r} is a {instrument.kind}")
        return instrument.value

    def _listed(self) -> List[Tuple[str, Any]]:
        """Every ``(name, instrument)``, copied under the lock: a handler
        thread creating a first-seen instrument mid-iteration would make
        it raise "dictionary changed size during iteration"."""
        with self._lock:
            return list(self._instruments.items())

    def counters_snapshot(self) -> Dict[str, float]:
        """Point-in-time copy of every counter (for later deltas)."""
        return {
            name: instrument.value
            for name, instrument in self._listed()
            if instrument.kind == "counter"
        }

    def counters_delta(
        self, before: Dict[str, float]
    ) -> Dict[str, float]:
        """Counter growth since a :meth:`counters_snapshot`."""
        now = self.counters_snapshot()
        return {
            name: now[name] - before.get(name, 0)
            for name in now
            if now[name] != before.get(name, 0)
        }

    def reset(self) -> None:
        """Zero every instrument and drop buffered trace events."""
        with self._lock:
            self._instruments.clear()
        self.trace.clear()
        self.trace.emitted = 0

    # -- export ---------------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """The exportable JSON document (see :data:`SCHEMA`)."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Any] = {}
        for name, instrument in sorted(self._listed()):
            if instrument.kind == "counter":
                counters[name] = instrument.value
            elif instrument.kind == "gauge":
                gauges[name] = instrument.value
            else:
                histograms[name] = instrument.snapshot()
        return {
            "schema": SCHEMA,
            "enabled": self.enabled,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "trace_emitted": self.trace.emitted,
            "trace_buffered": len(self.trace),
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def validate_payload(payload: Any) -> List[str]:
    """Schema-check an exported metrics document; return the problems.

    Used by ``python -m repro metrics --validate`` (the CI gate): an
    empty list means the document is a well-formed :data:`SCHEMA`
    export whose every scope is declared in the catalog.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, expected object"]
    if payload.get("schema") != SCHEMA:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {SCHEMA!r}"
        )
    for section in ("counters", "gauges"):
        values = payload.get(section)
        if not isinstance(values, dict):
            problems.append(f"missing or non-object {section!r} section")
            continue
        for name, value in values.items():
            if not catalog.is_declared(name):
                problems.append(f"{section}: undeclared scope {name!r}")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"{section}: {name!r} is not numeric")
    histograms = payload.get("histograms")
    if not isinstance(histograms, dict):
        problems.append("missing or non-object 'histograms' section")
        histograms = {}
    for name, spec in histograms.items():
        if not catalog.is_declared(name):
            problems.append(f"histograms: undeclared scope {name!r}")
        if not isinstance(spec, dict):
            problems.append(f"histograms: {name!r} is not an object")
            continue
        boundaries = spec.get("boundaries")
        buckets = spec.get("buckets")
        if not isinstance(boundaries, list) or not isinstance(buckets, list):
            problems.append(f"histograms: {name!r} lacks boundaries/buckets")
            continue
        if len(boundaries) != len(buckets):
            problems.append(
                f"histograms: {name!r} has {len(buckets)} buckets for "
                f"{len(boundaries)} boundaries"
            )
        declared = spec.get("count")
        if isinstance(declared, int):
            landed = sum(b for b in buckets if isinstance(b, int))
            landed += spec.get("overflow", 0)
            if landed != declared:
                problems.append(
                    f"histograms: {name!r} bucket sum {landed} != "
                    f"count {declared}"
                )
    return problems


# ----------------------------------------------------------------------
# The process-wide registry and its module-level façade
# ----------------------------------------------------------------------

#: The registry production code records into.  Experiment scripts take
#: counter snapshots/deltas of this same object.
REGISTRY = MetricsRegistry(enabled=True)


def enable() -> None:
    global ACTIVE
    REGISTRY.enabled = True
    ACTIVE = True


def disable() -> None:
    global ACTIVE
    REGISTRY.enabled = False
    ACTIVE = False


#: Bound methods of :data:`REGISTRY` — the façade adds no call frame.
#: Each method checks ``REGISTRY.enabled`` itself, which :func:`enable`
#: and :func:`disable` keep in lockstep with :data:`ACTIVE`.
inc = REGISTRY.inc

#: ``add`` reads better than ``inc`` at byte-sized call sites.
add = inc

set_gauge = REGISTRY.set_gauge
observe = REGISTRY.observe
event = REGISTRY.event


def reset() -> None:
    REGISTRY.reset()
