"""Heartbeat-driven membership and health tracking for the fleet.

:class:`HealthTracker` probes every registered endpoint (a cheap RPC
``ping``) and keeps a per-endpoint up/down verdict derived from
*consecutive* missed heartbeats — one dropped probe is noise, a streak
is an outage.  Two consumers read it:

* the router skips replicas marked down when picking a read endpoint
  (and when choosing a hedge target), so reads stop burning timeouts
  on a dead copy;
* the lifecycle watches for a *primary* going down and triggers
  replica promotion (:meth:`~repro.fleet.lifecycle.Fleet.promote_replica`)
  — certificate-verified failover, see :mod:`repro.fleet.replication`.

The tracker is deliberately **advisory**: every verdict is a routing
hint, never a trust statement.  A wrong verdict misroutes a read to a
dead or stale endpoint, which fails typed or fails verification — the
V²FS soundness argument does not depend on health being right.

Probing runs either from an owned background thread
(:meth:`start`/:meth:`stop`) or by explicit :meth:`probe_once` ticks —
chaos schedules use the latter so heartbeat timing is deterministic
under a seeded schedule.  The ``fleet.health.miss`` failpoint force-
drops probes to model heartbeat loss without killing the endpoint.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.faults import registry as faults
from repro.faults.registry import InjectedFault
from repro.obs import metrics as obs
from repro.sanitize.runtime import SanLock

logger = logging.getLogger("repro.fleet")

#: One endpoint's probe: raises (any ReproError/OSError) on failure.
ProbeFn = Callable[[], None]

#: Callback fired on an up→down transition (endpoint key).
DownFn = Callable[[str], None]


class EndpointHealth:
    """Mutable health record for one endpoint."""

    __slots__ = ("key", "up", "missed", "probes")

    def __init__(self, key: str) -> None:
        self.key = key
        self.up = True  # optimistic: endpoints start healthy
        self.missed = 0
        self.probes = 0


class HealthTracker:
    """Consecutive-miss health verdicts over registered probes."""

    def __init__(
        self,
        miss_threshold: int = 2,
        on_down: Optional[DownFn] = None,
        on_up: Optional[DownFn] = None,
    ) -> None:
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.miss_threshold = miss_threshold
        self.on_down = on_down
        self.on_up = on_up
        self._lock = SanLock("fleet.health")
        self._probes: Dict[str, ProbeFn] = {}  # repro: guarded-by(_lock)
        self._records: Dict[str, EndpointHealth] = {}  # repro: guarded-by(_lock)
        self._thread: Optional[threading.Thread] = None
        self._running = threading.Event()
        self._stop_gate = threading.Event()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def attach(self, key: str, probe: ProbeFn) -> None:
        with self._lock:
            self._probes[key] = probe
            self._records.setdefault(key, EndpointHealth(key))

    def detach(self, key: str) -> None:
        with self._lock:
            self._probes.pop(key, None)
            self._records.pop(key, None)

    def attached(self) -> List[str]:
        """The keys of every attached probe, copied under the lock."""
        with self._lock:
            return list(self._probes)

    def is_up(self, key: str) -> bool:
        """Current verdict; unknown endpoints are optimistically up."""
        with self._lock:
            record = self._records.get(key)
            return True if record is None else record.up

    def down_keys(self) -> List[str]:
        with self._lock:
            return sorted(
                key
                for key, record in self._records.items()
                if not record.up
            )

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def probe_once(self) -> List[Tuple[str, bool]]:
        """Probe every endpoint once; returns verdict *transitions*.

        Each returned ``(key, up)`` pair is an endpoint whose verdict
        changed this round.  Transition callbacks run outside the
        tracker lock — they may call back into the fleet (promotion
        rewires shard maps) and must not deadlock against readers.
        """
        with self._lock:
            probes = list(self._probes.items())
        transitions: List[Tuple[str, bool]] = []
        for key, probe in probes:
            if obs.ACTIVE:
                obs.inc("fleet.health.probe")
            ok = True
            try:
                if faults.ACTIVE:
                    faults.fire("fleet.health.miss", endpoint=key)
                probe()
            except (ReproError, InjectedFault, OSError):
                ok = False
            transition = self._record(key, ok)
            if transition is not None:
                transitions.append(transition)
        for key, up in transitions:
            if up:
                logger.warning("endpoint %s back up", key)
                if obs.ACTIVE:
                    obs.inc("fleet.health.up")
                if self.on_up is not None:
                    self.on_up(key)
            else:
                logger.warning(
                    "endpoint %s declared down after %d missed "
                    "heartbeats", key, self.miss_threshold,
                )
                if obs.ACTIVE:
                    obs.inc("fleet.health.down")
                if self.on_down is not None:
                    self.on_down(key)
        return transitions

    def _record(self, key: str, ok: bool) -> Optional[Tuple[str, bool]]:
        with self._lock:
            record = self._records.get(key)
            if record is None:  # detached mid-round
                return None
            record.probes += 1
            if ok:
                record.missed = 0
                if not record.up:
                    record.up = True
                    return (key, True)
                return None
            record.missed += 1
            if record.up and record.missed >= self.miss_threshold:
                record.up = False
                return (key, False)
            return None

    # ------------------------------------------------------------------
    # Background heartbeat loop
    # ------------------------------------------------------------------

    def start(self, interval_s: float = 0.25) -> "HealthTracker":
        if self._thread is not None:
            return self
        self._running.set()
        self._stop_gate.clear()

        def loop() -> None:
            while self._running.is_set():
                self.probe_once()
                # Event.wait doubles as an interruptible sleep.
                self._stop_gate.wait(interval_s)

        self._thread = threading.Thread(
            target=loop, name="fleet-health", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._running.clear()
        if self._thread is not None:
            self._stop_gate.set()
            self._thread.join(timeout=2.0)
            self._thread = None


__all__ = ["EndpointHealth", "HealthTracker", "ProbeFn"]
