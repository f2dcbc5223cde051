"""Shared session-table machinery for ISP-shaped servers.

:class:`SessionRegistry` owns the ``session_id -> session`` table that
both the single-node :class:`~repro.isp.server.IspServer` and the fleet
router (:class:`~repro.fleet.router.FleetIsp`) need: id allocation,
insert/remove with open/finalize metrics, the live-root sweep that the
post-publish prune uses, and predicate-based pruning of abandoned
sessions.  Extracting it keeps the prune/metrics logic in one place
instead of duplicated per process kind.

Concurrency contract (same as the table it replaces): the lock guards
*mutation and iteration*; single-key reads by session id stay lock-free
on purpose (atomic under the GIL, and a stale lookup at worst observes a
just-removed id — the same "unknown session" error the caller reports
anyway).  See DESIGN.md "Concurrency model".

Sessions stored here only need a ``session_id`` attribute; ``root`` is
required by :meth:`live_roots` (the router's sessions, which pin no
local root, simply never call it).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.crypto.hashing import Digest
from repro.obs import metrics as obs
from repro.sanitize.runtime import SanLock


class SessionRegistry:
    """A lock-guarded session table with open/finalize accounting.

    ``lock_name`` names the :class:`SanLock` in the runtime
    lock-order graph; ``scope`` prefixes the emitted metric names
    (``{scope}.session.open`` / ``.finalize`` / ``.pruned``), which must
    be declared in :mod:`repro.obs.catalog`.
    """

    def __init__(self, lock_name: str, scope: str) -> None:
        self._lock = SanLock(lock_name)
        self._scope = scope
        self._sessions: Dict[int, object] = {}  # repro: guarded-by(_lock, writes)
        self._ids = itertools.count(1)

    @property
    def table(self) -> Dict[int, object]:
        """The raw table (lock-free single-key reads; test seam)."""
        return self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    def next_id(self) -> int:
        return next(self._ids)

    def insert(self, session) -> None:
        """Register an opened session under its ``session_id``."""
        with self._lock:
            self._sessions[session.session_id] = session
        if obs.ACTIVE:
            # Per-server prefix; every expansion is a concrete SCOPES
            # entry, enforced at emit time.
            obs.inc(f"{self._scope}.session.open")

    def get(self, session_id: int):
        """Lock-free lookup; ``None`` for unknown (or just-closed) ids."""
        return self._sessions.get(session_id)

    def remove(self, session_id: int):
        """Close a session; returns it, or ``None`` if already closed."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is not None and obs.ACTIVE:
            obs.inc(f"{self._scope}.session.finalize")
        return session

    def live_roots(self) -> List[Digest]:
        """Snapshot roots pinned by in-flight sessions (prune keep-set).

        Iterating the table is not a single atomic lookup — a handler
        thread inserting mid-iteration would blow up with "dict changed
        size" — so the sweep runs under the lock.
        """
        with self._lock:
            return [s.root for s in self._sessions.values()]

    def prune(self, stale: Callable[[object], bool]) -> int:
        """Drop every session ``stale`` selects; returns the count.

        Used by long-lived routers to sweep sessions whose client
        vanished without finalizing (a dropped connection strands the
        per-shard sessions underneath, which would otherwise pin their
        snapshots forever).
        """
        with self._lock:
            doomed = [
                sid for sid, session in self._sessions.items()
                if stale(session)
            ]
            for sid in doomed:
                del self._sessions[sid]
        if doomed and obs.ACTIVE:
            obs.add(f"{self._scope}.session.pruned", len(doomed))
        return len(doomed)


def registry_for_isp() -> SessionRegistry:
    """The single-node ISP's registry (canonical lock/scope names)."""
    return SessionRegistry("isp.sessions", "isp")


__all__ = ["SessionRegistry", "registry_for_isp"]
