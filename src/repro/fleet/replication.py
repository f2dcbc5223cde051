"""MVCC read replicas and the replication log that feeds them.

A replica serves the same partition as its shard primary, one certified
batch behind at worst.  It *is* a :class:`~repro.fleet.shard.ShardIsp`:
the :class:`ReplicationLog` appends the very
``(writes, new_sizes, certificate)`` the primary applied and ships it
to every attached replica through the same
:meth:`~repro.isp.server.IspServer.sync_update` — the one transaction
that recomputes the root from the batch and refuses anything but the
certified one.  A replica therefore never depends on what its primary's
store happened to hold: it can only publish a root it has just built
every node of.  The log tracks a cursor per replica, so a lagging or
fault-injected replica simply stays behind — it never sees a partial
version.

Staleness is *detected, never trusted away*: the router compares a
replica's certificate version against the session's pinned version
before routing a read there, and a lagging replica falls back to the
primary (``fleet.replica.stale``).  Even if the router misroutes, a
stale replica can only produce proofs against an old root, which the
client's certificate check rejects.

The log is driven by the single fleet-lifecycle thread (sync fan-out
and shipment happen in sequence); replica *application* synchronizes
against the replica's RPC server lock via the ``apply_fn`` the
lifecycle attaches, so in-flight replica reads keep their pinned
snapshots (the same MVCC the single-node ISP provides).
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Tuple

from repro.core.certificate import V2fsCertificate
from repro.errors import FleetError, ReproError
from repro.faults import registry as faults
from repro.faults.registry import InjectedFault
from repro.fleet.shard import ShardIsp
from repro.obs import metrics as obs

logger = logging.getLogger("repro.fleet")

#: How a ``(writes, new_sizes, certificate)`` batch reaches one replica:
#: the replica's ``sync_update``, wrapped in its server's lock.
ApplyFn = Callable[[dict, dict, V2fsCertificate], None]


class ReplicaIsp(ShardIsp):
    """A copy of one shard that follows its primary's replication log."""

    def promote(self, expected_version: int) -> "ReplicaIsp":
        """Become this shard's primary — *only* if fully caught up.

        Promotion is certificate-gated: the caller states the fleet's
        current certified version and a replica that has not applied
        that batch **refuses** (``fleet.promote.refused`` + typed
        :class:`FleetError`) rather than serve a rolled-back snapshot
        as the new authority.  A refused promotion is recoverable — the
        lifecycle can ship the missing batches and retry, or pick a
        different replica.  Nothing about the replica changes on
        success: it already advances by ``sync_update``, so the caller
        only has to point the fan-out at it.
        """
        certificate = self.certificate
        if certificate is None or certificate.version < expected_version:
            have = "none" if certificate is None else certificate.version
            if obs.ACTIVE:
                obs.inc("fleet.promote.refused")
            raise FleetError(
                f"replica for shard {self.shard_id} refuses promotion: "
                f"at version {have}, fleet is at {expected_version} "
                f"(stale replicas must not become primaries)"
            )
        if obs.ACTIVE:
            obs.inc("fleet.promote.ok")
        return self


class ReplicationLog:
    """Ordered batches from one shard primary, with per-replica cursors.

    ``attach`` registers a replica's apply callback; ``append`` adds
    the batch one sync applied; ``ship`` pushes every pending batch to
    every replica that is neither fault-lagged nor failing, then
    truncates entries all replicas have consumed.  Cursors are absolute
    batch indices, so truncation never loses track of who is where.
    The entries reference the batch dicts the fan-out already shares
    between shards; the log never copies or mutates them.
    """

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self._entries: List[Tuple[dict, dict, V2fsCertificate]] = []
        self._base = 0
        self._cursors: Dict[str, int] = {}
        self._appliers: Dict[str, ApplyFn] = {}

    def attach(self, label: str, apply_fn: ApplyFn) -> None:
        """Register a replica starting from the full history."""
        self._cursors.setdefault(label, 0)
        self._appliers[label] = apply_fn

    def detach(self, label: str) -> None:
        self._appliers.pop(label, None)
        self._cursors.pop(label, None)

    @property
    def length(self) -> int:
        """Total batches ever appended (absolute head position)."""
        return self._base + len(self._entries)

    def lag_of(self, label: str) -> int:
        """How many batches ``label`` is behind the head."""
        return self.length - self._cursors.get(label, 0)

    def append(
        self, writes: dict, new_sizes: dict,
        certificate: V2fsCertificate,
    ) -> None:
        self._entries.append((writes, new_sizes, certificate))

    def ship(self) -> int:
        """Push pending batches to every attached replica.

        Returns the number of (replica, batch) shipments performed.
        The ``fleet.replica.lag`` failpoint withholds one replica's
        shipment for this round (chaos: force a replica to fall
        behind); a refused or failed apply leaves that replica's
        cursor — and, ``sync_update`` being transactional, its served
        version — where they were, so the next round retries from the
        same batch.
        """
        shipped = 0
        for label, apply_fn in self._appliers.items():
            if faults.ACTIVE:
                try:
                    faults.fire(
                        "fleet.replica.lag",
                        shard=self.shard_id, replica=label,
                    )
                except InjectedFault:
                    logger.warning(
                        "failpoint fleet.replica.lag: withholding "
                        "shipment to %s", label,
                    )
                    if obs.ACTIVE:
                        obs.inc("fleet.replication.lag")
                    continue
            cursor = self._cursors[label]
            while cursor < self.length:
                entry = self._entries[cursor - self._base]
                try:
                    apply_fn(*entry)
                except ReproError:
                    logger.exception(
                        "replica %s failed to apply batch %d; "
                        "will retry", label, cursor,
                    )
                    break
                cursor += 1
                shipped += 1
                if obs.ACTIVE:
                    obs.inc("fleet.replication.ship")
            self._cursors[label] = cursor
        self._truncate()
        return shipped

    def _truncate(self) -> None:
        if not self._cursors:
            return
        floor = min(self._cursors.values())
        drop = floor - self._base
        if drop > 0:
            del self._entries[:drop]
            self._base = floor


__all__ = ["ApplyFn", "ReplicaIsp", "ReplicationLog"]
