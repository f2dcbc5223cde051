"""Central catalog of every failpoint name in the codebase.

A failpoint that is armed but never reached is a fault schedule that
silently tests nothing — exactly the kind of rot a typo'd name causes.
Two independent checks keep the catalog and the call sites in lock-step:

* **runtime** — :meth:`repro.faults.registry.FailpointRegistry.arm`
  rejects names missing from :data:`FAILPOINTS` (with a did-you-mean
  hint), so a schedule like ``store.apend.mid=crash`` fails loudly at
  arm time instead of running a no-op fault test;
* **static** — the ``failpoint-names`` rule of :mod:`repro.analysis`
  cross-checks every ``faults.fire``/``faults.mangle``/``faults.arm``
  string literal in ``src/`` against this catalog, so an instrumented
  call site cannot reference an undeclared (hence un-armable) name.

Tests that need throwaway names declare them with :func:`declare`
before arming.
"""

from __future__ import annotations

import difflib
from typing import Dict, List

#: Every production failpoint: name -> what firing there models.
FAILPOINTS: Dict[str, str] = {
    # -- pager (repro/db/pager.py) -------------------------------------
    "pager.write_page.pre":
        "Before a sealed data page reaches the file: a write that never "
        "happened.",
    "pager.write_page.data":
        "Mangles the sealed page bytes on their way to the file: a "
        "misdirected or bit-rotted write, caught on read-back.",
    "pager.read_page":
        "Mangles raw bytes coming back from the file: at-rest disk "
        "corruption, caught by the checksum epilogue.",
    "pager.flush.pre_sync":
        "Between writing the header and sync(): the window where a crash "
        "loses un-fsynced state.",
    # -- persistent node store (repro/merkle/persistent_store.py) ------
    "store.sync.pre":
        "Before the group-commit fsync: a crash here may lose every "
        "append since the previous durable boundary.",
    "store.append.pre":
        "Before a node record is appended to the log.",
    "store.append.payload":
        "Mangles an appended node payload: corruption detected by the "
        "digest check on read-back.",
    "store.append.mid":
        "Between the record header and its payload: a torn append "
        "leaving a partial record at the log tail.",
    "store.compact.pre_replace":
        "After writing the compacted log, before the atomic rename.",
    "store.compact.post_replace":
        "After the atomic rename, before the directory fsync settles.",
    # -- ISP synchronization (repro/isp/server.py) ---------------------
    "isp.sync_update.pre":
        "Before the CI's write batch is staged: the whole update is "
        "lost and must be retried.",
    "isp.sync_update.pre_publish":
        "Staged and verified but not yet durable or visible: a crash "
        "here must leave the served root/certificate untouched.",
    # -- RPC server (repro/rpc/server.py) ------------------------------
    "rpc.server.drop":
        "Drops the connection before a request is handled.",
    "rpc.server.stall":
        "Stalls a request long enough to trip the client timeout.",
    "rpc.server.truncate":
        "Truncates a response frame mid-payload on the wire.",
    "rpc.server.crash":
        "Kills a request handler between admission and release — the "
        "worst spot for the in-flight counter; regression probe for "
        "admission-slot leaks.",
    # -- ISP fleet (repro/fleet/) --------------------------------------
    "fleet.router.fanout":
        "Severs the router's fan-out to one owning shard mid-query: a "
        "network partition between router and shard.",
    "fleet.replica.lag":
        "Withholds a replication-log shipment to one replica, leaving "
        "it one or more certified versions behind its primary.",
    "fleet.shard.crash":
        "Kills a shard primary at sync fan-out time: the fleet update "
        "cannot fully ack until the shard is restarted and caught up.",
    "fleet.health.miss":
        "Drops one heartbeat probe before it reaches the endpoint: "
        "models lost heartbeats (and, sustained, a false death "
        "verdict) without touching the endpoint itself.",
}


def declare(name: str, doc: str) -> None:
    """Register an extra failpoint name (test-local hooks).

    Production code must add its names to :data:`FAILPOINTS` directly so
    the static ``failpoint-names`` rule can see them; ``declare`` exists
    for tests that exercise the registry with throwaway names.
    """
    FAILPOINTS[name] = doc


def is_declared(name: str) -> bool:
    return name in FAILPOINTS


def suggest(name: str, count: int = 3) -> List[str]:
    """Closest declared names to ``name`` (for arm-time error messages)."""
    return difflib.get_close_matches(name, FAILPOINTS, n=count, cutoff=0.6)
