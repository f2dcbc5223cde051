"""Central catalog of every metric and trace scope in the codebase.

Metric names are hierarchical dotted scopes (``subsystem.operation`` or
``subsystem.operation.aspect``).  A counter that is incremented under a
name nobody ever exports — or a dashboard reading a name nobody ever
increments — is instrumentation rot.  The catalog and the call sites
are kept in lock-step at runtime, mirroring the :mod:`repro.faults`
failpoint catalog: :class:`repro.obs.metrics.MetricsRegistry` rejects
instrument names missing from :data:`SCOPES` (with a did-you-mean
hint), so a typo'd scope fails loudly at first use instead of
accumulating counts under a name no experiment reads.

Tests that need throwaway scopes declare them with :func:`declare`
before use.
"""

from __future__ import annotations

import difflib
from typing import Dict, List

#: Every production scope: name -> what the instrument measures.
SCOPES: Dict[str, str] = {
    # -- virtual filesystem boundary (repro/vfs/interface.py) ----------
    "vfs.read_page":
        "Page-granular reads crossing the VirtualFile boundary "
        "(tallied per handle, reported when it closes).",
    "vfs.write_page":
        "Page-granular writes crossing the VirtualFile boundary.",
    # -- pager (repro/db/pager.py) -------------------------------------
    "pager.read_page":
        "Data pages read (and checksum-checked) by the pager "
        "(tallied per pager, reported by its next flush; the engine's "
        "pagers report together when their statement ends).",
    "pager.write_page":
        "Data pages sealed and written by the pager.",
    "pager.flush":
        "Header flush + sync() durable boundaries.",
    # -- B+Tree node memo (repro/db/btree.py) --------------------------
    "db.node.memo.hit":
        "Read-path node loads whose page bytes were already decoded "
        "(the page is still read; tallied on the memo, reported once "
        "per statement).",
    "db.node.memo.miss":
        "Read-path node loads that decoded the page (first sight of "
        "these bytes, or evicted since).",
    "db.row.decoded":
        "Table rows decoded into a memoized leaf's row slot: the first "
        "read of an entry of these page bytes (later reads copy the "
        "slot; tallied on the memo, reported once per statement).",
    # -- statement scope (repro/db/engine.py) --------------------------
    "db.pager.opened":
        "Files a statement opened: one pager and one tree per path, "
        "header read once, closed when the outermost statement ends "
        "(reported once per statement).",
    "db.cursor.held":
        "B+Tree seeks that started from a leaf the tree holds (the one "
        "its read path last landed on) instead of descending from the "
        "root (tallied per tree, reported once per statement).",
    "db.cursor.held.internal":
        "B+Tree seeks that started from an internal node on the tree's "
        "held path, skipping the descent's reads down to and including "
        "it (tallied per tree, reported once per statement).",
    # -- compiled statements (repro/db/engine.py) ----------------------
    "db.statement.hit":
        "SELECTs a verifying client's engine ran from a statement kept "
        "under the same SQL text and catalog: no parse, no plan.",
    "db.statement.miss":
        "SELECTs a verifying client's engine parsed and planned (no "
        "statement kept under that SQL text and catalog).",
    "db.statement.unkept":
        "Of the misses, statements not kept because planning read data "
        "(a subquery folded into an index bound, a FROM-subquery "
        "materialized): compiled again at every execution.",
    # -- client caches (repro/client/caches.py) ------------------------
    "cache.intra.hit":
        "Intra-query cache lookups served from the per-query page map.",
    "cache.intra.miss":
        "Intra-query cache lookups that fell through to the ISP.",
    "cache.intra.evict":
        "Pages LRU-evicted from the intra-query cache.",
    "cache.inter.hit":
        "Inter-query cache lookups that found a cached page "
        "(tallied inside a query, reported at its end).",
    "cache.inter.miss":
        "Inter-query cache lookups with no cached page "
        "(tallied inside a query, reported at its end).",
    "cache.inter.insert":
        "Pages inserted into the inter-query cache.",
    "cache.inter.update":
        "Stale cached pages replaced after a freshness check.",
    "cache.inter.evict":
        "Pages LRU-evicted from the inter-query cache.",
    "cache.inter.fresh_node":
        "Ancestor subtrees confirmed fresh by the ISP (Algorithm 5).",
    # -- VBF fast path (Section V-B) -----------------------------------
    "vbf.fast_path.hit":
        "Cached pages proven fresh by the bloom filter with zero network.",
    "vbf.fast_path.miss":
        "VBF checks that were inconclusive and fell back to Merkle.",
    # -- query client (repro/client/) ----------------------------------
    "client.query.count":
        "Verified queries completed (Algorithm 4 full cycles).",
    "client.query.latency_s":
        "End-to-end per-query latency (histogram, seconds).",
    "client.page.requests":
        "Page-retrieval round trips to the ISP.",
    "client.page.hashed":
        "Page responses hashed into a claim: the first one served for "
        "each key of a session (reported once, at finalize).",
    "client.page.repeated":
        "Page responses for a key already claimed, accepted because "
        "they were byte-equal to the first (reported once, at finalize).",
    "client.check.requests":
        "Freshness-check round trips to the ISP (Algorithm 5).",
    "client.meta.requests":
        "File-metadata round trips to the ISP.",
    "client.meta.proven":
        "Files whose metadata a session took from what earlier sessions "
        "proved under the same ADS root, asking nothing (reported once, "
        "at finalize); with client.meta.requests, the distinct files "
        "the sessions looked up.",
    "client.cert.requests":
        "Certificate fetches at query start (none in the cached modes "
        "while the held certificate's chain states equal the heads).",
    "client.cert.memo.hit":
        "Validated certificates, fetched or held, byte-identical to the "
        "one this client last proved (signature check skipped; freshness "
        "still checked).",
    "client.cert.memo.miss":
        "Validated certificates that went through the full signature "
        "verify (first query, new block, or any differing byte).",
    "client.vo.requests":
        "Consolidated-VO fetches at query end.",
    "client.vo.bytes":
        "Bytes of consolidated VO received and verified.",
    "client.net.bytes":
        "Total request+response bytes across all client round trips.",
    "client.rollback":
        "Queries whose cached pages were rolled back after a failure.",
    # -- ISP server (repro/isp/) ---------------------------------------
    "isp.session.open":
        "Query sessions opened (pinned to a snapshot root).",
    "isp.session.finalize":
        "Sessions closed by building a consolidated VO.",
    "isp.session.pruned":
        "Abandoned ISP sessions swept after their idle TTL.",
    "isp.get_page":
        "Pages served to clients (requests, repeats included).",
    "isp.page.resolved":
        "Distinct pages a session resolved through the trie and page "
        "tree; its other page requests were answered by the session's "
        "memo (reported once, at finalize).",
    "isp.get_file_meta":
        "Metadata lookups served to clients.",
    "isp.validate_path.fresh":
        "Freshness checks answered with a matching ancestor digest.",
    "isp.validate_path.page":
        "Freshness checks answered with the updated page.",
    "isp.sync_update":
        "CI write batches applied and published.",
    "isp.vo.bytes":
        "Per-session consolidated-VO size (histogram, bytes).",
    "isp.vo.pages":
        "Page claims covered per consolidated VO (histogram).",
    "isp.vo.nodes":
        "Internal-node claims covered per consolidated VO (histogram).",
    "isp.batch.requests":
        "Data-plane requests served through IspServer.serve_batch "
        "(requests that arrived in the same server tick).",
    "isp.batch.node_hits":
        "Always 0: the per-batch node memo that fed it is gone.  Kept "
        "declared because benchmarks/e2e/layers.py reads it by name.",
    # -- Merkle ADS + node store (repro/merkle/) -----------------------
    "ads.proof.read":
        "Read proofs generated by the ADS.",
    "ads.proof.write":
        "Write proofs generated by the ADS.",
    "ads.apply_writes":
        "Write batches folded into a new ADS root.",
    "ads.prune":
        "Mark-and-sweep prunes of unreachable snapshots.",
    "store.put":
        "Nodes written to the node store (deduplicated).",
    "store.get":
        "Nodes fetched from the node store.",
    "store.sync":
        "Group-commit durable boundaries of the persistent store.",
    "store.compact":
        "Log compactions of the persistent store.",
    # -- CI maintenance (repro/core/ci.py) -----------------------------
    "ci.maintenance.runs":
        "Maintenance runs completed (Algorithms 1-3).",
    "ci.proof.bytes":
        "pi_r + pi_w bytes generated per maintenance run.",
    "ci.pages.read":
        "P_r pages authenticated per maintenance run.",
    "ci.pages.written":
        "P_w pages flushed per maintenance run.",
    # -- RPC wire protocol (repro/rpc/) --------------------------------
    "rpc.frame.encode":
        "Frames encoded for the wire.",
    "rpc.frame.encode.bytes":
        "Payload bytes framed for the wire.",
    "rpc.frame.decode":
        "Frames decoded off the wire.",
    "rpc.frame.decode.bytes":
        "Payload bytes received in decoded frames.",
    "rpc.client.requests":
        "RPC calls issued by RemoteIsp (including retries).",
    "rpc.client.retries":
        "RPC calls that were retried after a transport error.",
    "rpc.client.breaker.open":
        "Circuit-breaker transitions to the open state (endpoint "
        "declared dead after consecutive connection failures).",
    "rpc.client.breaker.fastfail":
        "RPC calls rejected immediately because the endpoint's circuit "
        "was open (no connection attempt, no retry budget spent).",
    "rpc.client.netsplit":
        "RPC attempts blackholed by a simulated network partition "
        "(chaos only; failed before touching the socket).",
    "rpc.client.retry_budget.denied":
        "Retries refused because the endpoint's retry-budget token "
        "bucket ran dry (retry-storm clamp).",
    "rpc.client.overloaded":
        "Server Overloaded sheds honored by the client (retry-after "
        "hint applied to the next backoff).",
    "rpc.client.deadline.expired":
        "RPC calls aborted client-side with DeadlineExceededError "
        "after spending their whole deadline budget.",
    "rpc.server.requests":
        "Requests dispatched by the RPC server.",
    "rpc.server.errors":
        "Requests answered with an error frame.",
    "rpc.server.shed":
        "Requests shed at admission by bounded-queue overload control "
        "(answered with Overloaded + retry-after).",
    "rpc.server.deadline.expired":
        "Requests refused because their propagated deadline was "
        "already spent on arrival or while queued for dispatch.",
    # -- event-loop serving path (repro/serve/) ------------------------
    "serve.connections":
        "Open client connections on the event-loop server (gauge).",
    "serve.inflight":
        "Requests dispatched to the worker pool and not yet answered "
        "(gauge; sampled on the event loop).",
    "serve.loop.lag_s":
        "Seconds one event-loop wake spent processing before the next "
        "select (histogram) — sustained growth means the loop itself "
        "is saturated and work is leaking off the worker pool.",
    "serve.pipelined.requests":
        "Requests the event loop received as frame-id-carrying frames.",
    "serve.batch.size":
        "Requests coalesced per event-loop tick into one shared-"
        "traversal batch (histogram).",
    "serve.batch.flushes":
        "Coalesced batches handed to the worker pool.",
    # -- ISP fleet (repro/fleet/) --------------------------------------
    "fleet.router.session.open":
        "Fleet query sessions opened at the router (one per client "
        "session; shard sessions open lazily underneath).",
    "fleet.router.session.finalize":
        "Fleet sessions closed by stitching per-shard VOs.",
    "fleet.router.session.pruned":
        "Abandoned router sessions swept after their idle TTL.",
    "fleet.router.fanout":
        "Shard sessions opened by router fan-out (first touch of a "
        "shard within a fleet session).",
    "fleet.router.stitch.bytes":
        "Stitched consolidated-VO size per fleet session (histogram).",
    "fleet.router.stitch.shards":
        "Per-shard VOs merged per fleet session (histogram).",
    "fleet.replica.read":
        "Fleet sessions routed to a read replica instead of the shard "
        "primary (read/write splitting).",
    "fleet.replica.stale":
        "Replica reads skipped because the replica's certificate "
        "lagged the pinned snapshot version.",
    "fleet.replication.ship":
        "Replication-log batches a replica applied and published "
        "(each one is also an isp.sync_update).",
    "fleet.replication.lag":
        "Replication shipments withheld by the fleet.replica.lag "
        "failpoint (chaos only).",
    "fleet.sync.shards":
        "Per-shard acks merged per fleet sync_update fan-out "
        "(histogram).",
    "fleet.hedge.fired":
        "Hedged replica reads launched after the adaptive p99 delay.",
    "fleet.hedge.won":
        "Hedged reads whose replica answered before the primary.",
    "fleet.health.probe":
        "Heartbeat probes sent by the fleet health tracker.",
    "fleet.health.down":
        "Endpoints declared dead after consecutive missed heartbeats.",
    "fleet.health.up":
        "Endpoints recovered back to healthy by a heartbeat.",
    "fleet.promote.ok":
        "Replica promotions completed (replica now serves its shard's "
        "key range as primary).",
    "fleet.promote.refused":
        "Replica promotions refused (stale replica or version "
        "mismatch) — the fleet stays degraded rather than serve from "
        "a lagging copy.",
    "fleet.epoch.abort":
        "In-flight fleet sessions aborted with EpochError because a "
        "promotion bumped the shard-map epoch underneath them.",
    # -- simulated SGX (repro/sgx/enclave.py) --------------------------
    "sgx.ocall":
        "Enclave boundary crossings.",
    "sgx.ocall.bytes":
        "Bytes marshalled across the enclave boundary.",
    "sgx.ocall.overhead_s":
        "Simulated seconds charged for enclave crossings.",
}


def declare(name: str, doc: str) -> None:
    """Register an extra scope name (test-local instruments).

    Production code must add its names to :data:`SCOPES` directly;
    ``declare`` exists for tests that exercise the registry with
    throwaway names.
    """
    SCOPES[name] = doc


def is_declared(name: str) -> bool:
    return name in SCOPES


def suggest(name: str, count: int = 3) -> List[str]:
    """Closest declared scopes to ``name`` (for error messages)."""
    return difflib.get_close_matches(name, SCOPES, n=count, cutoff=0.6)
