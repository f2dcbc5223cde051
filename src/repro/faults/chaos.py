"""Randomized chaos/recovery harness.

Three harnesses exercise the failure model end to end:

* :func:`run_system_chaos` — drives a full five-party
  :class:`~repro.core.system.V2FSSystem` whose ISP stores its ADS in a
  :class:`~repro.merkle.persistent_store.PersistentNodeStore`, under a
  seeded **fault schedule** (see :func:`parse_schedule`).  Each step
  randomly ingests a block, runs a verified query (in-process or over a
  live RPC server with wire faults armed), or kills and reopens the
  store.  Invariants checked throughout:

  - every query that *completes* verifies against ``pk_sgx`` (the
    client raises otherwise) and returns exactly the rows an in-memory
    **oracle** ISP — fed the same certified reports with faults
    suspended — returns;
  - after every crash + reopen, the recovered ISP serves precisely the
    last *fully published* certificate root: never a stale one, never a
    root whose nodes did not reach disk.

* :func:`run_concurrent_chaos` — the *concurrency* layer: N client
  threads query a live ISP over the real RPC loopback while an ingest
  thread publishes blocks through ``sync_update`` (the paper's
  Fig. 13b interference experiment as a correctness test, not a
  benchmark).  No failpoints are armed — the adversary here is the
  thread scheduler.  Run with the :mod:`repro.sanitize` lock-order
  checker armed it must produce **zero** lock-order reports, and the
  order edges it observes are returned for comparison with DESIGN §8;
  run disarmed it must produce the **same final query results**
  (ingestion is a deterministic function of the seed, so the end state
  is interleaving-independent).

* :func:`run_pager_chaos` — hammers one :class:`~repro.db.pager.Pager`
  + B+Tree over the :class:`~repro.faults.shadowfs.ShadowFilesystem`,
  crashing with per-page persisted/lost/torn outcomes.  The pager's
  guarantee is *detection*, not journaling: a reopen either decodes (and
  then every surviving entry matches a value that was actually written,
  with all entries committed before the last flush intact when the
  crash hit a clean file) or raises a typed
  :class:`~repro.errors.TornPageError` / ``StorageError`` — never
  silently wrong data.

Schedules are plain strings so they can ride in a CLI flag::

    store.append.mid=crash@p:0.001;rpc.server.drop=raise@p:0.08

Entry grammar: ``name=action[@term,term...]`` joined by ``;`` where
``action`` is one of ``raise`` / ``crash`` / ``corrupt`` / ``count``
and each term is ``p:<float>``, ``times:<int>``, ``every:<int>`` or
``after:<int>`` (see :mod:`repro.faults.registry` for semantics).
"""

from __future__ import annotations

import logging
import os
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    CertificateError,
    NetworkError,
    ReproError,
    StorageError,
    TornPageError,
)
from repro.faults import netsplit
from repro.faults import registry as faults
from repro.faults.registry import InjectedFault, SimulatedCrash
from repro.faults.shadowfs import ShadowFilesystem
from repro.obs import metrics as obs
from repro.sanitize import runtime as san

logger = logging.getLogger("repro.faults")

#: The stock schedule for system chaos: faults on the ISP update
#: transaction, the node store's append/sync/compaction paths, and the
#: RPC transport.  Per-put probabilities are small because one ingest
#: performs hundreds of node appends.
DEFAULT_SYSTEM_SCHEDULE = (
    "isp.sync_update.pre=raise@p:0.05;"
    "isp.sync_update.pre_publish=crash@p:0.02;"
    "store.append.pre=raise@p:0.001;"
    "store.append.mid=crash@p:0.0005;"
    "store.sync.pre=crash@p:0.02;"
    "store.compact.pre_replace=crash@p:0.005;"
    "rpc.server.drop=raise@p:0.08;"
    "rpc.server.stall=raise@p:0.04;"
    "rpc.server.truncate=raise@p:0.005"
)

_POLICY_KEYS = {"times": int, "every": int, "after": int}


def parse_schedule(text: str) -> List[Tuple[str, str, Dict[str, Any]]]:
    """Parse a schedule string into ``(name, action, policy)`` triples."""
    entries: List[Tuple[str, str, Dict[str, Any]]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(
                f"bad schedule entry {chunk!r}: expected name=action[@terms]"
            )
        name, spec = chunk.split("=", 1)
        action, _, terms = spec.partition("@")
        policy: Dict[str, Any] = {}
        for term in terms.split(","):
            term = term.strip()
            if not term:
                continue
            key, sep, value = term.partition(":")
            if not sep:
                raise ValueError(
                    f"bad schedule term {term!r} in {chunk!r}: "
                    "expected key:value"
                )
            if key == "p":
                policy["probability"] = float(value)
            elif key in _POLICY_KEYS:
                policy[key] = _POLICY_KEYS[key](value)
            else:
                raise ValueError(
                    f"unknown schedule term {key!r} in {chunk!r}"
                )
        entries.append((name.strip(), action.strip(), policy))
    return entries


def apply_schedule(text: str) -> List[str]:
    """Arm every entry of ``text``; returns the armed failpoint names."""
    armed = []
    for name, action, policy in parse_schedule(text):
        faults.arm(name, action, **policy)
        armed.append(name)
    return armed


@dataclass
class ChaosStats:
    """Counters accumulated by a chaos run."""

    steps: int = 0
    ingests: int = 0
    publishes: int = 0
    publish_retries: int = 0
    queries_ok: int = 0
    queries_failed: int = 0
    remote_queries_ok: int = 0
    remote_queries_failed: int = 0
    crashes: int = 0
    recoveries: int = 0
    clean_restarts: int = 0
    injected_faults: int = 0
    torn_detected: int = 0
    corruption_detected: int = 0
    netsplits: int = 0
    promotions: int = 0
    promotions_refused: int = 0
    fires: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            key: getattr(self, key)
            for key in (
                "steps", "ingests", "publishes", "publish_retries",
                "queries_ok", "queries_failed", "remote_queries_ok",
                "remote_queries_failed", "crashes", "recoveries",
                "clean_restarts", "injected_faults", "torn_detected",
                "corruption_detected", "netsplits", "promotions",
                "promotions_refused",
            )
        } | {"fires": dict(self.fires)}


def _snapshot_fires(stats: ChaosStats) -> None:
    for name, point in faults.stats().items():
        stats.fires[name] = stats.fires.get(name, 0) + point.fires


# ---------------------------------------------------------------------------
# System chaos
# ---------------------------------------------------------------------------


class SystemChaos:
    """One seeded chaos run over a durable-ISP V2FS system."""

    #: Bound on faulted publish attempts before the harness forces the
    #: update through with faults suspended (progress guarantee).
    MAX_PUBLISH_ATTEMPTS = 10

    #: Verified queries drawn at random each query step.
    QUERY_POOL = (
        "SELECT COUNT(*) FROM btc_transactions",
        "SELECT COUNT(*), SUM(fee) FROM btc_transactions",
        "SELECT COUNT(*), SUM(gas_used) FROM eth_transactions",
        "SELECT COUNT(*) FROM eth_token_transfers",
    )

    def __init__(
        self,
        seed: int,
        store_path: str,
        schedule: Optional[str] = None,
        use_rpc: bool = True,
        txs_per_block: int = 2,
    ) -> None:
        from repro.isp.server import IspServer
        from repro.merkle.ads import V2fsAds
        from repro.merkle.persistent_store import PersistentNodeStore

        self.rng = random.Random(seed)
        self.store_path = store_path
        self.use_rpc = use_rpc
        self.stats = ChaosStats()
        self._store_cls = PersistentNodeStore
        self._isp_cls = IspServer
        self._ads_cls = V2fsAds

        faults.reset()
        faults.seed(seed)
        self.schedule = schedule if schedule else DEFAULT_SYSTEM_SCHEDULE
        apply_schedule(self.schedule)

        with faults.suspended():
            # One block per chain already ingested, so queries (which
            # check observed chain heads) are meaningful from step 0.
            self.system = _build_durable_system(
                seed, txs_per_block, store_path
            )
            # An in-memory oracle, kept in lockstep by _publish.
            self.oracle = IspServer()
            self.oracle.sync_update(*self.system.certified_state())
        self.last_cert = self.system.ci.certificate
        self._rpc_server = None
        self._remote_client = None

    # -- helpers ----------------------------------------------------------

    @property
    def isp(self):
        return self.system.isp

    def _start_rpc(self) -> None:
        from repro.rpc.client import connect_client
        from repro.rpc.server import IspBootstrap, RpcIspServer

        server = RpcIspServer(
            self.isp, bootstrap=IspBootstrap.for_system(self.system)
        )
        server.fault_stall_s = 0.5
        server.start()
        self._rpc_server = server
        host, port = server.address
        with faults.suspended():
            self._remote_client = connect_client(
                host, port, timeout_s=0.25, max_retries=4
            )

    def close(self) -> None:
        if self._rpc_server is not None:
            self._rpc_server.stop()
            self._rpc_server = None
        _snapshot_fires(self.stats)
        faults.reset()
        try:
            self.isp.ads.store.close()
        except Exception:  # store may already be crashed shut
            pass

    # -- step implementations --------------------------------------------

    def _reopen(self, crashed: bool) -> None:
        """Model process death (or a clean restart) plus recovery.

        Recovery rebuilds the ISP from the reopened on-disk store and
        the last *durably published* certificate — the only root the
        restarted process may legitimately serve.
        """
        with faults.suspended():
            store = self.isp.ads.store
            if crashed:
                store.simulate_crash(self.rng)
            else:
                store.close()
            reopened = self._isp_cls()
            reopened.ads = self._ads_cls.__new__(self._ads_cls)
            reopened.ads.store = self._store_cls(self.store_path)
            reopened.ads.root = self.last_cert.ads_root
            reopened.root = self.last_cert.ads_root
            reopened.certificate = self.last_cert
            self.system.isp = reopened
            if self._rpc_server is not None:
                self._rpc_server.isp = reopened
            # Never a stale root: the recovered certificate is exactly
            # the last one that was fully published ...
            assert reopened.root == self.last_cert.ads_root
            assert reopened.certificate.version == self.last_cert.version
            # ... and every node it references survived on disk.
            reopened.ads.list_files(reopened.root)
        self.stats.recoveries += 1
        if obs.ACTIVE:
            obs.inc("chaos.recoveries")

    def _publish(self, report) -> None:
        """Publish one certified report through the faulted update path."""
        for attempt in range(self.MAX_PUBLISH_ATTEMPTS):
            try:
                self.isp.sync_update(
                    report.writes, report.new_sizes, report.certificate
                )
            except InjectedFault:
                # Transactional: nothing observable changed; retry.
                self.stats.injected_faults += 1
                self.stats.publish_retries += 1
                continue
            except SimulatedCrash:
                self.stats.crashes += 1
                if obs.ACTIVE:
                    obs.inc("chaos.crashes")
                self.stats.publish_retries += 1
                self._reopen(crashed=True)
                continue
            break
        else:
            with faults.suspended():
                self.isp.sync_update(
                    report.writes, report.new_sizes, report.certificate
                )
        # The durable publish record: only now is the update "published"
        # from the recovery protocol's point of view.
        self.last_cert = report.certificate
        self.stats.publishes += 1
        with faults.suspended():
            self.oracle.sync_update(
                report.writes, report.new_sizes, report.certificate
            )

    def _ingest(self) -> None:
        """One block through chain + CI (trusted, suspended), then the
        faulted ISP publish path."""
        chain_id = self.rng.choice(sorted(self.system.chains))
        isp = self.isp
        with faults.suspended():
            isp.sync_update = lambda writes, sizes, cert: None
            try:
                report = self.system.advance_block(chain_id)
            finally:
                del isp.sync_update
        self._publish(report)
        self.stats.ingests += 1

    def _expected_rows(self, sql: str):
        with faults.suspended():
            return self.system.make_client(isp=self.oracle).query(sql).rows

    def _query(self) -> None:
        from repro.client.vfs import QueryMode

        sql = self.rng.choice(self.QUERY_POOL)
        remote = self.use_rpc and self.rng.random() < 0.5
        try:
            if remote:
                result = self._remote_client.query(sql)
            else:
                mode = self.rng.choice(list(QueryMode))
                result = self.system.make_client(mode).query(sql)
        except ReproError as error:
            # An aborted query is acceptable under faults — a *wrong*
            # one never is.  Crashes are not: only _publish crashes.
            logger.info("chaos query aborted: %s", type(error).__name__)
            if remote:
                self.stats.remote_queries_failed += 1
            else:
                self.stats.queries_failed += 1
            return
        assert result.rows == self._expected_rows(sql), (
            f"verified query diverged from oracle for {sql!r}"
        )
        if remote:
            self.stats.remote_queries_ok += 1
        else:
            self.stats.queries_ok += 1

    # -- driver -----------------------------------------------------------

    def run(self, steps: int) -> ChaosStats:
        if self.use_rpc:
            self._start_rpc()
        try:
            for _ in range(steps):
                self.stats.steps += 1
                if obs.ACTIVE:
                    obs.inc("chaos.steps")
                roll = self.rng.random()
                if roll < 0.35:
                    self._ingest()
                elif roll < 0.85:
                    self._query()
                elif roll < 0.95:
                    self.stats.crashes += 1
                    if obs.ACTIVE:
                        obs.inc("chaos.crashes")
                    self._reopen(crashed=True)
                else:
                    self.stats.clean_restarts += 1
                    self._reopen(crashed=False)
            # Closing sweep: with faults off, the durable ISP must agree
            # with the oracle on every pool query, on the published root.
            with faults.suspended():
                assert self.isp.root == self.last_cert.ads_root
                client = self.system.make_client()
                for sql in self.QUERY_POOL:
                    assert client.query(sql).rows == self._expected_rows(sql)
        finally:
            self.close()
        return self.stats


def run_system_chaos(
    seed: int,
    steps: int = 200,
    schedule: Optional[str] = None,
    use_rpc: bool = True,
    txs_per_block: int = 2,
    store_path: Optional[str] = None,
) -> ChaosStats:
    """Run one seeded system chaos episode; returns its stats.

    Raises ``AssertionError`` the moment an invariant breaks.  When
    ``store_path`` is omitted a temporary directory hosts the store.
    """
    if store_path is None:
        store_path = os.path.join(
            tempfile.mkdtemp(prefix="v2fs-chaos-"), "ads.log"
        )
    chaos = SystemChaos(
        seed, store_path, schedule=schedule, use_rpc=use_rpc,
        txs_per_block=txs_per_block,
    )
    return chaos.run(steps)


# ---------------------------------------------------------------------------
# Concurrent chaos (the lock-order checker's stress workload)
# ---------------------------------------------------------------------------


def _query_with_retries(client, sql: str, deadline_s: float = 20.0):
    """Retry around the inherent certificate race with live ingestion.

    A client that validated certificate version N can lose the race to
    a concurrent publish; the ISP answers ``open_session`` with a typed
    "superseded" error.  Transient by construction: refetch and retry
    until the deadline.
    """
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            return client.query(sql)
        except (CertificateError, NetworkError):
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.02)


def _build_durable_system(seed: int, txs_per_block: int,
                          store_path: str):
    """A V2FSSystem whose ISP persists its ADS on disk (one bootstrap
    block per chain already ingested)."""
    from repro.core.system import SystemConfig, V2FSSystem
    from repro.isp.server import IspServer
    from repro.merkle.persistent_store import PersistentNodeStore

    system = V2FSSystem(SystemConfig(seed=seed, txs_per_block=txs_per_block))
    # Rebuild the ISP around an on-disk store and re-sync the schema
    # bootstrap.
    durable = IspServer(PersistentNodeStore(store_path))
    durable.sync_update(*system.certified_state())
    system.isp = durable
    system.advance_all(1)
    return system


def run_concurrent_chaos(
    seed: int,
    *,
    clients: int = 4,
    queries_per_client: int = 6,
    ingest_blocks: int = 6,
    armed: bool = True,
    txs_per_block: int = 2,
    store_path: Optional[str] = None,
    server_class: Optional[type] = None,
) -> Dict[str, Any]:
    """N querying threads vs. a live-ingesting ISP over real sockets.

    Arms the :mod:`repro.sanitize` lock-order checker when ``armed``:
    every SanLock acquisition feeds the name-level order graph.
    Returns a result dict; the harness itself asserts nothing, so
    callers can compare armed and disarmed runs::

        {"armed": ..., "final_rows": {sql: rows}, "queries_ok": int,
         "client_errors": [str], "reports": [rendered report],
         "order_edges": {(held, acquired)}}

    ``final_rows`` is captured after every thread has joined, with the
    same block count ingested on the same system seed, so two runs of
    the same ``seed`` must agree exactly — any divergence means an
    interleaving corrupted state.
    """
    if store_path is None:
        store_path = os.path.join(
            tempfile.mkdtemp(prefix="v2fs-sanitize-"), "ads.log"
        )
    san.reset()
    if armed:
        san.arm()
    result: Dict[str, Any] = {
        "armed": armed, "final_rows": {}, "queries_ok": 0,
        "client_errors": [], "reports": [], "order_edges": set(),
    }
    system = None
    try:
        from repro.rpc.client import connect_client
        from repro.rpc.server import serve_system

        rng = random.Random(seed)
        system = _build_durable_system(seed, txs_per_block, store_path)
        pool = SystemChaos.QUERY_POOL
        # Pre-drawn so the block sequence is a function of the seed
        # alone, not of how threads interleave with the rng.
        chain_plan = [
            rng.choice(sorted(system.chains)) for _ in range(ingest_blocks)
        ]
        if server_class is None:
            server = serve_system(system)
        else:
            # e.g. repro.serve.AsyncIspServer: the same chaos campaign
            # against the event-loop serving path.
            server = serve_system(system, server_class=server_class)
        # Per-thread slots (and list.append, atomic under the GIL) —
        # the harness itself must not need a lock.
        errors: List[str] = []
        ok = [0] * clients

        def ingest_loop() -> None:
            for chain_id in chain_plan:
                system.advance_block(chain_id)
                time.sleep(0.005)  # let queries land between publishes

        def client_loop(slot: int) -> None:
            host, port = server.address
            client = connect_client(host, port)
            try:
                for index in range(queries_per_client):
                    sql = pool[(slot + index) % len(pool)]
                    _query_with_retries(client, sql)
                    ok[slot] += 1
            except ReproError as error:
                errors.append(
                    f"client {slot}: {type(error).__name__}: {error}"
                )
            finally:
                client.isp.close()

        with server:
            threads = [
                threading.Thread(target=ingest_loop, name="chaos-ingest")
            ] + [
                threading.Thread(target=client_loop, args=(slot,),
                                 name=f"chaos-client-{slot}")
                for slot in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # Every thread joined: the end state is now deterministic.
            host, port = server.address
            sweep = connect_client(host, port)
            try:
                for sql in pool:
                    result["final_rows"][sql] = sweep.query(sql).rows
            finally:
                sweep.isp.close()
        result["queries_ok"] = sum(ok)
        result["client_errors"] = errors
    finally:
        if system is not None:
            system.isp.ads.store.close()
        result["reports"] = [report.render() for report in san.reports()]
        result["order_edges"] = san.order_edges()
        san.reset()
    return result


# ---------------------------------------------------------------------------
# Fleet chaos
# ---------------------------------------------------------------------------

#: The stock schedule for fleet chaos: sever router fan-out, hold back
#: replica shipments, and kill shard primaries at sync fan-out time,
#: with a sprinkle of plain wire drops on the shard servers.
DEFAULT_FLEET_SCHEDULE = (
    "fleet.router.fanout=raise@p:0.04;"
    "fleet.replica.lag=raise@p:0.25;"
    "fleet.shard.crash=raise@p:0.10;"
    "rpc.server.drop=raise@p:0.02"
)

#: Named failure-domain scenarios for :class:`FleetChaos` (and the
#: ``repro fleet --chaos NAME`` CLI).  Each pairs a fault schedule with
#: a step mix exercising one failure domain; ``None``/``"default"`` is
#: the stock mixed run above.
FLEET_SCENARIOS: Dict[str, str] = {
    # Blackholed router<->primary links: reads survive via replicas or
    # abort typed; heals between steps, so the fleet always recovers.
    "netsplit": (
        "fleet.replica.lag=raise@p:0.10;"
        "rpc.server.drop=raise@p:0.02"
    ),
    # Primaries die mid-load and caught-up replicas take over
    # (certificate-gated promotion + shard-map epoch bump).
    "kill-primary": (
        "fleet.replica.lag=raise@p:0.10;"
        "rpc.server.drop=raise@p:0.02"
    ),
    # Replication shipments are mostly withheld, so promotions land on
    # *stale* replicas — which must refuse.
    "promote-lag": (
        "fleet.replica.lag=raise@p:0.60;"
        "rpc.server.drop=raise@p:0.02"
    ),
}


class FleetChaos:
    """One seeded chaos run over a sharded, replicated fleet.

    The invariants mirror :class:`SystemChaos`, lifted to the fleet:

    - every query that completes through the router verifies against
      ``pk_sgx`` and matches an in-memory single-node **oracle** fed
      the same certified reports with faults suspended — a fleet of
      shards must be observationally identical to one ISP;
    - a publish interrupted by a shard crash never acks: the router
      raises, the harness restarts the shard and retries, and the
      per-shard idempotency completes exactly the stragglers;
    - killed shards, netsplits, and promotions only ever cause
      *aborted* queries (typed errors), never wrong or
      unverifiable-but-accepted results — and every query, verified or
      aborted, lands inside its wall-clock envelope (deadlines
      propagate, so nothing hangs).

    The named :data:`FLEET_SCENARIOS` focus the step mix on one failure
    domain: ``netsplit`` blackholes router↔primary links mid-query,
    ``kill-primary`` kills primaries and promotes caught-up replicas,
    ``promote-lag`` withholds replication and checks stale replicas
    refuse promotion.
    """

    MAX_PUBLISH_ATTEMPTS = 10
    QUERY_POOL = SystemChaos.QUERY_POOL

    def __init__(
        self,
        seed: int,
        shard_count: int = 3,
        replicas: int = 2,
        schedule: Optional[str] = None,
        txs_per_block: int = 2,
        scenario: Optional[str] = None,
        deadline_s: float = 8.0,
    ) -> None:
        from repro.core.system import SystemConfig, V2FSSystem
        from repro.fleet.lifecycle import Fleet
        from repro.isp.server import IspServer
        from repro.rpc.client import connect_client

        if scenario in ("", "default"):
            scenario = None
        if scenario is not None and scenario not in FLEET_SCENARIOS:
            raise ValueError(
                f"unknown fleet scenario {scenario!r}; pick one of "
                + ", ".join(sorted(FLEET_SCENARIOS))
            )
        self.scenario = scenario
        self.deadline_s = deadline_s
        #: The no-hang envelope for one client query.  A query is many
        #: RPCs (session, metas, pages, finalize), each with its own
        #: ``deadline_s`` budget plus retry backoff — the envelope is a
        #: generous multiple, and a hang blows through any multiple.
        self.query_envelope_s = max(30.0, deadline_s * 8)
        self.rng = random.Random(seed)
        self.stats = ChaosStats()
        faults.reset()
        faults.seed(seed)
        netsplit.heal()
        if schedule:
            self.schedule = schedule
        elif scenario is not None:
            self.schedule = FLEET_SCENARIOS[scenario]
        else:
            self.schedule = DEFAULT_FLEET_SCHEDULE
        apply_schedule(self.schedule)

        with faults.suspended():
            self.system = V2FSSystem(
                SystemConfig(seed=seed, txs_per_block=txs_per_block)
            )
            self.system.advance_all(1)
            self.oracle = IspServer()
            self.oracle.sync_update(*self.system.certified_state())
            self.fleet = Fleet(
                self.system, shard_count=shard_count, replicas=replicas
            )
            self.fleet.start()
            host, port = self.fleet.router_address
            self._remote_client = connect_client(
                host, port, timeout_s=2.0, max_retries=4,
                deadline_s=deadline_s,
            )
        self.last_cert = self.system.ci.certificate

    def close(self) -> None:
        _snapshot_fires(self.stats)
        faults.reset()
        netsplit.heal()
        self._remote_client.isp.close()
        self.fleet.stop()

    # -- helpers ----------------------------------------------------------

    def _restart_down_shards(self) -> None:
        for shard_id in self.fleet.down_shards():
            with faults.suspended():
                self.fleet.restart_shard(shard_id)
            self.stats.recoveries += 1
            if obs.ACTIVE:
                obs.inc("chaos.recoveries")

    # -- step implementations --------------------------------------------

    def _publish(self, report) -> None:
        """Fan one certified report out through the faulted router path.

        The router's per-shard idempotency is what makes the retry loop
        correct: an attempt that crashed one shard mid-fan-out left the
        others acked, and the next attempt (after restarting the dead
        primary) completes only the stragglers.
        """
        for _ in range(self.MAX_PUBLISH_ATTEMPTS):
            self._restart_down_shards()
            try:
                self.system.isp.sync_update(
                    report.writes, report.new_sizes, report.certificate
                )
            except (InjectedFault, ReproError):
                self.stats.injected_faults += 1
                self.stats.publish_retries += 1
                continue
            break
        else:
            self._restart_down_shards()
            with faults.suspended():
                self.system.isp.sync_update(
                    report.writes, report.new_sizes, report.certificate
                )
        self.last_cert = report.certificate
        self.stats.publishes += 1
        with faults.suspended():
            self.oracle.sync_update(
                report.writes, report.new_sizes, report.certificate
            )

    def _ingest(self) -> None:
        chain_id = self.rng.choice(sorted(self.system.chains))
        isp = self.system.isp
        with faults.suspended():
            isp.sync_update = lambda writes, sizes, cert: None
            try:
                report = self.system.advance_block(chain_id)
            finally:
                del isp.sync_update
        self._publish(report)
        self.stats.ingests += 1

    def _expected_rows(self, sql: str):
        with faults.suspended():
            return self.system.make_client(isp=self.oracle).query(sql).rows

    def _query(self) -> None:
        """One client query under faults: verified-or-typed-abort,
        always inside the no-hang envelope."""
        sql = self.rng.choice(self.QUERY_POOL)
        start = time.monotonic()
        try:
            result = self._remote_client.query(sql)
        except ReproError as error:
            # Aborted is acceptable under faults (severed fan-out, dead
            # shard, dropped connection, epoch bump) — wrong never is,
            # and the typed abort must land within the envelope.
            elapsed = time.monotonic() - start
            logger.info(
                "fleet chaos query aborted after %.2fs: %s",
                elapsed, type(error).__name__,
            )
            assert elapsed <= self.query_envelope_s, (
                f"aborting query hung for {elapsed:.1f}s "
                f"(envelope {self.query_envelope_s:.1f}s)"
            )
            self.stats.remote_queries_failed += 1
            return
        elapsed = time.monotonic() - start
        assert elapsed <= self.query_envelope_s, (
            f"query hung for {elapsed:.1f}s "
            f"(envelope {self.query_envelope_s:.1f}s)"
        )
        assert result.rows == self._expected_rows(sql), (
            f"fleet query diverged from oracle for {sql!r}"
        )
        self.stats.remote_queries_ok += 1

    def _kill_and_query(self) -> None:
        """Kill a random primary mid-load, query through the gap, then
        restart it."""
        shard_id = self.rng.randrange(self.fleet.shard_count)
        self.fleet.kill_shard(shard_id)
        self.stats.crashes += 1
        if obs.ACTIVE:
            obs.inc("chaos.crashes")
        self._query()
        self._restart_down_shards()

    def _netsplit_and_query(self) -> None:
        """Blackhole the router↔primary link of one shard mid-query.

        The router's retries burn into the partition and fail typed
        (never hang: the client deadline caps every attempt); reads of
        that shard either ride a caught-up replica or abort.  The split
        heals afterward — partitions end, and the closing sweep proves
        the healed fleet converged with the oracle.
        """
        shard_id = self.rng.randrange(self.fleet.shard_count)
        endpoint = (
            self.fleet.host, self.fleet._shard_ports[shard_id]
        )
        netsplit.sever_pair("router", endpoint)
        self.stats.netsplits += 1
        if obs.ACTIVE:
            obs.inc("chaos.netsplits")
        try:
            self._query()
        finally:
            netsplit.heal(endpoint)

    def _kill_primary_and_promote(self) -> None:
        """Kill one primary, query through the gap, then fail over.

        Promotion is certificate-gated, so it can *refuse* when the
        replication-lag failpoint left every replica behind — then the
        old primary restarts instead (both outcomes are legitimate
        recoveries; the sweep checks convergence either way).
        """
        shard_id = self.rng.randrange(self.fleet.shard_count)
        self.fleet.kill_shard(shard_id)
        self.stats.crashes += 1
        if obs.ACTIVE:
            obs.inc("chaos.crashes")
        self._query()
        with faults.suspended():
            if self.fleet.replicas.get(shard_id):
                try:
                    self.fleet.promote_replica(shard_id)
                    self.stats.promotions += 1
                except ReproError:
                    self.stats.promotions_refused += 1
                    self.fleet.restart_shard(shard_id)
            else:
                self.fleet.restart_shard(shard_id)
        self._query()

    def _promote_under_lag(self) -> None:
        """Attempt promotion while replication is withheld.

        The invariant is exact: a replica with pending log entries must
        refuse (it would serve a rolled-back snapshot as authority),
        and a fully-shipped replica must accept.
        """
        candidates = [
            shard_id
            for shard_id, pairs in sorted(self.fleet.replicas.items())
            if pairs
        ]
        if not candidates:
            self._query()
            return
        shard_id = self.rng.choice(candidates)
        label, _ = self.fleet.replicas[shard_id][0]
        lag = self.fleet.logs[shard_id].lag_of(label)
        with faults.suspended():
            try:
                self.fleet.promote_replica(shard_id, label=label)
            except ReproError:
                self.stats.promotions_refused += 1
                assert lag > 0, (
                    f"caught-up replica {label} refused promotion"
                )
            else:
                self.stats.promotions += 1
                assert lag == 0, (
                    f"replica {label} accepted promotion while "
                    f"{lag} batches behind"
                )
        self._query()

    # -- driver -----------------------------------------------------------

    def _step(self) -> None:
        roll = self.rng.random()
        if self.scenario == "netsplit":
            if roll < 0.25:
                self._ingest()
            elif roll < 0.60:
                self._query()
            else:
                self._netsplit_and_query()
        elif self.scenario == "kill-primary":
            if roll < 0.25:
                self._ingest()
            elif roll < 0.65:
                self._query()
            else:
                self._kill_primary_and_promote()
        elif self.scenario == "promote-lag":
            if roll < 0.30:
                self._ingest()
            elif roll < 0.70:
                self._query()
            else:
                self._promote_under_lag()
        elif roll < 0.30:
            self._ingest()
        elif roll < 0.85:
            self._query()
        else:
            self._kill_and_query()

    def run(self, steps: int) -> ChaosStats:
        try:
            for _ in range(steps):
                self.stats.steps += 1
                if obs.ACTIVE:
                    obs.inc("chaos.steps")
                self._step()
            # Closing sweep: faults off, partitions healed, every shard
            # up — every pool query through the router must agree with
            # the fault-free oracle (post-recovery convergence).  A
            # *fresh* client connection: the chaos client's circuit
            # breaker may still be cooling down from the fault phase,
            # and residual router-side breakers get retried through.
            from repro.rpc.client import connect_client

            netsplit.heal()
            self._restart_down_shards()
            with faults.suspended():
                host, port = self.fleet.router_address
                sweep = connect_client(
                    host, port, timeout_s=2.0, max_retries=4
                )
                try:
                    for sql in self.QUERY_POOL:
                        rows = _query_with_retries(
                            sweep, sql, deadline_s=30.0
                        ).rows
                        assert rows == self._expected_rows(sql), (
                            f"closing sweep diverged for {sql!r}"
                        )
                finally:
                    sweep.isp.close()
        finally:
            self.close()
        return self.stats


def run_fleet_chaos(
    seed: int,
    steps: int = 40,
    shard_count: int = 3,
    replicas: int = 2,
    schedule: Optional[str] = None,
    txs_per_block: int = 2,
    scenario: Optional[str] = None,
    deadline_s: float = 8.0,
) -> ChaosStats:
    """Run one seeded fleet chaos episode; returns its stats.

    ``scenario`` picks a named failure domain from
    :data:`FLEET_SCENARIOS` (``netsplit`` / ``kill-primary`` /
    ``promote-lag``); ``None`` runs the stock mixed schedule.  Raises
    ``AssertionError`` the moment an invariant breaks.
    """
    chaos = FleetChaos(
        seed, shard_count=shard_count, replicas=replicas,
        schedule=schedule, txs_per_block=txs_per_block,
        scenario=scenario, deadline_s=deadline_s,
    )
    return chaos.run(steps)


# ---------------------------------------------------------------------------
# Pager chaos
# ---------------------------------------------------------------------------


def run_pager_chaos(seed: int, steps: int = 300) -> ChaosStats:
    """Crash-consistency chaos for the pager + B+Tree over shadow files.

    Random inserts interleave with commits (``flush`` → file ``sync``)
    and crashes with per-page persisted/lost/torn outcomes.  On reopen,
    either decoding fails *loudly* (torn/corrupt detection — the file is
    then rebuilt from scratch, modelling restore-from-backup) or every
    recovered entry must match a value that was actually written; if the
    crash hit a fully committed file, the recovered contents must equal
    the committed contents exactly.
    """
    from repro.db.btree import BTree
    from repro.db.pager import Pager

    rng = random.Random(seed)
    fs = ShadowFilesystem(rng=random.Random(seed + 1))
    stats = ChaosStats()
    generation = 0
    path = f"chaos-{generation}.tbl"
    tree = BTree(Pager(fs, path, create=True))
    committed: Dict[int, bytes] = {}
    pending: Dict[int, bytes] = {}
    next_key = 0

    def rebuild(survivors: Dict[int, bytes]) -> None:
        nonlocal tree, path, generation, committed, pending
        generation += 1
        path = f"chaos-{generation}.tbl"
        tree = BTree(Pager(fs, path, create=True))
        for key in sorted(survivors):
            tree.insert([key], survivors[key])
        tree.pager.flush()
        committed = dict(survivors)
        pending = {}

    for _ in range(steps):
        stats.steps += 1
        if obs.ACTIVE:
            obs.inc("chaos.steps")
        roll = rng.random()
        if roll < 0.70:
            value = bytes(
                rng.getrandbits(8) for _ in range(rng.randrange(16, 200))
            )
            tree.insert([next_key], value)
            pending[next_key] = value
            next_key += 1
        elif roll < 0.85:
            tree.pager.flush()
            committed.update(pending)
            pending.clear()
        else:
            stats.crashes += 1
            if obs.ACTIVE:
                obs.inc("chaos.crashes")
            dirty = fs.dirty_pages(path)
            fs.crash()
            try:
                reopened = BTree(Pager(fs, path))
                found = {key[0]: value for key, value in reopened.items()}
            except TornPageError:
                stats.torn_detected += 1
                rebuild(committed)
            except StorageError:
                stats.corruption_detected += 1
                rebuild(committed)
            else:
                for key, value in found.items():
                    expected = pending.get(key, committed.get(key))
                    assert value == expected, (
                        f"recovered entry {key} has a value that was "
                        "never written"
                    )
                if not dirty:
                    assert found == committed, (
                        "crash with no dirty pages must preserve the "
                        "committed contents exactly"
                    )
                rebuild(found)
            stats.recoveries += 1
            if obs.ACTIVE:
                obs.inc("chaos.recoveries")

    # Closing check: a clean flush + crash + reopen round-trips exactly.
    tree.pager.flush()
    committed.update(pending)
    fs.crash()
    reopened = BTree(Pager(fs, path))
    assert {k[0]: v for k, v in reopened.items()} == committed
    return stats
