"""The concurrency stress run (``python -m repro chaos``).

:func:`run_concurrent_chaos` serves a live-ingesting ISP to N client
threads over the real RPC loopback while an ingest thread publishes
blocks through ``sync_update`` (the paper's Fig. 13b interference
experiment as a correctness test, not a benchmark).  No failpoints are
armed — the adversary here is the thread scheduler.  Run with the
:mod:`repro.sanitize` checker armed it must produce **zero** reports
(lock order, blocking under a lock, unguarded access to a declared
field), and the order edges it observes are returned for
comparison with DESIGN §8; run disarmed it must produce the **same
final query results** (ingestion is a deterministic function of the
seed, so the end state is interleaving-independent).

Crash recovery at every failpoint is checked by the fault machine in
``tests/test_stateful.py`` and ``tests/test_fleet_replication_stateful.py``.
"""

from __future__ import annotations

import os
import random
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from repro.errors import CertificateError, NetworkError, ReproError
from repro.sanitize import runtime as san

#: The verified queries each client thread cycles through.
QUERY_POOL = (
    "SELECT COUNT(*) FROM btc_transactions",
    "SELECT COUNT(*), SUM(fee) FROM btc_transactions",
    "SELECT COUNT(*), SUM(gas_used) FROM eth_transactions",
    "SELECT COUNT(*) FROM eth_token_transfers",
)


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

    Arms the :mod:`repro.sanitize` checker when ``armed``: every
    SanLock acquisition feeds the name-level order graph, and every
    declared field access is checked against its lock.
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
    scratch = None
    if store_path is None:
        scratch = tempfile.TemporaryDirectory(prefix="v2fs-sanitize-")
        store_path = os.path.join(scratch.name, "ads.log")
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
        from repro.rpc.server import RpcIspServer, serve_system

        rng = random.Random(seed)
        system = _build_durable_system(seed, txs_per_block, store_path)
        # Pre-drawn so the block sequence is a function of the seed
        # alone, not of how threads interleave with the rng.
        chain_plan = [
            rng.choice(sorted(system.chains)) for _ in range(ingest_blocks)
        ]
        # e.g. repro.serve.AsyncIspServer: the same campaign against the
        # event-loop serving path.
        server = serve_system(
            system, server_class=server_class or RpcIspServer)
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
                    sql = QUERY_POOL[(slot + index) % len(QUERY_POOL)]
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
                for sql in QUERY_POOL:
                    result["final_rows"][sql] = sweep.query(sql).rows
            finally:
                sweep.isp.close()
        result["queries_ok"] = sum(ok)
        result["client_errors"] = errors
    finally:
        if system is not None:
            system.isp.ads.store.close()
        if scratch is not None:
            scratch.cleanup()
        result["reports"] = [report.render() for report in san.reports()]
        result["order_edges"] = san.order_edges()
        san.reset()
    return result
