#!/usr/bin/env python3
"""A durable ISP: the authenticated store survives a restart.

The paper backs the ADS with RocksDB; this reproduction's equivalent is
:class:`repro.merkle.persistent_store.PersistentNodeStore` — an
append-only log with crash-safe reopen and compaction.  The example
ingests blocks into an ISP whose ADS lives on disk, "restarts" the ISP
process, and shows that clients keep verifying against the same root.

Run:  python examples/durable_isp.py
"""

import os
import tempfile

from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.isp.server import IspServer
from repro.merkle.ads import V2fsAds
from repro.merkle.persistent_store import PersistentNodeStore


def main() -> None:
    log_path = os.path.join(tempfile.mkdtemp(prefix="v2fs-"), "ads.log")
    print(f"== ISP storage on disk: {log_path} ==")

    # Stand up a system, then rebuild its ISP around a persistent store.
    system = V2FSSystem(SystemConfig(txs_per_block=8))
    durable = IspServer(PersistentNodeStore(log_path))
    system.isp = durable
    # Re-sync everything certified so far (the schema bootstrap).
    durable.sync_update(*system.certified_state())
    system.advance_all(6)
    size_kb = os.path.getsize(log_path) // 1024
    print(f"   ingested 6h on both chains; log size {size_kb} KB")

    client = system.make_client(QueryMode.INTER_VBF)
    sql = "SELECT COUNT(*), SUM(gas_used) FROM eth_transactions"
    before = client.query(sql)
    print(f"   verified before restart: {before.rows[0]}")

    print("\n== Restarting the ISP (reopen the on-disk store) ==")
    durable.ads.store.close()
    reopened = IspServer()
    reopened.ads = V2fsAds.__new__(V2fsAds)  # adopt existing snapshot
    reopened.ads.store = PersistentNodeStore(log_path)
    reopened.ads.root = durable.root
    reopened.root = durable.root
    reopened.certificate = durable.certificate
    system.isp = reopened

    fresh_client = system.make_client(QueryMode.BASELINE)
    after = fresh_client.query(sql)
    assert after.rows == before.rows
    print(f"   verified after restart:  {after.rows[0]}  ✓")

    print("\n== Compacting old snapshots ==")
    dropped = reopened.ads.store.prune([reopened.root])
    size_after = os.path.getsize(log_path) // 1024
    print(f"   pruned {dropped} dead nodes; log now {size_after} KB")
    final = system.make_client(QueryMode.BASELINE).query(sql)
    assert final.rows == before.rows
    print("   queries still verify after compaction ✓")


if __name__ == "__main__":
    main()
