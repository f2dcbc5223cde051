"""Fleet throughput scaling: aggregate verified queries/sec at 1, 2
and 4 shards.

The fleet's performance claim is that sharding the page-serving path
multiplies throughput: each shard serializes its own storage I/O (the
``service_delay_s`` knob models per-shard disk/enclave service time,
slept on the shard server's dedicated storage-spindle lock, outside
the dispatch lock, exactly where a real shard would hold its disk),
so concurrent clients whose queries touch different partitions stop
queueing behind one server.

Four concurrent clients run the paper's Mixed workload in BASELINE
mode (no client cache — the maximum page-request pressure) through the
router over real loopback sockets.  Every answer is client-verified,
and answers must be identical at every shard count.  Emits
``benchmarks/results/BENCH_fleet.json``; CI gates the 4-shard
configuration at >= 1.8x the single-shard throughput.
"""

import threading
import time

from conftest import run_once, save_bench

from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.fleet.lifecycle import Fleet
from repro.rpc.client import RemoteIsp
from repro.workloads.generator import WorkloadGenerator

HOURS = 4
TXS_PER_BLOCK = 5
WINDOW_HOURS = 3
CLIENTS = 8
SHARD_COUNTS = [1, 2, 4]
#: Per-request storage service time a shard pays on its storage
#: spindle for data-service calls (page reads, path checks, finalize).
SERVICE_DELAY_S = 0.005
#: The CI gate: 4 shards must clear this speedup over 1 shard.
TARGET_SPEEDUP_AT_4 = 1.8


def _setup():
    system = V2FSSystem(SystemConfig(txs_per_block=TXS_PER_BLOCK))
    system.advance_all(HOURS)
    generator = WorkloadGenerator(
        system.universe,
        system.config.start_time,
        system.latest_time,
        queries_per_workload=1,
    )
    return system, generator.mixed(WINDOW_HOURS, per_type=1).queries


def _client(system, host, port):
    return system.make_client(QueryMode.BASELINE, isp=RemoteIsp(host, port))


def _drive(system, fleet, queries):
    """CLIENTS concurrent verified clients, each running the full
    workload rotated to its own starting offset (so at any instant the
    clients are spread across different tables, hence shards)."""
    host, port = fleet.router_address
    results = [None] * CLIENTS
    errors = []

    def loop(slot):
        client = _client(system, host, port)
        try:
            rows = 0
            offset = (slot * len(queries)) // CLIENTS
            for index in range(len(queries)):
                sql = queries[(offset + index) % len(queries)]
                rows += len(client.query(sql).rows)
            results[slot] = rows
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(f"client {slot}: {type(error).__name__}: {error}")
        finally:
            client.isp.close()

    threads = [
        threading.Thread(target=loop, args=(slot,), name=f"bench-{slot}")
        for slot in range(CLIENTS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    assert not errors, errors
    return elapsed, results


def test_fleet_scaling(benchmark, save_result):
    system, queries = _setup()

    def sweep():
        measurements = []
        for shard_count in SHARD_COUNTS:
            fleet = Fleet(
                system,
                shard_count=shard_count,
                service_delay_s=SERVICE_DELAY_S,
            )
            fleet.start()
            try:
                elapsed, rows = _drive(system, fleet, queries)
            finally:
                fleet.stop()
            measurements.append((shard_count, elapsed, rows))
        return measurements

    measurements = run_once(benchmark, sweep)

    baseline_rows = measurements[0][2]
    total_queries = CLIENTS * len(queries)
    entries = []
    for shard_count, elapsed, rows in measurements:
        assert rows == baseline_rows  # same verified answers everywhere
        entries.append({
            "shards": shard_count,
            "clients": CLIENTS,
            "queries": total_queries,
            "elapsed_s": round(elapsed, 3),
            "queries_per_s": round(total_queries / elapsed, 3),
        })
    base_qps = entries[0]["queries_per_s"]
    for entry in entries:
        entry["speedup_x"] = round(entry["queries_per_s"] / base_qps, 3)

    result = {
        "workload": "Mixed",
        "mode": "baseline",
        "hours": HOURS,
        "service_delay_ms": SERVICE_DELAY_S * 1e3,
        "target_speedup_at_4": TARGET_SPEEDUP_AT_4,
        "sweep": entries,
    }
    save_bench("fleet", result)

    assert entries[-1]["shards"] == 4
    assert entries[-1]["speedup_x"] >= TARGET_SPEEDUP_AT_4, (
        f"4-shard fleet reached only {entries[-1]['speedup_x']}x "
        f"aggregate throughput (target {TARGET_SPEEDUP_AT_4}x)"
    )
