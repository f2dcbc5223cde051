"""Serving-path overhead: end-to-end Mixed-workload query latency with
the in-process ISP vs the same ISP behind loopback sockets
(:mod:`repro.rpc`).

Emits ``benchmarks/results/BENCH_rpc.json`` so the perf trajectory of
the real serving path (framing, socket round trips, per-request locking)
is tracked alongside the paper figures.  Both clients run the identical
query sequence against the identical system state, so the delta is pure
RPC overhead.
"""

from conftest import run_once, run_queries, save_bench

from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.rpc import RemoteIsp, serve_system
from repro.workloads.generator import WorkloadGenerator

HOURS = 12
TXS_PER_BLOCK = 5
PER_TYPE = 1  # one instance of each of the 8 query types
WINDOW_HOURS = 6


def _setup():
    system = V2FSSystem(SystemConfig(txs_per_block=TXS_PER_BLOCK))
    system.advance_all(HOURS)
    generator = WorkloadGenerator(
        system.universe,
        system.config.start_time,
        system.latest_time,
        queries_per_workload=PER_TYPE,
    )
    return system, generator.mixed(WINDOW_HOURS, per_type=PER_TYPE)


def test_rpc_overhead(benchmark, save_result):
    system, workload = _setup()

    local_client = system.make_client(QueryMode.INTER_VBF)
    inprocess_s, local_rows = run_queries(
        lambda: local_client, workload.queries
    )

    server = serve_system(system)
    with server:
        host, port = server.address
        remote_client = system.make_client(
            QueryMode.INTER_VBF, isp=RemoteIsp(host, port)
        )
        loopback_s, remote_rows = run_once(
            benchmark,
            lambda: run_queries(lambda: remote_client, workload.queries),
        )
        remote_client.isp.close()

    assert remote_rows == local_rows  # same verified answers either way

    queries = len(workload.queries)
    result = {
        "workload": "Mixed",
        "mode": "inter+vbf",
        "hours": HOURS,
        "queries": queries,
        "rows": local_rows,
        "inprocess_total_s": round(inprocess_s, 6),
        "loopback_total_s": round(loopback_s, 6),
        "inprocess_per_query_ms": round(inprocess_s / queries * 1e3, 3),
        "loopback_per_query_ms": round(loopback_s / queries * 1e3, 3),
        "rpc_overhead_x": round(loopback_s / inprocess_s, 3),
    }
    save_bench("rpc", result)
