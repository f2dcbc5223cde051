"""Instrumentation overhead: the fig9-style Mixed-workload query path
with the :mod:`repro.obs` registry enabled vs disabled.

Every hot path guards its instrumentation behind ``obs.ACTIVE``, so the
disabled cost should be a single attribute check per site.  This
benchmark runs the identical query sequence against the identical
system state in both modes and emits
``benchmarks/results/BENCH_obs.json`` recording both timings and the
overhead ratio; the run fails if enabling metrics costs more than 5%.
"""

import time

from conftest import run_once, save_bench

from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.obs import REGISTRY
from repro.obs import metrics as obs
from repro.workloads.generator import WorkloadGenerator

HOURS = 12
TXS_PER_BLOCK = 5
PER_TYPE = 1  # one instance of each of the 8 query types
WINDOW_HOURS = 6
REPEATS = 5  # min-of-N to shave scheduler noise off both sides
MAX_OVERHEAD = 1.05


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


def _run_workload(system, workload):
    client = system.make_client(QueryMode.INTER_VBF)
    started = time.perf_counter()
    rows = 0
    for sql in workload.queries:
        rows += len(client.query(sql))
    return time.perf_counter() - started, rows


def _measure_interleaved(system, workload):
    """Min-of-N per mode, with the modes interleaved pairwise so CPU
    frequency drift and background load hit both sides equally."""
    disabled, enabled = [], []
    rows = set()
    for _ in range(REPEATS):
        obs.disable()
        elapsed, got = _run_workload(system, workload)
        disabled.append(elapsed)
        rows.add(got)
        obs.enable()
        elapsed, got = _run_workload(system, workload)
        enabled.append(elapsed)
        rows.add(got)
    assert len(rows) == 1  # same answers either way, every repeat
    return min(disabled), min(enabled), rows.pop()


def test_obs_overhead(benchmark, save_result):
    system, workload = _setup()
    _run_workload(system, workload)  # warm caches/allocator for both sides

    try:
        counted_before = REGISTRY.counters_snapshot()
        disabled_s, enabled_s, enabled_rows = run_once(
            benchmark, lambda: _measure_interleaved(system, workload)
        )
        delta = REGISTRY.counters_delta(counted_before)
    finally:
        obs.enable()

    assert delta.get("client.page.requests", 0) > 0  # metrics really on

    overhead = enabled_s / disabled_s
    queries = len(workload.queries)
    result = {
        "workload": "Mixed",
        "mode": "inter+vbf",
        "hours": HOURS,
        "queries": queries,
        "repeats": REPEATS,
        "rows": enabled_rows,
        "disabled_total_s": round(disabled_s, 6),
        "enabled_total_s": round(enabled_s, 6),
        "disabled_per_query_ms": round(disabled_s / queries * 1e3, 3),
        "enabled_per_query_ms": round(enabled_s / queries * 1e3, 3),
        "obs_overhead_x": round(overhead, 4),
        "counter_increments": sum(delta.values()),
    }
    save_bench("obs", result)

    assert overhead < MAX_OVERHEAD, (
        f"metrics overhead {overhead:.3f}x exceeds {MAX_OVERHEAD}x"
    )
