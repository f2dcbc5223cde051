"""Instrumentation overhead: the fig9-style Mixed-workload query path
with the :mod:`repro.obs` registry enabled vs disabled.

Every hot path guards its instrumentation behind ``obs.ACTIVE``, so the
disabled cost should be a single attribute check per site.  This
benchmark runs the identical query sequence against the identical
system state in both modes, as adjacent pairs (see
``conftest.measure_paired``), and emits
``benchmarks/results/BENCH_obs.json`` recording both timings and the
median paired ratio; the run fails if enabling metrics costs more than
5%.
"""

import statistics

from conftest import measure_paired, query_steps, run_once, save_bench

from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.obs import REGISTRY
from repro.obs import metrics as obs
from repro.workloads.generator import WorkloadGenerator

HOURS = 12
TXS_PER_BLOCK = 5
PER_TYPE = 1  # one instance of each of the 8 query types
WINDOW_HOURS = 6
#: Pairs of one workload pass per side, interleaved query by query; the
#: gate is the median paired ratio (see ``conftest.measure_paired``).
REPEATS = 100
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


def test_obs_overhead(benchmark, save_result):
    system, workload = _setup()

    def make_client():
        return system.make_client(QueryMode.INTER_VBF)

    disabled_side = query_steps(make_client, workload.queries, obs.disable)
    enabled_side = query_steps(make_client, workload.queries, obs.enable)
    for _ in workload.queries:  # warm allocator for both sides
        next(enabled_side)

    try:
        counted_before = REGISTRY.counters_snapshot()
        ratios, disabled, enabled, rows = run_once(
            benchmark,
            lambda: measure_paired(
                disabled_side.__next__,
                enabled_side.__next__,
                REPEATS,
                steps=len(workload.queries),
            ),
        )
        delta = REGISTRY.counters_delta(counted_before)
    finally:
        obs.enable()

    assert delta.get("client.page.requests", 0) > 0  # metrics really on

    overhead = statistics.median(ratios)
    disabled_s, enabled_s = min(disabled), min(enabled)
    queries = len(workload.queries)
    result = {
        "workload": "Mixed",
        "mode": "inter+vbf",
        "hours": HOURS,
        "queries": queries,
        "repeats": REPEATS,
        "rows": rows,
        "disabled_total_s": round(disabled_s, 6),
        "enabled_total_s": round(enabled_s, 6),
        "disabled_per_query_ms": round(disabled_s / queries * 1e3, 3),
        "enabled_per_query_ms": round(enabled_s / queries * 1e3, 3),
        "paired_ratios": [round(r, 4) for r in ratios],
        "obs_overhead_x": round(overhead, 4),
        "counter_increments": sum(delta.values()),
    }
    save_bench("obs", result)

    assert overhead < MAX_OVERHEAD, (
        f"metrics overhead {overhead:.3f}x exceeds {MAX_OVERHEAD}x"
    )
