"""Disarmed lock-order checker overhead on the fig9-style Mixed query path.

The serving path's locks are :class:`~repro.sanitize.runtime.SanLock`
instances.  Disarmed, each acquire and release must cost one
module-attribute load and a branch, one extra attribute indirection
over the stdlib lock it wraps.  This benchmark runs the identical query
sequence with the shipped (disarmed) SanLock on the ISP's session
table vs. the raw wrapped lock swapped in, as adjacent pairs (see
``conftest.measure_paired``), and emits
``benchmarks/results/BENCH_sanitize.json``; the run fails if the median
paired ratio shows the disarmed sanitizer costing more than 5%.
"""

import statistics

from conftest import measure_paired, query_steps, run_once, save_bench

from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.obs import metrics as obs
from repro.sanitize import runtime as san
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


def test_sanitize_overhead(benchmark, save_result):
    assert not san.ACTIVE  # the shipped default: disarmed
    system, workload = _setup()
    sanlock = system.isp.sessions._lock
    rawlock = sanlock.raw()

    def side(lock):
        return query_steps(
            lambda: system.make_client(QueryMode.INTER_VBF),
            workload.queries,
            lambda: setattr(system.isp.sessions, "_lock", lock),
        )

    raw_side = side(rawlock)  # baseline: the wrapped stdlib lock
    shipped_side = side(sanlock)  # disarmed SanLock + ACTIVE guards
    for _ in workload.queries:  # warm allocator for both sides
        next(shipped_side)

    try:
        obs.disable()  # isolate the sanitizer sites from metrics cost
        ratios, raw, instrumented, rows = run_once(
            benchmark,
            lambda: measure_paired(
                raw_side.__next__,
                shipped_side.__next__,
                REPEATS,
                steps=len(workload.queries),
            ),
        )
    finally:
        system.isp.sessions._lock = sanlock
        obs.enable()
    assert not san.ACTIVE
    assert san.reports() == []

    overhead = statistics.median(ratios)
    raw_s, instrumented_s = min(raw), min(instrumented)
    queries = len(workload.queries)
    result = {
        "workload": "Mixed",
        "mode": "inter+vbf",
        "hours": HOURS,
        "queries": queries,
        "repeats": REPEATS,
        "rows": rows,
        "raw_lock_total_s": round(raw_s, 6),
        "disarmed_total_s": round(instrumented_s, 6),
        "raw_per_query_ms": round(raw_s / queries * 1e3, 3),
        "disarmed_per_query_ms": round(instrumented_s / queries * 1e3, 3),
        "paired_ratios": [round(r, 4) for r in ratios],
        "sanitize_overhead_x": round(overhead, 4),
    }
    save_bench("sanitize", result)

    assert overhead < MAX_OVERHEAD, (
        f"disarmed sanitizer overhead {overhead:.3f}x exceeds "
        f"{MAX_OVERHEAD}x"
    )
