"""Disarmed-sanitizer overhead on the fig9-style Mixed query path.

The serving path's locks are :class:`~repro.sanitize.runtime.SanLock`
instances and its shared structures carry ``if san.ACTIVE:`` tracker
hooks.  Disarmed, each site must cost one module-attribute load and a
branch, and each SanLock exactly one extra attribute indirection over
the stdlib lock it wraps.  This benchmark runs the identical query
sequence with the shipped (disarmed) SanLocks vs. the raw wrapped
locks swapped in, and emits ``benchmarks/results/BENCH_sanitize.json``;
the run fails if the disarmed sanitizer costs more than 5%.
"""

import time

from conftest import run_once, save_bench

from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.obs import metrics as obs
from repro.sanitize import runtime as san
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
    """Min-of-N per mode, interleaved pairwise so CPU frequency drift
    and background load hit both sides equally."""
    isp = system.isp
    sanlock = isp._lock
    raw, instrumented = [], []
    rows = set()
    for _ in range(REPEATS):
        isp._lock = sanlock.raw()  # baseline: the wrapped stdlib lock
        elapsed, got = _run_workload(system, workload)
        raw.append(elapsed)
        rows.add(got)
        isp._lock = sanlock  # shipped: disarmed SanLock + ACTIVE guards
        elapsed, got = _run_workload(system, workload)
        instrumented.append(elapsed)
        rows.add(got)
    assert len(rows) == 1  # same answers either way, every repeat
    return min(raw), min(instrumented), rows.pop()


def test_sanitize_overhead(benchmark, save_result):
    assert not san.ACTIVE  # the shipped default: disarmed
    system, workload = _setup()
    _run_workload(system, workload)  # warm caches/allocator

    try:
        obs.disable()  # isolate the sanitizer sites from metrics cost
        raw_s, instrumented_s, rows = run_once(
            benchmark, lambda: _measure_interleaved(system, workload)
        )
    finally:
        obs.enable()
    assert not san.ACTIVE
    assert san.reports() == []

    overhead = instrumented_s / raw_s
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
        "sanitize_overhead_x": round(overhead, 4),
    }
    save_bench("sanitize", result)

    assert overhead < MAX_OVERHEAD, (
        f"disarmed sanitizer overhead {overhead:.3f}x exceeds "
        f"{MAX_OVERHEAD}x"
    )
