"""Benchmark support: saving each regenerated table/figure to disk.

Every benchmark regenerates one table or figure of the paper at a
reduced-but-representative scale, times it once (these are minutes-long
experiments, not microbenchmarks), and writes the rendered text table to
``benchmarks/results/<name>.txt`` in addition to printing it.  The
overhead and scaling gates record their numbers as
``benchmarks/results/BENCH_<name>.json`` through :func:`save_bench`.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Shared reduced-scale parameters for the query-performance sweeps.
#: Using one parameter set lets all of Figs. 9-16 share a single
#: ingested system (the experiment harness memoizes it per process).
SWEEP = dict(hours=50, txs_per_block=6, queries_per_workload=6)
SWEEP_WINDOWS = [3, 12, 48]


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n[saved to benchmarks/results/{name}.txt]")

    return save


def save_bench(name: str, result: dict) -> None:
    """Write one gate's result to ``results/BENCH_<name>.json``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    text = json.dumps(result, indent=2)
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


def run_queries(make_client, queries, passes=1):
    """Time ``passes`` passes over ``queries``, each on ``make_client()``
    (built outside the timed region: a fresh client starts every pass
    with cold caches, a returned-again one keeps them).

    Returns ``(summed elapsed_s, rows of one pass)``.
    """
    elapsed = 0.0
    for _ in range(passes):
        client = make_client()
        rows = 0
        started = time.perf_counter()
        for sql in queries:
            rows += len(client.query(sql))
        elapsed += time.perf_counter() - started
    return elapsed, rows


def query_steps(make_client, queries, arm):
    """Endless ``(elapsed_s, rows)`` of one query per ``next()``, cycling
    through ``queries`` on a client replaced (cold) at every pass;
    ``arm()`` runs before each query to put the process in this side's
    mode.  ``next`` of this is a :func:`measure_paired` step.
    """
    while True:
        client = make_client()
        for sql in queries:
            arm()
            yield run_queries(lambda: client, [sql])


def measure_paired(baseline, treated, repeats, steps=1):
    """Paired ``treated/baseline`` time ratios for an overhead gate.

    ``baseline()`` and ``treated()`` each run one timed step and return
    ``(elapsed_s, rows)``; a pair is ``steps`` alternations of the two,
    summed per side.  The gate is the **median of the per-pair
    ratios**: this box swings whole-run times by several percent from
    one second to the next, but adjacent steps share that state, so one
    pair's ratio is far more stable than a ratio of independent minima.
    The order alternates step by step so slow drift (frequency scaling,
    cache warmth) cancels instead of biasing whichever side
    consistently runs second.

    Two ways to spend a gate's seconds, both measured on this box with
    the two sides identical (so the true ratio is 1): few pairs of one
    long step each (9 x 0.7 s) gave medians from 0.88 to 1.06 — a long
    step dilutes a scheduler stall but straddles the speed swings; many
    pairs of short interleaved steps (60 x 8 x 10 ms) gave 0.993 to
    1.007.  A gate whose sides are single-threaded and in-process
    should take the second shape; one with threads and sockets in the
    loop, where a 10 ms step is mostly one stall, the first.

    Returns ``(ratios, baseline_times, treated_times, rows)``; every
    pair must produce the same ``rows`` on both sides.
    """
    ratios, base, test = [], [], []
    rows = set()
    for repeat in range(repeats):
        spent = {baseline: 0.0, treated: 0.0}
        got = {baseline: 0, treated: 0}
        for step in range(steps):
            baseline_first = (repeat + step) % 2 == 0
            order = (baseline, treated) if baseline_first else (treated, baseline)
            for side in order:
                elapsed, count = side()
                spent[side] += elapsed
                got[side] += count
        base.append(spent[baseline])
        test.append(spent[treated])
        rows.update(got.values())
        ratios.append(test[-1] / base[-1])
    assert len(rows) == 1  # same verified answers either way, every repeat
    return ratios, base, test, rows.pop()


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
