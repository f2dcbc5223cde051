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


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
