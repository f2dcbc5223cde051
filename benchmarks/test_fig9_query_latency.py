"""Regenerates Fig. 9: query latency (exec + net) for Q1, Q2, Q6, Mixed
across query windows and all four cache modes.

Expected shape: Baseline latency grows with the window (network-bound);
Inter and Inter+Vbf flatten it by serving cached pages; Q1 stays
execution-dominated because it touches few pages (the paper's claim;
a known non-reproduction since PR 15, see
``test_fig9_q1_exec_dominated``).
"""

import pytest
from conftest import SWEEP, SWEEP_WINDOWS, run_once

from repro.experiments import fig9to11


def _results():
    cached = getattr(fig9to11, "_LAST_RESULTS", None)
    if cached is not None:
        return cached
    return fig9to11.run(windows=SWEEP_WINDOWS, **SWEEP)


def test_fig9_query_latency(benchmark, save_result):
    results = run_once(benchmark, _results)
    save_result("fig9_query_latency", fig9to11.render_fig9(results))

    for workload in ("Q2", "Q6", "Mixed"):
        widest = max(SWEEP_WINDOWS)
        cell = results[workload][widest]
        baseline = cell["Baseline"].avg_latency_s
        inter_vbf = cell["Inter+Vbf"].avg_latency_s
        # The caches must win on network-bound workloads at wide windows.
        assert inter_vbf < baseline
    # Network dominates Baseline latency except for Q1 (paper Sec. VII-B);
    # Q1's half of the claim is test_fig9_q1_exec_dominated below.
    mixed = results["Mixed"][max(SWEEP_WINDOWS)]["Baseline"]
    assert mixed.avg_net_s > mixed.avg_exec_s

    # Stash for the companion figures (10, 11) in the same process.
    fig9to11._LAST_RESULTS = results


@pytest.mark.xfail(
    reason="Q1 was exec-dominated only through the 24 ms per-query "
    "Schnorr verify; with an unchanged certificate proven once (PR 15) "
    "its exec is ~3 ms against ~6 ms of modeled LAN time for its ~20 "
    "page requests, which did not change.  Open: retire or replace the "
    "claim (EXPERIMENTS.md Fig. 9, ROADMAP item 8).",
    strict=False,
)
def test_fig9_q1_exec_dominated(benchmark):
    results = run_once(benchmark, _results)
    q1 = results["Q1"][max(SWEEP_WINDOWS)]["Baseline"]
    assert q1.avg_net_s < q1.avg_exec_s
