"""Regenerates Fig. 8: database update cost with and without SGX.

Expected shape: an SGX slowdown in the single-digit-multiple range that
*decreases* as more blocks are batched per maintenance run (P_r/P_w
amortize enclave boundary crossings), with Merkle proofs staying in the
kilobyte range.
"""

from conftest import run_once

from repro.experiments import fig8


def test_fig8_update_cost(benchmark, save_result):
    results = run_once(
        benchmark, lambda: fig8.run(batches=[1, 2, 4, 8, 16])
    )
    text = fig8.render(results)
    save_result("fig8_update_cost", text)
    save_result("fig8_update_counts", fig8.render_counts(results))
    # Shape assertions: SGX costs more, and batching amortizes it.
    assert all(s > 1.0 for s in results["slowdown"])
    assert results["slowdown"][-1] < results["slowdown"][0]
    # Per-block OCalls drop as batches grow.
    per_block = [
        ocalls / blocks
        for ocalls, blocks in zip(results["ocalls"], results["blocks"])
    ]
    assert per_block[-1] < per_block[0]
