"""Figure 8 — database update cost with and without SGX.

Varies the number of blocks ingested per maintenance batch and measures
(i) total block-processing time with the SGX boundary cost charged vs
free, and (ii) the size of the Merkle proofs (``pi_r`` + ``pi_w``) the
enclave consumes.

Expected shape (paper): SGX imposes a single-digit multiple slowdown
(3.2-10.4x there) that *shrinks as batches grow*, because the P_r/P_w
page collections amortize OCalls across blocks; proof size grows only
mildly with batch size.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.system import SystemConfig, V2FSSystem
from repro.experiments.harness import fmt_bytes, fmt_seconds, render_table
from repro.obs import REGISTRY

DEFAULT_BATCHES = [1, 2, 4, 8, 16]

#: Series that are pure counts, and the counter each one is read from.
_COUNTED = {
    "ocalls": "sgx.ocall",
    "proof_bytes": "ci.proof.bytes",
    "pages_read": "ci.pages.read",
    "pages_written": "ci.pages.written",
}


def run(
    batches: List[int] = DEFAULT_BATCHES,
    txs_per_block: int = 8,
    seed: int = 7,
) -> Dict:
    """Measure one maintenance batch of each size, with and without SGX.

    The OCall, proof-size and page columns are sourced from the
    process-wide metrics registry (``sgx.ocall`` / ``ci.proof.bytes`` /
    ``ci.pages.read`` / ``ci.pages.written``) as a before/after delta
    around each maintenance batch of the SGX run.
    """
    series: Dict[str, List] = {
        "blocks": list(batches),
        "sgx_s": [],
        "no_sgx_s": [],
        "slowdown": [],
        **{column: [] for column in _COUNTED},
    }
    for use_sgx in (True, False):
        system = V2FSSystem(
            SystemConfig(seed=seed, txs_per_block=txs_per_block,
                         use_sgx=use_sgx)
        )
        for batch in batches:
            before = REGISTRY.counters_snapshot()
            report = system.advance_blocks("eth", batch)
            delta = REGISTRY.counters_delta(before)
            total = report.total_time_s
            if use_sgx:
                series["sgx_s"].append(total)
                for column, counter in _COUNTED.items():
                    series[column].append(int(delta.get(counter, 0)))
            else:
                series["no_sgx_s"].append(total)
    series["slowdown"] = [
        sgx / max(plain, 1e-9)
        for sgx, plain in zip(series["sgx_s"], series["no_sgx_s"])
    ]
    return series


def render(results: Dict) -> str:
    headers = ["blocks", "with SGX", "without SGX", "slowdown",
               "OCalls", "proof size"]
    rows = []
    for i, blocks in enumerate(results["blocks"]):
        rows.append([
            str(blocks),
            fmt_seconds(results["sgx_s"][i]),
            fmt_seconds(results["no_sgx_s"][i]),
            f"{results['slowdown'][i]:.1f}x",
            str(results["ocalls"][i]),
            fmt_bytes(results["proof_bytes"][i]),
        ])
    return render_table(
        headers, rows,
        title="Fig. 8: Database update cost (per maintenance batch)",
    )


def render_counts(results: Dict) -> str:
    """The count columns alone, exact: they regenerate byte for byte
    (the generated history does not depend on the string-hash seed),
    unlike the timings."""
    headers = ["blocks", "OCalls", "proof bytes", "CI pages read",
               "CI pages written"]
    rows = [
        [str(blocks), *(str(results[column][i]) for column in _COUNTED)]
        for i, blocks in enumerate(results["blocks"])
    ]
    return render_table(
        headers, rows,
        title="Fig. 8: Update-path counts (per maintenance batch, SGX run)",
    )
