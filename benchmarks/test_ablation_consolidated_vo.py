"""Ablation: consolidated VO vs one Merkle proof per page.

The paper's ISP ships a single consolidated VO per query instead of one
proof per page access.  This ablation replays a workload's page claims
both ways and compares total proof bytes.  Expectation: consolidation
wins by a large factor because sibling digests are shared across claims
and the trie skeleton is sent once.
"""

from conftest import run_once

from repro.client.vfs import QueryMode
from repro.experiments.harness import build_env, fmt_bytes, render_table


def test_ablation_consolidated_vo(benchmark, save_result):
    def run():
        env = build_env(hours=20, txs_per_block=6,
                        queries_per_workload=4)
        workload = env.generator.workload("Q6", window_hours=12)
        ads, root = env.system.isp.ads, env.system.isp.root
        consolidated = 0
        per_page = 0
        client = env.system.make_client(QueryMode.BASELINE)
        for sql in workload.queries:
            from repro.client.vfs import ClientSession, ClientVfs
            from repro.db.engine import Engine

            session = ClientSession(
                env.system.isp, client.transport,
                env.system.isp.get_certificate(), client.state,
            )
            vfs = ClientVfs(session)
            Engine(vfs, temp_vfs=vfs).execute(sql)
            keys = sorted(session.page_claims)
            env.system.isp.finalize_session(session.session_id)
            consolidated += ads.gen_read_proof(root, keys).byte_size()
            for key in keys:
                per_page += ads.gen_read_proof(root, [key]).byte_size()
        return {"consolidated": consolidated, "per_page": per_page}

    results = run_once(benchmark, run)
    ratio = results["per_page"] / max(1, results["consolidated"])
    text = render_table(
        ["strategy", "total proof bytes"],
        [
            ["consolidated VO (paper)",
             fmt_bytes(results["consolidated"])],
            ["one proof per page", fmt_bytes(results["per_page"])],
            ["ratio", f"{ratio:.1f}x"],
        ],
        title="Ablation: consolidated VO vs per-page proofs (Q6, 12h)",
    )
    save_result("ablation_consolidated_vo", text)
    assert results["per_page"] > results["consolidated"] * 2
