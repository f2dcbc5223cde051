"""What the benchmark promises to emit: workloads, metric names, units.

``BENCHMARK.json`` at the repository root is the contract the driver
reads; this module is the code's side of it, and ``run.py --check``
fails when the two disagree.
"""

from __future__ import annotations

import json
import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

WORKLOADS: Tuple[str, ...] = (
    "point_static", "scan_nocache", "mixed_live_rpc", "serve_sessions",
)

#: name -> (unit, better).  One operation is one ``QueryClient.query``
#: on the three query workloads and one ISP session on
#: ``serve_sessions``.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "vo_bytes_per_op": ("B", "lower"),
    "net_requests_per_op": ("count", "lower"),
    "net_bytes_per_op": ("B", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_MS = ("ms", "lower")
_COUNT = ("count", "lower")

PER_LAYER: Dict[str, Tuple[str, str]] = {
    # repro.client.query_client
    "client.query.self_ms": _MS,
    "client.unattributed_ratio": ("ratio", "lower"),
    # repro.core.certificate + repro.crypto + repro.chain.consensus
    "cert.verify.ms": _MS,
    "cert.verify.calls": _COUNT,
    "cert.fetch.ms": _MS,
    "chain.check_header.ms": _MS,
    # repro.db
    "db.parse.ms": _MS,
    "db.plan.ms": _MS,
    "db.exec.self_ms": _MS,
    "db.record_decode.calls": _COUNT,
    "pager.read.calls": _COUNT,
    "pager.read.self_ms": _MS,
    "db.plain_query_p50_ms": _MS,
    # repro.client.vfs / caches / repro.vbf
    "vfs.access_page.calls": _COUNT,
    "vfs.access_page.self_ms": _MS,
    "vfs.file_meta.calls": _COUNT,
    "client.page.requests": _COUNT,
    "client.check.requests": _COUNT,
    "cache.inter.hit_ratio": ("ratio", "higher"),
    "cache.inter.evictions": _COUNT,
    "vbf.hit_ratio": ("ratio", "higher"),
    "vbf.check.ms": _MS,
    "vbf.decode.ms": _MS,
    "client.session_open.self_ms": _MS,
    "client.finalize.self_ms": _MS,
    "vo.verify.ms": _MS,
    "client.rollbacks": _COUNT,
    # repro.network.transport
    "transport.model_ms": _MS,
    # repro.rpc
    "rpc.call.calls": _COUNT,
    "rpc.call.ms": _MS,
    "codec.encode.ms": _MS,
    "codec.decode.ms": _MS,
    "vo.decode.ms": _MS,
    "rpc.frame.bytes": ("B", "lower"),
    "rpc.wire.ms": _MS,
    "rpc.client.retries": _COUNT,
    # repro.isp
    "isp.open_session.ms": _MS,
    "isp.get_page.ms": _MS,
    "isp.get_page.calls": _COUNT,
    "isp.get_file_meta.ms": _MS,
    "isp.validate_path.ms": _MS,
    "isp.validate_path.fresh_ratio": ("ratio", "higher"),
    "isp.finalize.ms": _MS,
    "vo.build.ms": _MS,
    "vo.pages": _COUNT,
    "vo.nodes": _COUNT,
    "isp.sync_update.ms": _MS,
    # repro.merkle
    "ads.get_page.ms": _MS,
    "ads.gen_read_proof.ms": _MS,
    "ads.apply_writes.ms": _MS,
    "ads.prune.ms": _MS,
    "store.get.calls": _COUNT,
    "store.put.calls": _COUNT,
    # update path: repro.chain, repro.dcert, repro.core.ci, repro.sgx
    "update.p50_ms": _MS,
    "chain.generate.ms": _MS,
    "dcert.certify.ms": _MS,
    "ci.process_blocks.self_ms": _MS,
    "ci.pages.read": _COUNT,
    "ci.pages.written": _COUNT,
    "sgx.ocall.calls": _COUNT,
    "sgx.model_ms": _MS,
    # repro.serve + the load generator
    "serve.batch.size_mean": ("count", "higher"),
    "serve.batch.node_hit_ratio": ("ratio", "higher"),
    "serve.loop.lag_p99_ms": _MS,
    "serve.shed": _COUNT,
    "serve.session_p95_ms": _MS,
    "serve.session_p99_ms": _MS,
    "serve.hi.session_p50_ms": _MS,
    "serve.hi.session_p99_ms": _MS,
    "serve.hi.fail_ratio": ("ratio", "lower"),
    "serve.threaded.session_p50_ms": _MS,
    "serve.sat_pages_per_s": ("1/s", "higher"),
    "loadgen.late_p99_ms": _MS,
    # the tracer and the speed probe themselves
    "trace.overhead_ratio": ("ratio", "lower"),
    "op.p90_ms": _MS,
    "op.wall_p50_ms": _MS,
    "speed.factor_p50": ("ratio", "lower"),
}

@dataclass
class RunOutcome:
    """What one workload run hands back to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Why operations failed (first few are printed).
    failures: List[str] = field(default_factory=list)
    #: Context lines for the human reader (raw wall-clock values, ...).
    notes: List[str] = field(default_factory=list)


_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_contract() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def bounds() -> Dict[str, float]:
    """End-to-end metric -> regression bound, from ``BENCHMARK.json``."""
    return {m["name"]: m["bound"] for m in load_contract()["end_to_end"]}


def check_contract() -> List[str]:
    """Every way ``BENCHMARK.json`` and this module disagree."""
    problems: List[str] = []
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if tuple(names) != WORKLOADS:
        problems.append(f"workloads {names} != {list(WORKLOADS)}")
    for section, ours in (("end_to_end", END_TO_END),
                          ("per_layer", PER_LAYER)):
        theirs = {m["name"]: (m["unit"], m["better"])
                  for m in contract[section]}
        for name in sorted(set(ours) | set(theirs)):
            if name not in theirs:
                problems.append(f"{section}: {name} missing from "
                                "BENCHMARK.json")
            elif name not in ours:
                problems.append(f"{section}: {name} is not emitted")
            elif ours[name] != theirs[name]:
                problems.append(f"{section}: {name} is {ours[name]} here, "
                                f"{theirs[name]} in BENCHMARK.json")
    for name, (unit, _better) in {**END_TO_END, **PER_LAYER}.items():
        if not _NAME.match(name):
            problems.append(f"bad metric name {name!r}")
        if not _UNIT.match(unit):
            problems.append(f"bad unit {unit!r} for {name}")
    if set(END_TO_END) & set(PER_LAYER):
        problems.append("a name is used in both sections")
    return problems
