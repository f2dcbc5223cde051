"""Per-layer metrics: span aggregates + ``repro.obs`` deltas → names.

Times are milliseconds **per operation** (query, update, or session):
``x.ms`` is the whole span, ``x.self_ms`` the span minus its child
spans; ``x.calls`` and the registry-backed counts are per operation
too.  Layers are this repo's modules (see README "Per-layer metrics").
"""

from __future__ import annotations

from typing import Dict, Optional

import stats
from tracing import LayerTotals


class RegistryWindow:
    """Counter and histogram growth of ``repro.obs`` over one window.

    Built from two ``MetricsRegistry.payload()`` documents, so the same
    code reads the in-process registry and the server subprocess's.
    """

    def __init__(self, before: Optional[dict] = None,
                 after: Optional[dict] = None) -> None:
        before = before or {"counters": {}, "histograms": {}}
        after = after or {"counters": {}, "histograms": {}}
        self.counters: Dict[str, float] = {
            name: value - before["counters"].get(name, 0)
            for name, value in after["counters"].items()
        }
        self.histograms: Dict[str, dict] = {
            name: stats.histogram_delta(
                snapshot, before["histograms"].get(name)
            )
            for name, snapshot in after["histograms"].items()
        }

    def count(self, name: str) -> float:
        return self.counters.get(name, 0)

    def add_counters(self, other: "RegistryWindow") -> None:
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def without_counters(self, other: "RegistryWindow") -> "RegistryWindow":
        """A copy with ``other``'s counter growth taken out."""
        result = RegistryWindow()
        result.counters = {
            name: value - other.counters.get(name, 0)
            for name, value in self.counters.items()
        }
        result.histograms = self.histograms
        return result

    def histogram_mean(self, name: str) -> float:
        snapshot = self.histograms.get(name)
        if not snapshot or not snapshot.get("count"):
            return 0.0
        return snapshot["total"] / snapshot["count"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_op_ms(seconds: float, ops: int) -> float:
    return 1e3 * seconds / ops if ops else 0.0


def query_layers(
    totals: LayerTotals, window: RegistryWindow, queries: int,
    model_net_s: float,
) -> Dict[str, float]:
    """Client, engine, VFS, RPC and ISP layers of the query path."""
    def calls(name, parent=None):
        return _ratio(totals.select(name, "query", parent)[0], queries)

    def span_ms(name, parent=None):
        return _per_op_ms(totals.select(name, "query", parent)[1], queries)

    def self_ms(name, parent=None):
        return _per_op_ms(totals.select(name, "query", parent)[2], queries)

    root_total = totals.select("client.query", "query")[1]
    root_self = totals.select("client.query", "query")[2]
    rpc_ms = span_ms("rpc.call.*")
    codec_ms = span_ms("codec.encode") + span_ms("codec.decode")
    # Server-side ISP service reached over the wire: in an RPC run the
    # client only holds a RemoteIsp, so every root ``isp.*`` span of a
    # query ran on a server thread.
    served_ms = span_ms("isp.*", parent="") if rpc_ms else 0.0
    inter_hits = window.count("cache.inter.hit")
    inter_lookups = inter_hits + window.count("cache.inter.miss")
    vbf_hits = window.count("vbf.fast_path.hit")
    vbf_checks = vbf_hits + window.count("vbf.fast_path.miss")
    fresh = window.count("isp.validate_path.fresh")
    validations = fresh + window.count("isp.validate_path.page")
    return {
        "client.query.self_ms": _per_op_ms(root_self, queries),
        "client.unattributed_ratio": _ratio(root_self, root_total),
        "cert.verify.ms": span_ms("cert.verify"),
        "cert.verify.calls": calls("cert.verify"),
        "cert.fetch.ms": (
            span_ms("rpc.call.get_certificate")
            + span_ms("isp.get_certificate", parent="client.query")
        ),
        "chain.check_header.ms": span_ms("chain.check_header"),
        "db.parse.ms": span_ms("db.parse"),
        "db.plan.ms": span_ms("db.plan"),
        "db.exec.self_ms": self_ms("db.exec"),
        "db.record_decode.calls": calls("db.record_decode"),
        "pager.read.calls": calls("pager.read"),
        "pager.read.self_ms": self_ms("pager.read"),
        "vfs.access_page.calls": calls("vfs.access_page"),
        "vfs.access_page.self_ms": self_ms("vfs.access_page"),
        "vfs.file_meta.calls": calls("vfs.file_meta"),
        "client.page.requests": _ratio(
            window.count("client.page.requests"), queries),
        "client.check.requests": _ratio(
            window.count("client.check.requests"), queries),
        "cache.inter.hit_ratio": _ratio(inter_hits, inter_lookups),
        "cache.inter.evictions": _ratio(
            window.count("cache.inter.evict"), queries),
        "vbf.hit_ratio": _ratio(vbf_hits, vbf_checks),
        "vbf.check.ms": span_ms("vbf.check"),
        "vbf.decode.ms": span_ms("vbf.decode"),
        "client.session_open.self_ms": self_ms("client.session_open"),
        "client.finalize.self_ms": self_ms("client.finalize"),
        "vo.verify.ms": span_ms("vo.verify"),
        "client.rollbacks": _ratio(window.count("client.rollback"), queries),
        "transport.model_ms": _per_op_ms(model_net_s, queries),
        "rpc.call.calls": calls("rpc.call.*"),
        "rpc.call.ms": rpc_ms,
        "codec.encode.ms": span_ms("codec.encode"),
        "codec.decode.ms": span_ms("codec.decode"),
        "vo.decode.ms": span_ms("vo.decode"),
        "rpc.frame.bytes": _ratio(
            window.count("rpc.frame.encode.bytes"), queries),
        "rpc.wire.ms": max(0.0, rpc_ms - served_ms - codec_ms),
        "rpc.client.retries": _ratio(
            window.count("rpc.client.retries"), queries),
        "isp.open_session.ms": span_ms("isp.open_session"),
        "isp.get_page.ms": span_ms("isp.get_page"),
        "isp.get_page.calls": calls("isp.get_page"),
        "isp.get_file_meta.ms": span_ms("isp.get_file_meta"),
        "isp.validate_path.ms": span_ms("isp.validate_path"),
        "isp.validate_path.fresh_ratio": _ratio(fresh, validations),
        "isp.finalize.ms": span_ms("isp.finalize"),
        "vo.build.ms": span_ms("vo.build"),
        "vo.pages": window.histogram_mean("isp.vo.pages"),
        "vo.nodes": window.histogram_mean("isp.vo.nodes"),
        "ads.get_page.ms": span_ms("ads.get_page"),
        "ads.gen_read_proof.ms": span_ms("ads.gen_read_proof"),
        "store.get.calls": calls("store.get"),
    }


def update_layers(
    totals: LayerTotals, window: RegistryWindow, updates: int
) -> Dict[str, float]:
    """Block pipeline layers, per ``advance_block``."""
    def span_ms(name):
        return _per_op_ms(totals.select(name, "update")[1], updates)

    return {
        "chain.generate.ms": span_ms("chain.generate"),
        "dcert.certify.ms": span_ms("dcert.certify"),
        "ci.process_blocks.self_ms": _per_op_ms(
            totals.select("ci.process_blocks", "update")[2], updates),
        "ci.pages.read": _ratio(window.count("ci.pages.read"), updates),
        "ci.pages.written": _ratio(window.count("ci.pages.written"), updates),
        "sgx.ocall.calls": _ratio(window.count("sgx.ocall"), updates),
        "sgx.model_ms": _per_op_ms(
            window.count("sgx.ocall.overhead_s"), updates),
        "isp.sync_update.ms": span_ms("isp.sync_update"),
        "ads.apply_writes.ms": span_ms("ads.apply_writes"),
        "ads.prune.ms": span_ms("ads.prune"),
        "store.put.calls": _ratio(
            totals.select("store.put", "update")[0], updates),
    }


def serve_layers(
    totals: LayerTotals, window: RegistryWindow, sessions: int
) -> Dict[str, float]:
    """Server-subprocess layers, per session."""
    def span_ms(name):
        return _per_op_ms(totals.select(name)[1], sessions)

    def calls(name):
        return _ratio(totals.select(name)[0], sessions)

    return {
        "codec.encode.ms": span_ms("codec.encode"),
        "codec.decode.ms": span_ms("codec.decode"),
        "rpc.frame.bytes": _ratio(
            window.count("rpc.frame.encode.bytes"), sessions),
        "isp.open_session.ms": span_ms("isp.open_session"),
        "isp.get_page.ms": span_ms("isp.get_page"),
        "isp.get_page.calls": calls("isp.get_page"),
        "isp.get_file_meta.ms": span_ms("isp.get_file_meta"),
        "isp.validate_path.ms": span_ms("isp.validate_path"),
        "isp.finalize.ms": span_ms("isp.finalize"),
        "vo.build.ms": span_ms("vo.build"),
        "vo.pages": window.histogram_mean("isp.vo.pages"),
        "vo.nodes": window.histogram_mean("isp.vo.nodes"),
        "ads.get_page.ms": span_ms("ads.get_page"),
        "ads.gen_read_proof.ms": span_ms("ads.gen_read_proof"),
        "store.get.calls": calls("store.get"),
        "serve.batch.size_mean": window.histogram_mean("serve.batch.size"),
        # Share of a batch's node reads served by its shared traversal
        # memo instead of the node store.
        "serve.batch.node_hit_ratio": _ratio(
            window.count("isp.batch.node_hits"),
            window.count("isp.batch.node_hits")
            + totals.select("store.get")[0]),
        "serve.loop.lag_p99_ms": 1e3 * stats.histogram_quantile(
            window.histograms.get("serve.loop.lag_s"), 0.99),
        "serve.shed": window.count("rpc.server.shed"),
    }
