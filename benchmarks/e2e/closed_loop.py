"""The three closed-loop query workloads.

One client issues its next ``QueryClient.query(sql)`` only when the
previous one has returned — the shape of a caller waiting for an
answer.  The loop cycles through a fixed, seeded list of queries until
``--seconds`` of wall time have passed (and at least ``min_ops``
queries have run, so a p90 has its ten samples beyond it).  Every
answer is compared with the oracle outside the timed call.

Counts (VO bytes, round trips, bytes on the wire) are read from the
``repro.obs`` registry after exactly ``count_ops`` timed queries, so
they repeat exactly for a seed however fast the machine is; timings
use every query the window fitted, each scaled to the reference CPU
speed by the probes around it (see speed.py).
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import layers
import recipe
import stats
import tracing
from awake import VcpuKeeper, last_cpu, pin_to_cpu
from spec import RunOutcome
from speed import ScaledStopwatch, SpeedMeter, peak_rss_mb
from repro.client.vfs import QueryMode
from repro.obs import REGISTRY
from repro.rpc import connect_client, serve_system

#: A run is abandoned (unfinished queries counted as failed) when it
#: has taken this many times its nominal window.
GUARD_FACTOR = 3.0

_NET_REQUEST_COUNTERS = (
    "client.cert.requests", "client.meta.requests", "client.page.requests",
    "client.check.requests", "client.vo.requests",
)


@dataclass(frozen=True)
class ClosedLoopWorkload:
    name: str
    mode: QueryMode
    cache_bytes: int
    query_types: Tuple[str, ...]
    per_type: int
    window_hours: float
    #: Untimed queries run first (from the head of the query list).
    warmup: int
    #: Timed queries after which the count metrics are read.
    count_ops: int
    #: Timed queries run even if the window is over (tail percentile).
    min_ops: int
    #: Serve the ISP from a threaded RPC server over loopback.
    rpc: bool = False
    #: ``advance_block`` after every this-many queries (0 = static).
    update_every: int = 0


WORKLOADS: Dict[str, ClosedLoopWorkload] = {
    # 32 Q1 queries over a 3 h window; the warm-up runs all 32 once, so
    # every timed query finds its pages cached and VBF-fresh: latency
    # is the fixed floor (certificate, parse/plan, session, VO).
    "point_static": ClosedLoopWorkload(
        name="point_static", mode=QueryMode.INTER_VBF,
        cache_bytes=1 << 30, query_types=("Q1",), per_type=32,
        window_hours=3, warmup=32, count_ops=32, min_ops=110,
    ),
    # Q1-Q8 x 4 over a 12 h window with every client cache and the VBF
    # bypassed: ~700 page requests per query through B+Tree decode,
    # pager, access_page, ISP and ADS, and a large VO.
    "scan_nocache": ClosedLoopWorkload(
        name="scan_nocache", mode=QueryMode.BASELINE,
        cache_bytes=1 << 30, query_types=recipe.ALL_QUERY_TYPES,
        per_type=4, window_hours=12, warmup=2, count_ops=32, min_ops=110,
    ),
    # Q1-Q8 x 5 over a 12 h window through a real socket, with a
    # 256 KiB cache (64 pages, a third of the database) and a new block
    # after every 10th query: writes beside reads.
    "mixed_live_rpc": ClosedLoopWorkload(
        name="mixed_live_rpc", mode=QueryMode.INTER_VBF,
        cache_bytes=256 * 1024, query_types=recipe.ALL_QUERY_TYPES,
        per_type=5, window_hours=12, warmup=8, count_ops=100, min_ops=110,
        rpc=True, update_every=10,
    ),
}


class _Phase:
    """Samples of one measuring phase of the loop."""

    def __init__(self) -> None:
        #: Per query / update, scaled to the reference CPU speed.
        self.query_s: List[float] = []
        self.update_s: List[float] = []
        #: Per query, as the wall clock read.
        self.raw_query_s: List[float] = []
        self.model_net_s = 0.0
        self.failed = 0
        self.registry_before = REGISTRY.payload()
        self.registry_at_count: Optional[dict] = None
        #: Registry growth that happened inside update operations.
        self.update_windows: List[layers.RegistryWindow] = []


class ClosedLoopRun:
    """Set-up, the loop, and the metrics of one closed-loop workload."""

    def __init__(self, workload: ClosedLoopWorkload, seed: int,
                 hours: int) -> None:
        self.workload = workload
        self.meter = SpeedMeter()
        setup = ScaledStopwatch(self.meter)
        self.system = recipe.build_system(seed, hours, setup)
        self.server = None
        with setup:
            self.queries = recipe.render_queries(
                self.system, random.Random(seed), workload.query_types,
                workload.per_type, workload.window_hours,
            )
            self.oracle = recipe.Oracle(self.system)
            for sql in self.queries:
                self.oracle.expected(sql)
            if workload.rpc:
                self.server = serve_system(self.system).start()
                host, port = self.server.address
                self.client = connect_client(
                    host, port, mode=workload.mode,
                    cache_bytes=workload.cache_bytes,
                )
            else:
                self.client = self.system.make_client(
                    workload.mode, workload.cache_bytes
                )
        self.issued = 0
        self.updates = 0
        self.tracer: Optional[tracing.Tracer] = None
        #: op -> multiplier taking its raw span times to reference speed.
        self.op_scale: Dict[str, float] = {}
        #: Full spans of the last traced window (for the .jsonl dump).
        self.spans: List[tuple] = []
        self.failures: List[str] = []
        warm = _Phase()
        for _ in range(workload.warmup):
            self._one_query(warm)
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {self.failures[:3]}")
        #: Build + oracle + server start + warm-up, at reference speed.
        self.setup_s = setup.scaled_s + sum(warm.query_s)

    def close(self) -> None:
        if self.server is not None:
            self.client.isp.close()
            self.server.stop()
            self.server = None

    # -- one operation ----------------------------------------------------

    def _one_update(self, phase: _Phase) -> None:
        chain_id = ("btc", "eth")[self.updates % 2]
        before = REGISTRY.payload()
        op = f"u{self.updates}"
        if self.tracer is not None:
            self.tracer.begin_op(op, "update")
        probe_before = self.meter.fresh()
        started = time.perf_counter()
        try:
            self.system.advance_block(chain_id)
        finally:
            elapsed = time.perf_counter() - started
            scale = SpeedMeter.scale(probe_before, self.meter.probe())
            self.op_scale[op] = scale
            phase.update_s.append(elapsed * scale)
            if self.tracer is not None:
                self.tracer.end_op()
        self.updates += 1
        phase.update_windows.append(
            layers.RegistryWindow(before, REGISTRY.payload())
        )
        self.oracle.refresh()

    def _one_query(self, phase: _Phase) -> None:
        workload = self.workload
        if (workload.update_every and self.issued
                and self.issued % workload.update_every == 0):
            self._one_update(phase)
        sql = self.queries[self.issued % len(self.queries)]
        op = f"q{self.issued}"
        if self.tracer is not None:
            self.tracer.begin_op(op, "query")
        self.issued += 1
        result = None
        probe_before = self.meter.fresh()
        started = time.perf_counter()
        try:
            result = self.client.query(sql)
        except Exception as error:  # a failed operation, not a crash
            self.failures.append(f"{type(error).__name__}: {error}")
        finally:
            elapsed = time.perf_counter() - started
            scale = SpeedMeter.scale(probe_before, self.meter.probe())
            self.op_scale[op] = scale
            phase.raw_query_s.append(elapsed)
            phase.query_s.append(elapsed * scale)
            if self.tracer is not None:
                self.tracer.end_op()
        if result is None:
            phase.failed += 1
            return
        phase.model_net_s += result.stats.net_s
        if not self.oracle.matches(sql, result.rows):
            phase.failed += 1
            self.failures.append(f"oracle mismatch: {sql[:80]}")

    # -- the loop -----------------------------------------------------------

    def measure(self, seconds: float, min_ops: int,
                count_ops: int = 0) -> _Phase:
        """Run queries for ``seconds`` (and at least ``min_ops``)."""
        phase = _Phase()
        started = time.perf_counter()
        guard = started + GUARD_FACTOR * seconds + 30.0
        while True:
            now = time.perf_counter()
            done = len(phase.query_s)
            if now - started >= seconds and done >= max(min_ops, count_ops):
                break
            if now > guard:
                unfinished = max(min_ops, count_ops) - done
                phase.failed += unfinished
                self.failures.append(
                    f"guard: {unfinished} queries unfinished after "
                    f"{now - started:.0f}s"
                )
                break
            self._one_query(phase)
            if len(phase.query_s) == count_ops:
                phase.registry_at_count = REGISTRY.payload()
        return phase

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, phase: _Phase) -> Dict[str, float]:
        counted = layers.RegistryWindow(
            phase.registry_before,
            # None only when the guard cut the run short (already failed).
            phase.registry_at_count or REGISTRY.payload(),
        )
        ops = self.workload.count_ops
        return {
            "setup_s": self.setup_s,
            "op_p50_ms": 1e3 * stats.median(phase.query_s),
            "ops_per_s": len(phase.query_s) / sum(phase.query_s),
            "vo_bytes_per_op": counted.count("client.vo.bytes") / ops,
            "net_requests_per_op": sum(
                counted.count(name) for name in _NET_REQUEST_COUNTERS
            ) / ops,
            "net_bytes_per_op": counted.count("client.net.bytes") / ops,
            "peak_rss_mb": peak_rss_mb(),
        }

    def traced(self, seconds: float) -> Tuple[Dict[str, float], int, int]:
        """The untraced window again, then a traced half-window.

        Returns (per-layer metrics, queries attempted, queries failed).
        """
        untraced = self.measure(seconds, self.workload.min_ops)
        tracer = self.tracer = tracing.Tracer()
        tracer.install(
            tracing.client_targets() + tracing.isp_targets()
            + tracing.update_targets()
            + (tracing.rpc_targets() if self.workload.rpc else [])
        )
        # serve_system() rebinds isp.sync_update on the instance, out of
        # a class-level wrapper's reach.
        tracer.wrap_attribute(self.system.isp, "sync_update",
                              "isp.sync_update")
        try:
            phase = self.measure(seconds / 2, min_ops=0)
        finally:
            tracer.uninstall()
            self.tracer = None
        self.spans = tracer.spans
        window = layers.RegistryWindow(
            phase.registry_before, REGISTRY.payload()
        )
        update_window = layers.RegistryWindow()
        for piece in phase.update_windows:
            update_window.add_counters(piece)
        totals = tracing.LayerTotals(
            tracer.aggregates(), tracer.op_kinds, self.op_scale
        )
        queries = len(phase.query_s)
        metrics = layers.query_layers(
            totals, window.without_counters(update_window), queries,
            phase.model_net_s,
        )
        metrics.update(layers.update_layers(
            totals, update_window, len(phase.update_s)
        ))
        metrics["update.p50_ms"] = 1e3 * stats.median(phase.update_s)
        metrics["db.plain_query_p50_ms"] = 1e3 * stats.median(
            self.oracle.plain_times_s
        )
        metrics["trace.overhead_ratio"] = (
            stats.median(phase.query_s) / stats.median(untraced.query_s)
            if untraced.query_s else 0.0
        )
        metrics["op.p90_ms"] = 1e3 * stats.percentile_or_zero(
            untraced.query_s, 0.90)
        metrics["op.wall_p50_ms"] = 1e3 * stats.median(untraced.raw_query_s)
        metrics["speed.factor_p50"] = self.meter.factor_p50()
        return (
            metrics,
            len(untraced.query_s) + queries,
            untraced.failed + phase.failed,
        )


def run(
    name: str, seed: int, seconds: float, trace: bool, hours: int,
    spans_path: Optional[str] = None,
) -> RunOutcome:
    workload = WORKLOADS[name]
    # Operations that hand off between sleeping threads run on one vCPU
    # that is kept awake (awake.py); single-threaded loops never sleep.
    if workload.rpc:
        pin_to_cpu(last_cpu())
    with VcpuKeeper() if workload.rpc else contextlib.nullcontext():
        return _run(workload, seed, seconds, trace, hours, spans_path)


def _run(
    workload: ClosedLoopWorkload, seed: int, seconds: float, trace: bool,
    hours: int, spans_path: Optional[str],
) -> RunOutcome:
    loop = ClosedLoopRun(workload, seed, hours)
    try:
        if trace:
            metrics, attempted, failed = loop.traced(seconds)
            if spans_path is not None:
                tracing.write_spans_jsonl(spans_path, loop.spans)
            notes = []
        else:
            phase = loop.measure(seconds, workload.min_ops,
                                 workload.count_ops)
            metrics = loop.end_to_end(phase)
            attempted, failed = len(phase.query_s), phase.failed
            notes = [loop.meter.note(stats.median(phase.raw_query_s))]
    finally:
        loop.close()
    return RunOutcome(metrics, attempted, failed, loop.failures, notes)
