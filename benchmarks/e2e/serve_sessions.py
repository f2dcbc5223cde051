"""``serve_sessions``: open-loop sessions against the ISP in a subprocess.

The ISP's own users are independent clients, so the honest load is an
open loop: seeded Poisson arrivals at :data:`RATE` sessions/s, each
session ``open_session`` → :data:`PAGES_PER_SESSION` ``get_page``
(window :data:`WINDOW`) → ``finalize_session``, multiplexed by one
generator thread over :data:`CONNECTIONS` connections.  The client
engine and proof verification do no work inside the window; all time is
codec, event loop, worker pool, same-tick batching, ISP session and VO
build.  Once both sides are built, generator, server and an
idle-priority spinner share one vCPU (awake.py), and the generator's
idle-time speed probes scale the latencies to the reference CPU speed
(speed.py).

The runner builds its own copy of the system (same seed, same
``PYTHONHASHSEED``) while the server builds its, checks both arrived at
the same ADS root, and uses the copy as the oracle: every page reply
must equal the expected reply byte for byte, and the VOs of every 16th
session are verified against the certificate root after the window.
"""

from __future__ import annotations

import bisect
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import layers
import open_loop
import recipe
import stats
import tracing
from awake import VcpuKeeper, last_cpu, pin_to_cpu
from spec import RunOutcome
from speed import NOMINAL_PROBE_S, ScaledStopwatch, SpeedMeter
from repro.crypto.hashing import hash_bytes
from repro.merkle.ads import V2fsAds
from repro.rpc import codec

RATE = 100.0
HI_RATE = 250.0
PAGES_PER_SESSION = 16
WINDOW = 8
CONNECTIONS = 2
WARMUP_S = 1.0
KEEP_VO_EVERY = 16

_HERE = pathlib.Path(__file__).resolve().parent


class ServerProcess:
    """``serve_proc.py`` as a child; killed on every exit path."""

    def __init__(self, seed: int, hours: int, work_dir: pathlib.Path,
                 cpu: Optional[int]) -> None:
        work_dir.mkdir(parents=True, exist_ok=True)
        tag = f"{os.getpid()}"
        self.port_file = work_dir / f"serve_proc.{tag}.port.json"
        self.stats_file = work_dir / f"serve_proc.{tag}.stats.json"
        for stale in (self.port_file, self.stats_file):
            stale.unlink(missing_ok=True)
        self.process = subprocess.Popen(
            [sys.executable, str(_HERE / "serve_proc.py"),
             "--seed", str(seed), "--hours", str(hours),
             "--port-file", str(self.port_file),
             "--stats-file", str(self.stats_file)]
            + ([] if cpu is None else ["--cpu", str(cpu)]),
            env=dict(os.environ),  # carries PYTHONHASHSEED
        )
        self.info: Dict[str, object] = {}

    def wait_ready(self, timeout_s: float = 120.0) -> None:
        self.info = self._await_json(self.port_file, timeout_s)

    def _await_json(self, path: pathlib.Path, timeout_s: float) -> dict:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if path.exists():
                with open(path, encoding="utf-8") as handle:
                    return json.load(handle)
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"serve_proc exited with {self.process.returncode}"
                )
            time.sleep(0.02)
        raise RuntimeError(f"serve_proc did not write {path.name}")

    def address(self, flavor: str) -> Tuple[str, int]:
        host, port = self.info[flavor]
        return host, port

    def _signal_and_await_stats(self, signum: int) -> dict:
        self.stats_file.unlink(missing_ok=True)
        self.process.send_signal(signum)
        document = self._await_json(self.stats_file, 60.0)
        self.stats_file.unlink()
        return document

    def begin_trace(self) -> None:
        """Returns once the server has its span wrappers installed."""
        self._signal_and_await_stats(signal.SIGUSR1)

    def end_trace(self) -> dict:
        """Wrappers removed; spans, aggregates and registry snapshots."""
        return self._signal_and_await_stats(signal.SIGUSR2)

    def stop(self) -> dict:
        """SIGTERM, wait, and return the final stats document."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.kill()
        final: dict = {}
        if self.stats_file.exists():
            with open(self.stats_file, encoding="utf-8") as handle:
                final = json.load(handle)
        self.cleanup()
        return final

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()

    def cleanup(self) -> None:
        self.kill()
        for leftover in (self.port_file, self.stats_file):
            leftover.unlink(missing_ok=True)


class SessionWindow:
    """Outcome of one open-loop window (oracle already applied)."""

    #: Idle probes on each side of a session that set its speed factor.
    NEIGHBOURS = 8

    def __init__(self, result: open_loop.LoadResult, seconds: float,
                 after_s: float = 0.0) -> None:
        self.result = result
        self.seconds = seconds
        #: Sessions due before ``after_s`` are warm-up: run, not scored.
        self.records = [r for r in result.records if r.due >= after_s]
        self._probe_at = [at for at, _ in result.idle_probes]
        self._probe_s = [taken for _, taken in result.idle_probes]
        correct = [r for r in self.records if r.ok]
        self.raw_latencies_s = [r.latency_s for r in correct]
        #: Per correct session, scaled to the reference CPU speed.
        self.latencies_s = [r.latency_s * self._scale(r.due)
                            for r in correct]
        self.failures = [
            f"session {r.index}: {r.error or 'never completed'}"
            for r in self.records if not r.ok
        ]
        self.attempted = len(self.records)
        self.failed = len(self.failures)

    def _scale(self, at: float) -> float:
        """Reference-speed multiplier from the idle probes around ``at``
        (1.0 if the generator never found an idle moment)."""
        if not self._probe_s:
            return 1.0
        middle = bisect.bisect_left(self._probe_at, at)
        near = self._probe_s[max(0, middle - self.NEIGHBOURS):
                             middle + self.NEIGHBOURS]
        return NOMINAL_PROBE_S / (sum(near) / len(near))

    def late_s(self) -> List[float]:
        return [r.sent_at - r.due for r in self.records
                if r.sent_at is not None]

    def shed_sessions(self) -> int:
        return sum(1 for r in self.records if r.sheds)

    def troubled_ratio(self) -> float:
        """Sessions that failed or had a request shed / sessions."""
        troubled = sum(1 for r in self.records if r.sheds or not r.ok)
        return troubled / self.attempted if self.attempted else 0.0


class ServeRun:
    def __init__(self, seed: int, hours: int,
                 work_dir: pathlib.Path) -> None:
        self.seed = seed
        self.meter = SpeedMeter()
        setup = ScaledStopwatch(self.meter)
        cpu = last_cpu()
        self.server = ServerProcess(seed, hours, work_dir, cpu)
        try:
            system = recipe.build_system(seed, hours, setup)
            with setup:
                self.root = system.isp.root
                self.population = recipe.page_population(system)
                ads = system.isp.ads
                self.pages = [ads.get_page(self.root, path, page_id)
                              for path, page_id in self.population]
                self.expected_replies = [codec.encode_page(page)
                                         for page in self.pages]
                self.server.wait_ready()
            if self.server.info["ads_root"] != self.root.hex():
                raise RuntimeError(
                    "server and runner built different databases: "
                    f"{self.server.info['ads_root'][:16]} vs "
                    f"{self.root.hex()[:16]} (is PYTHONHASHSEED pinned?)"
                )
        except BaseException:
            self.server.cleanup()
            raise
        #: Both builds (they overlap) + server start, at reference speed.
        self.setup_s = setup.scaled_s
        self.failures: List[str] = []
        # From here on generator, server and keeper share one vCPU.
        pin_to_cpu(cpu)

    # -- windows ------------------------------------------------------------

    def window(self, rate: float, seconds: float, salt: int,
               flavor: str = "async", warmup_s: float = 0.0,
               must_pass: bool = True) -> SessionWindow:
        """One open-loop window.  ``must_pass=False`` marks a probe that
        is expected to shed (its failures do not fail the run)."""
        rng = random.Random(self.seed * 1_000_003 + salt)
        # Warm-up and window are planned apart, so the scored window
        # holds exactly rate * seconds sessions whatever the seed.
        plans = [
            plan
            for start_s, length_s in ((0.0, warmup_s), (warmup_s, seconds))
            for plan in open_loop.plan_sessions(
                rng, rate, start_s, length_s, len(self.population),
                PAGES_PER_SESSION,
            )
        ]
        result = open_loop.run_open_loop(
            self.server.address(flavor), plans, self.population,
            self.expected_replies, connections=CONNECTIONS, window=WINDOW,
            pipelined=(flavor == "async"),
            drain_s=min(10.0, 2.0 + seconds), keep_vo_every=KEEP_VO_EVERY,
            idle_probe=self.meter.probe,
        )
        self._verify_sampled_vos(result.records, plans)
        scored = SessionWindow(result, seconds, after_s=warmup_s)
        if must_pass:
            self.failures += scored.failures
        return scored

    def _verify_sampled_vos(self, records: Sequence[open_loop.SessionRecord],
                            plans: Sequence[open_loop.SessionPlan]) -> None:
        """Decode each kept VO and check it proves the session's pages;
        a VO that does not fails its session."""
        for record in records:
            if record.vo_payload is None or record.error is not None:
                continue
            claims = {
                self.population[page]: hash_bytes(self.pages[page])
                for page in plans[record.index].pages
            }
            try:
                _, proof = codec.decode_response(record.vo_payload)
                V2fsAds.verify_read_proof(proof, self.root, claims)
            except Exception as error:  # whatever it is, the VO is bad
                record.error = f"VO rejected: {type(error).__name__}"

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, scored: SessionWindow,
                   server_stats: dict) -> Dict[str, float]:
        latencies = scored.latencies_s
        sessions = len(scored.result.records)  # warm-up included
        return {
            "setup_s": self.setup_s,
            "op_p50_ms": 1e3 * stats.median(latencies),
            "ops_per_s": len(latencies) / scored.seconds,
            "vo_bytes_per_op": (
                sum(r.vo_size for r in scored.records) / len(scored.records)
            ),
            "net_requests_per_op": scored.result.frames_sent / sessions,
            "net_bytes_per_op": (
                (scored.result.bytes_sent + scored.result.bytes_received)
                / sessions
            ),
            "peak_rss_mb": server_stats["peak_rss_mb"],
        }


def run(
    seed: int, seconds: float, trace: bool, hours: int,
    work_dir: pathlib.Path, spans_path: Optional[str] = None,
) -> RunOutcome:
    serve = ServeRun(seed, hours, work_dir)
    try:
        with VcpuKeeper():
            return _measure(serve, seconds, trace, spans_path)
    finally:
        serve.server.cleanup()


def _measure(serve: ServeRun, seconds: float, trace: bool,
             spans_path: Optional[str]) -> RunOutcome:
    main = serve.window(RATE, seconds, salt=0, warmup_s=WARMUP_S)
    attempted, failed = main.attempted, main.failed
    if not trace:
        metrics = serve.end_to_end(main, serve.server.stop())
        notes = [
            serve.meter.note(stats.median(main.raw_latencies_s))
            + f", sessions shed and retried: {main.shed_sessions()}"
        ]
        return RunOutcome(metrics, attempted, failed, serve.failures, notes)
    serve.server.begin_trace()
    traced = serve.window(RATE, seconds / 2, salt=1)
    server_trace = serve.server.end_trace()
    hi = serve.window(HI_RATE, seconds / 2, salt=2, must_pass=False)
    threaded = serve.window(RATE, seconds / 3, salt=3,
                            flavor="threaded")
    sat = open_loop.closed_loop_pages_per_s(
        serve.server.address("async"), serve.population, seconds / 3,
        connections=CONNECTIONS, window=WINDOW,
    )
    serve.server.stop()
    for extra in (traced, threaded):
        attempted += extra.attempted
        failed += extra.failed
    aggregates = {
        (op, name, parent): [count, total, child]
        for op, name, parent, count, total, child
        in server_trace["trace"]["aggregates"]
    }
    totals = tracing.LayerTotals(aggregates, {})
    window = layers.RegistryWindow(
        server_trace["registry_begin"], server_trace["registry_end"]
    )
    metrics = layers.serve_layers(totals, window, traced.attempted)
    late = main.late_s()
    metrics.update({
        "serve.session_p95_ms": 1e3 * stats.percentile_or_zero(
            main.latencies_s, 0.95),
        "serve.session_p99_ms": 1e3 * stats.percentile_or_zero(
            main.latencies_s, 0.99),
        "serve.hi.session_p50_ms": 1e3 * stats.median(hi.latencies_s),
        "serve.hi.session_p99_ms": 1e3 * stats.percentile_or_zero(
            hi.latencies_s, 0.99),
        "serve.hi.fail_ratio": hi.troubled_ratio(),
        "serve.threaded.session_p50_ms": 1e3 * stats.median(
            threaded.latencies_s),
        "serve.sat_pages_per_s": sat,
        "loadgen.late_p99_ms": 1e3 * stats.percentile_or_zero(late, 0.99),
        "trace.overhead_ratio": (
            stats.median(traced.latencies_s)
            / stats.median(main.latencies_s)
            if main.latencies_s else 0.0
        ),
        "op.p90_ms": 1e3 * stats.percentile_or_zero(
            main.latencies_s, 0.90),
        "op.wall_p50_ms": 1e3 * stats.median(main.raw_latencies_s),
        "speed.factor_p50": serve.meter.factor_p50(),
    })
    if spans_path is not None:
        by_session = {
            tracing.session_op(r.session_id): f"s{r.index}"
            for r in traced.records if r.session_id is not None
        }
        zero = traced.result.started_at  # same clock as the server's
        client_spans = [
            (f"s{r.index}", "session", None, zero + r.due,
             zero + r.done_at, "loadgen")
            for r in traced.records if r.done_at is not None
        ]
        server_spans = [
            (by_session.get(op, op), name, parent, start, end, thread)
            for op, name, parent, start, end, thread
            in server_trace["trace"]["spans"]
        ]
        tracing.write_spans_jsonl(spans_path,
                                  client_spans + server_spans)
    return RunOutcome(metrics, attempted, failed, serve.failures)
