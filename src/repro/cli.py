"""Command-line interface: ``python -m repro <command>``.

Four commands cover the zero-to-aha path:

* ``demo`` — assemble the full five-party system, run a verified
  multi-chain query, and show a tampering ISP being rejected;
* ``query`` — run ad-hoc SQL under a chosen cache mode, printing the
  verification cost profile; against a freshly built local system by
  default, or against a remote ISP with ``--connect host:port``;
* ``serve`` — build a system and serve its ISP over TCP to remote
  verifying clients (the paper's separate-machine testbed topology);
* ``fleet`` — serve the same system as a sharded, replicated fleet:
  N shard primaries + R read replicas behind a proof-stitching router
  (:mod:`repro.fleet`) that unmodified clients verify against;
* ``experiment`` — regenerate one of the paper's tables/figures by name;
* ``chaos`` — run the seeded fault-injection/recovery harness
  (:mod:`repro.faults.chaos`) and print its counters;
* ``metrics`` — inspect the :mod:`repro.obs` layer: list the scope
  catalog, validate an exported document, or run a small instrumented
  workload and dump its counters;
* ``lint`` — run the :mod:`repro.analysis` invariant checker over the
  source tree (``--strict`` is the CI gate).

``chaos --layer concurrent`` is the concurrency stress run: it serves a
live-ingesting ISP to concurrent RPC clients with the
:mod:`repro.sanitize` lock-order checker armed and fails on any
lock-order report or client error.

``serve`` and ``fleet`` accept ``--fault-schedule``/``--fault-seed`` to
arm named failpoints (e.g.
``--fault-schedule 'rpc.server.drop=raise@p:0.1'``); ``chaos`` takes the
schedule only, because each chaos seed reseeds the registry.  ``query``,
``serve``, ``chaos``, ``experiment``, and ``metrics`` accept
``--metrics-out FILE`` to export the process-wide metrics registry as
JSON on exit.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import threading
from typing import List, Optional

#: Set by tests (or signal handlers) to make a running ``serve`` return.
_serve_shutdown = threading.Event()

EXPERIMENTS = {
    "table1": "repro.experiments.table1",
    "table2": "repro.experiments.table2",
    "fig8": "repro.experiments.fig8",
    "fig9to11": "repro.experiments.fig9to11",
    "fig12": "repro.experiments.fig12",
    "fig13": "repro.experiments.fig13",
    "fig14to16": "repro.experiments.fig14to16",
    "fig17": "repro.experiments.fig17",
}


def _build_system(hours: int, txs_per_block: int):
    from repro.core.system import SystemConfig, V2FSSystem

    print(f"building system: {hours}h of history, "
          f"{txs_per_block} txs/block ...", file=sys.stderr)
    system = V2FSSystem(SystemConfig(txs_per_block=txs_per_block))
    system.advance_all(hours)
    return system


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.client.vfs import QueryMode
    from repro.errors import ReproError

    system = _build_system(args.hours, args.txs_per_block)
    client = system.make_client(QueryMode.INTER_VBF)
    sql = (
        "SELECT COUNT(*) AS txs, SUM(fee) FROM btc_transactions "
        "UNION ALL SELECT COUNT(*), SUM(gas_used) FROM eth_transactions"
    )
    result = client.query(sql)
    print("verified multi-chain query:")
    for (count, total), chain in zip(result.rows, ("btc", "eth")):
        print(f"  {chain}: {count} transactions, aggregate {total}")
    print(f"  VO {result.stats.vo_bytes}B, "
          f"latency {result.stats.latency_s * 1000:.1f}ms")
    honest = system.isp.get_page

    def tampering(session_id, path, page_id):
        page = honest(session_id, path, page_id)
        if path.endswith(".tbl"):
            page = page[:-1] + bytes([page[-1] ^ 0xFF])
        return page

    system.isp.get_page = tampering
    try:
        system.make_client(QueryMode.BASELINE).query(
            "SELECT COUNT(*) FROM eth_transactions"
        )
        print("!!! tampering went unnoticed")
        return 1
    except ReproError as error:
        print(f"tampering ISP rejected: {type(error).__name__}")
    return 0


def _parse_address(text: str) -> "tuple[str, int]":
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--connect expects host:port, got {text!r}")
    return host, int(port)


def _write_metrics(args: argparse.Namespace) -> None:
    """Export the process-wide registry if ``--metrics-out`` was given."""
    path = getattr(args, "metrics_out", None)
    if path:
        from repro.obs import REGISTRY

        REGISTRY.write_json(path)
        print(f"metrics written to {path}", file=sys.stderr)


def cmd_query(args: argparse.Namespace) -> int:
    from repro.client.vfs import QueryMode

    if args.connect:
        from repro.errors import RpcError
        from repro.rpc import connect_client

        host, port = _parse_address(args.connect)
        print(f"connecting to ISP at {host}:{port} ...", file=sys.stderr)
        try:
            client = connect_client(host, port, mode=QueryMode(args.mode))
        except RpcError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        system = _build_system(args.hours, args.txs_per_block)
        client = system.make_client(QueryMode(args.mode))
    sql = args.sql if args.sql else sys.stdin.read()
    result = client.query(sql)
    if result.columns:
        print("  ".join(result.columns))
    for row in result.rows:
        print("  ".join(str(v) for v in row))
    stats = result.stats
    print(
        f"-- verified: {stats.page_requests} page requests, "
        f"{stats.check_requests} checks, VO {stats.vo_bytes}B, "
        f"latency {stats.latency_s * 1000:.1f}ms",
        file=sys.stderr,
    )
    _write_metrics(args)
    return 0


def _arm_faults(args: argparse.Namespace) -> None:
    """Arm the ``--fault-schedule`` (if any) with the ``--fault-seed``."""
    if getattr(args, "fault_schedule", None):
        from repro.faults import registry as faults
        from repro.faults.chaos import apply_schedule

        faults.seed(args.fault_seed)
        armed = apply_schedule(args.fault_schedule)
        print(f"armed failpoints: {', '.join(armed)}", file=sys.stderr)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.rpc import serve_system

    system = _build_system(args.hours, args.txs_per_block)
    _arm_faults(args)
    if args.use_async:
        from repro.serve import AsyncIspServer

        server = serve_system(
            system, host=args.host, port=args.port,
            server_class=AsyncIspServer,
        )
        server.workers = args.serve_workers
    else:
        server = serve_system(system, host=args.host, port=args.port)
    _serve_shutdown.clear()
    with server:
        host, port = server.address
        flavor = "async " if args.use_async else ""
        print(f"serving ISP ({flavor}server) at {host}:{port} "
              f"(query with: python -m repro query --connect {host}:{port})",
              flush=True)
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{host}:{port}\n")
        try:
            _serve_shutdown.wait(timeout=args.serve_for)
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
    _write_metrics(args)
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Launch N shards + R replicas + a proof-stitching router."""
    from repro.fleet.lifecycle import Fleet

    if args.chaos is not None:
        # Failure-domain mode: run the named chaos scenario against a
        # freshly built fleet instead of serving one.
        from repro.faults.chaos import run_fleet_chaos

        scenario = None if args.chaos == "default" else args.chaos
        print(
            f"fleet chaos scenario {args.chaos!r}: "
            f"{args.shards} shard(s), {args.replicas} replica(s), "
            f"{args.chaos_steps} step(s), seed {args.fault_seed}",
            flush=True,
        )
        try:
            stats = run_fleet_chaos(
                args.fault_seed,
                steps=args.chaos_steps,
                shard_count=args.shards,
                replicas=args.replicas,
                schedule=args.fault_schedule,
                scenario=scenario,
            )
        except AssertionError as error:
            print(f"INVARIANT VIOLATED: {error}", file=sys.stderr)
            return 1
        print(f"  {stats.as_dict()}")
        print("all invariants held")
        _write_metrics(args)
        return 0

    system = _build_system(args.hours, args.txs_per_block)
    _arm_faults(args)
    fleet = Fleet(
        system,
        shard_count=args.shards,
        replicas=args.replicas,
        strategy=args.strategy,
        host=args.host,
    )
    _serve_shutdown.clear()
    with fleet:
        host, port = fleet.router_address
        print(
            f"fleet router at {host}:{port} — {args.shards} shard(s), "
            f"{args.replicas} replica(s), {args.strategy} partitioning "
            f"(query with: python -m repro query --connect {host}:{port})",
            flush=True,
        )
        for shard_id in sorted(fleet.shards):
            shard_host, shard_port = \
                fleet._shard_servers[shard_id].address
            labels = [label for label, _ in fleet.replicas[shard_id]]
            extra = f" (+ replicas: {', '.join(labels)})" if labels else ""
            print(f"  shard {shard_id}: {shard_host}:{shard_port}{extra}",
                  file=sys.stderr)
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{host}:{port}\n")
        try:
            _serve_shutdown.wait(timeout=args.serve_for)
        except KeyboardInterrupt:
            print("shutting down fleet", file=sys.stderr)
    _write_metrics(args)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    module = importlib.import_module(EXPERIMENTS[args.name])
    results = module.run()
    print(module.render(results))
    _write_metrics(args)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import (
        run_concurrent_chaos,
        run_fleet_chaos,
        run_pager_chaos,
        run_system_chaos,
    )

    failures = 0
    for seed in args.seeds:
        print(f"== chaos seed {seed} ==")
        try:
            if args.layer in ("system", "all"):
                stats = run_system_chaos(
                    seed,
                    steps=args.steps,
                    schedule=args.fault_schedule,
                    use_rpc=not args.no_rpc,
                )
                print(f"  system: {stats.as_dict()}")
            if args.layer in ("pager", "all"):
                stats = run_pager_chaos(seed, steps=args.steps)
                print(f"  pager:  {stats.as_dict()}")
            if args.layer in ("fleet", "all"):
                stats = run_fleet_chaos(
                    seed,
                    steps=min(args.steps, 60),
                    schedule=args.fault_schedule,
                    scenario=args.scenario,
                )
                print(f"  fleet:  {stats.as_dict()}")
            if args.layer in ("concurrent", "all"):
                res = run_concurrent_chaos(seed)
                print(f"  concurrent: queries_ok={res['queries_ok']} "
                      f"reports={len(res['reports'])}")
                if res["client_errors"] or res["reports"]:
                    failures += 1
                    for line in res["client_errors"] + res["reports"]:
                        print(f"  {line}", file=sys.stderr)
        except AssertionError as error:
            failures += 1
            print(f"  INVARIANT VIOLATED: {error}", file=sys.stderr)
    _write_metrics(args)
    if failures:
        print(f"{failures} seed(s) violated invariants", file=sys.stderr)
        return 1
    print("all invariants held")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import REGISTRY, SCOPES, validate_payload

    if args.list:
        width = max(len(name) for name in SCOPES)
        for name in sorted(SCOPES):
            print(f"{name.ljust(width)}  {SCOPES[name]}")
        return 0
    if args.validate:
        import json

        with open(args.validate, encoding="utf-8") as handle:
            payload = json.load(handle)
        problems = validate_payload(payload)
        if problems:
            for problem in problems:
                print(f"invalid: {problem}", file=sys.stderr)
            return 1
        print(f"{args.validate}: valid "
              f"({len(payload.get('counters', {}))} counters)")
        return 0
    # Default: run one small instrumented workload, dump the counters.
    from repro.client.vfs import QueryMode

    system = _build_system(args.hours, args.txs_per_block)
    client = system.make_client(QueryMode(args.mode))
    client.query("SELECT COUNT(*) FROM eth_transactions")
    client.query("SELECT COUNT(*), SUM(fee) FROM btc_transactions")
    payload = REGISTRY.payload()
    width = max(len(name) for name in payload["counters"] or [""])
    for name, value in sorted(payload["counters"].items()):
        shown = int(value) if float(value).is_integer() else value
        print(f"{name.ljust(width)}  {shown}")
    if args.trace_out:
        REGISTRY.trace.write_jsonl(args.trace_out)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    _write_metrics(args)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run

    return run(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="V2FS (ICDE 2024) reproduction command line",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="end-to-end demo")
    demo.add_argument("--hours", type=int, default=4)
    demo.add_argument("--txs-per-block", type=int, default=8)
    demo.set_defaults(handler=cmd_demo)

    query = commands.add_parser(
        "query", help="run ad-hoc verified SQL on a fresh system"
    )
    query.add_argument("sql", nargs="?", help="SQL text (or stdin)")
    query.add_argument("--hours", type=int, default=6,
                       help="hours of chain history to ingest")
    query.add_argument("--txs-per-block", type=int, default=8)
    query.add_argument(
        "--mode", default="inter+vbf",
        choices=["baseline", "intra", "inter", "inter+vbf"],
    )
    query.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="query a remote ISP served by 'repro serve' instead of "
             "building a local system",
    )
    query.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write the metrics registry as JSON on exit")
    query.set_defaults(handler=cmd_query)

    serve = commands.add_parser(
        "serve", help="serve a freshly built system's ISP over TCP"
    )
    serve.add_argument("--hours", type=int, default=6,
                       help="hours of chain history to ingest")
    serve.add_argument("--txs-per-block", type=int, default=8)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound host:port to this file")
    serve.add_argument("--async", dest="use_async", action="store_true",
                       help="serve from the event-loop server "
                            "(pipelining + batched proof generation) "
                            "instead of a thread per connection")
    serve.add_argument("--serve-workers", type=int, default=8,
                       help="worker threads for the --async server")
    serve.add_argument("--serve-for", type=float, default=None,
                       help="stop after this many seconds (default: "
                            "serve until interrupted)")
    serve.add_argument("--fault-schedule", default=None,
                       help="arm failpoints before serving, e.g. "
                            "'rpc.server.drop=raise@p:0.1'")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed for probabilistic fault triggers")
    serve.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write the metrics registry as JSON on exit")
    serve.set_defaults(handler=cmd_serve)

    fleet = commands.add_parser(
        "fleet",
        help="serve a sharded, replicated ISP fleet behind a router",
        description=(
            "Build a system, split it across N shard primaries (each "
            "storing only its partition's pages while reproducing the "
            "full certified root), seed R read replicas through the "
            "replication log, and front everything with a "
            "proof-stitching router speaking the standard wire "
            "protocol.  Unmodified clients verify exactly as against "
            "a single ISP."
        ),
    )
    fleet.add_argument("--hours", type=int, default=6,
                       help="hours of chain history to ingest")
    fleet.add_argument("--txs-per-block", type=int, default=8)
    fleet.add_argument("--shards", type=int, default=4,
                       help="shard primaries (default: 4)")
    fleet.add_argument("--replicas", type=int, default=2,
                       help="read replicas, round-robin across shards")
    fleet.add_argument("--strategy", default="hash",
                       choices=["hash", "range"],
                       help="partitioning strategy")
    fleet.add_argument("--host", default="127.0.0.1")
    fleet.add_argument("--port-file", default=None,
                       help="write the router's host:port to this file")
    fleet.add_argument("--serve-for", type=float, default=None,
                       help="stop after this many seconds (default: "
                            "serve until interrupted)")
    fleet.add_argument("--fault-schedule", default=None,
                       help="arm failpoints before serving, e.g. "
                            "'fleet.replica.lag=raise@p:0.2'")
    fleet.add_argument("--chaos", metavar="SCENARIO", default=None,
                       choices=["default", "netsplit", "kill-primary",
                                "promote-lag"],
                       help="instead of serving, run the named "
                            "failure-domain chaos scenario against a "
                            "fresh fleet and report its invariants")
    fleet.add_argument("--chaos-steps", type=int, default=40,
                       help="steps for --chaos runs")
    fleet.add_argument("--fault-seed", type=int, default=0,
                       help="seed for probabilistic fault triggers")
    fleet.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write the metrics registry as JSON on exit")
    fleet.set_defaults(handler=cmd_fleet)

    experiment = commands.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--metrics-out", metavar="FILE", default=None,
                            help="write the metrics registry as JSON "
                                 "on exit")
    experiment.set_defaults(handler=cmd_experiment)

    chaos = commands.add_parser(
        "chaos", help="run the seeded fault-injection/recovery harness"
    )
    chaos.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3],
                       help="chaos seeds to run (default: 1 2 3)")
    chaos.add_argument("--steps", type=int, default=200,
                       help="steps per seed")
    chaos.add_argument("--layer", default="all",
                       choices=["system", "pager", "fleet",
                                "concurrent", "all"],
                       help="which harness to run")
    chaos.add_argument("--no-rpc", action="store_true",
                       help="skip the RPC transport in system chaos")
    chaos.add_argument("--fault-schedule", default=None,
                       help="override the default fault schedule")
    chaos.add_argument("--scenario", default=None,
                       choices=["netsplit", "kill-primary",
                                "promote-lag"],
                       help="focus the fleet layer on one named "
                            "failure-domain scenario")
    chaos.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write the metrics registry as JSON on exit")
    chaos.set_defaults(handler=cmd_chaos)

    metrics = commands.add_parser(
        "metrics",
        help="inspect the observability layer",
        description=(
            "List the declared metric scopes, validate an exported "
            "metrics document, or (default) run a small instrumented "
            "workload and dump every counter."
        ),
    )
    metrics.add_argument("--list", action="store_true",
                         help="print the scope catalog and exit")
    metrics.add_argument("--validate", metavar="FILE", default=None,
                         help="schema-check an exported metrics JSON "
                              "document; non-zero exit on problems")
    metrics.add_argument("--hours", type=int, default=3,
                         help="hours of history for the sample workload")
    metrics.add_argument("--txs-per-block", type=int, default=4)
    metrics.add_argument(
        "--mode", default="inter+vbf",
        choices=["baseline", "intra", "inter", "inter+vbf"],
    )
    metrics.add_argument("--metrics-out", metavar="FILE", default=None,
                         help="write the metrics registry as JSON")
    metrics.add_argument("--trace-out", metavar="FILE", default=None,
                         help="write buffered trace events as JSON lines")
    metrics.set_defaults(handler=cmd_metrics)

    lint = commands.add_parser(
        "lint",
        help="statically check the V2FS soundness invariants",
        description=(
            "Run the repro.analysis rules over the source tree "
            "(--list-rules names each one and the invariant it guards)."
        ),
    )
    from repro.analysis.cli import configure_parser as _configure_lint

    _configure_lint(lint)
    lint.set_defaults(handler=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
