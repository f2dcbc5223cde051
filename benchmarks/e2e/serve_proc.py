"""The ISP under test, as its own process (``serve_sessions`` workload).

Builds the shared recipe, then serves it from an ``AsyncIspServer`` with
the defaults of ``python -m repro serve --async`` (8 workers,
``max_pending=64``) and — for the same-offered-load comparison — from a
threaded ``RpcIspServer`` on a second port.  Both listen on port 0; the
bound ports, the ADS root and the pid are published in ``--port-file``.
With ``--cpu N`` the serving threads are confined to that CPU (see
``awake.pin_to_cpu``).

Signals drive the traced window (the runner cannot reach in otherwise):

* ``SIGUSR1`` — snapshot the ``repro.obs`` registry, install the
  benchmark's span wrappers, and write ``--stats-file`` as the
  acknowledgement;
* ``SIGUSR2`` — remove the wrappers, snapshot the registry again, and
  write spans + aggregates + both snapshots to ``--stats-file``;
* ``SIGTERM`` / ``SIGINT`` — stop the servers, write ``--stats-file``
  (peak RSS, final registry, any trace taken) and exit 0.

The process also exits on its own when its parent goes away, so no
runner exit path — not even ``kill -9`` of the runner — leaves it
serving.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import sys
import threading
from typing import Any, Dict, List, Optional

_HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parents[1] / "src"))

import awake  # noqa: E402
import recipe  # noqa: E402
from speed import peak_rss_mb  # noqa: E402
import tracing  # noqa: E402
from repro.obs import REGISTRY  # noqa: E402
from repro.rpc import serve_system  # noqa: E402
from repro.serve import AsyncIspServer  # noqa: E402


def write_json_atomically(path: str, document: Dict[str, Any]) -> None:
    temporary = f"{path}.tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(temporary, path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--hours", type=int, default=recipe.HOURS)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--stats-file", required=True)
    parser.add_argument("--cpu", type=int, default=None,
                        help="confine the serving threads to this CPU")
    args = parser.parse_args(argv)

    system = recipe.build_system(args.seed, args.hours)
    # After the build (which runs beside the runner's own), before the
    # server threads exist: they inherit the affinity.
    awake.pin_to_cpu(args.cpu)
    servers = {
        "async": serve_system(system, port=0, server_class=AsyncIspServer),
        "threaded": serve_system(system, port=0),
    }
    pending: List[int] = []
    wake = threading.Event()

    def on_signal(signum, _frame) -> None:
        pending.append(signum)
        wake.set()

    for signum in (signal.SIGUSR1, signal.SIGUSR2, signal.SIGTERM,
                   signal.SIGINT):
        signal.signal(signum, on_signal)

    stats: Dict[str, Any] = {"pythonhashseed":
                             os.environ.get("PYTHONHASHSEED")}
    tracer: Optional[tracing.Tracer] = None
    parent = os.getppid()
    for server in servers.values():
        server.start()
    try:
        write_json_atomically(args.port_file, {
            "pid": os.getpid(),
            "ads_root": system.isp.root.hex(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            **{name: list(server.address)
               for name, server in servers.items()},
        })
        while True:
            wake.wait(timeout=1.0)
            wake.clear()
            if os.getppid() != parent:
                return 0  # orphaned: the runner is gone
            while pending:
                signum = pending.pop(0)
                if signum == signal.SIGUSR1 and tracer is None:
                    stats["registry_begin"] = REGISTRY.payload()
                    tracer = tracing.Tracer()
                    tracer.install(
                        tracing.isp_targets(by_session=True)
                        + tracing.rpc_targets()
                    )
                    write_json_atomically(args.stats_file, stats)
                elif signum == signal.SIGUSR2 and tracer is not None:
                    tracer.uninstall()
                    stats["registry_end"] = REGISTRY.payload()
                    stats["trace"] = tracer.dump()
                    write_json_atomically(args.stats_file, stats)
                    del stats["trace"]  # written once; it is large
                elif signum in (signal.SIGTERM, signal.SIGINT):
                    return 0
    finally:
        for server in servers.values():
            server.stop()
        stats["registry_final"] = REGISTRY.payload()
        stats["peak_rss_mb"] = peak_rss_mb()
        write_json_atomically(args.stats_file, stats)


if __name__ == "__main__":
    sys.exit(main())
