"""End-to-end concurrency stress under the armed lock-order checker.

The serving path (RPC server + ISP + persistent store + metrics) is
hammered by concurrent clients while blocks ingest; armed it must stay
report-free and take its locks only in the order DESIGN §8 declares,
disarmed it must compute the identical end state.  Also covers the
shutdown contract: ``stop()`` joins handler threads instead of
orphaning them, and a failed run still closes the store's log.
"""

import re
import threading
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.faults import chaos
from repro.faults.chaos import run_concurrent_chaos
from repro.rpc.server import RpcIspServer
from repro.sanitize import runtime as san
from repro.serve.server import AsyncIspServer

SMALL = dict(clients=2, queries_per_client=3, ingest_blocks=3)
DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"


def declared_order():
    """The ``(held, acquired)`` lock pairs DESIGN §8's table allows.

    A row whose first cell names a lock lists, in its last cell before
    any parenthetical, the locks it may be acquired while holding.
    """
    section = DESIGN.read_text(encoding="utf-8").split("\n## 8.", 1)[1]
    section = section.split("\n## ", 1)[0]
    edges = set()
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        lock = cells[0].split("`")[1]
        holders = cells[2].split("(", 1)[0]
        edges |= {(held, lock) for held in re.findall(r"`([^`]+)`", holders)}
    return edges


@pytest.fixture(autouse=True)
def _clean_sanitizer():
    san.reset()
    yield
    san.reset()


class TestArmedStress:
    def test_armed_run_is_clean(self, tmp_path):
        result = run_concurrent_chaos(
            11, armed=True, store_path=str(tmp_path / "ads.log"), **SMALL
        )
        assert result["client_errors"] == []
        assert result["reports"] == []
        assert result["queries_ok"] == (
            SMALL["clients"] * SMALL["queries_per_client"]
        )
        assert len(result["final_rows"]) == 4

    def test_disarmed_run_reaches_identical_state(self, tmp_path):
        armed = run_concurrent_chaos(
            23, armed=True, store_path=str(tmp_path / "a.log"), **SMALL
        )
        disarmed = run_concurrent_chaos(
            23, armed=False, store_path=str(tmp_path / "b.log"), **SMALL
        )
        assert disarmed["reports"] == []
        assert armed["final_rows"] == disarmed["final_rows"]
        assert armed["final_rows"]  # non-trivial comparison

    def test_harness_resets_the_sanitizer(self, tmp_path):
        run_concurrent_chaos(
            5, armed=True, store_path=str(tmp_path / "ads.log"), **SMALL
        )
        assert not san.ACTIVE
        assert san.reports() == []
        assert san.order_edges() == set()

    def test_failed_run_closes_the_store(self, tmp_path, monkeypatch):
        from repro.rpc import client as rpc_client

        class SweepFailed(ReproError):
            pass

        built = []
        real_build = chaos._build_durable_system
        real_connect = rpc_client.connect_client

        def build(*args):
            built.append(real_build(*args))
            return built[-1]

        def connect(host, port):
            client = real_connect(host, port)
            # The final sweep runs on the calling thread, after every
            # chaos-client thread has joined.
            if not threading.current_thread().name.startswith("chaos-"):
                def fail(sql):
                    raise SweepFailed(sql)
                client.query = fail
            return client

        monkeypatch.setattr(chaos, "_build_durable_system", build)
        monkeypatch.setattr(rpc_client, "connect_client", connect)
        with pytest.raises(SweepFailed):
            run_concurrent_chaos(
                5, store_path=str(tmp_path / "ads.log"), **SMALL
            )
        assert built[0].isp.ads.store._log.closed
        assert not san.ACTIVE


class TestOrderGraph:
    def test_declared_order_is_acyclic(self):
        graph = {}
        for held, acquired in declared_order():
            graph.setdefault(acquired, set()).add(held)
        assert graph  # the table parsed
        list(TopologicalSorter(graph).static_order())  # CycleError if not

    @pytest.mark.parametrize(
        "server_class", [RpcIspServer, AsyncIspServer],
        ids=["threaded", "async"],
    )
    def test_observed_edges_follow_the_declared_order(
        self, tmp_path, server_class
    ):
        result = run_concurrent_chaos(
            7, store_path=str(tmp_path / "ads.log"),
            server_class=server_class, **SMALL
        )
        assert result["client_errors"] == []
        assert result["reports"] == []
        observed = result["order_edges"]
        # Subset, not equality: obs.registry is only taken when an
        # instrument is first created, which a short run may not do.
        assert observed <= declared_order(), observed - declared_order()
        assert {
            ("rpc.server", "isp.sessions"), ("rpc.server", "store.pages"),
        } <= observed


class TestServerShutdown:
    def test_stop_joins_handler_threads(self):
        from repro.core.system import SystemConfig, V2FSSystem
        from repro.rpc.client import connect_client
        from repro.rpc.server import serve_system

        system = V2FSSystem(SystemConfig(seed=3, txs_per_block=2))
        system.advance_all(1)
        server = serve_system(system)
        with server:
            host, port = server.address
            client = connect_client(host, port)
            client.query("SELECT COUNT(*) FROM eth_transactions")
            with server._conn_lock:
                assert server._threads  # live handler registered
        # stop() swapped the lists out and joined every handler.
        assert server._threads == []
        assert server._connections == []
        leftovers = [
            t for t in threading.enumerate()
            if t.name.startswith("rpc-isp") and t.is_alive()
        ]
        assert leftovers == []

    def test_stop_closes_connections_of_idle_clients(self):
        from repro.core.system import SystemConfig, V2FSSystem
        from repro.rpc.client import connect_client
        from repro.rpc.server import serve_system

        system = V2FSSystem(SystemConfig(seed=4, txs_per_block=2))
        system.advance_all(1)
        server = serve_system(system)
        server.start()
        host, port = server.address
        # Idle connection: bootstrapped but no in-flight request.
        client = connect_client(host, port)
        server.stop()
        assert server._connections == []
        client.isp.close()
