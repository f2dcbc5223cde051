"""Integration tests for the RPC subsystem: the in-process ISP served
over real loopback sockets to concurrent verifying clients.

The centerpiece mirrors the paper's testbed topology: one
:class:`RpcIspServer` serving ≥4 concurrent clients — one per
:class:`QueryMode` — while the CI keeps ingesting blocks, i.e. the MVCC
snapshot-pinning story under real concurrency.  Everything still
verifies, and both transient connection failures and a tampering server
are handled the way the threat model demands.
"""

import socket
import threading
import time

import pytest
from tests.adversary import ALWAYS, MOVES, LyingIsp

from repro.client.query_client import QueryClient
from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.crypto.hashing import hash_bytes
from repro.errors import (
    CertificateError,
    NetworkError,
    ReproError,
    RpcConnectionError,
    RpcTimeoutError,
)
from repro.isp.server import IspServer
from repro.merkle.ads import V2fsAds
from repro.rpc import RemoteIsp, RpcIspServer, connect_client, serve_system
from repro.rpc.client import _ConnectionPool

SQL = "SELECT COUNT(*) FROM eth_transactions"


def build_system(hours=2, txs_per_block=4):
    system = V2FSSystem(SystemConfig(txs_per_block=txs_per_block))
    system.advance_all(hours)
    return system


def remote_client(system, server, mode, **remote_kwargs):
    """A QueryClient whose ISP calls travel over the loopback socket."""
    host, port = server.address
    return QueryClient(
        isp=RemoteIsp(host, port, **remote_kwargs),
        chains=system.chains,
        attestation_report=system.attestation_report,
        attestation_root=system.attestation.root_public_key,
        expected_measurement=system.ci.enclave.measurement,
        mode=mode,
    )


def query_with_retries(client, sql, deadline_s=10.0):
    """Retry around the inherent certificate race with live ingestion.

    A client that validated certificate version N can lose the race to a
    concurrent update; the ISP answers ``open_session`` with a typed
    "superseded" error (or the freshly fetched certificate is already
    stale against observed heads).  Both are transient: refetch, retry.
    The retry budget is time-based — the stale window lasts as long as
    one CI ingest, which stretches arbitrarily on a loaded machine.
    """
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            return client.query(sql)
        except (CertificateError, NetworkError):
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.02)


class TestLoopbackEquivalence:
    def test_remote_matches_in_process(self):
        system = build_system()
        server = serve_system(system)
        with server:
            for mode in QueryMode:
                local = system.make_client(mode)
                remote = remote_client(system, server, mode)
                expected = local.query(SQL)
                actual = remote.query(SQL)
                assert actual.rows == expected.rows
                assert actual.columns == expected.columns
                # The deterministic accounting is shared by both
                # backends, so the paper's metrics agree byte-for-byte.
                assert actual.stats.vo_bytes == expected.stats.vo_bytes
                assert (
                    actual.stats.page_requests
                    == expected.stats.page_requests
                )
                remote.isp.close()

    def test_connect_client_bootstrap(self):
        system = build_system()
        server = serve_system(system)
        with server:
            host, port = server.address
            client = connect_client(host, port, mode=QueryMode.BASELINE)
            result = client.query(SQL)
            assert result.rows == system.make_client(
                QueryMode.BASELINE
            ).query(SQL).rows
            client.isp.close()

    def test_one_query_observes_the_chain_heads_once(self):
        """``fetch_chain_heads`` answers for every chain, so a query
        makes one of them however many chains it checks — and makes it
        again for the next query (heads are never carried over).  A
        warm query under unmoved heads is then exactly heads, session,
        VO: the held certificate is validated, not fetched.  After a
        block a certificate is fetched again."""
        from repro.obs import REGISTRY

        system = build_system()
        assert len(system.chains) == 2
        with serve_system(system) as server:
            client = connect_client(*server.address)
            heads = []
            real = client.isp.fetch_chain_heads
            client.isp.fetch_chain_heads = lambda: heads.append(1) or real()
            try:
                client.query(SQL)  # warm: pages, metadata, filter
                for _ in range(2):
                    del heads[:]
                    before = REGISTRY.counters_snapshot()
                    assert client.query(SQL).rows
                    delta = REGISTRY.counters_delta(before)
                    assert len(heads) == 1
                    assert delta["rpc.client.requests"] == 3
                # A head observed for one query never judges the next
                # certificate: after a block the moved head is seen and
                # a certificate fetched.
                system.advance_block("eth")
                del heads[:]
                before = REGISTRY.counters_snapshot()
                assert client.query(SQL).rows
                delta = REGISTRY.counters_delta(before)
                assert len(heads) == 1
                assert delta["client.cert.requests"] == 1
                # Certificate, heads, session and VO, plus what the
                # moved pages cost.
                moved = sum(delta.get(f"client.{kind}.requests", 0)
                            for kind in ("meta", "page", "check"))
                assert delta["rpc.client.requests"] == 4 + moved
            finally:
                client.isp.close()


    def test_an_answer_is_read_once_per_chain(self):
        from repro.rpc.client import RemoteChainView, _ObservedHeads

        class Remote:
            fetches = 0

            def fetch_chain_heads(self):
                self.fetches += 1
                return {"a": ("a", self.fetches), "b": ("b", self.fetches)}

        remote = Remote()
        heads = _ObservedHeads(remote)
        a, b, gone = (RemoteChainView(heads, c) for c in ("a", "b", "c"))
        assert (a.latest_header(), b.latest_header()) == (("a", 1), ("b", 1))
        # A query that stopped after its first chain left "b" unread:
        # the next query's first read replaces the whole answer.
        assert a.latest_header() == ("a", 2)
        assert (a.latest_header(), b.latest_header()) == (("a", 3), ("b", 3))
        with pytest.raises(RpcConnectionError, match="no longer reports"):
            gone.latest_header()


class TestConcurrentClientsUnderIngestion:
    def test_four_modes_concurrently_while_ci_ingests(self):
        system = build_system()
        server = serve_system(system)
        results = {}
        errors = []

        def worker(mode):
            client = remote_client(system, server, mode)
            try:
                rows = []
                for sql in (
                    SQL,
                    "SELECT COUNT(*) FROM btc_transactions",
                    SQL,
                ):
                    rows.append(query_with_retries(client, sql).rows)
                results[mode] = rows
            except Exception as error:  # surfaced after join
                errors.append((mode, error))
            finally:
                client.isp.close()

        with server:
            threads = [
                threading.Thread(target=worker, args=(mode,))
                for mode in QueryMode
            ]
            for thread in threads:
                thread.start()
            # The CI keeps ingesting while all four clients query.
            for chain_id in ("eth", "btc", "eth"):
                system.advance_block(chain_id)
                time.sleep(0.02)
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()

        assert not errors, f"client failures: {errors}"
        assert set(results) == set(QueryMode)
        for rows in results.values():
            # Every answer is a verified COUNT over a live snapshot;
            # re-querying never observes fewer rows (appends only).
            assert rows[0][0][0] <= rows[2][0][0]

    def test_session_snapshot_survives_update(self):
        """MVCC over the wire: a session opened before an update keeps
        serving — and proving — its pinned snapshot."""
        system = build_system()
        server = serve_system(system)
        with server:
            host, port = server.address
            with RemoteIsp(host, port) as remote:
                certificate = remote.get_certificate()
                session = remote.open_session(certificate.version)
                path = sorted(
                    system.isp.ads.list_files(system.isp.root)
                )[0]
                exists, _size, page_count = remote.get_file_meta(
                    session, path
                )
                assert exists and page_count >= 1
                page_before = remote.get_page(session, path, 0)

                system.advance_block("eth")  # concurrent update

                page_after = remote.get_page(session, path, 0)
                assert page_after == page_before  # pinned snapshot
                vo = remote.finalize_session(session)
                V2fsAds.verify_read_proof(
                    vo,
                    certificate.ads_root,
                    {(path, 0): hash_bytes(page_before)},
                )

    def test_open_session_rejects_superseded_version(self):
        system = build_system()
        server = serve_system(system)
        with server:
            host, port = server.address
            with RemoteIsp(host, port) as remote:
                stale_version = remote.get_certificate().version
                system.advance_block("btc")
                with pytest.raises(NetworkError, match="superseded"):
                    remote.open_session(stale_version)
                # Refetching recovers.
                fresh = remote.get_certificate().version
                assert remote.open_session(fresh) > 0


    def test_serving_again_takes_one_lock_per_update(self):
        """``serve_system`` routes updates through the server's lock.
        Serving one system again must replace that route, not nest
        inside it: otherwise every update takes every earlier (stopped)
        server's lock too, and the closures keep those servers alive."""
        system = build_system(hours=1, txs_per_block=2)
        entered = []

        class Recording:
            def __init__(self, server):
                self.server, self.lock = server, server.lock

            def __enter__(self):
                entered.append(self.server)
                return self.lock.__enter__()

            def __exit__(self, *exc_info):
                return self.lock.__exit__(*exc_info)

        servers = []
        for _ in range(3):
            with serve_system(system) as server:
                servers.append(server)
        for server in servers:
            server.lock = Recording(server)
        system.advance_block("eth")
        assert entered == servers[-1:]


class FlakyServer(RpcIspServer):
    """Drops the connection instead of answering, ``failures`` times."""

    def __init__(self, *args, failures=2, **kwargs):
        super().__init__(*args, **kwargs)
        self._remaining_failures = failures

    def _wire(self, payload, frame_id):
        if self._remaining_failures > 0:
            self._remaining_failures -= 1
            return b"", True  # nothing on the wire, then the drop
        return super()._wire(payload, frame_id)


class BarrierServer(RpcIspServer):
    """Answers nothing until ``parties`` requests are in flight at once."""

    def __init__(self, *args, parties, **kwargs):
        super().__init__(*args, **kwargs)
        self.barrier = threading.Barrier(parties, timeout=10.0)

    def _wire(self, payload, frame_id):
        self.barrier.wait()
        return super()._wire(payload, frame_id)


class TestReliability:
    def test_pool_closes_the_connections_it_does_not_keep(self):
        """More calls in flight than the pool keeps idle: each one past
        ``SIZE`` closes its connection on release (a socket left to the
        collector fails the test, tests/conftest.py)."""
        calls = _ConnectionPool.SIZE + 2
        with BarrierServer(IspServer(), parties=calls) as server:
            remote = RemoteIsp(*server.address, timeout_s=10.0)
            pingers = [
                threading.Thread(target=remote.ping) for _ in range(calls)
            ]
            for pinger in pingers:
                pinger.start()
            for pinger in pingers:
                pinger.join(timeout=10.0)
                assert not pinger.is_alive()
            assert len(remote._pool._idle) == _ConnectionPool.SIZE
            remote.close()

    def test_connection_refused_raises_typed_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        remote = RemoteIsp(
            "127.0.0.1", free_port,
            timeout_s=0.5, max_retries=2, backoff_s=0.01,
        )
        with pytest.raises(RpcConnectionError):
            remote.get_certificate()
        remote.close()

    def test_unresponsive_server_times_out(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            remote = RemoteIsp(
                "127.0.0.1", listener.getsockname()[1],
                timeout_s=0.2, max_retries=1, backoff_s=0.01,
            )
            with pytest.raises(RpcTimeoutError):
                remote.ping()
            remote.close()
        finally:
            listener.close()

    def test_retries_recover_from_dropped_connections(self):
        system = build_system(hours=1, txs_per_block=2)
        server = serve_system(
            system, server_class=lambda *a, **k: FlakyServer(
                *a, failures=2, **k
            ),
        )
        with server:
            client = remote_client(
                system, server, QueryMode.BASELINE,
                max_retries=4, backoff_s=0.01,
            )
            result = client.query(SQL)
            assert result.rows[0][0] >= 0
            client.isp.close()

    def test_exhausted_retries_surface_connection_error(self):
        system = build_system(hours=1, txs_per_block=2)
        server = serve_system(
            system, server_class=lambda *a, **k: FlakyServer(
                *a, failures=100, **k
            ),
        )
        with server:
            host, port = server.address
            remote = RemoteIsp(
                host, port, max_retries=2, backoff_s=0.01
            )
            with pytest.raises(RpcConnectionError):
                remote.get_certificate()
            remote.close()


class TestTamperingOverTheWire:
    def test_tampering_server_rejected(self):
        system = build_system()
        # Every data page of the table served with its last byte flipped
        # (late, so headers parse).
        LyingIsp.install(system).arm(MOVES["flip-end"], ALWAYS)
        server = serve_system(system)
        with server:
            client = remote_client(system, server, QueryMode.BASELINE)
            with pytest.raises(ReproError):
                client.query(SQL)
            client.isp.close()

    def test_garbage_request_answered_with_typed_error_frame(self):
        """A hostile *client* cannot crash the server either."""
        system = build_system(hours=1, txs_per_block=2)
        server = serve_system(system)
        with server:
            host, port = server.address
            from repro.rpc import codec

            with socket.create_connection((host, port), timeout=5) as sock:
                codec.send_frame(sock, b"\x7f garbage request")
                kind, value = codec.decode_response(
                    codec.recv_frame(sock)
                )
                assert kind == codec.RESP_ERROR
            # The server survives and keeps serving.
            with RemoteIsp(host, port) as remote:
                assert remote.get_certificate() is not None


class TestDeadlineClampRegression:
    """PR 9 satellite: an expired budget fails fast client-side.

    The bound-deadline send path used to clamp ``left_s`` into the
    ``settimeout`` floor, so a budget that drained between the entry
    check and the send turned into a 1 ms socket wait plus a request
    the server would refuse (or worse, serve) after the client had
    already given up.
    """

    def test_spent_budget_raises_before_send(self):
        from repro.errors import DeadlineExceededError
        from repro.rpc.deadline import Deadline

        class SpentAfterEntry(Deadline):
            """Passes the entry check, then reports an empty budget —
            models a budget that drains while acquiring a pooled
            connection."""

            def __init__(self):
                super().__init__(time.monotonic() + 60.0)

            def remaining(self):
                return 0.0

        served = []

        class CountingServer(RpcIspServer):
            def _handle(self, entries):
                served.extend(entries)
                return super()._handle(entries)

        system = build_system(hours=1, txs_per_block=2)
        server = serve_system(system, server_class=CountingServer)
        with server:
            host, port = server.address
            with RemoteIsp(host, port) as remote:
                with pytest.raises(
                    DeadlineExceededError, match="before the request"
                ):
                    remote.get_certificate(deadline=SpentAfterEntry())
        # Fail-fast means *nothing* went over the wire.
        assert served == []


class TestAdmissionLeakRegression:
    """PR 9 satellite: a handler death between _admit and _release must
    not leak the in-flight slot (capacity would shrink forever)."""

    @staticmethod
    def _server():
        system = build_system(hours=1, txs_per_block=2)
        server = serve_system(system)
        return server

    def test_injected_raise_releases_slot(self):
        from repro.faults import registry as faults
        from repro.faults.registry import InjectedFault
        from repro.rpc import codec

        server = self._server()
        faults.reset()
        faults.arm("rpc.server.crash", "raise", times=3)
        try:
            for _ in range(3):
                with pytest.raises(InjectedFault):
                    server._handle([(codec.encode_ping(), None)])
                assert server._pending == 0
            # Capacity intact: the next requests are served normally.
            for _ in range(3):
                [payload] = server._handle([(codec.encode_ping(), None)])
                kind, _ = codec.decode_response(payload)
                assert kind == codec.RESP_PONG
            assert server._pending == 0
        finally:
            faults.reset()

    def test_simulated_crash_releases_slot(self):
        """Even a BaseException (SimulatedCrash) unwinds the slot."""
        from repro.faults import registry as faults
        from repro.faults.registry import SimulatedCrash
        from repro.rpc import codec

        server = self._server()
        faults.reset()
        faults.arm("rpc.server.crash", "crash", times=1)
        try:
            with pytest.raises(SimulatedCrash):
                server._handle([(codec.encode_ping(), None)])
            assert server._pending == 0
            [payload] = server._handle([(codec.encode_ping(), None)])
            kind, _ = codec.decode_response(payload)
            assert kind == codec.RESP_PONG
        finally:
            faults.reset()

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_crash_over_the_wire_keeps_capacity(self):
        """End to end: handler deaths sever their connections but the
        server keeps its full admission capacity for later clients."""
        from repro.faults import registry as faults
        from repro.rpc import codec

        system = build_system(hours=1, txs_per_block=2)
        server = serve_system(system)
        faults.reset()
        faults.arm("rpc.server.crash", "raise", times=4)
        try:
            with server:
                host, port = server.address
                for _ in range(4):
                    with socket.create_connection(
                        (host, port), timeout=5
                    ) as sock:
                        codec.send_frame(sock, codec.encode_ping())
                        # Handler died: connection severed without a
                        # response frame.
                        assert sock.recv(1 << 16) == b""
                assert server._pending == 0
                with RemoteIsp(host, port) as remote:
                    assert remote.get_certificate() is not None
        finally:
            faults.reset()


class TestCrashInsideDispatch:
    """A ``SimulatedCrash`` raised by an ISP call is a modeled power
    loss, not a handler failure: it severs the connection on both
    servers.  The error-frame handler catches ``Exception`` only, so the
    crash never reaches the client as a RESP_ERROR saying "internal
    server error"."""

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    @pytest.mark.parametrize("server_class", ["threaded", "async"])
    def test_a_crash_in_an_isp_call_severs_the_connection(
        self, monkeypatch, server_class
    ):
        from repro.faults.registry import SimulatedCrash
        from repro.rpc import codec
        from repro.serve.server import AsyncIspServer

        def crash(expected_version):
            raise SimulatedCrash("power lost inside open_session")

        system = build_system(hours=1, txs_per_block=2)
        server = serve_system(system, server_class={
            "threaded": RpcIspServer, "async": AsyncIspServer,
        }[server_class])
        monkeypatch.setattr(system.isp, "open_session", crash)
        with server:
            with socket.create_connection(server.address, timeout=5) as sock:
                codec.send_frame(sock, codec.encode_open_session(None))
                assert sock.recv(1 << 16) == b""  # severed, no error frame
            assert server._pending == 0


class TestServiceDelayOffDispatchLock:
    """PR 9 satellite: the modeled storage sleep serializes on its own
    spindle lock, not the dispatch lock — control-plane operations must
    not queue behind modeled I/O."""

    def test_certificate_not_delayed_by_spindle(self):
        system = build_system(hours=1, txs_per_block=2)
        server = serve_system(system)
        server.service_delay_s = 0.25
        with server:
            host, port = server.address
            slow = RemoteIsp(host, port)
            fast = RemoteIsp(host, port)
            try:
                root = slow.get_certificate().ads_root
                path = system.isp.ads.list_files(root)[0]
                session = slow.open_session(None)
                started = threading.Event()
                durations = {}

                def data_plane():
                    started.set()
                    t0 = time.monotonic()
                    slow.get_page(session, path, 0)
                    durations["page"] = time.monotonic() - t0

                worker = threading.Thread(target=data_plane)
                worker.start()
                started.wait()
                time.sleep(0.05)  # the page op is inside its sleep now
                t0 = time.monotonic()
                fast.get_certificate()
                durations["cert"] = time.monotonic() - t0
                worker.join()
            finally:
                slow.close()
                fast.close()
        # The data op pays the spindle; the control op must not.
        assert durations["page"] >= 0.25
        assert durations["cert"] < 0.2
