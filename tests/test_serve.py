"""The event-loop serving path: pipelining, batching, adversaries.

Covers the contracts :mod:`repro.serve` adds on top of the threaded
server:

* protocol equivalence — the unmodified verifying client works against
  :class:`AsyncIspServer` byte-for-byte;
* pipelining semantics — responses are correlated by frame id, may
  arrive out of order, and a slow request does not head-of-line-block
  its connection;
* batching — a batch is the public ISP methods called in order:
  results, errors, store reads and proof bytes equal the one-at-a-time
  ones at the ISP surface and end to end over the wire, and a batched
  request is refused (crash probe, deadline expiry) exactly like a lone
  one;
* the concurrent chaos campaign runs against the event-loop server with
  the sanitizer armed.

The wire-level attacks run over both transports from one parametrised
class, ``test_security.TestWireAdversaries``.
"""

import socket
import threading
import time

import pytest
from tests.adversary import ALWAYS, MOVES, LyingIsp

from repro.client.query_client import QueryClient
from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.errors import (
    DeadlineExceededError,
    FleetError,
    NetworkError,
    ReproError,
)
from repro.faults import registry as faults
from repro.fleet.partition import HashPartitioner
from repro.fleet.shard import ShardIsp
from repro.rpc import RemoteIsp, codec, connect_client
from repro.rpc.server import RpcIspServer, serve_system
from repro.obs import metrics as obs
from repro.serve import AsyncIspServer

SQL = "SELECT COUNT(*) FROM eth_transactions"


def build_system(hours=2, txs_per_block=4):
    system = V2FSSystem(SystemConfig(txs_per_block=txs_per_block))
    system.advance_all(hours)
    return system


def baseline_client(system, server, **remote_kwargs):
    host, port = server.address
    return QueryClient(
        isp=RemoteIsp(host, port, **remote_kwargs),
        chains=system.chains,
        attestation_report=system.attestation_report,
        attestation_root=system.attestation.root_public_key,
        expected_measurement=system.ci.enclave.measurement,
        mode=QueryMode.BASELINE,
    )


def drain_frames(sock, count, timeout_s=10.0):
    """Collect ``count`` frames from a blocking socket via the decoder."""
    decoder = codec.FrameDecoder()
    frames = []
    sock.settimeout(timeout_s)
    while len(frames) < count:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise AssertionError(
                f"connection closed after {len(frames)}/{count} frames"
            )
        decoder.feed(chunk)
        frames.extend(decoder.frames())
    return frames


class TestProtocolEquivalence:
    def test_verified_query_through_async_server(self):
        """The stock verifying client works unmodified."""
        system = build_system()
        server = serve_system(system, server_class=AsyncIspServer)
        with server:
            client = baseline_client(system, server)
            result = client.query(SQL)
            assert result.rows
            client.isp.close()

    def test_async_matches_threaded_result(self):
        system = build_system()
        threaded = serve_system(system)
        with threaded:
            client = baseline_client(system, threaded)
            expected = client.query(SQL).rows
            client.isp.close()
        async_server = serve_system(system, server_class=AsyncIspServer)
        with async_server:
            client = baseline_client(system, async_server)
            assert client.query(SQL).rows == expected
            client.isp.close()

    def test_live_ingestion_while_serving(self):
        """MVCC under the event loop: queries verify during updates."""
        system = build_system()
        server = serve_system(system, server_class=AsyncIspServer)
        with server:
            client = baseline_client(system, server, max_retries=4)

            def ingest():
                for _ in range(8):
                    system.advance_block("eth")
                    time.sleep(0.1)  # let queries land between publishes

            ingester = threading.Thread(target=ingest, daemon=True)
            ingester.start()
            try:
                deadline = time.monotonic() + 20.0
                done = 0
                while done < 5 and time.monotonic() < deadline:
                    try:
                        assert client.query(SQL).rows
                        done += 1
                    except ReproError:
                        time.sleep(0.02)  # certificate race: retry
            finally:
                ingester.join()
                client.isp.close()
            assert done == 5


class TestPipelining:
    def test_out_of_order_completion(self):
        """A slow request does not head-of-line-block the connection.

        Frame 1 carries an artificially slowed request, frame 2 a fast
        one; with >=2 workers the fast response must come back first,
        and both must echo their request's frame id.
        """
        release = threading.Event()

        class SlowPingServer(AsyncIspServer):
            def _serve(self, kind, args, deadline=None):
                if kind == codec.REQ_PING:
                    release.wait(timeout=5.0)
                return super()._serve(kind, args, deadline)

        system = build_system()
        server = serve_system(system, server_class=SlowPingServer)
        server.workers = 4
        with server:
            host, port = server.address
            sock = socket.create_connection((host, port))
            try:
                sock.sendall(codec.frame(codec.encode_ping(), frame_id=1))
                # Give the slow request time to reach its worker so the
                # ordering assertion is meaningful, not racy.
                time.sleep(0.05)
                sock.sendall(
                    codec.frame(codec.encode_get_certificate(), frame_id=2)
                )
                first = drain_frames(sock, 1)[0]
                payload, _deadline, frame_id = first
                assert frame_id == 2
                assert payload[0] == codec.RESP_CERTIFICATE
                release.set()
                second = drain_frames(sock, 1)[0]
                payload, _deadline, frame_id = second
                assert frame_id == 1
                assert payload[0] == codec.RESP_PONG
            finally:
                release.set()
                sock.close()

    def test_many_pipelined_requests_all_correlated(self):
        """A burst of tagged requests gets exactly one tagged reply each."""
        system = build_system()
        server = serve_system(system, server_class=AsyncIspServer)
        with server:
            host, port = server.address
            sock = socket.create_connection((host, port))
            try:
                count = 32
                for frame_id in range(count):
                    sock.sendall(
                        codec.frame(codec.encode_ping(), frame_id=frame_id)
                    )
                frames = drain_frames(sock, count)
                ids = sorted(frame_id for _, _, frame_id in frames)
                assert ids == list(range(count))
                assert all(
                    payload[0] == codec.RESP_PONG for payload, _, _ in frames
                )
            finally:
                sock.close()

    def test_plain_frames_stay_ordered(self):
        """Id-less frames keep the threaded one-at-a-time contract."""
        system = build_system()
        server = serve_system(system, server_class=AsyncIspServer)
        with server:
            host, port = server.address
            sock = socket.create_connection((host, port))
            try:
                sock.sendall(codec.frame(codec.encode_ping()))
                sock.sendall(codec.frame(codec.encode_get_certificate()))
                sock.sendall(codec.frame(codec.encode_ping()))
                frames = drain_frames(sock, 3)
                kinds = [payload[0] for payload, _, _ in frames]
                assert kinds == [
                    codec.RESP_PONG,
                    codec.RESP_CERTIFICATE,
                    codec.RESP_PONG,
                ]
                assert all(frame_id is None for _, _, frame_id in frames)
            finally:
                sock.close()

    def test_threaded_server_echoes_frame_ids(self):
        """Every endpoint echoes a frame id; the threaded one still
        answers in request order."""
        system = build_system()
        server = serve_system(system)
        with server:
            host, port = server.address
            sock = socket.create_connection((host, port))
            try:
                sock.sendall(
                    codec.frame(codec.encode_ping(), frame_id=7)
                    + codec.frame(codec.encode_get_certificate())
                    + codec.frame(codec.encode_ping(), frame_id=9)
                )
                frames = drain_frames(sock, 3)
                assert [frame_id for _, _, frame_id in frames] == [7, None, 9]
                assert [payload[0] for payload, _, _ in frames] == [
                    codec.RESP_PONG, codec.RESP_CERTIFICATE, codec.RESP_PONG,
                ]
            finally:
                sock.close()


class TestBatching:
    @staticmethod
    def _session_ops(isp):
        """One representative mixed read session; returns its ops."""
        root = isp.get_certificate().ads_root
        paths = isp.ads.list_files(root)[:3]
        session = isp.open_session(None)
        ops = []
        for path in paths:
            ops.append(("get_file_meta", (session, path)))
            ops.append(("get_page", (session, path, 0)))
        ops.append(("finalize_session", (session,)))
        return session, ops

    @staticmethod
    def _shard():
        """Shard 0 of a hash-partitioned pair, at the certified state."""
        system = build_system()
        shard = ShardIsp(0, HashPartitioner(2).shard_for)
        shard.sync_update(*system.certified_state())
        return system, shard

    def test_serve_batch_voes_byte_identical(self):
        """serve_batch proofs == one-by-one proofs, byte for byte."""
        results = []
        for batched in (False, True):
            system = build_system()
            isp = system.isp
            _session, ops = self._session_ops(isp)
            if batched:
                outputs = isp.serve_batch(ops)
            else:
                dispatch = {
                    "get_file_meta": isp.get_file_meta,
                    "get_page": isp.get_page,
                    "finalize_session": isp.finalize_session,
                }
                outputs = [dispatch[op](*args) for op, args in ops]
            assert not any(
                isinstance(output, ReproError) for output in outputs
            )
            results.append(outputs)
        unbatched, batched = results
        assert unbatched[:-1] == batched[:-1]  # metas and pages
        assert unbatched[-1].encode() == batched[-1].encode()  # the VO

    def test_finalize_reads_the_same_nodes_alone_and_batched(self):
        """A lone finalize_session and one inside a batch are the same
        call: the same store.get digests in the same order."""
        isp = build_system().isp
        fetched = []
        honest_get = isp.ads.store.get

        def recording_get(digest):
            fetched.append(digest)
            return honest_get(digest)

        isp.ads.store.get = recording_get
        sequences = []
        for batched in (False, True):
            session, ops = self._session_ops(isp)
            isp.serve_batch(ops[:-1])
            del fetched[:]
            if batched:
                [vo] = isp.serve_batch(ops[-1:])
            else:
                vo = isp.finalize_session(session)
            sequences.append((list(fetched), vo.encode()))
        assert sequences[0][0]  # the render does read the store
        assert sequences[0] == sequences[1]

    def test_bad_items_fill_their_own_slot_only(self):
        """An unknown session, an unbatchable op and a page the shard
        does not own each fail in place; their batchmates' results and
        VO bytes are those of the clean sequential run."""
        _, shard = self._shard()
        pages = [
            (path, 0) for path in shard.ads.list_files(shard.root)
        ]
        foreign = next(key for key in pages if not shard.owns(*key))
        owned = [key for key in pages if shard.owns(*key)][:3]

        def session_ops():
            session = shard.open_session()
            ops = []
            for path, page_id in owned:
                ops.append(("get_file_meta", (session, path)))
                ops.append(("get_page", (session, path, page_id)))
            ops.append(("finalize_session", (session,)))
            return session, ops

        _, ops = session_ops()
        expected = [getattr(shard, op)(*args) for op, args in ops]
        session, ops = session_ops()
        bad = [
            ("get_page", (10**9, *owned[0])),
            ("open_session", (None,)),
            ("get_page", (session, *foreign)),
            ("validate_path", (session, *foreign, [])),
        ]
        mixed = ops[:2] + bad[:2] + ops[2:4] + bad[2:] + ops[4:]
        results = shard.serve_batch(mixed)
        good = [r for r in results if not isinstance(r, ReproError)]
        errors = [r for r in results if isinstance(r, ReproError)]
        assert [results.index(e) for e in errors] == [2, 3, 6, 7]
        assert [type(e) for e in errors] == [
            NetworkError, NetworkError, FleetError, FleetError,
        ]
        assert "unbatchable" in str(errors[1])
        assert len(shard.sessions) == 0  # open_session did not run
        assert good[:-1] == expected[:-1]
        assert good[-1].encode() == expected[-1].encode()

    def test_overridden_public_methods_hold_inside_a_batch(self):
        """serve_batch calls the public methods, so what a subclass
        puts there — a shard's ownership guard, a test adversary — is
        what a batched request gets, error type and text included."""
        system, shard = self._shard()
        path, page_id = next(
            (path, 0) for path in shard.ads.list_files(shard.root)
            if not shard.owns(path, 0)
        )
        session = shard.open_session()
        for op, args in (
            ("get_page", (session, path, page_id)),
            ("validate_path", (session, path, page_id, [])),
        ):
            with pytest.raises(FleetError, match="does not own") as solo:
                getattr(shard, op)(*args)
            [batched] = shard.serve_batch([(op, args)])
            assert type(batched) is FleetError
            assert str(batched) == str(solo.value)

        isp = LyingIsp()
        isp.sync_update(*system.certified_state())
        isp.arm(MOVES["zero-page"].at(None), ALWAYS)
        path = isp.ads.list_files(isp.root)[0]
        session = isp.open_session()
        [page] = isp.serve_batch([("get_page", (session, path, 0))])
        assert page == isp.get_page(session, path, 0) == bytes(len(page))

    def test_wire_vo_identical_threaded_vs_async(self):
        """End to end: the VO served through the batching event-loop
        server is byte-identical to the threaded server's."""
        system = build_system()
        voes = []
        for server_class in (RpcIspServer, AsyncIspServer):
            server = serve_system(system, server_class=server_class)
            with server:
                host, port = server.address
                isp = RemoteIsp(host, port)
                root = isp.get_certificate().ads_root
                session = isp.open_session(None)
                paths = system.isp.ads.list_files(root)[:3]
                for path in paths:
                    isp.get_file_meta(session, path)
                    isp.get_page(session, path, 0)
                voes.append(isp.finalize_session(session).encode())
                isp.close()
        assert voes[0] == voes[1]

    def test_batched_load_run_is_clean(self):
        """16 concurrent clients streaming id-carrying page requests
        all finish error-free, and the batch path actually serves them."""
        system = build_system()
        server = serve_system(system, server_class=AsyncIspServer)
        assert server.batching
        root = system.isp.get_certificate().ads_root
        # 16 x 4 requests in flight: exactly the default max_pending,
        # so nothing is shed.
        paths = system.isp.ads.list_files(root)[:4]
        with server:
            before = obs.REGISTRY.counters_snapshot()
            socks = [
                socket.create_connection(server.address) for _ in range(16)
            ]
            try:
                sessions = []
                for sock in socks:
                    codec.send_frame(sock, codec.encode_open_session(None))
                    _, session = codec.decode_response(codec.recv_frame(sock))
                    sessions.append(session)
                # Everyone sends before anyone reads: same-tick arrivals.
                for sock, session in zip(socks, sessions):
                    sock.sendall(b"".join(
                        codec.frame(
                            codec.encode_get_page(session, path, 0),
                            frame_id=frame_id,
                        )
                        for frame_id, path in enumerate(paths)
                    ))
                for sock, session in zip(socks, sessions):
                    frames = drain_frames(sock, len(paths))
                    assert sorted(fid for _, _, fid in frames) == [0, 1, 2, 3]
                    assert all(p[0] == codec.RESP_PAGE for p, _, _ in frames)
                    sock.sendall(codec.frame(
                        codec.encode_finalize_session(session), frame_id=4
                    ))
                for sock in socks:
                    [(payload, _, frame_id)] = drain_frames(sock, 1)
                    assert (payload[0], frame_id) == (codec.RESP_VO, 4)
            finally:
                for sock in socks:
                    sock.close()
            delta = obs.REGISTRY.counters_delta(before)
        assert delta.get("serve.pipelined.requests", 0) == 16 * 5
        assert delta.get("isp.batch.requests", 0) > 0
        assert delta.get("rpc.server.errors", 0) == 0

    def test_crash_probe_fires_for_batched_requests(self):
        """rpc.server.crash kills a *batched* handler too: slots drain,
        the connection is severed, the pool survives and serves on."""
        system = build_system()
        server = serve_system(system, server_class=AsyncIspServer)
        server.workers = 2
        root = system.isp.get_certificate().ads_root
        path = system.isp.ads.list_files(root)[0]
        faults.reset()
        try:
            with server:
                session = system.isp.open_session(None)
                pages = codec.frame(
                    codec.encode_get_page(session, path, 0), frame_id=1
                ) + codec.frame(
                    codec.encode_get_page(session, path, 1), frame_id=2
                )
                # More deaths than pool threads: a worker that died
                # with its handler would leave nobody to serve the end.
                for action in ("raise", "crash", "raise", "crash"):
                    probe = faults.arm("rpc.server.crash", action, times=1)
                    with socket.create_connection(
                        server.address, timeout=5
                    ) as sock:
                        sock.sendall(pages)
                        assert sock.recv(1 << 16) == b""  # severed, no reply
                    assert probe.fires == 1
                    faults.reset()
                    assert server._pending == 0
                with socket.create_connection(
                    server.address, timeout=5
                ) as sock:
                    sock.sendall(pages)
                    frames = drain_frames(sock, 2)
                assert sorted(frame_id for _, _, frame_id in frames) == [1, 2]
                assert all(p[0] == codec.RESP_PAGE for p, _, _ in frames)
                assert all(t.is_alive() for t in server._worker_threads)
        finally:
            faults.reset()

    def test_batched_deadline_expiring_in_the_spindle_wait_is_refused(self):
        """A batched request whose deadline runs out during the modeled
        storage wait is refused like a lone one, not served."""
        system = build_system()
        server = serve_system(system, server_class=AsyncIspServer)
        server.service_delay_s = 0.15
        root = system.isp.get_certificate().ads_root
        path = system.isp.ads.list_files(root)[0]
        with server:
            session = system.isp.open_session(None)
            before = obs.REGISTRY.counters_snapshot()
            with socket.create_connection(server.address, timeout=5) as sock:
                # One tick, two short budgets: both alive on arrival,
                # both dead once the batch's 2 x 0.15 s spindle pass ends.
                sock.sendall(b"".join(
                    codec.frame(
                        codec.encode_get_page(session, path, page),
                        deadline_ms=100, frame_id=page,
                    )
                    for page in (0, 1)
                ))
                frames = drain_frames(sock, 2)
            delta = obs.REGISTRY.counters_delta(before)
        for payload, _, _ in frames:
            kind, error = codec.decode_response(payload)
            assert kind == codec.RESP_ERROR
            assert isinstance(error, DeadlineExceededError)
            assert "expired while queued" in str(error)
        assert delta.get("serve.batch.flushes", 0) == 1  # one tick, one batch
        assert delta.get("rpc.server.deadline.expired", 0) == 2
        assert delta.get("isp.batch.requests", 0) == 0


class TestStopRacesInflight:
    """stop() against an in-flight batch: nothing leaks, restart works.

    The stop path's ownership audit: all loop-confined state (conn
    table, batch queue, inflight counter) is reset by the loop thread's
    own finally — so a stop() that lands
    while a worker still holds a batch cannot leave sockets registered,
    counters poisoned, or the server unable to start again.
    """

    @staticmethod
    def _slow_batch_server(entered, release):
        class SlowBatchServer(AsyncIspServer):
            def _handle(self, entries):
                entered.set()
                release.wait(timeout=5.0)
                return super()._handle(entries)

        return SlowBatchServer

    def test_stop_mid_batch_releases_every_conn_and_counter(self):
        entered = threading.Event()
        release = threading.Event()
        system = build_system()
        server = serve_system(
            system,
            server_class=self._slow_batch_server(entered, release),
        )
        server.start()
        host, port = server.address
        sock = socket.create_connection((host, port))
        try:
            # A batchable request (bogus session: the error reply takes
            # the same route) that parks on a worker.
            sock.sendall(codec.frame(
                codec.encode_get_file_meta(999, "races"), frame_id=1
            ))
            assert entered.wait(timeout=5.0)
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            # Let stop() reach the worker join before the batch ends.
            time.sleep(0.05)
            release.set()
            stopper.join(timeout=15.0)
            assert not stopper.is_alive()
            # The dying loop severed the connection.
            sock.settimeout(5.0)
            try:
                trailing = sock.recv(1 << 16)
            except OSError:
                trailing = b""
            assert trailing == b""
        finally:
            release.set()
            sock.close()
            if server._listener is not None:
                server.stop()
        # Loop-confined state was reset on the loop thread itself.
        assert server._conns == {}
        assert server._batch_pending == []
        assert server._inflight == 0
        assert server._listener is None

    def test_restart_after_racing_stop_serves_again(self):
        entered = threading.Event()
        release = threading.Event()
        system = build_system()
        server = serve_system(
            system,
            server_class=self._slow_batch_server(entered, release),
        )
        server.start()
        host, port = server.address
        sock = socket.create_connection((host, port))
        try:
            sock.sendall(codec.frame(
                codec.encode_get_file_meta(999, "races"), frame_id=1
            ))
            assert entered.wait(timeout=5.0)
            stop_then_release = threading.Thread(target=server.stop)
            stop_then_release.start()
            time.sleep(0.05)
            release.set()
            stop_then_release.join(timeout=15.0)
        finally:
            release.set()
            sock.close()
        # A stop that raced an in-flight batch must not poison the
        # next lifecycle: start again and serve a full round trip.
        release.set()
        server.start()
        try:
            host, port = server.address
            sock = socket.create_connection((host, port))
            try:
                sock.sendall(codec.frame(codec.encode_ping(), frame_id=7))
                payload, _deadline, frame_id = drain_frames(sock, 1)[0]
                assert frame_id == 7
                assert payload[0] == codec.RESP_PONG
            finally:
                sock.close()
            # The "done" completion may drain a tick after the bytes
            # flush; poll briefly instead of racing the loop.
            deadline = time.monotonic() + 5.0
            while server._inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._inflight == 0
        finally:
            server.stop()


class TestAsyncChaos:
    def test_concurrent_chaos_clean_on_async_server(self):
        """The sanitizer-armed chaos campaign over the event loop."""
        from repro.faults.chaos import run_concurrent_chaos

        result = run_concurrent_chaos(
            11, clients=3, queries_per_client=3, ingest_blocks=3,
            server_class=AsyncIspServer,
        )
        assert result["client_errors"] == []
        assert result["queries_ok"] == 9
        assert result["reports"] == []


class TestAsyncFleet:
    def test_fleet_on_async_servers(self):
        from repro.fleet.lifecycle import Fleet

        system = build_system()
        fleet = Fleet(
            system, shard_count=2, replicas=2, server_class=AsyncIspServer,
        )
        fleet.start()
        try:
            host, port = fleet.router_address
            client = connect_client(host, port)
            assert client.query(SQL).rows
            client.isp.close()
        finally:
            fleet.stop()
