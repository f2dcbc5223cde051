"""Threaded TCP server exposing an :class:`~repro.isp.server.IspServer`.

One :class:`RpcIspServer` hosts an in-process ISP behind the wire
protocol of :mod:`repro.rpc.codec`: an accept loop hands each client
connection to its own thread, and every request is dispatched to the
wrapped ISP under a single coarse lock.  The lock serializes individual
*operations*, not whole queries — many client query sessions interleave
freely, each pinned to its snapshot root at ``open_session`` time, so
the paper's MVCC property (in-flight queries survive concurrent
updates) is now exercised under real concurrency rather than simulated
turn-taking.

The server is *untrusted* from the client's point of view, exactly like
the in-process ISP: nothing it sends is believed until verified against
the certificate.  Test subclasses override :meth:`RpcIspServer._wire`
to model wire-level adversaries (bit flips, truncation, hostile length
prefixes).

Everything about serving that does not depend on how bytes arrive is
:meth:`RpcIspServer._exchange` (frames in, wire-ready replies out); the
thread per connection here and the event loop of :mod:`repro.serve` are
two drivers of it.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from dataclasses import dataclass
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.chain.block import BlockHeader
from repro.crypto.hashing import Digest
from repro.crypto.signature import PublicKey
from repro.errors import (
    DeadlineExceededError,
    NetworkError,
    OverloadedError,
    ReproError,
    WireFormatError,
)
from repro.faults import registry as faults
from repro.faults.registry import InjectedFault
from repro.isp.server import IspServer
from repro.obs import metrics as obs
from repro.rpc import codec
from repro.rpc.deadline import Deadline
from repro.sanitize.runtime import SanLock, guarded_by
from repro.sgx.attestation import AttestationReport

logger = logging.getLogger("repro.rpc")


@dataclass
class IspBootstrap:
    """Out-of-band client-setup material served over the wire.

    In the paper the client obtains the attestation root and the expected
    enclave measurement through a trusted channel and observes chain
    heads from the source networks directly.  For single-binary demos the
    server hands all of it out (trust-on-first-use); a production
    deployment would pin ``attestation_root`` and ``measurement``
    client-side and keep only ``chain_heads`` remote.
    """

    report: AttestationReport
    attestation_root: PublicKey
    measurement: Digest
    chain_heads: Callable[[], Dict[str, BlockHeader]]

    @classmethod
    def for_system(cls, system) -> "IspBootstrap":
        """The material a :class:`~repro.core.system.V2FSSystem` hands
        out, with chain heads read live from its chains."""
        return cls(
            report=system.attestation_report,
            attestation_root=system.attestation.root_public_key,
            measurement=system.ci.enclave.measurement,
            chain_heads=lambda: {
                chain_id: chain.latest_header()
                for chain_id, chain in system.chains.items()
                if len(chain)
            },
        )


class _Admitted(NamedTuple):
    """One admitted, decoded request on its way through the pipeline."""

    index: int  # position in the pipeline call's entry list
    kind: int
    args: tuple
    deadline: Optional[Deadline]


@guarded_by(_pending="_admission_lock", _connections="_conn_lock",
            _threads="_conn_lock")
class RpcIspServer:
    """Serve one ISP to many concurrent clients over TCP."""

    def __init__(
        self,
        isp: IspServer,
        host: str = "127.0.0.1",
        port: int = 0,
        bootstrap: Optional[IspBootstrap] = None,
    ) -> None:
        self.isp = isp
        self.bootstrap = bootstrap
        #: How long the ``rpc.server.stall`` failpoint holds a response.
        #: Chaos runs pair it with a short client ``timeout_s`` so a
        #: stalled read surfaces as a timeout, not a stuck test.
        self.fault_stall_s = 0.5
        #: Modeled storage service time per data-service request
        #: (seconds).  Zero in normal operation; the fleet scaling
        #: benchmark sets it so each shard charges realistic per-page
        #: I/O time.  The sleep serializes on :attr:`_storage_lock` — a
        #: dedicated "spindle" lock — so one server still models a
        #: single serial storage device while independent shard servers
        #: overlap theirs, but dispatch itself (certificate fetches,
        #: session opens, finalize of other sessions) no longer queues
        #: behind modeled I/O.  It used to run inside the dispatch
        #: lock, which serialized *every* operation on the server and
        #: skewed single-node baselines; see DESIGN §11.
        self.service_delay_s = 0.0
        self._storage_lock = SanLock("rpc.storage", may_block=("sleep",))
        #: Guards every operation on the wrapped ISP.  Updates applied
        #: outside the RPC path (CI ingestion) must hold it too — see
        #: :func:`serve_system` — so a durable store's group-commit
        #: fsync runs under it; nothing else may block while it is held.
        self.lock = SanLock("rpc.server", reentrant=True,
                            may_block=("fsync",))
        #: Admission control: at most this many requests may be in
        #: flight (decoded but not yet answered) at once.  Excess
        #: requests are *shed* at the door with a typed
        #: :class:`~repro.errors.OverloadedError` carrying a
        #: retry-after hint — bounded queueing instead of unbounded
        #: latency collapse.  ``0`` disables shedding.
        self.max_pending = 64
        #: Backpressure hint attached to shed responses (seconds).
        self.shed_retry_after_s = 0.05
        self._admission_lock = SanLock("rpc.admission")
        self._pending = 0
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._running = threading.Event()
        self._conn_lock = SanLock("rpc.conns")
        self._connections: List[socket.socket] = []
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _listen(self, backlog: int) -> socket.socket:
        """Bind the listening socket and mark the server running."""
        if self._listener is not None:
            raise NetworkError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(backlog)
        self._listener = listener
        self._running.set()
        return listener

    def start(self) -> "RpcIspServer":
        """Bind, listen, and serve in background threads."""
        self._listen(64)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="rpc-isp-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — useful with ``port=0``."""
        if self._listener is None:
            raise NetworkError("server is not started")
        addr = self._listener.getsockname()
        return addr[0], addr[1]

    #: How long :meth:`stop` waits for each handler thread.  A handler
    #: blocked past this (e.g. wedged in a failpoint stall) is reported
    #: and abandoned — it is a daemon thread, so it cannot outlive the
    #: process — rather than wedging shutdown.
    JOIN_TIMEOUT_S = 2.0

    def stop(self) -> None:
        """Stop accepting, close every connection, join every thread.

        A mid-request stop used to orphan the connection's handler
        thread (and, if the accept loop had just handed the socket
        over, leak the socket itself): the thread list and connection
        list are swapped out under ``_conn_lock``, every socket is shut
        down so blocked ``recv`` calls return, and each handler is
        joined with :data:`JOIN_TIMEOUT_S`.
        """
        self._running.clear()
        if self._listener is not None:
            # shutdown() before close(): closing the fd does not wake a
            # thread blocked in accept(2); shutting the socket down
            # does (accept returns EINVAL), so the accept loop exits
            # promptly instead of wedging until the join timeout.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conn_lock:
            connections, self._connections = self._connections, []
            threads, self._threads = self._threads, []
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in threads:
            if thread.ident is None:
                # Registered by the accept loop but not yet started
                # when the lists were swapped; its socket was already
                # closed above, so once started it exits immediately.
                # Joining an unstarted thread raises RuntimeError.
                continue
            thread.join(timeout=self.JOIN_TIMEOUT_S)
            if thread.is_alive():  # pragma: no cover - wedged handler
                logger.warning(
                    "handler thread %s did not exit within %.1fs; "
                    "abandoning it", thread.name, self.JOIN_TIMEOUT_S,
                )
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        self._listener = None

    def __enter__(self) -> "RpcIspServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            thread = threading.Thread(
                target=self._client_loop,
                args=(conn,),
                name="rpc-isp-conn",
                daemon=True,
            )
            with self._conn_lock:
                self._connections.append(conn)
                # Reap finished handlers so a long-lived server does
                # not accumulate dead Thread objects.
                self._threads = [
                    t for t in self._threads if t.is_alive()
                ]
                self._threads.append(thread)
            thread.start()

    def _client_loop(self, conn: socket.socket) -> None:
        decoder = codec.FrameDecoder()
        try:
            while self._running.is_set():
                try:
                    chunk = conn.recv(1 << 16)
                    if not chunk:
                        return  # EOF; a torn last frame has no one to answer
                    try:
                        decoder.feed(chunk)
                        frames = decoder.frames()
                    except WireFormatError as error:
                        # Protocol garbage from the client: answer with
                        # a typed error, then drop the connection.
                        conn.sendall(codec.frame(codec.encode_error(error)))
                        return
                    # One frame at a time, each answered before the next
                    # is looked at: strictly FIFO, ids or not.
                    for received in frames:
                        [(data, sever)] = self._exchange([received])
                        conn.sendall(data)
                        if sever:
                            conn.shutdown(socket.SHUT_RDWR)
                            return
                except OSError:
                    return
        finally:
            with self._conn_lock:
                if conn in self._connections:
                    self._connections.remove(conn)
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Frames in, wire bytes out (shared by both transports)
    # ------------------------------------------------------------------

    def _exchange(
        self, frames: Sequence[codec.Frame]
    ) -> List[Tuple[bytes, bool]]:
        """Serve received frames; one wire-ready reply per frame, in order.

        Each reply is ``(data, sever)``: the transport puts ``data`` on
        the wire and, when ``sever`` is set, closes the connection after
        it.  Frames handed over together go through the pipeline
        together (the event loop passes one tick's data-plane frames so
        they can share a batch).  If the pipeline itself dies — the
        ``rpc.server.crash`` probe — the exception propagates and the
        transport severs every connection involved without a reply.
        """
        replies: List[Tuple[bytes, bool]] = [(b"", True)] * len(frames)
        live = [
            index for index in range(len(frames))
            if not faults.ACTIVE or self._wire_faults()
        ]
        responses = self._handle([frames[index][:2] for index in live])
        for index, response in zip(live, responses):
            replies[index] = self._wire(response, frames[index][2])
        return replies

    def _wire_faults(self) -> bool:
        """Apply transport-level failpoints to one received request.

        Arming ``rpc.server.drop`` (any raising action) severs the
        connection before the request is served — the client observes a
        reset and retries.  ``rpc.server.stall`` holds the response for
        :attr:`fault_stall_s` so a client with a shorter timeout gives
        up mid-read.  Returns False when the request is to be dropped.
        """
        try:
            faults.fire("rpc.server.drop")
        except InjectedFault:
            logger.warning("failpoint rpc.server.drop: severing connection")
            return False
        try:
            faults.fire("rpc.server.stall")
        except InjectedFault:
            logger.warning(
                "failpoint rpc.server.stall: holding response %.2fs",
                self.fault_stall_s,
            )
            time.sleep(self.fault_stall_s)
        return True

    def _wire(
        self, payload: bytes, frame_id: Optional[int]
    ) -> Tuple[bytes, bool]:
        """The wire seam: one response payload to ``(data, sever)``.

        A pure function of its arguments — it never sees a socket — so
        the same override works on every transport and for id-carrying
        frames alike.  Wire adversaries in the test suite override it
        to corrupt, truncate, or inflate what leaves the server; a
        request's frame id, when it had one, is echoed here.
        """
        whole = codec.frame(payload, frame_id=frame_id)
        if faults.ACTIVE:
            try:
                faults.fire("rpc.server.truncate")
            except InjectedFault:
                # A torn frame, then the drop: the client's framed read
                # hits EOF mid-frame and raises WireFormatError (which
                # is deliberately never retried).
                logger.warning(
                    "failpoint rpc.server.truncate: sending torn frame"
                )
                return whole[: max(1, len(whole) // 2)], True
        return whole, False

    # ------------------------------------------------------------------
    # The request pipeline
    # ------------------------------------------------------------------

    def _admit(self) -> bool:
        """Reserve one admission slot; False means shed this request."""
        if self.max_pending <= 0:
            return True
        with self._admission_lock:
            if self._pending >= self.max_pending:
                return False
            self._pending += 1
            return True

    def _release(self, slots: int) -> None:
        """Give back ``slots`` admission slots at once."""
        if self.max_pending <= 0 or not slots:
            return
        with self._admission_lock:
            self._pending -= slots

    @property
    def batching(self) -> bool:
        """Whether data-plane requests handled together share one
        ``isp.serve_batch`` call — true exactly when the wrapped ISP has
        that surface (the fleet's ``FleetIsp`` and test doubles do not)."""
        return hasattr(self.isp, "serve_batch")

    def _handle(
        self, entries: Sequence[Tuple[bytes, Optional[int]]]
    ) -> List[bytes]:
        """Run ``(payload, deadline_ms)`` entries to response payloads.

        The one implementation of the refusal order (DESIGN §11), per
        entry: count → refuse a deadline that arrived spent → rebase it
        onto the local clock → take an admission slot or shed →
        ``rpc.server.crash`` probe → decode → dispatch (which charges
        the spindle and re-checks the deadline under the dispatch lock)
        → release every slot in one ``finally``.  The threaded server
        passes one entry, the event loop one tick's.

        The whole admission sweep lives inside the ``try``: whatever
        raises after a slot is taken — including ``InjectedFault`` from
        the crash probe and the BaseException ``SimulatedCrash``, which
        nothing here catches — unwinds through the ``finally``, or
        admission capacity would shrink forever.  (Wire faults run in
        :meth:`_exchange` before this, so a request dropped there never
        held a slot at all.)
        """
        responses: List[bytes] = [b""] * len(entries)
        admitted: List[_Admitted] = []
        slots = 0
        try:
            for index, (payload, deadline_ms) in enumerate(entries):
                if obs.ACTIVE:
                    obs.inc("rpc.server.requests")
                # A zero wire budget IS expiry: rebasing and asking
                # ``expired`` immediately after can only trip when the
                # field was 0, so the comparison needs no clock read.
                if deadline_ms is not None and deadline_ms <= 0:
                    if obs.ACTIVE:
                        obs.inc("rpc.server.deadline.expired")
                    responses[index] = self._error_reply(
                        DeadlineExceededError(
                            "request arrived with its deadline already spent"
                        )
                    )
                    continue
                deadline = (
                    Deadline.from_wire_ms(deadline_ms)
                    if deadline_ms is not None
                    else None
                )
                if not self._admit():
                    if obs.ACTIVE:
                        obs.inc("rpc.server.shed")
                    responses[index] = self._error_reply(
                        OverloadedError(
                            f"server at max_pending={self.max_pending}; shed",
                            retry_after_s=self.shed_retry_after_s,
                        )
                    )
                    continue
                slots += 1
                if faults.ACTIVE:
                    # Admission-leak probe: dies *between* admission and
                    # release — the worst spot for the in-flight counter.
                    # Tests arm it and assert _pending drains to zero.
                    faults.fire("rpc.server.crash")
                try:
                    kind, args = codec.decode_request(payload)
                except WireFormatError as error:
                    responses[index] = self._error_reply(error)
                else:
                    admitted.append(_Admitted(index, kind, args, deadline))
            # Data-plane requests that came together are served together
            # when the ISP can batch; everything else one by one.
            together: List[_Admitted] = []
            if len(admitted) > 1 and self.batching:
                together = [
                    request for request in admitted
                    if request.kind in self._DATA_SERVICE_KINDS
                ]
                if len(together) < 2:
                    together = []
            taken = {request.index for request in together}
            for request in admitted:
                if request.index not in taken:
                    self._serve_unit([request], responses)
            if together:
                self._serve_unit(together, responses)
        finally:
            self._release(slots)
        return responses

    def _error_reply(self, error: BaseException) -> bytes:
        if obs.ACTIVE:
            obs.inc("rpc.server.errors")
        return codec.encode_error(error)

    def _serve_unit(
        self, unit: List[_Admitted], responses: List[bytes]
    ) -> None:
        """Dispatch requests that are served together (usually one)
        under the error-frame contract: a failure reaches every remote
        client involved as RESP_ERROR and never kills the link."""
        try:
            if len(unit) > 1:
                self._serve_together(unit, responses)
            else:
                [(index, kind, args, deadline)] = unit
                responses[index] = self._serve(kind, args, deadline)
            return
        except ReproError as error:
            logger.debug(
                "request 0x%02x failed: %s", unit[0].kind, error
            )
            failure: ReproError = error
        # The error-frame contract: a handler failure must reach the
        # remote client as RESP_ERROR, never kill the link.  SimulatedCrash
        # is a BaseException, so it is not caught here and still severs
        # the connection.
        except Exception as error:
            # A non-ReproError here is a server bug, not a client mistake:
            # keep the full traceback server-side, send a typed error.
            logger.exception(
                "unhandled error dispatching request 0x%02x", unit[0].kind
            )
            failure = NetworkError(
                f"internal server error: {type(error).__name__}"
            )
        for request in unit:
            responses[request.index] = self._error_reply(failure)

    #: Request kinds answered by one call on the ISP surface: the method
    #: to call and the ``codec`` function that encodes its result.  Both
    #: are looked up by name at call time, so a subclass, a test double
    #: or a tracer that replaces either is the one that runs.
    _ISP_OPS: Dict[int, Tuple[str, str]] = {
        codec.REQ_GET_CERTIFICATE: ("get_certificate", "encode_certificate"),
        codec.REQ_OPEN_SESSION: ("open_session", "encode_session"),
        codec.REQ_GET_FILE_META: ("get_file_meta", "encode_file_meta"),
        codec.REQ_GET_PAGE: ("get_page", "encode_page"),
        codec.REQ_VALIDATE_PATH: ("validate_path", "encode_validation"),
        codec.REQ_FINALIZE_SESSION: ("finalize_session", "encode_vo"),
    }

    #: The data-plane kinds — page and proof service.  They model
    #: storage service time (what a real shard spends I/O on), and they
    #: are the ones ``isp.serve_batch`` accepts: session-pinned snapshot
    #: reads (control-plane kinds — open_session, certificate, bootstrap
    #: — are served one at a time).
    _DATA_SERVICE_KINDS = frozenset(
        kind for kind, (method, _encoder) in _ISP_OPS.items()
        if method in IspServer.BATCH_OPS
    )

    def _serve(
        self,
        kind: int,
        args: tuple,
        deadline: Optional[Deadline] = None,
    ) -> bytes:
        """Run one decoded request to an encoded reply.

        The base server serializes against :attr:`lock` (one ISP, one
        coarse lock); the fleet router overrides this to dispatch
        lock-free, since its handlers perform remote I/O and must never
        hold a lock across it.  A request whose deadline expired while
        it queued for the lock is refused before any dispatch work.
        """
        if self.service_delay_s and kind in self._DATA_SERVICE_KINDS:
            # Refuse an already-dead request before charging spindle
            # time for it (the post-queue check below still catches a
            # deadline that expires while waiting for the spindle).
            self._check_deadline(deadline)
            self._charge_service_delay(1)
        with self.lock:
            self._check_deadline(deadline)
            return self._dispatch(kind, args)

    def _serve_together(
        self, batch: List[_Admitted], responses: List[bytes]
    ) -> None:
        """:meth:`_serve` for data-plane requests that arrived together.

        One spindle pass charges the whole group (one seek amortized
        over the coalesced reads rather than n independent seeks), one
        dispatch-lock hold and one ``isp.serve_batch`` call serve it —
        while every request still gets its own response, byte-identical
        to the unbatched one (gated by tests and the CI ``serve`` job).
        Deadlines are re-checked per request at the same two points as
        the single path.
        """
        if self.service_delay_s:
            batch = self._unexpired(batch, responses)
            self._charge_service_delay(len(batch))
        with self.lock:
            batch = self._unexpired(batch, responses)
            if not batch:
                return
            results = self.isp.serve_batch([
                (self._ISP_OPS[request.kind][0], request.args)
                for request in batch
            ])
        for request, result in zip(batch, results):
            # One member's failure (serve_batch hands back the exception
            # in its slot, an oversized page fails to encode) is that
            # member's error frame; its batchmates are unaffected.
            try:
                if isinstance(result, ReproError):
                    raise result
                responses[request.index] = self._encode(request.kind, result)
            except ReproError as error:
                responses[request.index] = self._error_reply(error)

    def _unexpired(
        self, batch: List[_Admitted], responses: List[bytes]
    ) -> List[_Admitted]:
        """Answer the expired members of ``batch``; return the rest."""
        live = []
        for request in batch:
            try:
                self._check_deadline(request.deadline)
            except DeadlineExceededError as error:
                responses[request.index] = self._error_reply(error)
            else:
                live.append(request)
        return live

    def _check_deadline(self, deadline: Optional[Deadline]) -> None:
        if deadline is not None and deadline.expired:
            if obs.ACTIVE:
                obs.inc("rpc.server.deadline.expired")
            raise DeadlineExceededError(
                "request deadline expired while queued for dispatch"
            )

    def _charge_service_delay(self, requests: int) -> None:
        """Charge modeled storage service time for ``requests`` reads.

        Serializes on the dedicated :attr:`_storage_lock` (one spindle
        per server), **not** the dispatch lock: while one request waits
        out its modeled I/O, other operations on the same server keep
        dispatching.  Sleeping inside the dispatch lock used to
        serialize every session on the server and skew every
        single-node benchmark baseline.
        """
        with self._storage_lock:
            # Deliberate: the sleep
            # models serial storage service time and must serialize
            # under the dedicated rpc.storage spindle lock; it is never
            # nested inside rpc.server.
            time.sleep(self.service_delay_s * requests)

    def _dispatch(self, kind: int, args: tuple, **isp_kwargs) -> bytes:
        """Call the ISP (or the bootstrap material) for one request.

        ``isp_kwargs`` reach the ISP method unchanged: the fleet router
        hands its deadline-spending surface ``deadline=`` this way.
        """
        op = self._ISP_OPS.get(kind)
        if op is not None:
            result = getattr(self.isp, op[0])(*args, **isp_kwargs)
            return self._encode(kind, result)
        if kind == codec.REQ_PING:
            return codec.encode_pong()
        if kind in (codec.REQ_BOOTSTRAP, codec.REQ_CHAIN_HEADS):
            if self.bootstrap is None:
                raise NetworkError("server has no bootstrap material")
            if kind == codec.REQ_CHAIN_HEADS:
                return codec.encode_chain_heads(self.bootstrap.chain_heads())
            return codec.encode_bootstrap(
                self.bootstrap.report,
                self.bootstrap.attestation_root,
                self.bootstrap.measurement,
            )
        raise NetworkError(f"unhandled request kind 0x{kind:02x}")

    def _encode(self, kind: int, result: object) -> bytes:
        """Encode the ISP's result for an :data:`_ISP_OPS` request."""
        encoder = getattr(codec, self._ISP_OPS[kind][1])
        if kind == codec.REQ_GET_FILE_META:
            return encoder(*result)
        return encoder(result)


def serve_system(
    system,
    host: str = "127.0.0.1",
    port: int = 0,
    server_class: type = RpcIspServer,
) -> RpcIspServer:
    """Wrap a :class:`~repro.core.system.V2FSSystem`'s ISP in an RPC server.

    Returns an *unstarted* server (call :meth:`RpcIspServer.start` or use
    it as a context manager).  The system's ISP synchronization path is
    re-routed through the server's lock, so the CI can keep ingesting
    blocks (``system.advance_block(...)``) while clients query over the
    wire — concurrent updates serialize against request handling and
    in-flight sessions stay pinned to their snapshot roots.
    """
    server = server_class(
        system.isp, host, port, bootstrap=IspBootstrap.for_system(system)
    )
    # Serving the system again replaces an earlier server's wrapper
    # rather than nesting inside it: one lock per update, and no stopped
    # server kept alive by the closure.
    unlocked_sync = getattr(system.isp.sync_update, "unlocked",
                            system.isp.sync_update)

    def locked_sync_update(writes, new_sizes, certificate):
        with server.lock:
            return unlocked_sync(writes, new_sizes, certificate)

    locked_sync_update.unlocked = unlocked_sync  # type: ignore[attr-defined]
    system.isp.sync_update = locked_sync_update
    return server
