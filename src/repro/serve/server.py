"""Event-loop RPC server: pipelining + snapshot-shared proof batching.

:class:`AsyncIspServer` serves the exact wire protocol of
:mod:`repro.rpc.codec` from a single ``selectors`` event loop instead of
a thread per connection.  It is a second *transport* under
:class:`~repro.rpc.server.RpcIspServer`, nothing more: frames go into
the inherited :meth:`~repro.rpc.server.RpcIspServer._exchange` — request
pipeline, failpoints, wire-adversary seam — and wire-ready bytes come
back, so every wire-adversary and chaos suite written against the
threaded server runs against this one by mixing the same subclasses
over ``AsyncIspServer``.

Architecture (one loop thread + a bounded worker pool):

* The **loop thread** owns every socket.  It accepts, reads whatever is
  available into a per-connection :class:`~repro.rpc.codec.FrameDecoder`,
  and flushes per-connection output buffers — never blocking and never
  touching the ISP.  All loop-side connection state (``_conns``,
  ``_batch_pending``, per-connection buffers) is confined to this
  thread.
* **Workers** run everything that could block the loop: request
  decode, admission, the dispatch lock, the modeled storage sleep, and
  ISP calls.  They never see a socket; each request's
  reply is *posted* back to the loop as one completion record through
  :attr:`_completions` (guarded by ``serve.outbox``) plus a wake-pipe
  byte.
* **Pipelining**: each id-carrying frame becomes an independent worker
  task and its response echoes the id, so responses complete — and hit
  the wire — out of order, and one slow request never head-of-line-blocks
  its connection.  Frames without an id keep the threaded server's
  contract (strictly one in flight, responses in request order) via a
  per-connection backlog.
* **Batching**: data-plane requests that arrive within one loop tick are
  handed to the pipeline *together*, which serves them with a single
  :meth:`~repro.isp.server.IspServer.serve_batch` call (see
  :meth:`~repro.rpc.server.RpcIspServer._serve_together`).

Trust model is unchanged: the server stays untrusted and nothing it
sends is believed until the client verifies it against the certificate.
"""

from __future__ import annotations

import collections
import logging
import queue
import selectors
import socket
import threading
import time
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import WireFormatError
from repro.faults.registry import InjectedFault, SimulatedCrash
from repro.isp.server import IspServer
from repro.obs import metrics as obs
from repro.rpc import codec
from repro.rpc.server import IspBootstrap, RpcIspServer
from repro.sanitize.runtime import SanLock, guarded_by

logger = logging.getLogger("repro.serve")


class _Conn:
    """Loop-thread-confined state for one client connection."""

    __slots__ = (
        "sock", "fd", "decoder", "outbuf", "registered", "inflight",
        "plain_busy", "plain_backlog", "read_eof", "closing", "closed",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.decoder = codec.FrameDecoder()
        self.outbuf = bytearray()
        #: Selector interest mask currently registered (0 = none).
        self.registered = 0
        #: Requests handed to workers but not yet completed.
        self.inflight = 0
        #: Plain (id-less) frame serialization: the threaded server
        #: answers strictly one-at-a-time in order, so id-less clients
        #: get the same contract here — one dispatched at a time, the
        #: rest parked in ``plain_backlog``.
        self.plain_busy = False
        self.plain_backlog: Deque["_Request"] = collections.deque()
        self.read_eof = False
        self.closing = False
        self.closed = False


#: One received frame awaiting dispatch, with the connection it came on.
_Request = Tuple["_Conn", codec.Frame]


@guarded_by(_completions="_out_lock", _wake_pending="_out_lock")
class AsyncIspServer(RpcIspServer):
    """Serve one ISP to thousands of clients from one event loop."""

    def __init__(
        self,
        isp: IspServer,
        host: str = "127.0.0.1",
        port: int = 0,
        bootstrap: Optional[IspBootstrap] = None,
        *,
        workers: int = 8,
    ) -> None:
        super().__init__(isp, host, port, bootstrap)
        if workers < 1:
            raise ValueError("worker pool needs at least one thread")
        self.workers = workers
        #: A connection whose client stops reading accumulates its
        #: pipelined responses here; beyond this bound it is dropped
        #: (bounded memory beats unbounded buffering of an unread VO
        #: stream).
        self.max_outbuf_bytes = 4 * codec.MAX_FRAME_BYTES
        self._loop_thread: Optional[threading.Thread] = None
        self._worker_threads: List[threading.Thread] = []
        #: Work for the pool: each item is the requests to run through
        #: the pipeline together (``None`` tells a worker to exit).
        self._tasks: "queue.Queue[Optional[List[_Request]]]" = queue.Queue()
        self._out_lock = SanLock("serve.outbox")
        #: Completion records posted by workers, drained by the loop.
        self._completions: Deque[tuple] = collections.deque()
        self._wake_pending = False
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        # Loop-thread-confined state --------------------------------
        self._conns: Dict[int, _Conn] = {}
        self._batch_pending: List[_Request] = []
        self._inflight = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "AsyncIspServer":
        """Bind, listen, and serve from the loop + worker threads."""
        self._listen(1024).setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._worker_threads = [
            threading.Thread(
                target=self._worker_main,
                name=f"serve-worker-{i}",
                daemon=True,
            )
            for i in range(self.workers)
        ]
        for thread in self._worker_threads:
            thread.start()
        self._loop_thread = threading.Thread(
            target=self._loop_main, name="serve-loop", daemon=True
        )
        self._loop_thread.start()
        return self

    def stop(self) -> None:
        """Stop the loop, drain the pool, close every socket."""
        if self._listener is None:
            return
        self._running.clear()
        self._wake_loop()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=5.0)
            if self._loop_thread.is_alive():  # pragma: no cover - wedged
                logger.warning("serve loop did not exit; abandoning it")
            self._loop_thread = None
        for _ in self._worker_threads:
            self._tasks.put(None)
        for thread in self._worker_threads:
            thread.join(timeout=self.JOIN_TIMEOUT_S)
            if thread.is_alive():  # pragma: no cover - wedged worker
                logger.warning(
                    "worker %s did not exit within %.1fs; abandoning it",
                    thread.name, self.JOIN_TIMEOUT_S,
                )
        self._worker_threads = []
        for sock in (self._listener, self._wake_r, self._wake_w):
            if sock is None:
                continue
            try:
                sock.close()
            except OSError:
                pass
        self._listener = None
        self._wake_r = self._wake_w = None
        self._tasks = queue.Queue()
        with self._out_lock:
            self._completions.clear()
            self._wake_pending = False

    # ------------------------------------------------------------------
    # Worker -> loop completion channel
    # ------------------------------------------------------------------

    def _post(self, completions: List[tuple]) -> None:
        """Post finished requests to the loop and wake it.

        One ``(conn, data, sever, plain)`` record per request: the bytes
        to append to the connection's output, whether to close it once
        they flush, and whether the request was an id-less one (whose
        completion unblocks the connection's backlog).
        """
        with self._out_lock:
            self._completions.extend(completions)
            if self._wake_pending:
                return
            self._wake_pending = True
        self._wake_loop()

    def _wake_loop(self) -> None:
        wake = self._wake_w
        if wake is None:
            return
        try:
            wake.send(b"\x00")
        except OSError:
            # A full pipe already guarantees a pending wakeup; a closed
            # one means the server is stopping.
            pass

    def _drain_completions(self) -> List[tuple]:
        with self._out_lock:
            drained = list(self._completions)
            self._completions.clear()
            self._wake_pending = False
        return drained

    # ------------------------------------------------------------------
    # Event loop (single thread; owns all sockets)
    # ------------------------------------------------------------------

    def _loop_main(self) -> None:
        sel = selectors.DefaultSelector()
        assert self._listener is not None and self._wake_r is not None
        sel.register(self._listener, selectors.EVENT_READ, "accept")
        sel.register(self._wake_r, selectors.EVENT_READ, "wake")
        try:
            while self._running.is_set():
                events = sel.select()
                tick_start = time.monotonic()
                touched: Set[_Conn] = set()
                for key, mask in events:
                    tag = key.data
                    if tag == "accept":
                        self._accept_ready(sel)
                    elif tag == "wake":
                        self._drain_wake_pipe()
                    else:
                        conn = tag
                        if mask & selectors.EVENT_READ:
                            self._read_ready(conn)
                        touched.add(conn)
                for completion in self._drain_completions():
                    self._apply_completion(*completion)
                    touched.add(completion[0])
                self._flush_batch()
                for conn in touched:
                    self._settle(sel, conn)
                if obs.ACTIVE and (events or touched):
                    obs.observe(
                        "serve.loop.lag_s", time.monotonic() - tick_start
                    )
                    obs.set_gauge("serve.inflight", self._inflight)
                    obs.set_gauge("serve.connections", len(self._conns))
        finally:
            # Reset every piece of loop-confined state on the loop
            # thread itself (stop() must not touch it: the join gives
            # it happens-before visibility, not ownership).  Requests
            # parked in _batch_pending were never admitted, so there
            # is no slot to return — only the counters to zero, or a
            # stop() racing an in-flight batch would poison a restart.
            for conn in list(self._conns.values()):
                self._close_conn(sel, conn)
            self._batch_pending.clear()
            self._inflight = 0
            sel.close()

    def _drain_wake_pipe(self) -> None:
        assert self._wake_r is not None
        try:
            while self._wake_r.recv(1 << 16):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:  # pragma: no cover - stopping
            pass

    def _accept_ready(self, sel: selectors.BaseSelector) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed by stop()
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP test doubles
                pass
            conn = _Conn(sock)
            self._conns[conn.fd] = conn
            sel.register(sock, selectors.EVENT_READ, conn)
            conn.registered = selectors.EVENT_READ

    def _read_ready(self, conn: _Conn) -> None:
        while not conn.closed and not conn.closing:
            try:
                chunk = conn.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                conn.closing = True
                conn.outbuf.clear()
                return
            if not chunk:
                conn.read_eof = True
                return
            try:
                conn.decoder.feed(chunk)
                frames = conn.decoder.frames()
            except WireFormatError as error:
                # Protocol garbage: answer with a typed error, then
                # drop the connection — same contract as the threaded
                # server's _client_loop.
                conn.outbuf += codec.frame(codec.encode_error(error))
                conn.closing = True
                return
            for frame in frames:
                self._on_frame(conn, frame)

    def _on_frame(self, conn: _Conn, frame: codec.Frame) -> None:
        request = (conn, frame)
        if frame[2] is not None:
            if obs.ACTIVE:
                obs.inc("serve.pipelined.requests")
        elif conn.plain_busy:
            conn.plain_backlog.append(request)
            return
        else:
            conn.plain_busy = True
        self._submit(request)

    def _submit(self, request: _Request) -> None:
        conn, (payload, _deadline_ms, _frame_id) = request
        conn.inflight += 1
        self._inflight += 1
        if (
            self.batching
            and payload and payload[0] in self._DATA_SERVICE_KINDS
        ):
            # Held until the tick ends, then run through the pipeline
            # together so they can share one serve_batch call.
            self._batch_pending.append(request)
        else:
            self._tasks.put([request])

    def _flush_batch(self) -> None:
        if not self._batch_pending:
            return
        batch, self._batch_pending = self._batch_pending, []
        if obs.ACTIVE:
            obs.observe("serve.batch.size", len(batch))
            obs.inc("serve.batch.flushes")
        self._tasks.put(batch)

    def _apply_completion(
        self, conn: _Conn, data: bytes, sever: bool, plain: bool
    ) -> None:
        self._inflight -= 1
        if conn.closed:
            return
        conn.inflight -= 1
        if not conn.closing:
            # Once a reply severs the connection (an adversary, the
            # truncate failpoint, a dead handler), the bytes it carried
            # still flush; nothing after them does.
            conn.outbuf += data
            conn.closing = sever
        if plain:
            conn.plain_busy = False
            if conn.plain_backlog and not conn.closing:
                conn.plain_busy = True
                self._submit(conn.plain_backlog.popleft())

    def _settle(self, sel: selectors.BaseSelector, conn: _Conn) -> None:
        """Flush what the socket accepts now, then close or re-arm."""
        if conn.closed:
            return
        while conn.outbuf:
            try:
                sent = conn.sock.send(bytes(memoryview(conn.outbuf)[:1 << 18]))
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(sel, conn)
                return
            if sent <= 0:  # pragma: no cover - defensive
                break
            del conn.outbuf[:sent]
        if len(conn.outbuf) > self.max_outbuf_bytes:
            logger.warning(
                "dropping connection with %d buffered response bytes "
                "(client not reading)", len(conn.outbuf),
            )
            self._close_conn(sel, conn)
            return
        if not conn.outbuf and (
            conn.closing or (conn.read_eof and conn.inflight == 0)
        ):
            self._close_conn(sel, conn)
            return
        interest = 0
        if not conn.read_eof and not conn.closing:
            interest |= selectors.EVENT_READ
        if conn.outbuf:
            interest |= selectors.EVENT_WRITE
        if interest != conn.registered:
            if conn.registered == 0:
                sel.register(conn.sock, interest, conn)
            elif interest == 0:
                sel.unregister(conn.sock)
            else:
                sel.modify(conn.sock, interest, conn)
            conn.registered = interest

    def _close_conn(self, sel: selectors.BaseSelector, conn: _Conn) -> None:
        if conn.closed:
            return
        conn.closed = True
        if conn.registered:
            try:
                sel.unregister(conn.sock)
            except (KeyError, ValueError, OSError):  # pragma: no cover
                pass
            conn.registered = 0
        self._conns.pop(conn.fd, None)
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover
            pass
        conn.outbuf.clear()
        conn.plain_backlog.clear()

    # ------------------------------------------------------------------
    # Worker pool (all blocking work lives here)
    # ------------------------------------------------------------------

    def _worker_main(self) -> None:
        while True:
            requests = self._tasks.get()
            if requests is None:
                return
            try:
                self._run(requests)
            except (InjectedFault, SimulatedCrash):
                # The rpc.server.crash probe killed this handler; the
                # admission slots were released on the unwind and the
                # connections severed by _run — the pool thread lives.
                logger.warning("injected handler crash; requests dropped")
            except Exception:  # pragma: no cover - server bug backstop
                logger.exception("serve worker: unhandled error")

    def _run(self, requests: List[_Request]) -> None:
        """Serve one task's requests; post one completion for each.

        Unless :meth:`_exchange` returns, every request completes as
        "nothing to send, sever": a dying handler takes its connections
        with it, exactly like a handler-thread death on the threaded
        server.
        """
        replies: List[Tuple[bytes, bool]] = [(b"", True)] * len(requests)
        try:
            replies = self._exchange([frame for _conn, frame in requests])
        finally:
            self._post([
                (conn, data, sever, frame[2] is None)
                for (conn, frame), (data, sever) in zip(requests, replies)
            ])


__all__ = ["AsyncIspServer"]
