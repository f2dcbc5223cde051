"""Open-loop session generator: one thread, a few connections, a schedule.

Sessions start when the schedule says so, whether or not earlier ones
have finished — the ISP's users are independent clients, so a slow
server must not be rewarded with less load.  Each session is the
canonical query shape seen from the ISP::

    open_session → ``len(pages)`` get_page (at most ``window`` in
    flight) → finalize_session

Every latency is timed from the session's *intended* start (``due``),
never from when the generator got round to sending it, so a stall
shows up in the sessions that were due during it (no coordinated
omission).  How late the generator itself ran is reported separately
(``sent_at - due``).

One ``selectors`` loop multiplexes all sessions over ``connections``
sockets and sleeps between events.  A request the server sheds
(``Overloaded``) is re-sent after the server's retry-after hint, as
``RemoteIsp`` does; the wait counts towards the session's latency.  Against the event-loop server requests carry V4 frame ids and
replies are matched by id; against the threaded server (``pipelined=
False``) plain frames are matched first-in first-out per connection,
which is that server's contract.

Replies are checked inline by byte equality with the expected reply
payload (a ``memcmp``, cheaper than hashing); the VO payloads of a
deterministic sample of sessions are kept for proof verification after
the window.
"""

from __future__ import annotations

import collections
import heapq
import random
import selectors
import socket
import time
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import OverloadedError
from repro.rpc import codec

_OPEN, _PAGE, _FINALIZE = 0, 1, 2
#: A probe (~1 ms) is only taken with this much room before the next
#: session is due.
_PROBE_ROOM_S = 0.003
#: How often one request is re-sent after the server shed it.
MAX_SHED_RETRIES = 5
_ERROR_TAG = bytes([codec.RESP_ERROR])
_VO_TAG = bytes([codec.RESP_VO])


class SessionPlan:
    """One scheduled session: when it is due and which pages it reads."""

    __slots__ = ("due", "pages")

    def __init__(self, due: float, pages: Sequence[int]) -> None:
        self.due = due
        #: Indices into the run's page population.
        self.pages = pages


class SessionRecord:
    """What happened to one session."""

    __slots__ = (
        "index", "due", "sent_at", "done_at", "session_id", "error",
        "sheds", "vo_size", "vo_payload", "next_page", "inflight", "conn",
    )

    def __init__(self, index: int, due: float) -> None:
        self.index = index
        self.due = due
        self.sent_at: Optional[float] = None
        self.done_at: Optional[float] = None
        self.session_id: Optional[int] = None
        #: First thing that went wrong (None = every reply was right).
        self.error: Optional[str] = None
        #: Requests of this session the server shed (and that were
        #: retried after its retry-after hint).
        self.sheds = 0
        #: Bytes of the finalize reply (the encoded consolidated VO).
        self.vo_size = 0
        #: The reply itself, kept for a sample of sessions.
        self.vo_payload: Optional[bytes] = None
        self.next_page = 0
        self.inflight = 0
        self.conn: Optional["_Conn"] = None

    @property
    def ok(self) -> bool:
        return self.done_at is not None and self.error is None

    @property
    def latency_s(self) -> float:
        """Seconds from the intended start to the finalize reply."""
        assert self.done_at is not None
        return self.done_at - self.due


class LoadResult:
    def __init__(self, records: List[SessionRecord]) -> None:
        self.records = records
        self.frames_sent = 0
        #: (seconds since schedule zero, probe duration) of every speed
        #: probe taken while the generator had nothing to do.
        self.idle_probes: List[Tuple[float, float]] = []
        self.bytes_sent = 0
        self.bytes_received = 0
        #: ``time.perf_counter()`` at schedule time zero.
        self.started_at = 0.0
        #: Seconds from schedule time zero to the last reply handled.
        self.elapsed_s = 0.0


class _Conn:
    __slots__ = ("sock", "decoder", "outbuf", "by_id", "fifo", "next_id",
                 "writing", "dirty")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = codec.FrameDecoder()
        self.outbuf = bytearray()
        #: Requests awaiting a reply, as (record, step, page, payload,
        #: attempts) — by frame id when pipelined, else in send order.
        self.by_id: Dict[int, tuple] = {}
        self.fifo: Deque[tuple] = collections.deque()
        self.next_id = 0
        self.writing = False
        #: Output queued since the last flush.
        self.dirty = False


def poisson_arrivals(
    rng: random.Random, rate_per_s: float, horizon_s: float
) -> List[float]:
    """Seeded Poisson arrival times in [0, horizon_s), conditioned on
    their count being ``rate_per_s * horizon_s``.

    Given its count, a Poisson process's arrival times are sorted
    uniform draws — so this keeps the bursts and gaps that make the
    load open-loop, while every seed offers exactly the same number of
    sessions (otherwise goodput would mostly measure sqrt(n) luck).
    """
    count = round(rate_per_s * horizon_s)
    return sorted(rng.uniform(0.0, horizon_s) for _ in range(count))


def plan_sessions(
    rng: random.Random,
    rate_per_s: float,
    start_s: float,
    seconds: float,
    population_size: int,
    pages_per_session: int,
) -> List[SessionPlan]:
    """Arrivals in [start_s, start_s + seconds), each reading uniformly
    drawn pages."""
    return [
        SessionPlan(
            start_s + due,
            [rng.randrange(population_size)
             for _ in range(pages_per_session)],
        )
        for due in poisson_arrivals(rng, rate_per_s, seconds)
    ]


def run_open_loop(
    address: Tuple[str, int],
    plans: Sequence[SessionPlan],
    page_requests: Sequence[Tuple[str, int]],
    expected_replies: Sequence[bytes],
    *,
    connections: int = 2,
    window: int = 8,
    pipelined: bool = True,
    drain_s: float = 5.0,
    keep_vo_every: int = 16,
    idle_probe: Optional[Callable[[], float]] = None,
) -> LoadResult:
    """Run the schedule; returns one :class:`SessionRecord` per plan.

    ``page_requests[i]`` is the (path, page_id) behind population index
    ``i`` and ``expected_replies[i]`` the exact reply payload a correct
    server sends for it.  Sessions still unfinished ``drain_s`` after
    the last due time are left with ``done_at is None`` (the caller
    counts them as failed).  ``idle_probe`` is called whenever nothing
    is in flight and nothing is due for :data:`_PROBE_ROOM_S` — it can
    delay neither a reply nor a launch — and its results are kept in
    :attr:`LoadResult.idle_probes`.
    """
    generator = _Generator(plans, page_requests, expected_replies,
                           window, pipelined, keep_vo_every)
    try:
        for _ in range(connections):
            generator.connect(address)
        generator.drive(drain_s, idle_probe)
    finally:
        generator.close()
    return generator.result


class _Generator:
    """The selector loop and the per-session state machine."""

    def __init__(self, plans, page_requests, expected_replies, window,
                 pipelined, keep_vo_every) -> None:
        self.plans = plans
        self.page_requests = page_requests
        self.expected_replies = expected_replies
        self.window = window
        self.pipelined = pipelined
        self.keep_vo_every = keep_vo_every
        self.records = [SessionRecord(i, plan.due)
                        for i, plan in enumerate(plans)]
        self.result = LoadResult(self.records)
        self.sel = selectors.DefaultSelector()
        self.conns: List[_Conn] = []
        #: (resend at, tie-breaker, request) for requests the server shed.
        self.retries: List[Tuple[float, int, tuple]] = []
        self.active = 0

    def connect(self, address: Tuple[str, int]) -> None:
        sock = socket.create_connection(address, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conn = _Conn(sock)
        self.conns.append(conn)
        self.sel.register(sock, selectors.EVENT_READ, conn)

    def close(self) -> None:
        self.sel.close()
        for conn in self.conns:
            try:
                conn.sock.close()
            except OSError:
                pass

    # -- sending ------------------------------------------------------------

    def send(self, request: tuple) -> None:
        """Queue one request: (record, step, page, payload, attempts)."""
        conn = request[0].conn
        if self.pipelined:
            conn.by_id[conn.next_id] = request
            conn.outbuf += codec.frame(request[3], frame_id=conn.next_id)
            conn.next_id = (conn.next_id + 1) & 0xFFFFFFFF
        else:
            conn.fifo.append(request)
            conn.outbuf += codec.frame(request[3])
        conn.dirty = True
        self.result.frames_sent += 1

    def top_up(self, record: SessionRecord) -> None:
        pages = self.plans[record.index].pages
        while (record.next_page < len(pages)
               and record.inflight < self.window):
            page = pages[record.next_page]
            record.next_page += 1
            record.inflight += 1
            path, page_id = self.page_requests[page]
            self.send((record, _PAGE, page, codec.encode_get_page(
                record.session_id, path, page_id), 0))

    def flush(self, conn: _Conn) -> None:
        conn.dirty = False
        while conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            self.result.bytes_sent += sent
            del conn.outbuf[:sent]
        want_write = bool(conn.outbuf)
        if want_write != conn.writing:
            conn.writing = want_write
            mask = selectors.EVENT_READ
            if want_write:
                mask |= selectors.EVENT_WRITE
            self.sel.modify(conn.sock, mask, conn)

    # -- replies ------------------------------------------------------------

    def on_reply(self, request: tuple, payload: bytes, now: float) -> bool:
        """Handle one reply; True when the session just finished."""
        record, step, page, _sent, attempts = request
        if payload[:1] == _ERROR_TAG:
            _, error = codec.decode_response(payload)
            if (isinstance(error, OverloadedError)
                    and attempts < MAX_SHED_RETRIES):
                # What RemoteIsp does with a shed: wait out the server's
                # retry-after hint and ask again.  The wait stays in the
                # session's latency.
                record.sheds += 1
                heapq.heappush(self.retries, (
                    now + max(error.retry_after_s or 0.0, 0.01),
                    self.result.frames_sent,
                    request[:4] + (attempts + 1,),
                ))
                return False
            if record.error is None:
                record.error = f"{type(error).__name__}: {error}"
        if step == _OPEN:
            if record.error is not None:
                return True
            kind, value = codec.decode_response(payload)
            if kind != codec.RESP_SESSION:
                record.error = f"open answered with kind 0x{kind:02x}"
                return True
            record.session_id = value
            self.top_up(record)
            return False
        if step == _PAGE:
            record.inflight -= 1
            if (record.error is None
                    and payload != self.expected_replies[page]):
                record.error = (
                    f"page {self.page_requests[page]} reply differs"
                )
            self.top_up(record)
            if record.inflight == 0:
                # Finalize even after a bad page, so the server-side
                # session is closed rather than left for the TTL sweep.
                self.send((record, _FINALIZE, -1,
                           codec.encode_finalize_session(record.session_id),
                           0))
            return False
        if record.error is None:
            if payload[:1] != _VO_TAG:
                record.error = "finalize did not answer with a VO"
            else:
                record.vo_size = len(payload)
                if record.index % self.keep_vo_every == 0:
                    record.vo_payload = payload
        return True

    def read(self, conn: _Conn, started: float) -> None:
        try:
            chunk = conn.sock.recv(1 << 18)
        except (BlockingIOError, InterruptedError):
            return
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.result.bytes_received += len(chunk)
        conn.decoder.feed(chunk)
        for payload, _deadline, frame_id in conn.decoder.frames():
            request = (conn.by_id.pop(frame_id) if self.pipelined
                       else conn.fifo.popleft())
            now = time.perf_counter() - started
            if self.on_reply(request, payload, now):
                request[0].done_at = now
                self.active -= 1

    # -- the loop -------------------------------------------------------------

    def drive(self, drain_s: float,
              idle_probe: Optional[Callable[[], float]]) -> None:
        clock = time.perf_counter
        plans, records = self.plans, self.records
        started = self.result.started_at = clock()
        give_up_at = (plans[-1].due if plans else 0.0) + drain_s
        next_plan = 0
        while next_plan < len(plans) or self.active:
            now = clock() - started
            while next_plan < len(plans) and plans[next_plan].due <= now:
                record = records[next_plan]
                record.conn = self.conns[next_plan % len(self.conns)]
                record.sent_at = clock() - started
                self.send((record, _OPEN, -1,
                           codec.encode_open_session(None), 0))
                self.active += 1
                next_plan += 1
            while self.retries and self.retries[0][0] <= now:
                self.send(heapq.heappop(self.retries)[2])
            for conn in self.conns:
                if conn.dirty:
                    self.flush(conn)
            # Sleep until the next thing this loop has to do by itself.
            wake_at = give_up_at
            if next_plan < len(plans):
                wake_at = plans[next_plan].due
            if self.retries:
                wake_at = min(wake_at, self.retries[0][0])
            now = clock() - started
            if now > give_up_at:
                break
            if (idle_probe is not None and not self.active
                    and wake_at - now > _PROBE_ROOM_S):
                self.result.idle_probes.append((now, idle_probe()))
                now = clock() - started
            for key, mask in self.sel.select(max(0.0, wake_at - now)):
                conn = key.data
                if mask & selectors.EVENT_READ:
                    self.read(conn, started)
                if conn.dirty or mask & selectors.EVENT_WRITE:
                    self.flush(conn)
        self.result.elapsed_s = clock() - started


def closed_loop_pages_per_s(
    address: Tuple[str, int],
    page_requests: Sequence[Tuple[str, int]],
    seconds: float,
    *,
    connections: int = 2,
    window: int = 8,
) -> float:
    """Saturation probe: get_page replies per second with every window
    kept full (the server, not a schedule, sets the pace)."""
    socks = []
    sel = selectors.DefaultSelector()
    replies = 0
    try:
        for _ in range(connections):
            sock = socket.create_connection(address, timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            codec.send_frame(sock, codec.encode_open_session(None))
            _, session_id = codec.decode_response(codec.recv_frame(sock))
            sock.setblocking(False)
            state = {"sock": sock, "sid": session_id, "next": 0,
                     "decoder": codec.FrameDecoder(), "out": bytearray()}
            socks.append(state)
            sel.register(sock, selectors.EVENT_READ, state)

        def issue(state, count: int) -> None:
            for _ in range(count):
                path, page_id = page_requests[
                    state["next"] % len(page_requests)
                ]
                state["out"] += codec.frame(
                    codec.encode_get_page(state["sid"], path, page_id),
                    frame_id=state["next"] & 0xFFFFFFFF,
                )
                state["next"] += 1

        def flush(state) -> None:
            while state["out"]:
                try:
                    sent = state["sock"].send(state["out"])
                except (BlockingIOError, InterruptedError):
                    return
                del state["out"][:sent]

        for state in socks:
            issue(state, window)
            flush(state)
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            for key, _mask in sel.select(0.05):
                state = key.data
                try:
                    chunk = state["sock"].recv(1 << 18)
                except (BlockingIOError, InterruptedError):
                    continue
                if not chunk:
                    raise ConnectionError("server closed the connection")
                state["decoder"].feed(chunk)
                done = len(state["decoder"].frames())
                replies += done
                issue(state, done)
                flush(state)
        elapsed = time.perf_counter() - started
    finally:
        sel.close()
        for state in socks:
            try:
                state["sock"].close()
            except OSError:
                pass
    return replies / elapsed if elapsed > 0 else 0.0
