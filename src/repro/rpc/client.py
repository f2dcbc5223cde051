"""Client-side proxy: a socket-backed drop-in for the in-process ISP.

:class:`RemoteIsp` speaks the :mod:`repro.rpc.codec` protocol and
exposes the exact client-facing surface of
:class:`~repro.isp.server.IspServer` (``get_certificate`` /
``open_session`` / ``get_file_meta`` / ``get_page`` / ``validate_path``
/ ``finalize_session``), so :class:`~repro.client.query_client.QueryClient`
and :class:`~repro.client.vfs.ClientSession` work over real sockets
without modification — the transport seam is the ``isp`` constructor
argument itself.

Reliability model:

* a bounded **connection pool** reuses sockets across requests and
  across concurrently querying threads;
* every request carries a **per-request timeout**;
* **connection-level** failures (refused, reset, timed out) are retried
  with bounded exponential backoff — safe because every ISP operation
  is idempotent at the VO level (the server's claim accumulator is a
  set, and ``open_session`` at worst strands an unused session);
* **data-level** failures (malformed, corrupt, or truncated frames)
  are *never* retried: they raise a typed
  :class:`~repro.errors.WireFormatError` immediately, because a peer
  that sends garbage is either broken or hostile, and the caller must
  see that;
* a per-endpoint **circuit breaker** fails calls fast once an endpoint
  has produced enough *consecutive* connection-level failures: without
  it, every request routed to a dead shard burns the full retry/backoff
  budget before erroring, which turns one dead shard into fleet-wide
  latency.  The breaker only gates the *start* of a call — a call
  already inside its retry loop runs its full budget, so the documented
  retry contract is unchanged.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Optional, Tuple, Union

from repro.chain.block import BlockHeader
from repro.core.certificate import V2fsCertificate
from repro.crypto.hashing import Digest
from repro.crypto.signature import PublicKey
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    RpcConnectionError,
    RpcTimeoutError,
    WireFormatError,
)
from repro.faults import netsplit
from repro.isp.server import FreshMatch, PageReply
from repro.merkle.proof import AdsProof
from repro.obs import metrics as obs
from repro.rpc import codec
from repro.rpc.deadline import MAX_DEADLINE_MS, Deadline, RetryBudget
from repro.sgx.attestation import AttestationReport


class _ConnectionPool:
    """A bounded stack of connected sockets to one (host, port)."""

    #: Idle connections kept for reuse; more are closed on release.
    SIZE = 8

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        self._host = host
        self._port = port
        self._timeout_s = timeout_s
        self._lock = threading.Lock()
        self._idle: List[socket.socket] = []
        self._closed = False

    def acquire(self) -> socket.socket:
        with self._lock:
            if self._closed:
                raise RpcConnectionError("connection pool is closed")
            if self._idle:
                return self._idle.pop()
        try:
            return socket.create_connection(
                (self._host, self._port), timeout=self._timeout_s
            )
        except socket.timeout as error:
            raise RpcTimeoutError(
                f"connect to {self._host}:{self._port} timed out"
            ) from error
        except OSError as error:
            raise RpcConnectionError(
                f"cannot connect to {self._host}:{self._port}: {error}"
            ) from error

    def release(self, conn: socket.socket) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self.SIZE:
                self._idle.append(conn)
                return
        _close_quietly(conn)

    def discard(self, conn: socket.socket) -> None:
        _close_quietly(conn)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
            self._closed = True
        for conn in idle:
            _close_quietly(conn)


def _close_quietly(conn: socket.socket) -> None:
    try:
        conn.close()
    except OSError:
        pass


class CircuitBreaker:
    """Per-endpoint connection-failure breaker (closed → open → half-open).

    Counts *consecutive* connection-level failures (attempt granularity);
    at ``threshold`` the circuit opens and :meth:`check` rejects calls
    immediately with :class:`~repro.errors.RpcConnectionError`.  After
    ``cooldown_s`` one probe call is let through (half-open): success
    closes the circuit, failure re-opens it for another cooldown.
    ``threshold=0`` disables the breaker entirely.

    The breaker is consulted only *between* calls, never between the
    retry attempts inside one call, so retry counts and backoff timing
    stay exactly as documented for the first call that finds an endpoint
    dead.
    """

    def __init__(self, threshold: int = 4, cooldown_s: float = 0.25) -> None:
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    def check(self) -> None:
        """Raise if the circuit is open (called at the start of a call)."""
        if self.threshold <= 0:
            return
        with self._lock:
            if self._opened_at is None:
                return
            elapsed = time.monotonic() - self._opened_at
            if elapsed >= self.cooldown_s and not self._probing:
                # Half-open: admit exactly one probe call.
                self._probing = True
                return
            failures = self._failures
        if obs.ACTIVE:
            obs.inc("rpc.client.breaker.fastfail")
        raise RpcConnectionError(
            f"circuit open after {failures} consecutive connection "
            f"failures; retrying after {self.cooldown_s}s cooldown"
        )

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        if self.threshold <= 0:
            return
        opened = False
        with self._lock:
            self._probing = False
            self._failures += 1
            if self._failures >= self.threshold:
                opened = self._opened_at is None
                self._opened_at = time.monotonic()
        if opened and obs.ACTIVE:
            obs.inc("rpc.client.breaker.open")

    @property
    def is_open(self) -> bool:
        with self._lock:
            return self._opened_at is not None


class RemoteIsp:
    """A connected ISP proxy; drop-in for the in-process ISP."""

    #: Every surface method accepts and enforces a per-call
    #: ``deadline`` kwarg.  The fleet router checks this capability
    #: before using deadline-capped tied-request hedging — bare
    #: in-process handles (test fakes, raw shards) don't have it.
    supports_deadline = True

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 10.0,
        max_retries: int = 3,
        backoff_s: float = 0.05,
        max_backoff_s: float = 1.0,
        breaker_threshold: int = 4,
        breaker_cooldown_s: float = 0.25,
        label: str = "client",
        retry_budget: Optional[RetryBudget] = None,
        default_deadline_s: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        #: Netsplit identity: which side of a simulated partition this
        #: handle sits on (see :mod:`repro.faults.netsplit`).
        self.label = label
        #: Global retry throttle for this endpoint handle.  Generous at
        #: rest (no effect on a handful of failing calls, so documented
        #: per-call retry counts hold), but a storm of concurrent
        #: failures drains it and further retries are refused instead
        #: of amplifying the outage.  Share one instance across handles
        #: to cap a whole process's retry rate.
        self.retry_budget = retry_budget or RetryBudget(
            capacity=32.0, refill_per_s=8.0
        )
        #: When set, every call without an explicit deadline gets
        #: ``Deadline.after(default_deadline_s)`` — the lever that arms
        #: end-to-end budgets for callers (QueryClient) that don't know
        #: about deadlines.
        self.default_deadline_s = default_deadline_s
        #: The worst span one call can take with *no* deadline at all:
        #: every attempt's full socket timeout plus every backoff
        #: sleep.  A deadline with more budget than this is provably
        #: non-binding — the attempt schedule finishes (or fails)
        #: first — so the per-attempt deadline arithmetic and the wire
        #: field are elided for it.  Tight budgets (sub-deadlines,
        #: hedging caps, chaos schedules) still ride the wire.
        self._deadline_bind_s = (max_retries + 1) * timeout_s + sum(
            min(backoff_s * (2 ** i), max_backoff_s)
            for i in range(max_retries)
        )
        self._pool = _ConnectionPool(host, port, timeout_s)
        #: Per-endpoint breaker: the default threshold equals one fully
        #: failed default call (max_retries + 1 attempts), so the second
        #: call to a dead endpoint fails fast instead of backing off.
        self.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown_s)
        #: Monotonic stamp of the last successful round trip.  Health
        #: probing reads it as an implicit heartbeat: an endpoint that
        #: answered real traffic within the probe interval needs no
        #: active probe.  Plain attribute, no lock — a stale read only
        #: costs one redundant probe.
        self.last_ok_monotonic: Optional[float] = None

    # ------------------------------------------------------------------
    # Request machinery
    # ------------------------------------------------------------------

    def _call(
        self,
        request: bytes,
        expected_kind: int,
        deadline: Optional[Deadline] = None,
    ) -> object:
        """One RPC round trip with pooled connections and retries.

        ``deadline`` bounds the *whole call*: each backoff sleep and
        per-attempt socket timeout is capped to the remaining budget,
        and the budget rides the frame header so the server can
        refuse work it cannot finish in time.  Retries beyond the first
        attempt also spend from :attr:`retry_budget`; a dry bucket ends
        the call with the error it already has.  A server ``Overloaded``
        shed is honored — its retry-after hint stretches the next
        backoff and the shed never counts against the circuit breaker.
        """
        attempts = self.max_retries + 1
        last_error: Optional[Exception] = None
        retry_after: Optional[float] = None
        self.breaker.check()
        if deadline is not None:
            deadline.check("rpc call")
        elif self.default_deadline_s is not None:
            # Freshly minted, so it cannot already be expired — no
            # point reading the clock again to check it.
            deadline = Deadline.after(self.default_deadline_s)
        if obs.ACTIVE:
            obs.inc("rpc.client.requests")
        for attempt in range(attempts):
            if attempt:
                if not self.retry_budget.spend():
                    if obs.ACTIVE:
                        obs.inc("rpc.client.retry_budget.denied")
                    break
                if obs.ACTIVE:
                    obs.inc("rpc.client.retries")
                delay = min(
                    self.backoff_s * (2 ** (attempt - 1)),
                    self.max_backoff_s,
                )
                if retry_after is not None:
                    delay = max(delay, retry_after)
                    retry_after = None
                if deadline is not None:
                    deadline.check("rpc retry")
                    delay = min(delay, deadline.remaining())
                time.sleep(delay)
            if netsplit.ACTIVE and netsplit.is_blocked(
                self.label, (self.host, self.port)
            ):
                # Blackholed by a simulated partition: fail this attempt
                # before touching the socket.  Counts as a connection
                # failure so the breaker opens and callers fail over.
                self.breaker.record_failure()
                if obs.ACTIVE:
                    obs.inc("rpc.client.netsplit")
                last_error = RpcConnectionError(
                    f"network partition: {self.label!r} cannot reach "
                    f"{self.host}:{self.port}"
                )
                continue
            try:
                conn = self._pool.acquire()
            except RpcConnectionError as error:
                self.breaker.record_failure()
                last_error = error
                continue
            try:
                if (
                    deadline is None
                    or (left_s := deadline.remaining())
                    > self._deadline_bind_s
                ):
                    # No deadline, or one too generous to ever bind:
                    # the plain wire format and the fixed attempt
                    # timeout behave identically and cost nothing.
                    conn.settimeout(self.timeout_s)
                    codec.send_frame(conn, request)
                else:
                    if left_s <= 0.0:
                        # The budget ran out between the entry check and
                        # the send (e.g. spent waiting for a pooled
                        # connection).  Fail fast: the old clamp turned
                        # an expired budget into a 1 ms socket wait plus
                        # a doomed request the server would refuse (or
                        # worse, serve) after the client had given up.
                        self._pool.release(conn)
                        if obs.ACTIVE:
                            obs.inc("rpc.client.deadline.expired")
                        raise DeadlineExceededError(
                            "rpc deadline expired before the request "
                            "was sent"
                        )
                    # One clock read covers both the per-attempt socket
                    # timeout and the wire budget (this runs on every
                    # bound RPC).
                    conn.settimeout(max(0.001, min(self.timeout_s, left_s)))
                    codec.send_frame(
                        conn,
                        request,
                        min(MAX_DEADLINE_MS, int(left_s * 1000)),
                    )
                payload = codec.recv_frame(conn)
            except socket.timeout as error:
                self._pool.discard(conn)
                self.breaker.record_failure()
                last_error = RpcTimeoutError(
                    f"request timed out after {self.timeout_s}s"
                )
                last_error.__cause__ = error
                continue
            except WireFormatError:
                self._pool.discard(conn)
                raise  # corrupt data is not transient: no retry
            except OSError as error:
                self._pool.discard(conn)
                self.breaker.record_failure()
                last_error = RpcConnectionError(
                    f"connection to {self.host}:{self.port} failed: {error}"
                )
                last_error.__cause__ = error
                continue
            if payload is None:
                # Peer hung up before answering (e.g. server restart
                # mid-pool): the connection is dead, the request may be
                # retried on a fresh one.
                self._pool.discard(conn)
                self.breaker.record_failure()
                last_error = RpcConnectionError(
                    "server closed the connection before replying"
                )
                continue
            self._pool.release(conn)
            self.breaker.record_success()
            self.retry_budget.deposit()
            self.last_ok_monotonic = time.monotonic()
            kind, value = codec.decode_response(payload)
            if kind == codec.RESP_ERROR:
                assert isinstance(value, ReproError)
                if (
                    isinstance(value, OverloadedError)
                    and attempt + 1 < attempts
                ):
                    if obs.ACTIVE:
                        obs.inc("rpc.client.overloaded")
                    last_error = value
                    retry_after = value.retry_after_s
                    continue
                raise value
            if kind != expected_kind:
                raise WireFormatError(
                    f"expected response kind 0x{expected_kind:02x}, "
                    f"got 0x{kind:02x}"
                )
            return value
        assert last_error is not None
        if deadline is not None and deadline.expired:
            if obs.ACTIVE:
                obs.inc("rpc.client.deadline.expired")
            error = DeadlineExceededError(
                "rpc call spent its whole deadline budget "
                f"(last failure: {last_error})"
            )
            error.__cause__ = last_error
            raise error
        raise last_error

    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "RemoteIsp":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The ISP client-facing surface (see repro.isp.server.IspServer)
    # ------------------------------------------------------------------

    def get_certificate(
        self, deadline: Optional[Deadline] = None
    ) -> V2fsCertificate:
        return self._call(
            codec.encode_get_certificate(), codec.RESP_CERTIFICATE,
            deadline=deadline,
        )

    def open_session(
        self,
        expected_version: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> int:
        return self._call(
            codec.encode_open_session(expected_version), codec.RESP_SESSION,
            deadline=deadline,
        )

    def get_file_meta(
        self,
        session_id: int,
        path: str,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[bool, int, int]:
        return self._call(
            codec.encode_get_file_meta(session_id, path),
            codec.RESP_FILE_META,
            deadline=deadline,
        )

    def get_page(
        self,
        session_id: int,
        path: str,
        page_id: int,
        deadline: Optional[Deadline] = None,
    ) -> bytes:
        return self._call(
            codec.encode_get_page(session_id, path, page_id),
            codec.RESP_PAGE,
            deadline=deadline,
        )

    def validate_path(
        self,
        session_id: int,
        path: str,
        page_id: int,
        digs_path: codec.DigsPath,
        deadline: Optional[Deadline] = None,
    ) -> Union[FreshMatch, PageReply]:
        return self._call(
            codec.encode_validate_path(
                session_id, path, page_id, digs_path
            ),
            codec.RESP_VALIDATION,
            deadline=deadline,
        )

    def finalize_session(
        self, session_id: int, deadline: Optional[Deadline] = None
    ) -> AdsProof:
        return self._call(
            codec.encode_finalize_session(session_id), codec.RESP_VO,
            deadline=deadline,
        )

    # ------------------------------------------------------------------
    # Bootstrap extras (not part of the verified surface)
    # ------------------------------------------------------------------

    def ping(self) -> None:
        self._call(codec.encode_ping(), codec.RESP_PONG)

    def fetch_bootstrap(
        self,
    ) -> Tuple[AttestationReport, PublicKey, Digest]:
        """(attestation report, attestation root, expected measurement)."""
        return self._call(
            codec.encode_bootstrap_request(), codec.RESP_BOOTSTRAP
        )

    def fetch_chain_heads(self) -> Dict[str, BlockHeader]:
        return self._call(
            codec.encode_chain_heads_request(), codec.RESP_CHAIN_HEADS
        )


class _ObservedHeads:
    """One ``fetch_chain_heads`` answer, shared by a client's chain views.

    The RPC returns the heads of *all* chains, so one answer serves
    every view — once each: a view asked for a head it has already been
    given fetches a new answer for everyone.  A query reads each chain
    once, so it makes one fetch, and no head it judges a certificate by
    was observed for an earlier query.  No clock is involved.
    """

    def __init__(self, remote: RemoteIsp) -> None:
        self._remote = remote
        self._unread: Dict[str, BlockHeader] = {}

    def take(self, chain_id: str) -> Optional[BlockHeader]:
        if chain_id not in self._unread:
            self._unread = dict(self._remote.fetch_chain_heads())
        return self._unread.pop(chain_id, None)


class RemoteChainView:
    """Observed head of one source chain, refreshed over the RPC link.

    Stands in for :class:`~repro.chain.chain.Blockchain` on a remote
    client: :meth:`latest_header` is the only method the query client
    needs.  The header still passes the light-client consensus check, so
    a lying server cannot forge heads without mining.
    """

    def __init__(self, heads: _ObservedHeads, chain_id: str) -> None:
        self._heads = heads
        self.chain_id = chain_id

    def latest_header(self) -> BlockHeader:
        header = self._heads.take(self.chain_id)
        if header is None:
            raise RpcConnectionError(
                f"server no longer reports chain {self.chain_id!r}"
            )
        return header


def connect_client(
    host: str,
    port: int,
    mode=None,
    cache_bytes: int = 1 << 30,
    timeout_s: float = 10.0,
    max_retries: int = 3,
    deadline_s: Optional[float] = None,
):
    """Build a verifying :class:`~repro.client.query_client.QueryClient`
    against a remote ISP, bootstrapping attestation material and chain
    views over the wire (trust-on-first-use; see
    :class:`~repro.rpc.server.IspBootstrap`).

    ``deadline_s`` arms an end-to-end budget on every ISP RPC the
    client issues (retries and backoff spend from it), so a query can
    hang for at most a small multiple of it before a typed
    :class:`~repro.errors.DeadlineExceededError` surfaces."""
    from repro.client.query_client import QueryClient
    from repro.client.vfs import QueryMode

    remote = RemoteIsp(
        host, port, timeout_s=timeout_s, max_retries=max_retries,
        default_deadline_s=deadline_s,
    )
    report, attestation_root, measurement = remote.fetch_bootstrap()
    heads = _ObservedHeads(remote)
    chains = {
        chain_id: RemoteChainView(heads, chain_id)
        for chain_id in remote.fetch_chain_heads()
    }
    return QueryClient(
        isp=remote,
        chains=chains,
        attestation_report=report,
        attestation_root=attestation_root,
        expected_measurement=measurement,
        mode=mode if mode is not None else QueryMode.INTER_VBF,
        cache_bytes=cache_bytes,
    )
