"""Unit contracts for the failure-domain primitives.

Covers the deadline algebra and retry budget
(:mod:`repro.rpc.deadline`), the backward-compatible deadline frame
(:mod:`repro.rpc.codec` V2/V3 magics), the netsplit table
(:mod:`repro.faults.netsplit`), server admission control / deadline
fast-path (:mod:`repro.rpc.server`), and the hedging policy machinery
(:mod:`repro.fleet.resilience`).
"""

import socket
import threading
import time

import pytest

from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    RpcConnectionError,
)
from repro.faults import netsplit
from repro.fleet.resilience import HedgePolicy, split_deadline
from repro.isp.server import IspServer
from repro.rpc import codec
from repro.rpc.client import RemoteIsp
from repro.rpc.deadline import Deadline, RetryBudget
from repro.rpc.server import RpcIspServer


@pytest.fixture()
def server():
    with RpcIspServer(IspServer()) as srv:
        yield srv


@pytest.fixture(autouse=True)
def _heal_netsplits():
    netsplit.heal()
    yield
    netsplit.heal()


def make_remote(server, **kwargs) -> RemoteIsp:
    host, port = server.address
    kwargs.setdefault("timeout_s", 2.0)
    return RemoteIsp(host, port, **kwargs)


# ---------------------------------------------------------------------------
# Deadline algebra
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_remaining_counts_down_and_expires(self):
        deadline = Deadline.after(0.05)
        assert 0 < deadline.remaining() <= 0.05
        assert not deadline.expired
        time.sleep(0.06)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_check_raises_typed_after_expiry(self):
        deadline = Deadline.after(0.0)
        with pytest.raises(DeadlineExceededError):
            deadline.check("unit test")

    def test_cap_floors_tiny_budgets_and_caps_large_timeouts(self):
        deadline = Deadline.after(10.0)
        assert deadline.cap(0.5) == 0.5  # timeout under the budget
        nearly_spent = Deadline.after(0.0)
        assert nearly_spent.cap(5.0) == pytest.approx(0.001)

    def test_wire_roundtrip_rebases_the_budget(self):
        deadline = Deadline.after(2.0)
        wire = int(deadline.remaining() * 1000)  # as the client sends it
        assert 0 <= wire <= 2000
        rebased = Deadline.from_wire_ms(wire)
        # The rebased deadline is a fresh budget of the same length.
        assert abs(rebased.remaining() - deadline.remaining()) < 0.1

    def test_split_deadline_slices_the_remaining_budget(self):
        deadline = Deadline.after(1.0)
        half = split_deadline(deadline, 2)
        assert half.remaining() <= deadline.remaining() / 2 + 0.01
        assert split_deadline(None, 4) is None


class TestRetryBudget:
    def test_spend_drains_and_denies_at_empty(self):
        budget = RetryBudget(capacity=2.0, refill_per_s=0.0)
        assert budget.spend()
        assert budget.spend()
        assert not budget.spend()  # bucket dry, retry denied

    def test_deposit_rewards_successes(self):
        budget = RetryBudget(
            capacity=2.0, refill_per_s=0.0, success_bonus=1.0
        )
        assert budget.spend()
        budget.deposit()
        assert budget.tokens == pytest.approx(2.0)  # capped at capacity


# ---------------------------------------------------------------------------
# Wire frames: the deadline budget is an optional header field
# ---------------------------------------------------------------------------


class _FramePipe:
    def __init__(self):
        self.a, self.b = socket.socketpair()

    def recv_frames(self):
        decoder = codec.FrameDecoder()
        decoder.feed(self.b.recv(1 << 16))
        return decoder.frames()

    def close(self):
        self.a.close()
        self.b.close()


class TestDeadlineFrames:
    def test_v2_frame_has_no_deadline(self):
        pipe = _FramePipe()
        try:
            codec.send_frame(pipe.a, b"payload")
            assert pipe.recv_frames() == [(b"payload", None, None)]
        finally:
            pipe.close()

    def test_v3_frame_carries_the_deadline_budget(self):
        pipe = _FramePipe()
        try:
            codec.send_frame(pipe.a, b"payload", deadline_ms=1500)
            assert pipe.recv_frames() == [(b"payload", 1500, None)]
        finally:
            pipe.close()

    def test_legacy_recv_frame_discards_the_deadline(self):
        pipe = _FramePipe()
        try:
            codec.send_frame(pipe.a, b"payload", deadline_ms=42)
            assert codec.recv_frame(pipe.b) == b"payload"
        finally:
            pipe.close()

    def test_overloaded_error_roundtrips_retry_after(self):
        encoded = codec.encode_error(
            OverloadedError("shed", retry_after_s=0.25)
        )
        kind, decoded = codec.decode_response(encoded)
        assert kind == codec.RESP_ERROR
        assert isinstance(decoded, OverloadedError)
        assert decoded.retry_after_s == pytest.approx(0.25)

    def test_plain_rpc_error_has_no_retry_after(self):
        kind, decoded = codec.decode_response(
            codec.encode_error(DeadlineExceededError("spent"))
        )
        assert kind == codec.RESP_ERROR
        assert isinstance(decoded, DeadlineExceededError)
        assert getattr(decoded, "retry_after_s", None) is None


# ---------------------------------------------------------------------------
# Netsplit table
# ---------------------------------------------------------------------------


class TestNetsplit:
    ENDPOINT = ("127.0.0.1", 9999)

    def test_sever_blocks_every_label_heal_restores(self):
        netsplit.sever(self.ENDPOINT)
        assert netsplit.ACTIVE
        assert netsplit.is_blocked("client", self.ENDPOINT)
        assert netsplit.is_blocked("router", self.ENDPOINT)
        netsplit.heal(self.ENDPOINT)
        assert not netsplit.is_blocked("client", self.ENDPOINT)
        assert not netsplit.ACTIVE

    def test_sever_pair_is_directional_by_label(self):
        netsplit.sever_pair("router", self.ENDPOINT)
        assert netsplit.is_blocked("router", self.ENDPOINT)
        assert not netsplit.is_blocked("client", self.ENDPOINT)

    def test_client_fails_typed_without_touching_the_socket(self, server):
        remote = make_remote(
            server, label="client", max_retries=0, backoff_s=0.01
        )
        remote.ping()  # sanity: reachable before the split
        netsplit.sever_pair("client", server.address)
        with pytest.raises(RpcConnectionError):
            remote.ping()
        netsplit.heal()
        remote.ping()  # partition healed: traffic resumes


# ---------------------------------------------------------------------------
# Server admission control and deadline fast-path
# ---------------------------------------------------------------------------


class TestServerOverload:
    @staticmethod
    def _slow_pings(server, delay_s: float) -> None:
        # service_delay_s only models service time for data-plane kinds;
        # widen the set on this instance so ping holds the slot too.
        server.service_delay_s = delay_s
        server._DATA_SERVICE_KINDS = (
            server._DATA_SERVICE_KINDS | {codec.REQ_PING}
        )

    def test_shed_request_carries_retry_after(self, server):
        # The admission slot is held for the whole service time, so a
        # slow request (service_delay_s) + max_pending=1 deterministically
        # sheds the second concurrent request.
        server.max_pending = 1
        server.shed_retry_after_s = 0.05
        self._slow_pings(server, 0.5)
        host, port = server.address
        occupier = RemoteIsp(host, port, timeout_s=2.0, max_retries=0)
        blocked = threading.Thread(target=occupier.ping, daemon=True)
        blocked.start()
        time.sleep(0.15)  # let the slow request occupy the slot
        try:
            probe = RemoteIsp(host, port, timeout_s=2.0, max_retries=0)
            with pytest.raises(OverloadedError) as excinfo:
                probe.ping()
            assert excinfo.value.retry_after_s == pytest.approx(
                0.05, abs=0.01
            )
        finally:
            blocked.join(timeout=3.0)

    def test_client_honors_retry_after_and_recovers(self, server):
        server.max_pending = 1
        server.shed_retry_after_s = 0.2
        self._slow_pings(server, 0.4)
        host, port = server.address
        occupier = RemoteIsp(host, port, timeout_s=3.0, max_retries=0)
        blocked = threading.Thread(target=occupier.ping, daemon=True)
        blocked.start()
        time.sleep(0.1)
        try:
            retrier = RemoteIsp(
                host, port, timeout_s=3.0, max_retries=4, backoff_s=0.01
            )
            start = time.monotonic()
            retrier.ping()  # shed at least once, then admitted
            # The shed round stretched the backoff to the server's
            # retry-after hint (far above the 0.01s base backoff).
            assert time.monotonic() - start >= 0.2
        finally:
            blocked.join(timeout=5.0)

    def test_expired_deadline_is_rejected_before_dispatch(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=2.0) as conn:
            codec.send_frame(conn, codec.encode_ping(), deadline_ms=0)
            payload = codec.recv_frame(conn)
        kind, value = codec.decode_response(payload)
        assert kind == codec.RESP_ERROR
        assert isinstance(value, DeadlineExceededError)

    def test_live_deadline_is_served_normally(self, server):
        remote = make_remote(server, default_deadline_s=5.0)
        remote.ping()
        assert remote.get_certificate is not None  # call surface intact


# ---------------------------------------------------------------------------
# Hedging
# ---------------------------------------------------------------------------


class TestHedgePolicy:
    def test_fallback_delay_until_enough_samples(self):
        policy = HedgePolicy(
            floor_s=0.01, min_samples=4, fallback_delay_s=1.0
        )
        assert policy.delay_s() == 1.0
        for _ in range(4):
            policy.observe(0.002)
        # Enough samples: p99 of tiny latencies, floored.
        assert policy.delay_s() == pytest.approx(0.01)

    def test_p99_tracks_the_slow_tail(self):
        policy = HedgePolicy(floor_s=0.001, min_samples=4, window=100)
        for _ in range(99):
            policy.observe(0.010)
        policy.observe(0.500)
        assert policy.delay_s() == pytest.approx(0.5)

    def test_window_is_a_ring_buffer(self):
        policy = HedgePolicy(floor_s=0.001, min_samples=2, window=4)
        for _ in range(4):
            policy.observe(1.0)
        for _ in range(4):  # old samples fully displaced
            policy.observe(0.002)
        assert policy.delay_s() == pytest.approx(0.002)
