"""RemoteIsp retry/backoff contract, pinned down with server failpoints.

These tests arm ``rpc.server.*`` failpoints on a live loopback server
and monkeypatch the client's ``time.sleep`` to capture backoff delays,
verifying the reliability model documented in :mod:`repro.rpc.client`:

* connection-level failures retry at most ``max_retries`` times;
* backoff grows exponentially from ``backoff_s`` and caps at
  ``max_backoff_s``;
* data-level failures (``WireFormatError``) are *never* retried.
"""

import time

import pytest

from repro.errors import RpcConnectionError, WireFormatError
from repro.faults import registry
from repro.isp.server import IspServer
from repro.rpc import client as rpc_client
from repro.rpc.client import RemoteIsp
from repro.rpc.deadline import RetryBudget
from repro.rpc.server import RpcIspServer


@pytest.fixture()
def server():
    with RpcIspServer(IspServer()) as srv:
        yield srv


@pytest.fixture()
def sleeps(monkeypatch):
    """Capture every backoff sleep instead of actually waiting."""
    recorded = []
    monkeypatch.setattr(
        rpc_client.time, "sleep", lambda s: recorded.append(s)
    )
    return recorded


#: Every client a test made, closed when it ends.
_made = []


@pytest.fixture(autouse=True)
def _close_remotes():
    yield
    while _made:
        _made.pop().close()


def make_remote(server, **kwargs) -> RemoteIsp:
    host, port = server.address
    kwargs.setdefault("timeout_s", 2.0)
    _made.append(RemoteIsp(host, port, **kwargs))
    return _made[-1]


def test_transient_drops_are_retried_until_success(server, sleeps):
    registry.arm("rpc.server.drop", "raise", times=2)
    remote = make_remote(server, max_retries=3, backoff_s=0.05)
    remote.ping()  # two drops, then success on the third attempt
    assert registry.stats()["rpc.server.drop"].hits == 3
    assert sleeps == [0.05, 0.1]


def test_retry_count_is_bounded(server, sleeps):
    registry.arm("rpc.server.drop", "raise")  # every request, forever
    remote = make_remote(server, max_retries=3, backoff_s=0.01)
    with pytest.raises(RpcConnectionError):
        remote.ping()
    # Exactly max_retries + 1 attempts reached the server, no more.
    assert registry.stats()["rpc.server.drop"].hits == 4
    assert len(sleeps) == 3


def test_backoff_doubles_and_caps_at_max_backoff(server, sleeps):
    registry.arm("rpc.server.drop", "raise")
    remote = make_remote(
        server, max_retries=5, backoff_s=0.2, max_backoff_s=0.5
    )
    with pytest.raises(RpcConnectionError):
        remote.ping()
    assert sleeps == [0.2, 0.4, 0.5, 0.5, 0.5]


def test_wire_format_errors_are_never_retried(server, sleeps):
    registry.arm("rpc.server.truncate", "raise")
    remote = make_remote(server, max_retries=5, backoff_s=0.01)
    with pytest.raises(WireFormatError):
        remote.ping()
    # One torn frame sufficed: no retry, no backoff.
    assert registry.stats()["rpc.server.truncate"].fires == 1
    assert sleeps == []


def test_stalled_reads_time_out_and_are_retried(server):
    # Real sleeps here: the stall must genuinely outlast the client
    # timeout (no monkeypatched clock, it would stall the server too).
    server.fault_stall_s = 0.4
    registry.arm("rpc.server.stall", "raise", times=1)
    remote = make_remote(
        server, timeout_s=0.1, max_retries=2, backoff_s=0.01
    )
    remote.ping()  # first attempt times out mid-stall, retry succeeds
    point = registry.stats()["rpc.server.stall"]
    assert point.fires == 1  # stalled exactly once ...
    assert point.hits == 2   # ... and a second (retry) request arrived


def test_connection_refused_is_a_typed_connection_error(sleeps):
    remote = RemoteIsp("127.0.0.1", 1, max_retries=1, backoff_s=0.01)
    with pytest.raises(RpcConnectionError):
        remote.ping()
    assert len(sleeps) == 1


# ---------------------------------------------------------------------------
# Circuit breaker half-open probing vs. the retry contract
# ---------------------------------------------------------------------------


def wait_wall(seconds: float) -> None:
    """Busy-wait on the monotonic clock: the ``sleeps`` fixture patches
    ``time.sleep`` away, but the breaker cooldown is wall-clock."""
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass


def test_half_open_probe_closes_breaker_without_double_spending(
    server, sleeps
):
    # Two drops open the breaker during one call's retry sequence; the
    # fault then heals.  The half-open probe after cooldown is ONE
    # ordinary call — it succeeds on its first attempt, closes the
    # breaker, and spends neither backoff sleeps nor retry tokens.
    registry.arm("rpc.server.drop", "raise", times=2)
    budget = RetryBudget(capacity=8.0, refill_per_s=0.0)
    remote = make_remote(
        server,
        max_retries=1,
        backoff_s=0.01,
        breaker_threshold=2,
        breaker_cooldown_s=0.05,
        retry_budget=budget,
    )
    with pytest.raises(RpcConnectionError):
        remote.ping()  # drop, retry, drop -> threshold hit, circuit opens
    assert registry.stats()["rpc.server.drop"].hits == 2
    assert remote.breaker.is_open

    # While open (cooldown not elapsed): fast-fail between calls, no
    # socket traffic, no backoff, no retry-budget spend.
    hits_before, sleeps_before = 2, len(sleeps)
    tokens_before = budget.tokens
    with pytest.raises(RpcConnectionError):
        remote.ping()
    assert registry.stats()["rpc.server.drop"].hits == hits_before
    assert len(sleeps) == sleeps_before
    assert budget.tokens == tokens_before

    wait_wall(0.06)  # real wait: cooldown_s is wall-clock
    remote.ping()  # the half-open probe: admitted, succeeds first try
    assert registry.stats()["rpc.server.drop"].hits == 3
    assert len(sleeps) == sleeps_before  # no extra backoff spent
    assert budget.tokens >= tokens_before  # success deposits, not spends
    assert not remote.breaker.is_open
    remote.ping()  # closed for good: normal traffic resumes
    assert registry.stats()["rpc.server.drop"].hits == 4


def test_half_open_probe_failure_reopens_the_circuit(server, sleeps):
    # The endpoint stays dead: the probe call gets the full retry
    # contract (it is a normal call), fails, and re-opens the circuit —
    # the very next call fast-fails without touching the server.
    registry.arm("rpc.server.drop", "raise")  # every request, forever
    remote = make_remote(
        server,
        max_retries=1,
        backoff_s=0.01,
        breaker_threshold=2,
        breaker_cooldown_s=0.05,
    )
    with pytest.raises(RpcConnectionError):
        remote.ping()
    assert registry.stats()["rpc.server.drop"].hits == 2
    assert remote.breaker.is_open
    wait_wall(0.06)
    with pytest.raises(RpcConnectionError):
        remote.ping()  # probe admitted, both attempts dropped
    assert registry.stats()["rpc.server.drop"].hits == 4
    assert remote.breaker.is_open  # failure refreshed the open state
    with pytest.raises(RpcConnectionError):
        remote.ping()  # immediately fast-failed, no server traffic
    assert registry.stats()["rpc.server.drop"].hits == 4
