"""Open-loop timing: no coordinated omission, lateness reported."""

import random
import socket
import threading
import time

import pytest

import open_loop
from repro.errors import OverloadedError
from repro.merkle.ads import V2fsAds
from repro.rpc import codec

PAGE = bytes(range(256)) * 16


class FakeServer:
    """Speaks the wire protocol; can freeze for ``stall_s`` once.

    Answers open/get_page/finalize with fixed replies, in request order
    per connection, echoing V4 frame ids when present.  The freeze stops
    *every* connection from being served, like a wedged event loop.
    """

    def __init__(self, stall_after_s=None, stall_s=0.0, shed_pages=0):
        #: How many get_page requests to refuse with Overloaded first.
        self.shed_pages = shed_pages
        ads = V2fsAds()
        self.vo_reply = codec.encode_vo(ads.gen_read_proof(ads.root, []))
        self.page_reply = codec.encode_page(PAGE)
        self.stall_after_s = stall_after_s
        self.stall_s = stall_s
        self.stall_window = None
        self._first_frame_at = None
        self._gate = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._threads = []
        self._accept = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept.start()

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve, args=(conn,),
                                      daemon=True)
            self._threads.append(thread)
            thread.start()

    def _shed_one(self):
        with self._gate:
            self.shed_pages -= 1
            return self.shed_pages >= 0

    def _maybe_stall(self):
        with self._gate:
            now = time.perf_counter()
            if self._first_frame_at is None:
                self._first_frame_at = now
            if (self.stall_after_s is not None and self.stall_window is None
                    and now - self._first_frame_at >= self.stall_after_s):
                self.stall_window = (now, now + self.stall_s)
                time.sleep(self.stall_s)  # holds the gate: all conns wait

    def _serve(self, conn):
        decoder = codec.FrameDecoder()
        sessions = 0
        with conn:
            while True:
                try:
                    chunk = conn.recv(1 << 16)
                except OSError:
                    return
                if not chunk:
                    return
                decoder.feed(chunk)
                for payload, _deadline, frame_id in decoder.frames():
                    self._maybe_stall()
                    kind = payload[0]
                    if kind == codec.REQ_OPEN_SESSION:
                        sessions += 1
                        reply = codec.encode_session(sessions)
                    elif kind == codec.REQ_GET_PAGE and self._shed_one():
                        reply = codec.encode_error(
                            OverloadedError("shed", retry_after_s=0.03))
                    elif kind == codec.REQ_GET_PAGE:
                        reply = self.page_reply
                    else:
                        reply = self.vo_reply
                    try:
                        conn.sendall(codec.frame(reply, frame_id=frame_id))
                    except OSError:
                        return

    def close(self):
        # shutdown() wakes the thread blocked in accept(); close() alone
        # does not.
        self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        self._accept.join(timeout=5)
        assert not self._accept.is_alive()


def _run(server, rate, seconds, pipelined=True, seed=3):
    plans = open_loop.plan_sessions(
        random.Random(seed), rate, 0.0, seconds, population_size=1,
        pages_per_session=4,
    )
    return plans, open_loop.run_open_loop(
        server.address, plans, [("/db/x", 0)], [server.page_reply],
        window=2, pipelined=pipelined, drain_s=3.0,
    )


def test_poisson_schedule_is_seeded_and_has_the_asked_rate():
    first = open_loop.poisson_arrivals(random.Random(5), 200.0, 10.0)
    again = open_loop.poisson_arrivals(random.Random(5), 200.0, 10.0)
    other = open_loop.poisson_arrivals(random.Random(6), 200.0, 10.0)
    assert first == again and first != other
    assert first == sorted(first) and first[-1] < 10.0
    assert len(first) == len(other) == 2000
    # Bursts and gaps survive the conditioning: the shortest gaps are
    # far below the mean gap, the longest far above.
    gaps = sorted(b - a for a, b in zip(first, first[1:]))
    assert gaps[len(gaps) // 10] < 0.2 * 0.005 < 0.005 * 2 < gaps[-20]


@pytest.mark.parametrize("pipelined", [True, False])
def test_every_session_completes_and_is_checked(pipelined):
    server = FakeServer()
    try:
        plans, result = _run(server, 100.0, 0.5, pipelined=pipelined)
    finally:
        server.close()
    assert len(result.records) == len(plans) > 20
    assert all(r.ok for r in result.records)
    assert all(r.vo_size == len(server.vo_reply) for r in result.records)
    # open + 4 pages + finalize per session, nothing retried.
    assert result.frames_sent == 6 * len(plans)
    kept = [r for r in result.records if r.vo_payload is not None]
    assert [r.index for r in kept] == list(range(0, len(plans), 16))


def test_a_shed_request_is_retried_after_the_hint_and_the_wait_counts():
    server = FakeServer(shed_pages=3)
    try:
        plans, result = _run(server, 100.0, 0.3)
    finally:
        server.close()
    assert all(r.ok for r in result.records)
    assert sum(r.sheds for r in result.records) == 3
    assert result.frames_sent == 6 * len(plans) + 3
    for record in result.records:
        if record.sheds:
            assert record.latency_s >= 0.03


def test_a_wrong_page_reply_fails_the_session():
    server = FakeServer()
    try:
        plans = [open_loop.SessionPlan(0.0, [0, 0])]
        result = open_loop.run_open_loop(
            server.address, plans, [("/db/x", 0)],
            [codec.encode_page(b"\x00" * len(PAGE))], drain_s=2.0,
        )
    finally:
        server.close()
    record = result.records[0]
    assert record.done_at is not None and not record.ok
    assert "differs" in record.error


def test_a_server_stall_is_charged_to_the_sessions_due_during_it():
    stall_s = 0.2
    server = FakeServer(stall_after_s=0.3, stall_s=stall_s)
    try:
        _plans, result = _run(server, 200.0, 1.0)
    finally:
        server.close()
    assert all(r.ok for r in result.records)
    assert server.stall_window is not None
    stall_start = server.stall_window[0] - result.started_at
    stall_end = server.stall_window[1] - result.started_at
    during = [r for r in result.records
              if stall_start + 0.01 <= r.due <= stall_end - 0.05]
    assert len(during) >= 10
    for record in during:
        # Latency runs from the intended start, so it contains the rest
        # of the stall — the generator did not wait for the server
        # before "starting" these sessions (no coordinated omission).
        assert record.latency_s >= (stall_end - record.due) - 0.005
        assert record.sent_at < stall_end
    calm = [r.latency_s for r in result.records if r.due < stall_start - 0.05]
    assert max(calm) < stall_s / 2
    # How late the generator itself ran is reported, and it stayed on
    # schedule right through the stall (a timer wake-up on a shared box
    # can be tens of ms late now and then; a generator waiting for the
    # server would be 200 ms late for every session due in the stall).
    late = sorted(r.sent_at - r.due for r in result.records)
    assert late[0] >= 0.0
    assert late[int(0.9 * len(late))] < 0.02
    late_during = sorted(r.sent_at - r.due for r in during)
    assert late_during[len(late_during) // 2] < 0.02


def test_sessions_unfinished_at_the_drain_deadline_are_left_open():
    server = FakeServer(stall_after_s=0.0, stall_s=1.5)
    try:
        plans = [open_loop.SessionPlan(0.0, [0])]
        result = open_loop.run_open_loop(
            server.address, plans, [("/db/x", 0)], [server.page_reply],
            drain_s=0.3,
        )
    finally:
        server.close()
    assert result.records[0].done_at is None
    assert not result.records[0].ok
