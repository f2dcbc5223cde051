"""Unit tests for the runtime lock-order checker on synthetic histories.

Deliberately inverted lock nestings must produce exactly the expected
deadlock-cycle reports; consistently ordered ones must stay silent.
Threads run *sequentially* (start + join immediately) so every verdict
is deterministic.  The shared-field fixtures that once fed the runtime
lock-set tracker now run through the static ``guarded-by`` rule, which
checks the same fields on every call path rather than on the
interleavings a run happens to produce.
"""

import textwrap
import threading

import pytest

from repro.analysis.concurrency import GuardedByRule
from repro.analysis.core import analyze_source
from repro.errors import SanitizerError
from repro.sanitize import runtime as san
from repro.sanitize.runtime import SanLock


@pytest.fixture(autouse=True)
def _clean_sanitizer():
    san.reset()
    yield
    san.reset()


def run_plain(*bodies):
    """Run each body in its own thread, strictly one after another.

    All threads are alive concurrently (so each has a distinct thread
    ident — a joined thread's ident can be recycled, which would merge
    two held-lock stacks), but the bodies execute in order.
    """
    go = threading.Event()
    done = [threading.Event() for _ in bodies]

    def runner(index, body):
        go.wait()
        if index:
            done[index - 1].wait()
        try:
            body()
        finally:
            done[index].set()

    threads = [
        threading.Thread(target=runner, args=(index, body))
        for index, body in enumerate(bodies)
    ]
    for thread in threads:
        thread.start()
    go.set()
    for thread in threads:
        thread.join()


def guarded_by(source):
    """``guarded-by`` findings for one fixture module."""
    return analyze_source(
        textwrap.dedent(source), module="repro.fixture",
        rules=(GuardedByRule(),),
    )


def invert(a, b):
    """Take ``a`` then ``b`` in one thread, ``b`` then ``a`` in another."""
    def forward():
        with a:
            with b:
                pass

    def backward():
        with b:
            with a:
                pass

    run_plain(forward, backward)


# ----------------------------------------------------------------------
# Shared fields: guarded-by over SanLock-guarded fixtures
# ----------------------------------------------------------------------


class TestLockSet:
    def test_unsynchronized_writes_race(self):
        findings = guarded_by(
            """
            from repro.sanitize.runtime import SanLock

            class Shared:
                def __init__(self):
                    self._lock = SanLock("t.lock")
                    self.table = {}  # repro: guarded-by(_lock)

                def put(self, key):
                    self.table[key] = 1
            """
        )
        assert [f.rule for f in findings] == ["guarded-by"]
        assert "write to Shared.table" in findings[0].message
        assert "holding no lock" in findings[0].message

    def test_write_read_race(self):
        findings = guarded_by(
            """
            from repro.sanitize.runtime import SanLock

            class Shared:
                def __init__(self):
                    self._lock = SanLock("t.lock")
                    self.field = 0  # repro: guarded-by(_lock)

                def bump(self):
                    with self._lock:
                        self.field += 1

                def peek(self):
                    return self.field
            """
        )
        assert [f.rule for f in findings] == ["guarded-by"]
        assert "read of Shared.field" in findings[0].message

    def test_common_lock_suppresses(self):
        assert guarded_by(
            """
            from repro.sanitize.runtime import SanLock

            class Shared:
                def __init__(self):
                    self._lock = SanLock("t.lock")
                    self.table = {}  # repro: guarded-by(_lock)

                def put(self, key):
                    with self._lock:
                        self.table[key] = 1

                def drop(self, key):
                    with self._lock:
                        self.table.pop(key, None)
            """
        ) == []

    def test_writes_only_mode_exempts_reads_not_writes(self):
        findings = guarded_by(
            """
            from repro.sanitize.runtime import SanLock

            class Shared:
                def __init__(self):
                    self._guard = SanLock("t.guard")
                    self.field = {}  # repro: guarded-by(_guard, writes)
                    self.other = {}  # repro: guarded-by(_guard, writes)

                def locked_write(self, key):
                    with self._guard:
                        self.field[key] = 1

                def lookup(self, key):
                    return self.field.get(key)

                def unlocked_write(self, key):
                    self.other[key] = 1
            """
        )
        assert [f.rule for f in findings] == ["guarded-by"]
        assert "write to Shared.other" in findings[0].message
        assert "Shared._guard" in findings[0].message


# ----------------------------------------------------------------------
# Lock-order inversions
# ----------------------------------------------------------------------


class TestLockOrder:
    def test_inversion_is_reported_with_three_stacks(self):
        san.arm()
        invert(SanLock("t.A"), SanLock("t.B"))
        reports = san.reports()
        assert [r.kind for r in reports] == [
            san.SanitizerReport.KIND_LOCK_ORDER
        ]
        assert reports[0].subject == "t.A -> t.B -> t.A"
        assert len(reports[0].stacks) == 3
        rendered = reports[0].render()
        assert "lock-order-inversion" in rendered

    def test_consistent_order_is_clean(self):
        san.arm()
        a, b = SanLock("t.A"), SanLock("t.B")

        def forward():
            with a:
                with b:
                    pass

        run_plain(forward, forward)
        assert san.reports() == []
        assert san.order_edges() == {("t.A", "t.B")}

    def test_reentrant_reacquire_adds_no_self_edge(self):
        san.arm()
        lock = SanLock("t.R", reentrant=True)
        with lock:
            with lock:
                pass
        assert san.reports() == []

    def test_three_lock_cycle(self):
        san.arm()
        a, b, c = SanLock("t.a3"), SanLock("t.b3"), SanLock("t.c3")

        def leg(first, second):
            def body():
                with first:
                    with second:
                        pass
            return body

        run_plain(leg(a, b), leg(b, c), leg(c, a))
        reports = san.reports()
        assert [r.kind for r in reports] == [
            san.SanitizerReport.KIND_LOCK_ORDER
        ]
        assert set("t.a3 t.b3 t.c3".split()) <= set(
            reports[0].subject.split(" -> ")
        )


# ----------------------------------------------------------------------
# Arming / disarming
# ----------------------------------------------------------------------


class TestArming:
    def test_disarmed_is_silent(self):
        invert(SanLock("t.x"), SanLock("t.y"))
        assert san.reports() == []
        assert san.order_edges() == set()
        san.assert_clean()

    def test_disarmed_sanlock_still_locks(self):
        lock = SanLock("t.plain")
        assert lock.acquire(blocking=False)
        assert not lock.raw().acquire(blocking=False)
        lock.release()

    def test_assert_clean_raises_typed_error(self):
        san.arm()
        invert(SanLock("t.boom"), SanLock("t.bang"))
        with pytest.raises(SanitizerError) as excinfo:
            san.assert_clean()
        assert "t.boom -> t.bang -> t.boom" in str(excinfo.value)

    def test_arm_clears_previous_run(self):
        san.arm()
        invert(SanLock("t.x"), SanLock("t.y"))
        assert len(san.reports()) == 1
        san.arm()
        assert san.reports() == []
        assert san.order_edges() == set()

    def test_held_locks_tracks_the_calling_thread(self):
        san.arm()
        lock = SanLock("t.held")
        assert san.held_locks() == []
        with lock:
            assert san.held_locks() == ["t.held"]
        assert san.held_locks() == []
