"""Unit tests for the runtime concurrency checker on synthetic histories.

Deliberately inverted lock nestings must produce exactly the expected
deadlock-cycle reports; consistently ordered ones must stay silent.  A
sleep or fsync under a lock that does not allow it is reported, and so
is a touch of a :func:`guarded_by` field without its lock or from
another object.  Threads run *sequentially* (start + join immediately)
so every verdict is deterministic.
"""

import os
import threading
import time

import pytest

from repro.errors import SanitizerError
from repro.sanitize import runtime as san
from repro.sanitize.runtime import SanLock, guarded_by


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


class _Left:
    def __init__(self, lock):
        self._lock = lock
        self.right = None

    def forward(self):
        with self._lock:
            self.right.poke()

    def forward_via_helper(self):
        with self._lock:
            self._hop()

    def _hop(self):
        self.right.poke()

    def poke(self):
        with self._lock:
            pass


class _Right:
    def __init__(self, lock, left):
        self._lock = lock
        self.left = left

    def poke(self):
        with self._lock:
            pass

    def reverse(self):
        with self._lock:
            self.left.poke()


def pair():
    left = _Left(SanLock("fix.A"))
    right = _Right(SanLock("fix.B"), left)
    left.right = right
    return left, right


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

    def test_two_lock_cycle_fires(self):
        san.arm()
        left, right = pair()
        left.forward()
        right.reverse()
        reports = san.reports()
        assert [r.kind for r in reports] == [
            san.SanitizerReport.KIND_LOCK_ORDER
        ]
        assert reports[0].subject == "fix.A -> fix.B -> fix.A"
        assert "opposite order also occurs" in reports[0].detail

    def test_consistent_order_through_methods_is_clean(self):
        san.arm()
        left, _right = pair()
        left.forward()
        left.forward()
        assert san.reports() == []
        assert san.order_edges() == {("fix.A", "fix.B")}

    def test_transitive_cycle_through_helper_fires(self):
        # A -> helper() -> B while B -> A: the edge comes from what the
        # helper acquires, not from a with-block in forward_via_helper.
        san.arm()
        left, right = pair()
        left.forward_via_helper()
        right.reverse()
        assert [r.kind for r in san.reports()] == [
            san.SanitizerReport.KIND_LOCK_ORDER
        ]

    def test_reentrant_same_lock_is_clean(self):
        san.arm()
        lock = SanLock("fix.R", reentrant=True)
        with lock:
            with lock:
                pass
        assert san.reports() == []
        assert san.order_edges() == set()


# ----------------------------------------------------------------------
# Blocking under a lock
# ----------------------------------------------------------------------


class TestBlockingUnderLock:
    def test_sleep_under_a_lock_is_reported(self):
        san.arm()
        with SanLock("t.busy"):
            time.sleep(0)
        reports = san.reports()
        assert [(r.kind, r.subject) for r in reports] == [
            (san.SanitizerReport.KIND_BLOCKING, "sleep under t.busy"),
        ]
        assert "test_sanitize_runtime.py" in reports[0].render()

    def test_a_lock_may_allow_one_kind_of_call(self, tmp_path):
        san.arm()
        with open(tmp_path / "log", "wb") as log:
            with SanLock("t.spindle", may_block=("sleep",)):
                time.sleep(0)
                os.fsync(log.fileno())
        assert [r.subject for r in san.reports()] == [
            "fsync under t.spindle",
        ]

    def test_every_held_lock_must_allow_the_call(self):
        san.arm()
        with SanLock("t.outer"):
            with SanLock("t.inner", may_block=("sleep",)):
                time.sleep(0)
        assert [r.subject for r in san.reports()] == [
            "sleep under t.outer",
        ]

    def test_disarming_restores_the_calls(self):
        real_sleep, real_fsync = time.sleep, os.fsync
        san.arm()
        assert time.sleep is not real_sleep
        san.disarm()
        assert (time.sleep, os.fsync) == (real_sleep, real_fsync)
        with SanLock("t.quiet"):
            time.sleep(0)
        assert san.reports() == []


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


# ----------------------------------------------------------------------
# Guarded fields
# ----------------------------------------------------------------------


@guarded_by(rows="_lock")
class Table:
    def __init__(self):
        self._lock = SanLock("t.table")
        self.rows = {}
        self._seed()

    def _seed(self):
        # Called by __init__: construction, exempt like __init__ itself.
        self.rows["schema"] = b""

    def put(self, key, value):
        self.rows[key] = value

    def replace(self):
        self.rows = {}

    def put_locked(self, key, value):
        with self._lock:
            self.rows[key] = value

    def get_locked(self, key):
        with self._lock:
            return self.rows[key]

    def bump(self, key):
        with self._lock:
            self._bump(key)

    def _bump(self, key):
        self.rows[key] = self.rows.get(key, 0) + 1


@guarded_by(sessions=("_lock", "writes"))
class Registry:
    def __init__(self):
        self._lock = SanLock("t.registry")
        self.sessions = {}

    def insert(self, sid, session):
        with self._lock:
            self.sessions[sid] = session

    def get(self, sid):
        return self.sessions.get(sid)

    def lookup(self, sid):
        return self.sessions[sid] if sid in self.sessions else None

    def sweep(self, iterate):
        return iterate(self)

    def prune(self, stale):
        # The ISP prune sweep's old defect: the stale sessions were
        # collected by iterating the table lock-free, and only the
        # deletes took the lock; a handler inserting mid-sweep raises
        # "dictionary changed size during iteration".
        doomed = [sid for sid, session in self.sessions.items()
                  if stale(session)]
        with self._lock:
            for sid in doomed:
                del self.sessions[sid]

    def add_unlocked(self, sid):
        self.sessions.setdefault(sid, None)


class Child(Table):
    def clear_locked(self):
        with self._lock:
            self.rows.clear()

    def clear_unlocked(self):
        self.rows.clear()


class Poker:
    """Another object reaching into a Table."""

    def poke(self, table):
        with table._lock:
            table.rows["k"] = 1


def unguarded():
    return [(r.kind, r.subject) for r in san.reports()
            if r.kind == san.SanitizerReport.KIND_UNGUARDED]


#: Every way of iterating a writes-mode field: each one is checked.
#: Each runs as a method would, with the registry as its ``self``.
ITERATIONS = {
    "for": lambda self: [session for session in self.sessions],
    "values": lambda self: {s for s in self.sessions.values()},
    "items": lambda self: dict(self.sessions.items()),
    "list": lambda self: list(self.sessions),
    "sorted-keys": lambda self: sorted(self.sessions.keys()),
    "dict": lambda self: dict(self.sessions),
}


class TestGuardedBy:
    def test_unguarded_write_fires(self):
        table = Table()
        san.arm()
        # An item write goes through a read of the field.
        table.put("k", 1)
        table.replace()
        assert unguarded() == [
            ("unguarded-access", "read of Table.rows in put"),
            ("unguarded-access", "write to Table.rows in replace"),
        ]
        report = san.reports()[0]
        assert "without 't.table' held" in report.detail
        assert "test_sanitize_runtime.py" in report.render()

    def test_write_under_lock_is_clean(self):
        table = Table()
        san.arm()
        table.put_locked("k", 1)
        assert table.get_locked("k") == 1
        assert san.reports() == []

    def test_unguarded_read_fires(self):
        table = Table()
        san.arm()
        assert table.rows["schema"] == b""
        assert unguarded() == [("unguarded-access",
                                "read of Table.rows in "
                                "test_unguarded_read_fires")]

    def test_init_of_owning_class_is_exempt(self):
        # Construction armed: __init__ and the helper it calls write the
        # field with no lock held.
        san.arm()
        Table()
        assert san.reports() == []

    def test_private_helper_inherits_callers_lock(self):
        table = Table()
        san.arm()
        table.bump("n")
        assert san.reports() == []
        table._bump("n")
        assert unguarded() == [("unguarded-access",
                                "read of Table.rows in _bump")]

    def test_writes_mode_exempts_reads(self):
        registry = Registry()
        san.arm()
        registry.insert(1, "s")
        assert registry.get(1) == "s"
        assert registry.lookup(1) == "s"
        assert len(registry.sessions) == 1
        assert san.reports() == []

    @pytest.mark.parametrize("iteration", sorted(ITERATIONS))
    def test_every_iteration_of_a_writes_mode_field_is_guarded(
        self, iteration
    ):
        registry = Registry()
        registry.insert(1, "s")
        san.arm()
        registry.sweep(ITERATIONS[iteration])
        assert unguarded() == [("unguarded-access",
                                "iteration over Registry.sessions in "
                                "<lambda>")]
        san.reset()
        san.arm()
        with registry._lock:
            registry.sweep(ITERATIONS[iteration])
        assert san.reports() == []

    def test_prune_sweep_iterating_a_writes_mode_table_fires(self):
        registry = Registry()
        registry.insert(1, "stale")
        san.arm()
        registry.prune(lambda session: session == "stale")
        assert unguarded() == [("unguarded-access",
                                "iteration over Registry.sessions in prune")]
        assert registry.get(1) is None

    def test_mutator_method_counts_as_write(self):
        registry = Registry()
        san.arm()
        registry.add_unlocked(1)
        assert unguarded() == [("unguarded-access",
                                "write to Registry.sessions in add_unlocked")]

    def test_cross_module_unguarded_access_fires(self):
        # Holding the right lock does not make another object's touch
        # legal: the fix is a method of the owning class.
        table = Table()
        san.arm()
        Poker().poke(table)
        assert unguarded() == [("unguarded-access",
                                "read of Table.rows in poke")]
        assert "another object" in san.reports()[0].detail

    def test_thread_target_helper_inherits_nothing(self):
        # A thread started under the lock runs without it.
        table = Table()
        san.arm()
        with table._lock:
            run_plain(lambda: table._bump("n"))
        assert [subject for _kind, subject in unguarded()] == [
            "read of Table.rows in _bump"
        ]

    def test_subclass_access_is_checked_across_modules(self):
        child = Child()
        san.arm()
        child.clear_locked()
        assert san.reports() == []
        child.clear_unlocked()
        assert unguarded() == [("unguarded-access",
                                "read of Table.rows in clear_unlocked")]

    def test_a_lock_that_is_no_sanlock_fails_its_first_access(self):
        @guarded_by(rows="_lock")
        class Plain:
            def __init__(self):
                self._lock = threading.Lock()
                self.rows = {}

        plain = Plain()
        san.arm()
        with pytest.raises(SanitizerError, match="not a SanLock"):
            plain.rows
        san.disarm()
        assert plain.rows == {}

    def test_an_unknown_mode_is_refused_when_declared(self):
        with pytest.raises(ValueError, match="mode 'reads'"):
            guarded_by(rows=("_lock", "reads"))(type("Bad", (), {}))

    def test_aliases_keep_one_collection(self):
        registry = Registry()
        alias = registry.sessions
        san.arm()
        registry.insert(1, "s")
        san.disarm()
        assert alias == {1: "s"}
        assert registry.sessions is alias

    def test_disarmed_classes_carry_no_descriptor(self):
        # The six shipped classes declare their fields; disarmed, none
        # of them, nor any test class, carries a checking descriptor.
        from repro.fleet.health import HealthTracker
        from repro.isp.sessions import SessionRegistry
        from repro.merkle.persistent_store import PersistentNodeStore
        from repro.obs.metrics import MetricsRegistry
        from repro.rpc.server import RpcIspServer
        from repro.serve.server import AsyncIspServer

        shipped = {HealthTracker, SessionRegistry, PersistentNodeStore,
                   MetricsRegistry, RpcIspServer, AsyncIspServer}
        assert shipped <= set(san.GUARDED)
        san.arm()
        assert all(name in vars(cls) for cls, fields in san.GUARDED.items()
                   for name in fields)
        san.disarm()
        assert not any(name in vars(cls)
                       for cls, fields in san.GUARDED.items()
                       for name in fields)
