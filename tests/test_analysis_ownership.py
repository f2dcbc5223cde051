"""Fixtures for the thread-confinement / ownership rules.

Each rule gets a deliberately-broken async-server fixture proving it
fires (a worker touching loop-confined state, a blocking call on the
loop thread, a leaked admission slot on an exception path) plus the
matching clean variant proving the sanctioned discipline passes.  The
suite finishes with the self-check that the shipped tree stays clean —
the acceptance gate for wiring these rules into ``lint --strict``.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.core import analyze_source
from repro.analysis.ownership import (
    LoopBlockingRule,
    MustReleaseRule,
    ThreadConfinementRule,
    build_role_table,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RULES = (ThreadConfinementRule(), LoopBlockingRule(), MustReleaseRule())


def lint(source, module="repro.fixture"):
    return analyze_source(
        textwrap.dedent(source), module=module, rules=list(RULES)
    )


def contexts_for(source, module="repro.fixture"):
    from repro.analysis.core import parse_sources

    contexts, findings = parse_sources(
        [(module, f"{module.replace('.', '/')}.py",
          textwrap.dedent(source))]
    )
    assert not findings
    return contexts


# ----------------------------------------------------------------------
# thread-confinement
# ----------------------------------------------------------------------


BROKEN_CONFINEMENT_SERVER = """
    import threading

    class Server:
        def __init__(self):
            self._conns = {}  # repro: confined-to(loop)
            threading.Thread(target=self._loop).start()
            threading.Thread(target=self._worker).start()

        def _loop(self):  # repro: thread-role(loop)
            self._conns[1] = object()

        def _worker(self):  # repro: thread-role(worker)
            self._conns.pop(1)
"""


class TestThreadConfinement:
    def test_worker_touching_loop_confined_state_is_flagged(self):
        findings = lint(BROKEN_CONFINEMENT_SERVER)
        assert [f.rule for f in findings] == ["thread-confinement"]
        message = findings[0].message
        assert "confined to role 'loop'" in message
        assert "reachable on role 'worker'" in message
        # The witness carries the spawn site and the call path.
        assert "spawned in" in message
        assert "_worker" in message

    def test_loop_thread_access_is_clean(self):
        findings = lint("""
            import threading

            class Server:
                def __init__(self):
                    self._conns = {}  # repro: confined-to(loop)
                    threading.Thread(target=self._loop).start()

                def _loop(self):  # repro: thread-role(loop)
                    self._tick()

                def _tick(self):
                    self._conns.clear()
        """)
        assert findings == []

    def test_wrong_role_through_a_call_chain_is_traced(self):
        findings = lint("""
            import threading

            class Server:
                def __init__(self):
                    self._table = {}  # repro: confined-to(loop)
                    threading.Thread(target=self._loop).start()
                    threading.Thread(target=self._worker).start()

                def _loop(self):  # repro: thread-role(loop)
                    pass

                def _worker(self):  # repro: thread-role(worker)
                    self._helper()

                def _helper(self):
                    self._table[0] = 1
        """)
        assert len(findings) == 1
        assert "_worker -> " in findings[0].message
        assert "_helper" in findings[0].message

    def test_main_role_access_is_flagged_too(self):
        # A public method (implicit main role) may not touch loop
        # state either.
        findings = lint("""
            import threading

            class Server:
                def __init__(self):
                    self._conns = {}  # repro: confined-to(loop)
                    threading.Thread(target=self._loop).start()

                def _loop(self):  # repro: thread-role(loop)
                    pass

                def poke(self):
                    self._conns.clear()
        """)
        assert len(findings) == 1
        assert "reachable on role 'main'" in findings[0].message

    def test_owning_init_is_exempt(self):
        # Construction happens before the object is shared; the
        # annotated assignment itself must not self-flag.
        findings = lint("""
            import threading

            class Server:
                def __init__(self):
                    self._conns = {}  # repro: confined-to(loop)
                    self._conns[0] = object()
                    threading.Thread(target=self._loop).start()

                def _loop(self):  # repro: thread-role(loop)
                    pass
        """)
        assert findings == []

    def test_unknown_role_gets_did_you_mean(self):
        findings = lint("""
            import threading

            class Server:
                def __init__(self):
                    self._x = {}  # repro: confined-to(lop)
                    threading.Thread(target=self._loop).start()

                def _loop(self):  # repro: thread-role(loop)
                    pass
        """)
        assert len(findings) == 1
        assert "unknown role 'lop'" in findings[0].message
        assert "did you mean 'loop'?" in findings[0].message

    def test_unattached_annotation_is_flagged(self):
        findings = lint("""
            def f():
                x = 1  # repro: confined-to(loop)
                return x
        """)
        assert len(findings) == 1
        assert "not attached" in findings[0].message

    def test_annotation_quoted_in_a_string_is_not_live(self):
        assert lint("""
            class Server:
                def __init__(self):
                    self.help = "see  # repro: confined-to(loop)"

                def usage(self):
                    return self.help
        """) == []

    def test_suppression_with_rationale_absorbs(self):
        source = BROKEN_CONFINEMENT_SERVER.replace(
            "self._conns.pop(1)",
            "self._conns.pop(1)  # repro: allow(thread-confinement)"
            " -- join() in stop() fences this access",
        )
        assert lint(source) == []


# ----------------------------------------------------------------------
# loop-blocking
# ----------------------------------------------------------------------


BROKEN_BLOCKING_SERVER = """
    import threading
    import time

    class Server:
        def __init__(self):
            threading.Thread(target=self._loop).start()

        def _loop(self):  # repro: thread-role(loop, nonblocking)
            self._tick()

        def _tick(self):
            time.sleep(0.1)
"""


class TestLoopBlocking:
    def test_sleep_reachable_on_loop_thread_is_flagged(self):
        findings = lint(BROKEN_BLOCKING_SERVER)
        assert [f.rule for f in findings] == ["loop-blocking"]
        message = findings[0].message
        assert "blocking sleep" in message
        assert "nonblocking role 'loop'" in message
        assert "_loop -> " in message

    def test_socket_recv_on_loop_thread_is_flagged(self):
        findings = lint("""
            import threading

            class Server:
                def __init__(self, sock):
                    self.sock = sock
                    threading.Thread(target=self._loop).start()

                def _loop(self):  # repro: thread-role(loop, nonblocking)
                    self.sock.recv(1)
        """)
        assert [f.rule for f in findings] == ["loop-blocking"]
        assert "blocking socket" in findings[0].message

    def test_loop_safe_sanctions_direct_socket_drains_only(self):
        findings = lint("""
            import threading
            import time

            class Server:
                def __init__(self, sock):
                    self.sock = sock
                    threading.Thread(target=self._loop).start()

                def _loop(self):  # repro: thread-role(loop, nonblocking)
                    self._drain()
                    self._bad()

                def _drain(self):  # repro: loop-safe
                    self.sock.recv(1)

                def _bad(self):  # repro: loop-safe
                    time.sleep(1)
        """)
        # The wake-pipe drain passes; loop-safe never excuses a sleep.
        assert len(findings) == 1
        assert "sleep" in findings[0].message

    def test_blocking_role_without_nonblocking_is_unchecked(self):
        source = BROKEN_BLOCKING_SERVER.replace(
            "thread-role(loop, nonblocking)", "thread-role(loop)"
        )
        assert lint(source) == []

    def test_worker_offload_pattern_is_clean(self):
        findings = lint("""
            import queue
            import threading
            import time

            class Server:
                def __init__(self):
                    self._tasks = queue.Queue()
                    threading.Thread(target=self._loop).start()
                    threading.Thread(target=self._worker).start()

                def _loop(self):  # repro: thread-role(loop, nonblocking)
                    self._tasks.put("work")

                def _worker(self):  # repro: thread-role(worker)
                    self._tasks.get()
                    time.sleep(0.1)
        """)
        assert findings == []

    def test_unreachable_loop_safe_is_flagged(self):
        findings = lint("""
            def helper(sock):  # repro: loop-safe
                return sock.recv(1)
        """)
        assert len(findings) == 1
        assert "sanctions nothing" in findings[0].message


# ----------------------------------------------------------------------
# must-release: named acquire/release pairs
# ----------------------------------------------------------------------


BROKEN_ADMISSION_SERVER = """
    class Server:
        def _admit(self):  # repro: acquires(slot, conditional)
            return True

        def _release(self):  # repro: releases(slot)
            pass

        def handle(self, request):
            if not self._admit():
                return None
            out = self.work(request)
            self._release()
            return out

        def work(self, request):
            return request
"""


class TestMustReleasePairs:
    def test_admission_slot_leaks_on_exception_path(self):
        # work() may raise between _admit and _release: the classic
        # leak the try/finally discipline exists to prevent.
        findings = lint(BROKEN_ADMISSION_SERVER)
        assert [f.rule for f in findings] == ["must-release"]
        message = findings[0].message
        assert "resource 'slot'" in message
        assert "exception" in message
        assert "_release" in message

    def test_try_finally_discipline_passes(self):
        findings = lint("""
            class Server:
                def _admit(self):  # repro: acquires(slot, conditional)
                    return True

                def _release(self):  # repro: releases(slot)
                    pass

                def handle(self, request):
                    if not self._admit():
                        return None
                    try:
                        return self.work(request)
                    finally:
                        self._release()

                def work(self, request):
                    return request
        """)
        assert findings == []

    def test_missed_release_on_early_return_is_flagged(self):
        findings = lint("""
            class Server:
                def _admit(self):  # repro: acquires(slot)
                    pass

                def _release(self):  # repro: releases(slot)
                    pass

                def handle(self, request):
                    self._admit()
                    if not request:
                        return None
                    self._release()
                    return request
        """)
        assert len(findings) == 1
        assert "return" in findings[0].message

    def test_unconditional_pair_passes(self):
        findings = lint("""
            class Server:
                def _admit(self):  # repro: acquires(slot)
                    pass

                def _release(self):  # repro: releases(slot)
                    pass

                def handle(self, request):
                    self._admit()
                    try:
                        return self.work(request)
                    finally:
                        self._release()

                def work(self, request):
                    return request
        """)
        assert findings == []

    def test_acquirer_without_releaser_is_flagged(self):
        findings = lint("""
            class Server:
                def _admit(self):  # repro: acquires(slot)
                    pass
        """)
        assert len(findings) == 1
        assert "no '# repro: releases(slot)'" in findings[0].message

    def test_wrapper_inherits_the_obligation(self):
        # A helper that acquires on every path and returns becomes an
        # acquirer; its caller inherits the release obligation.
        findings = lint("""
            class Server:
                def _admit(self):  # repro: acquires(slot)
                    pass

                def _release(self):  # repro: releases(slot)
                    pass

                def _enter(self):
                    self._admit()

                def leaky(self, request):
                    self._enter()
                    return self.work(request)

                def clean(self, request):
                    self._enter()
                    try:
                        return self.work(request)
                    finally:
                        self._release()

                def work(self, request):
                    return request
        """)
        assert len(findings) == 1
        assert "leaky" in findings[0].message

    @pytest.mark.parametrize("depth", [1, 20])
    def test_release_is_seen_at_any_wrapper_depth(self, depth):
        # finally: _r01 -> ... -> _r<depth> -> _release.  Each wrapper
        # level needs its callee's summary first; a solver that stops
        # after a fixed number of rounds invents a leak at depth >= 9.
        wrappers = "".join(
            f"""
                def _r{i:02d}(self):
                    self._r{i + 1:02d}()
            """
            for i in range(1, depth)
        ) + f"""
                def _r{depth:02d}(self):
                    self._release()
        """
        assert lint("""
            class Server:
                def _admit(self):  # repro: acquires(slot, conditional)
                    return True

                def _release(self):  # repro: releases(slot)
                    pass
        """ + wrappers + """
                def handle(self, request):
                    if not self._admit():
                        return None
                    try:
                        return self.work(request)
                    finally:
                        self._r01()

                def work(self, request):
                    return request
        """) == []

    def test_mutually_recursive_releasers_terminate(self):
        assert lint("""
            class Server:
                def _admit(self):  # repro: acquires(slot)
                    pass

                def _release(self):  # repro: releases(slot)
                    pass

                def _ping(self, n):
                    try:
                        if n:
                            self._pong(n - 1)
                    finally:
                        self._release()

                def _pong(self, n):
                    self._ping(n)

                def handle(self, n):
                    self._admit()
                    self._ping(n)
        """) == []

    def test_suppression_with_rationale_absorbs(self):
        source = BROKEN_ADMISSION_SERVER.replace(
            "if not self._admit():",
            "if not self._admit():  # repro: allow(must-release)"
            " -- released by the completion loop after the post",
        )
        assert lint(source) == []


# ----------------------------------------------------------------------
# must-release: sockets and selector registrations
# ----------------------------------------------------------------------


class TestMustReleaseSockets:
    def test_socket_leak_on_exception_path(self):
        findings = lint("""
            import socket

            def fetch(host):
                sock = socket.create_connection((host, 1))
                data = sock.recv(16)
                sock.close()
                return data
        """)
        assert [f.rule for f in findings] == ["must-release"]
        assert "socket opened" in findings[0].message
        assert "exception" in findings[0].message

    def test_try_finally_and_with_pass(self):
        findings = lint("""
            import socket

            def guarded(host):
                sock = socket.create_connection((host, 1))
                try:
                    return sock.recv(16)
                finally:
                    sock.close()

            def managed(host):
                with socket.create_connection((host, 1)) as sock:
                    return sock.recv(16)
        """)
        assert findings == []

    def test_registration_must_be_unregistered(self):
        findings = lint("""
            import selectors
            import socket

            def leaky(sel, host):
                sock = socket.create_connection((host, 1))
                try:
                    sel.register(sock, selectors.EVENT_READ)
                    sock.recv(1)
                finally:
                    sock.close()

            def clean(sel, host):
                sock = socket.create_connection((host, 1))
                try:
                    sel.register(sock, selectors.EVENT_READ)
                    try:
                        sock.recv(1)
                    finally:
                        sel.unregister(sock)
                finally:
                    sock.close()
        """)
        assert len(findings) == 1
        assert "selector registration" in findings[0].message
        assert "leaky" in findings[0].message

    def test_close_that_raises_still_counts(self):
        # close() releases on both edges: the try/except-pass idiom
        # around a close must stay clean.
        findings = lint("""
            import socket

            def shutdown(host):
                sock = socket.create_connection((host, 1))
                try:
                    sock.close()
                except OSError:
                    pass
        """)
        assert findings == []

    def test_ownership_transfers_through_a_closing_helper(self):
        findings = lint("""
            import socket

            def _shutdown(sock):
                try:
                    sock.close()
                except OSError:
                    pass

            def clean(host):
                sock = socket.create_connection((host, 1))
                _shutdown(sock)
        """)
        assert findings == []

    def test_escape_ends_tracking_silently(self):
        # Stored sockets (self._listener, containers, returns) are
        # out of scope by design: never a finding.
        findings = lint("""
            import socket

            class Server:
                def start(self, host):
                    self._listener = socket.create_connection((host, 1))

            def opened(host):
                return socket.create_connection((host, 1))

            def pooled(host, pool):
                sock = socket.create_connection((host, 1))
                pool.append(sock)
        """)
        assert findings == []


# ----------------------------------------------------------------------
# the role-reachability table (CI artifact)
# ----------------------------------------------------------------------


class TestRoleTable:
    def test_table_lists_roles_roots_and_functions(self):
        contexts = contexts_for(BROKEN_CONFINEMENT_SERVER)
        table = build_role_table(contexts)
        assert table["version"] == 1
        roles = {entry["role"]: entry for entry in table["roles"]}
        assert set(roles) == {"loop", "worker"}
        loop_roots = roles["loop"]["roots"]
        assert any(
            root["target"].endswith("._loop")
            and root["spawned_in"].endswith(".__init__")
            for root in loop_roots
        )
        functions = {
            entry["function"]: entry["roles"]
            for entry in table["functions"]
        }
        assert functions["repro.fixture.Server._worker"] == ["worker"]

    def test_table_is_json_serializable(self):
        contexts = contexts_for(BROKEN_BLOCKING_SERVER)
        payload = json.loads(json.dumps(build_role_table(contexts)))
        assert {entry["role"] for entry in payload["roles"]} == {"loop"}
        nonblocking = {
            entry["role"]
            for entry in payload["roles"] if entry["nonblocking"]
        }
        assert nonblocking == {"loop"}


# ----------------------------------------------------------------------
# the shipped tree itself
# ----------------------------------------------------------------------


class TestRepositoryIsClean:
    def test_shipped_tree_has_no_ownership_findings(self):
        from repro.analysis.core import analyze_paths

        findings = analyze_paths(
            [REPO_ROOT / "src"], rules=list(RULES), root=REPO_ROOT
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_serving_path_roles_are_declared(self):
        from repro.analysis.core import parse_paths

        contexts, findings = parse_paths([REPO_ROOT / "src"])
        assert not [f for f in findings if f.severity == "error"]
        table = build_role_table(contexts)
        roles = {entry["role"] for entry in table["roles"]}
        assert {"loop", "worker", "acceptor", "handler"} <= roles
        nonblocking = {
            entry["role"]
            for entry in table["roles"] if entry["nonblocking"]
        }
        assert "loop" in nonblocking
