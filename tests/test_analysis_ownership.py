"""Fixtures for the ``must-release`` ownership rule.

A deliberately-broken server fixture proves the rule fires (a leaked
admission slot on an exception path, a leaked socket or selector
registration) and the matching clean variant proves the sanctioned
discipline passes.  The suite finishes with the self-check that the
shipped tree stays clean.
"""

import textwrap

import pytest

from repro.analysis.core import analyze_source
from repro.analysis.ownership import MustReleaseRule

RULES = (MustReleaseRule(),)


def lint(source, module="repro.fixture"):
    return analyze_source(
        textwrap.dedent(source), module=module, rules=list(RULES)
    )


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
# the shipped tree itself
# ----------------------------------------------------------------------


class TestRepositoryIsClean:
    def test_shipped_tree_has_no_ownership_findings(self, shipped_tree):
        _contexts, findings = shipped_tree
        findings = [f for f in findings if f.rule == "must-release"]
        assert findings == [], "\n".join(f.render() for f in findings)
