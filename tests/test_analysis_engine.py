"""The interprocedural engine itself: solver, walk, memo.

The rule suite checks what ``guarded-by`` concludes; these check the
machinery underneath it on its own terms — that fixpoints terminate on
recursive code, what a must-analysis says about functions nobody is
known to call, and that thread spawns carry nothing across.
"""

import textwrap

from repro.analysis.concurrency import entry_held
from repro.analysis.core import parse_sources
from repro.analysis.engine import Analysis, propagate


def analysis_for(source, module="fx"):
    contexts, findings = parse_sources(
        [(module, f"{module}.py", textwrap.dedent(source))]
    )
    assert not findings
    return Analysis.of(contexts)


MUTUAL_RECURSION = """
    import threading
    import time

    LOCK = threading.Lock()

    def even(n):
        return n == 0 or _odd(n - 1)

    def _odd(n):
        with LOCK:
            time.sleep(0)
        return n != 0 and even(n - 1)
"""


class TestPropagate:
    def test_mutual_recursion_terminates_in_both_directions(self):
        program = analysis_for(MUTUAL_RECURSION).program
        # callee -> caller: a fact seeded in the helper reaches both
        # ends of the cycle.
        up = propagate(program, {"fx._odd": {"fact"}}, down=False)
        assert up == {"fx.even": {"fact"}, "fx._odd": {"fact"}}
        # caller -> callee: a fact seeded at the public entry reaches
        # the whole cycle.
        down = propagate(program, {"fx.even": {"fact"}}, down=True)
        assert down == {"fx.even": {"fact"}, "fx._odd": {"fact"}}

    def test_meet_over_no_known_callers_is_empty(self):
        analysis = analysis_for("""
            import threading

            LOCK = threading.Lock()

            def _never_called():
                return 1

            def _always_locked():
                return 2

            def public():
                with LOCK:
                    _always_locked()
                    also_public()

            def also_public():
                return 3
        """)
        held = analysis.fact(entry_held)
        # A private helper inherits what every caller holds ...
        assert held["fx._always_locked"] == {"fx.LOCK"}
        # ... nobody is known to call this one, so nothing is guaranteed
        # (the meet over zero edges is the empty set, not "every lock") ...
        assert held["fx._never_called"] == set()
        # ... and a public function stays pinned to the empty set even
        # though its one in-tree caller holds the lock.
        assert held["fx.also_public"] == set()
        assert held["fx.public"] == set()

    def test_one_unlocked_caller_empties_the_meet(self):
        analysis = analysis_for("""
            import threading

            LOCK = threading.Lock()

            def _helper():
                return 1

            def locked():
                with LOCK:
                    _helper()

            def unlocked():
                _helper()
        """)
        assert analysis.fact(entry_held)["fx._helper"] == set()

    def test_thread_spawn_edges_carry_nothing(self):
        analysis = analysis_for("""
            import threading
            import time

            LOCK = threading.Lock()

            def _child():
                time.sleep(1)
                _grandchild()

            def _grandchild():
                return 1

            def spawner():
                with LOCK:
                    threading.Thread(target=_child).start()
        """)
        # Held locks do not cross the spawn (nor does the meet treat the
        # spawn as a locked call site) ...
        held = analysis.fact(entry_held)
        assert held["fx._child"] == set()
        assert held["fx._grandchild"] == set()
        # ... the child's facts do not flow back to the spawner ...
        up = propagate(
            analysis.program, {"fx._child": {"child"}}, down=False,
        )
        assert up["fx.spawner"] == set()
        # ... and nothing the spawner holds flows down the spawn, while
        # the child's own facts still reach its callees.
        flow = propagate(
            analysis.program,
            {"fx.spawner": {"spawner"}, "fx._child": {"child"}}, down=True,
        )
        assert flow["fx._child"] == {"child"}
        assert flow["fx._grandchild"] == {"child"}

    def test_pinned_functions_keep_their_seed(self):
        analysis = analysis_for("""
            def top():
                middle()

            def middle():
                _bottom()

            def _bottom():
                return 1
        """)
        flow = propagate(
            analysis.program, {"fx.top": {"fact"}}, down=True,
            pinned={"fx.middle"},
        )
        assert flow["fx.middle"] == set()
        assert flow["fx._bottom"] == set()


class TestWalkAndMemo:
    def test_one_analysis_per_context_set(self):
        source = "def f():\n    return 1\n"
        contexts, _ = parse_sources([("fx", "fx.py", source)])
        first = Analysis.of(contexts)
        # A fresh list of the same context objects is the same program.
        assert Analysis.of(list(contexts)) is first
        calls = []

        def fact(analysis):
            calls.append(analysis)
            return len(calls)

        assert first.fact(fact) == 1
        assert first.fact(fact) == 1
        assert calls == [first]
        # Re-parsing gives new context objects, hence a new analysis.
        again, _ = parse_sources([("fx", "fx.py", source)])
        assert Analysis.of(again) is not first

    def test_the_walk_records_every_fact_kind_in_one_pass(self):
        func = analysis_for("""
            import socket
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []  # repro: guarded-by(_lock)

                def drain(self, conn):
                    with self._lock:
                        self.items.append(conn.recv(1))
                    self._lock.acquire()
                    helper()

            def helper():
                return 1
        """).program.functions["fx.Box.drain"]
        lock = "fx.Box._lock"
        assert [(c.callee, c.held) for c in func.calls] == [
            ("fx.helper", frozenset()),
        ]
        assert [(a.attr, a.is_write, a.held) for a in func.accesses] == [
            ("items", True, frozenset({lock})),
        ]
