"""The interprocedural engine itself: solver, walk, memo.

The rule suites check what the four program rules conclude; these check
the machinery underneath them on its own terms — that fixpoints
terminate on recursive code, what a must-analysis says about functions
nobody is known to call, that thread spawns carry nothing across, and
that witness parents are chosen deterministically.
"""

import textwrap

from repro.analysis.concurrency import acquired_locks, entry_held
from repro.analysis.core import parse_sources
from repro.analysis.dataflow import Effects
from repro.analysis.engine import Analysis, propagate, summarize


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
        analysis = analysis_for(MUTUAL_RECURSION)
        # callee -> caller: both ends of the cycle acquire the lock and
        # sleep, transitively.
        assert analysis.fact(acquired_locks) == {
            "fx.even": {"fx.LOCK"}, "fx._odd": {"fx.LOCK"},
        }
        effects = analysis.fact(Effects)
        assert effects.kinds("fx.even") == {"lock", "sleep"}
        assert effects.witness("fx.even", "sleep")[0] == [
            "fx.even", "fx._odd"
        ]
        # caller -> callee: a fact seeded at the public entry reaches
        # the whole cycle.
        flow = propagate(analysis.program, {"fx.even": {"fact"}}, down=True)
        assert flow.values["fx._odd"] == {"fact"}
        assert flow.chain("fx._odd", "fact") == ["fx._odd", "fx.even"]

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
        # ... the child's effects do not flow back to the spawner ...
        assert analysis.fact(Effects).kinds("fx.spawner") == {"lock"}
        assert analysis.fact(acquired_locks)["fx._child"] == set()
        # ... and nothing the spawner holds flows down the spawn, while
        # the child's own facts still reach its callees.
        flow = propagate(
            analysis.program,
            {"fx.spawner": {"spawner"}, "fx._child": {"child"}}, down=True,
        )
        assert flow.values["fx._child"] == {"child"}
        assert flow.values["fx._grandchild"] == {"child"}

    def test_witness_parent_is_first_in_sorted_caller_order(self):
        # Both roots can hand _shared the fact in the first sweep; the
        # sorted-first caller is recorded whatever the source order.
        analysis = analysis_for("""
            def zeta():
                _shared()

            def alpha():
                _shared()

            def _shared():
                _leaf()

            def _leaf():
                return 1
        """)
        flow = propagate(
            analysis.program,
            {"fx.alpha": {"fact"}, "fx.zeta": {"fact"}}, down=True,
        )
        assert flow.parent[("fx._shared", "fact")][0] == "fx.alpha"
        assert flow.chain("fx._leaf", "fact") == [
            "fx._leaf", "fx._shared", "fx.alpha"
        ]
        # A seed holder has no parent: the chain ends there.
        assert flow.chain("fx.zeta", "fact") == ["fx.zeta"]

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
        assert flow.values["fx.middle"] == set()
        assert flow.values["fx._bottom"] == set()


class TestSummarize:
    CHAIN = """
        def a():
            return b()

        def b():
            return c()

        def c():
            return 1

        def unrelated():
            return 2
    """

    def depth_transfer(self, program, summaries, log):
        """Summary: 1 + the deepest callee's summary."""
        def transfer(func_id):
            log.append(func_id)
            depth = 1 + max(
                (summaries[site.callee]
                 for site in program.functions[func_id].calls
                 if site.callee in summaries),
                default=0,
            )
            return max(depth, summaries[func_id]), func_id.upper()
        return transfer

    def test_acyclic_graph_is_examined_once_callees_first(self):
        program = analysis_for(self.CHAIN).program
        summaries = dict.fromkeys(program.functions, 0)
        log = []
        reports = summarize(
            program, self.depth_transfer(program, summaries, log),
            summaries, program.functions,
        )
        assert summaries == {
            "fx.a": 3, "fx.b": 2, "fx.c": 1, "fx.unrelated": 1,
        }
        assert log == ["fx.c", "fx.b", "fx.a", "fx.unrelated"]
        assert reports["fx.a"] == "FX.A"

    def test_a_change_requeues_callers_at_any_depth(self):
        # Start from the leaf only: its change pulls in b, then a — and
        # never the function that does not depend on it.
        program = analysis_for(self.CHAIN).program
        summaries = dict.fromkeys(program.functions, 0)
        log = []
        reports = summarize(
            program, self.depth_transfer(program, summaries, log),
            summaries, ["fx.c"],
        )
        assert log == ["fx.c", "fx.b", "fx.a"]
        assert sorted(reports) == ["fx.a", "fx.b", "fx.c"]
        assert summaries["fx.unrelated"] == 0

    def test_recursion_runs_until_the_summaries_stop_changing(self):
        program = analysis_for("""
            def ping(n):
                return pong(n)

            def pong(n):
                return ping(n) or source()

            def source():
                return 1
        """).program
        # Summary: the set of functions reachable, which only grows.
        summaries = {func_id: frozenset() for func_id in program.functions}

        def transfer(func_id):
            reach = set(summaries[func_id])
            for site in program.functions[func_id].calls:
                if site.callee in summaries:
                    reach |= {site.callee} | summaries[site.callee]
            return frozenset(reach), None

        summarize(program, transfer, summaries, program.functions)
        everything = {"fx.ping", "fx.pong", "fx.source"}
        assert summaries["fx.ping"] == everything
        assert summaries["fx.pong"] == everything


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
        assert [(a.lock, a.held) for a in func.acquires] == [
            (lock, frozenset()), (lock, frozenset()),
        ]
        assert [(c.callee, c.held) for c in func.calls] == [
            ("fx.helper", frozenset()),
        ]
        assert [(a.attr, a.is_write, a.held) for a in func.accesses] == [
            ("items", True, frozenset({lock})),
        ]
        assert [(b.kind, b.detail, b.held) for b in func.blocking] == [
            ("socket", ".recv()", frozenset({lock})),
        ]
        assert [w.detail for w in func.waits] == [
            "lock acquire() without a timeout",
        ]
