"""Fixtures for the interprocedural concurrency rules.

``lock-order`` and ``guarded-by`` reason over the whole program (call
graph + per-function lock summaries), so alongside the usual
one-offending/one-clean snippets these tests exercise multi-module
programs via ``analyze_sources`` and finish with the self-check that
the shipped tree stays clean.
"""

import textwrap
from pathlib import Path

from repro.analysis.concurrency import GuardedByRule, LockOrderRule
from repro.analysis.core import analyze_source, analyze_sources

REPO_ROOT = Path(__file__).resolve().parent.parent
RULES = (LockOrderRule(), GuardedByRule())


def lint(source, module="repro.fixture"):
    return analyze_source(
        textwrap.dedent(source), module=module, rules=RULES
    )


def lint_many(*named):
    return analyze_sources(
        [(module, f"{module.replace('.', '/')}.py", textwrap.dedent(src))
         for module, src in named],
        rules=RULES,
    )


# ----------------------------------------------------------------------
# guarded-by
# ----------------------------------------------------------------------


class TestGuardedBy:
    def test_unguarded_write_fires(self):
        findings = lint(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = {}  # repro: guarded-by(_lock)

                def put(self, key, value):
                    self._rows[key] = value
            """
        )
        assert [f.rule for f in findings] == ["guarded-by"]
        assert "Table._rows" in findings[0].message
        assert "Table._lock" in findings[0].message

    def test_write_under_lock_is_clean(self):
        assert lint(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = {}  # repro: guarded-by(_lock)

                def put(self, key, value):
                    with self._lock:
                        self._rows[key] = value

                def get(self, key):
                    with self._lock:
                        return self._rows[key]
            """
        ) == []

    def test_private_helper_inherits_callers_lock(self):
        # _bump is only reachable with the lock held, so the
        # interprocedural entry-held fixpoint clears its accesses.
        assert lint(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = {}  # repro: guarded-by(_lock)

                def _bump(self, key):
                    self._rows[key] = self._rows.get(key, 0) + 1

                def touch(self, key):
                    with self._lock:
                        self._bump(key)
            """
        ) == []

    def test_public_method_never_inherits_entry_locks(self):
        # bump is public: an external caller holds nothing, so the
        # one locked in-tree call site must not launder its access.
        findings = lint(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = {}  # repro: guarded-by(_lock)

                def bump(self, key):
                    self._rows[key] = 1

                def touch(self, key):
                    with self._lock:
                        self.bump(key)
            """
        )
        assert [f.rule for f in findings] == ["guarded-by"]
        assert "Table.bump" in findings[0].message

    def test_writes_mode_exempts_reads(self):
        assert lint(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = {}  # repro: guarded-by(_lock, writes)

                def put(self, key, value):
                    with self._lock:
                        self._rows[key] = value

                def get(self, key):
                    return self._rows[key]
            """
        ) == []

    def test_mutator_method_counts_as_write(self):
        findings = lint(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []  # repro: guarded-by(_lock, writes)

                def add(self, item):
                    self._items.append(item)
            """
        )
        assert [f.rule for f in findings] == ["guarded-by"]
        assert "write" in findings[0].message

    def test_unknown_lock_gets_did_you_mean(self):
        findings = lint(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = {}  # repro: guarded-by(_loch)
            """
        )
        assert [f.rule for f in findings] == ["guarded-by"]
        assert "unknown lock '_loch'" in findings[0].message
        assert "did you mean '_lock'?" in findings[0].message

    def test_detached_annotation_fires(self):
        findings = lint(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    x = 1  # repro: guarded-by(_lock)
            """
        )
        assert [f.rule for f in findings] == ["guarded-by"]
        assert "not attached" in findings[0].message

    def test_annotation_quoted_in_a_string_is_not_live(self):
        # The field assigned a string that *mentions* the directive is
        # not thereby guarded: touch() writes it lock-free, legally.
        assert lint(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.doc = "use  # repro: guarded-by(_lock)  here"

                def touch(self):
                    self.doc = "changed"
            """
        ) == []

    def test_annotation_quoted_in_a_docstring_is_not_live(self):
        assert lint(
            '''
            import threading

            class Table:
                """Fields are annotated like so:

                    # repro: guarded-by(_lock)
                """

                def __init__(self):
                    self._lock = threading.Lock()
            '''
        ) == []

    def test_init_of_owning_class_is_exempt(self):
        assert lint(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = {}  # repro: guarded-by(_lock)
                    self._rows["schema"] = b""
            """
        ) == []

    def test_cross_module_unguarded_access_fires(self):
        findings = lint_many(
            (
                "fix.store",
                """
                import threading

                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._pages = {}  # repro: guarded-by(_lock)

                    def put(self, key, value):
                        with self._lock:
                            self._pages[key] = value
                """,
            ),
            (
                "fix.server",
                """
                from fix.store import Store

                class Server:
                    def __init__(self):
                        self.store = Store()

                    def poke(self):
                        self.store._pages.clear()
                """,
            ),
        )
        assert [f.rule for f in findings] == ["guarded-by"]
        assert "fix.server" in findings[0].path.replace("/", ".")


# ----------------------------------------------------------------------
# lock-order
# ----------------------------------------------------------------------


class TestLockOrder:
    def test_two_lock_cycle_fires(self):
        findings = lint_many(
            (
                "fix.ab",
                """
                import threading

                class A:
                    def __init__(self, b: "B"):
                        self._lock = threading.Lock()
                        self.b = b

                    def forward(self):
                        with self._lock:
                            self.b.poke()

                    def poke(self):
                        with self._lock:
                            pass

                class B:
                    def __init__(self, a: A):
                        self._lock = threading.Lock()
                        self.a = a

                    def poke(self):
                        with self._lock:
                            pass

                    def reverse(self):
                        with self._lock:
                            self.a.poke()
                """,
            ),
        )
        assert [f.rule for f in findings] == ["lock-order"]
        message = findings[0].message
        assert "lock-order cycle" in message
        assert "A._lock" in message and "B._lock" in message
        assert "potential deadlock" in message

    def test_consistent_order_is_clean(self):
        assert lint(
            """
            import threading

            class A:
                def __init__(self, b: "B"):
                    self._lock = threading.Lock()
                    self.b = b

                def forward(self):
                    with self._lock:
                        self.b.poke()

            class B:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self):
                    with self._lock:
                        pass
            """
        ) == []

    def test_transitive_cycle_through_helper_fires(self):
        # A -> helper() -> B while B -> A: the edge comes from the
        # callee's *transitive* acquisitions, not a direct with-block.
        findings = lint(
            """
            import threading

            class A:
                def __init__(self, b: "B"):
                    self._lock = threading.Lock()
                    self.b = b

                def forward(self):
                    with self._lock:
                        self._hop()

                def _hop(self):
                    self.b.poke()

                def poke(self):
                    with self._lock:
                        pass

            class B:
                def __init__(self, a: A):
                    self._lock = threading.Lock()
                    self.a = a

                def poke(self):
                    with self._lock:
                        pass

                def reverse(self):
                    with self._lock:
                        self.a.poke()
            """
        )
        assert [f.rule for f in findings] == ["lock-order"]

    def test_reentrant_same_lock_is_clean(self):
        assert lint(
            """
            import threading

            class A:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """
        ) == []


# ----------------------------------------------------------------------
# Self-check: the shipped tree must stay clean under both rules
# ----------------------------------------------------------------------


class TestShippedTree:
    def test_src_is_clean(self):
        from repro.analysis.core import analyze_paths

        findings = [
            f for f in analyze_paths([REPO_ROOT / "src"])
            if f.rule in ("lock-order", "guarded-by")
        ]
        assert findings == []
