"""Fixtures for the two concurrency checkers, one per property.

``guarded-by`` reasons over the whole program (call graph + per-function
lock summaries), so alongside the usual one-offending/one-clean
snippets these tests exercise multi-module programs via
``analyze_sources`` and re-derive a finding at every site the retired
runtime lock-set tracker used to watch (the shipped tree's strict
self-check is ``test_analysis_rules.py::TestCliAndSelfCheck``).  Lock
order is the runtime
:class:`~repro.sanitize.runtime.SanLock` graph's job; its scenarios run
here as armed code.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis.concurrency import GuardedByRule
from repro.analysis.core import analyze_source, analyze_sources
from repro.sanitize import runtime as san
from repro.sanitize.runtime import SanLock

REPO_ROOT = Path(__file__).resolve().parent.parent
RULES = (GuardedByRule(),)


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
# Lock order: the runtime SanLock graph
# ----------------------------------------------------------------------
#
# Lock order is checked at runtime only: the serving path reaches the
# ISP through getattr dispatch, which no static call graph follows
# (DESIGN §6).  The four scenarios that once fed a static rule run here
# as real code over armed SanLocks.


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


@pytest.fixture
def armed():
    san.arm()
    yield san
    san.reset()


def pair():
    left = _Left(SanLock("fix.A"))
    right = _Right(SanLock("fix.B"), left)
    left.right = right
    return left, right


class TestLockOrder:
    def test_two_lock_cycle_fires(self, armed):
        left, right = pair()
        left.forward()
        right.reverse()
        reports = armed.reports()
        assert [r.kind for r in reports] == [
            armed.SanitizerReport.KIND_LOCK_ORDER
        ]
        assert reports[0].subject == "fix.A -> fix.B -> fix.A"
        assert "opposite order also occurs" in reports[0].detail

    def test_consistent_order_is_clean(self, armed):
        left, _right = pair()
        left.forward()
        left.forward()
        assert armed.reports() == []
        assert armed.order_edges() == {("fix.A", "fix.B")}

    def test_transitive_cycle_through_helper_fires(self, armed):
        # A -> helper() -> B while B -> A: the edge comes from what the
        # helper acquires, not from a with-block in forward_via_helper.
        left, right = pair()
        left.forward_via_helper()
        right.reverse()
        assert [r.kind for r in armed.reports()] == [
            armed.SanitizerReport.KIND_LOCK_ORDER
        ]

    def test_reentrant_same_lock_is_clean(self, armed):
        lock = SanLock("fix.R", reentrant=True)
        with lock:
            with lock:
                pass
        assert armed.reports() == []
        assert armed.order_edges() == set()


# ----------------------------------------------------------------------
# guarded-by covers every site the runtime tracker used to watch
# ----------------------------------------------------------------------

#: One row per former ``san.track*`` hook site: (owning module, class,
#: the function whose ``with <lock>:`` is dropped, the function the
#: resulting finding names).  ``PersistentNodeStore.__init__`` and
#: ``_scan`` were two hooks under one ``with``: dropping it leaves the
#: private ``_scan`` without the lock on its only call path.
HOOK_SITES = [
    ("repro.rpc.server", "RpcIspServer", "stop", "stop"),
    ("repro.rpc.server", "RpcIspServer", "_accept_loop", "_accept_loop"),
    ("repro.rpc.server", "RpcIspServer", "_client_loop", "_client_loop"),
    ("repro.obs.metrics", "MetricsRegistry", "_get", "_get"),
    ("repro.obs.metrics", "MetricsRegistry", "reset", "reset"),
    ("repro.merkle.persistent_store", "PersistentNodeStore", "__init__",
     "_scan"),
    ("repro.merkle.persistent_store", "PersistentNodeStore", "put", "put"),
    ("repro.merkle.persistent_store", "PersistentNodeStore", "get", "get"),
    ("repro.merkle.persistent_store", "PersistentNodeStore", "prune",
     "prune"),
    ("repro.isp.sessions", "SessionRegistry", "insert", "insert"),
    ("repro.isp.sessions", "SessionRegistry", "remove", "remove"),
    ("repro.isp.sessions", "SessionRegistry", "prune", "prune"),
]


def module_source(module):
    path = REPO_ROOT / "src" / f"{module.replace('.', '/')}.py"
    return path.read_text(encoding="utf-8")


def drop_lock_block(source, class_name, func_name):
    """``source`` with the first ``with <lock>:`` in the method removed.

    The block's body is dedented into the enclosing suite, so the
    statements it guarded run with no lock held.
    """
    tree = ast.parse(source)
    owner = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == class_name
    )
    func = next(
        node for node in owner.body
        if isinstance(node, ast.FunctionDef) and node.name == func_name
    )
    block = next(
        node for node in ast.walk(func)
        if isinstance(node, ast.With)
        and isinstance(node.items[0].context_expr, ast.Attribute)
        and node.items[0].context_expr.attr.endswith("lock")
    )
    shift = block.body[0].col_offset - block.col_offset
    lines = source.splitlines(keepends=True)
    body = [
        line[shift:] if not line[:shift].strip() else line
        for line in lines[block.lineno:block.end_lineno]
    ]
    return "".join(
        lines[:block.lineno - 1] + body + lines[block.end_lineno:]
    )


def guarded_by_findings(module, source):
    path = f"src/{module.replace('.', '/')}.py"
    return analyze_sources([(module, path, source)],
                           rules=(GuardedByRule(),))


class TestFormerTrackerSites:
    @pytest.mark.parametrize(
        "module",
        sorted({row[0] for row in HOOK_SITES}),
    )
    def test_owning_module_is_clean_alone(self, module):
        assert guarded_by_findings(module, module_source(module)) == []

    @pytest.mark.parametrize(
        "module, class_name, func_name, flagged",
        HOOK_SITES,
        ids=[f"{row[0].rsplit('.', 1)[1]}.{row[2]}" for row in HOOK_SITES],
    )
    def test_dropping_the_lock_is_a_finding(
        self, module, class_name, func_name, flagged
    ):
        source = module_source(module)
        mutant = drop_lock_block(source, class_name, func_name)
        assert mutant != source
        findings = guarded_by_findings(module, mutant)
        owner = f"{module}.{class_name}.{flagged} "
        assert [f for f in findings if owner in f.message], findings
