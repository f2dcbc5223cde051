"""Fixtures for the two concurrency checkers, one per property.

``guarded-by`` checks each class on its own (lexical ``with`` stack,
private helpers inheriting their ``self.`` callers' locks), so
alongside the usual one-offending/one-clean snippets these tests run
multi-module programs via ``analyze_sources`` and drop every lock block
of every module that declares a guarded field, one at a time (the
shipped tree's strict self-check is
``test_analysis_rules.py::TestCliAndSelfCheck``).  Lock order is the
runtime :class:`~repro.sanitize.runtime.SanLock` graph's job; its
scenarios run here as armed code.
"""

import ast
import functools
import textwrap
from pathlib import Path

import pytest

from repro.analysis.concurrency import GuardedByRule
from repro.analysis.core import (
    analyze_source,
    analyze_sources,
    dotted,
    parse_sources,
    run_rules,
    scan_directives,
)
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

    def test_prune_sweep_iterating_a_writes_mode_table_fires(self):
        # The ISP prune sweep's old defect: the stale sessions were
        # collected by iterating the table lock-free, and only the
        # deletes took the lock; a handler inserting mid-sweep raises
        # "dictionary changed size during iteration".
        findings = lint(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._sessions = {}  # repro: guarded-by(_lock, writes)

                def insert(self, sid, session):
                    with self._lock:
                        self._sessions[sid] = session

                def get(self, sid):
                    return self._sessions.get(sid)

                def prune(self, stale):
                    doomed = [sid for sid, session in self._sessions.items()
                              if stale(session)]
                    with self._lock:
                        for sid in doomed:
                            del self._sessions[sid]
            """
        )
        assert [f.message.split(" without")[0] for f in findings] == [
            "iteration over Registry._sessions in "
            "repro.fixture.Registry.prune"]

    @pytest.mark.parametrize("iteration", [
        "for session in self._sessions: out.append(session)",
        "out = [sid for sid in self._sessions]",
        "out = {s.root for s in self._sessions.values()}",
        "out = list(self._sessions)",
        "out = sorted(self._sessions.keys())",
        "out = dict(self._sessions)",
    ])
    def test_every_iteration_of_a_writes_mode_field_is_guarded(
            self, iteration):
        source = f"""
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._sessions = {{}}  # repro: guarded-by(_lock, writes)

                def sweep(self):
                    out = []
                    {iteration}
                    return out
            """
        findings = lint(source)
        assert [f.message.split(" in ")[0] for f in findings] == [
            "iteration over Registry._sessions"]
        locked = source.replace(
            f"                    {iteration}",
            f"                    with self._lock:\n"
            f"                        {iteration}")
        assert lint(locked) == []

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
        assert "receiver other than self" in findings[0].message

    def test_mutually_recursive_helpers_terminate(self):
        # Entered under the lock, both ends of the cycle keep it.
        source = """
            import threading

            class Walker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._seen = set()  # repro: guarded-by(_lock)

                def walk(self, n):
                    with self._lock:
                        return self._even(n)

                def _even(self, n):
                    self._seen.add(n)
                    return n == 0 or self._odd(n - 1)

                def _odd(self, n):
                    self._seen.add(n)
                    return n != 0 and self._even(n - 1)
            """
        assert lint(source) == []
        # One public entry without it, and neither end keeps anything.
        findings = lint(source + """
                def walk_unlocked(self, n):
                    return self._even(n)
            """)
        assert [f.message.split(" without")[0] for f in findings] == [
            "write to Walker._seen in repro.fixture.Walker._even",
            "write to Walker._seen in repro.fixture.Walker._odd",
        ]

    def test_one_unlocked_self_caller_empties_the_helper(self):
        findings = lint(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = {}  # repro: guarded-by(_lock)

                def _bump(self, key):
                    self._rows[key] = 1

                def locked(self, key):
                    with self._lock:
                        self._bump(key)

                def unlocked(self, key):
                    self._bump(key)
            """
        )
        assert [f.rule for f in findings] == ["guarded-by"]
        assert "Table._bump" in findings[0].message
        assert "holding no lock" in findings[0].message

    def test_helper_with_no_caller_inherits_nothing(self):
        # The meet over zero call sites is the empty set, not "every
        # lock".
        findings = lint(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = {}  # repro: guarded-by(_lock)

                def _orphan(self):
                    self._rows.clear()
            """
        )
        assert [f.rule for f in findings] == ["guarded-by"]
        assert "Table._orphan" in findings[0].message

    def test_thread_target_helper_inherits_nothing(self):
        # The spawned thread runs without the spawner's lock, whatever
        # the locked self. call beside it holds.
        findings = lint(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = {}  # repro: guarded-by(_lock)

                def start(self):
                    with self._lock:
                        self._drain()
                        threading.Thread(target=self._drain).start()

                def _drain(self):
                    self._rows.clear()
            """
        )
        assert [f.rule for f in findings] == ["guarded-by"]
        assert "Table._drain" in findings[0].message

    def test_helper_also_called_through_another_receiver_fires(self):
        # Every self. call site holds the lock, but Client reaches the
        # helper from outside the class, holding nothing.
        findings = lint(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = {}  # repro: guarded-by(_lock)

                def _bump(self, key):
                    self._rows[key] = 1

                def touch(self, key):
                    with self._lock:
                        self._bump(key)

            class Client:
                def __init__(self, table):
                    self.table = table

                def poke(self):
                    self.table._bump("k")
            """
        )
        assert [f.rule for f in findings] == ["guarded-by"]
        assert "Table._bump" in findings[0].message

    def test_subclass_access_is_checked_across_modules(self):
        findings = lint_many(
            (
                "fix.base",
                """
                import threading

                class Base:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._rows = {}  # repro: guarded-by(_lock)
                """,
            ),
            (
                "fix.child",
                """
                from fix.base import Base

                class Child(Base):
                    def locked(self):
                        with self._lock:
                            self._rows.clear()

                    def unlocked(self):
                        self._rows.clear()
                """,
            ),
        )
        assert [f.rule for f in findings] == ["guarded-by"]
        assert "fix.child.Child.unlocked" in findings[0].message
        assert "Base._lock" in findings[0].message

    # -- fields guarded by a SanLock

    def test_unsynchronized_writes_race(self):
        findings = lint(
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
        findings = lint(
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
        assert lint(
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
        findings = lint(
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
# Every lock block of every module that declares a guarded field
# ----------------------------------------------------------------------

SRC = REPO_ROOT / "src"


def module_path(module):
    return f"src/{module.replace('.', '/')}.py"


def module_source(module):
    return (REPO_ROOT / module_path(module)).read_text(encoding="utf-8")


#: Every module with a ``# repro: guarded-by`` comment.
GUARDED_MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts)
    for path in SRC.rglob("*.py")
    if any(d.name == "guarded-by" for d in scan_directives(
        str(path), path.read_text(encoding="utf-8"))[0])
)

#: Blocks whose removal the rule rightly stays silent on: each guards
#: state that carries no annotation.
EXPECTED_CLEAN = {
    # Histogram's count/total/buckets carry no annotation.
    ("repro.obs.metrics", "Histogram.observe"),
    ("repro.obs.metrics", "Histogram.snapshot"),
    # self.lock serializes ISP dispatch; the ISP is another object.
    ("repro.rpc.server", "RpcIspServer._serve"),
    ("repro.rpc.server", "RpcIspServer._serve_together"),
    # The spindle lock serializes a sleep; it guards no field.
    ("repro.rpc.server", "RpcIspServer._charge_service_delay"),
}


def lock_blocks(body):
    """Every ``with <...lock>:`` in ``body`` that the rule sees: nested
    defs and classes run later, so their blocks are skipped."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(stmt, ast.With) and (
            dotted(stmt.items[0].context_expr) or ""
        ).endswith("lock"):
            yield stmt
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from lock_blocks(getattr(stmt, field, ()))


def sweep_rows():
    """(module, ``Class.method``, block line) for every lock block of
    every guarded module's functions and methods."""
    rows = []
    for module in GUARDED_MODULES:
        tree = ast.parse(module_source(module))
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else [node]
            for func in methods:
                if not isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                name = (func.name if func is node
                        else f"{node.name}.{func.name}")
                rows.extend(
                    (module, name, block.lineno)
                    for block in lock_blocks(func.body)
                )
    return rows


SWEEP = sweep_rows()


def row_id(row):
    module, name, _line = row
    cls, _, method = name.rpartition(".")
    label = f"{module.rsplit('.', 1)[1]}.{method}"
    return f"{label}({cls})" if cls else label


def drop_lock_block(source, line):
    """``source`` with the ``with <lock>:`` at ``line`` removed.

    The block's body is dedented into the enclosing suite, so the
    statements it guarded run with no lock held.
    """
    block = next(
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.With) and node.lineno == line
    )
    shift = block.body[0].col_offset - block.col_offset
    lines = source.splitlines(keepends=True)
    body = [
        text[shift:] if not text[:shift].strip() else text
        for text in lines[block.lineno:block.end_lineno]
    ]
    return "".join(
        lines[:block.lineno - 1] + body + lines[block.end_lineno:]
    )


@functools.lru_cache(maxsize=None)
def shipped_context(module):
    contexts, problems = parse_sources(
        [(module, module_path(module), module_source(module))]
    )
    assert not problems
    return contexts[0]


def guarded_by_findings(module, source):
    """The rule over every guarded module, ``module`` read as ``source``
    (so a subclass in one module sees its base's fields)."""
    contexts, problems = parse_sources(
        [(module, module_path(module), source)]
    )
    assert not problems
    contexts += [shipped_context(m) for m in GUARDED_MODULES if m != module]
    return run_rules(contexts, RULES)


class TestFormerTrackerSites:
    @pytest.mark.parametrize("module", GUARDED_MODULES)
    def test_owning_module_is_clean_alone(self, module):
        assert guarded_by_findings(module, module_source(module)) == []

    def test_every_expected_clean_block_exists(self):
        assert EXPECTED_CLEAN <= {(row[0], row[1]) for row in SWEEP}

    @pytest.mark.parametrize("row", SWEEP, ids=[row_id(r) for r in SWEEP])
    def test_dropping_the_lock_is_a_finding(self, row):
        module, name, line = row
        source = module_source(module)
        mutant = drop_lock_block(source, line)
        assert mutant != source
        findings = guarded_by_findings(module, mutant)
        if (module, name) in EXPECTED_CLEAN:
            assert findings == []
        else:
            assert [f for f in findings if f.path == module_path(module)], (
                f"dropping the lock in {name} is not a finding"
            )
