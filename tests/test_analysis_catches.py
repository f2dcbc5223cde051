"""The defect each retired lint rule was pinned to, put back into
today's source.

Every mutant here is built from the working tree (not with ``git show``,
so it runs in a shallow checkout) by :func:`replace_once`,
:func:`hoist_out_of_try` or :func:`drop_lock_block`.

``crash-hygiene``, ``must-release``, ``blocking-effect``,
``verify-before-use`` and ``guarded-by`` are retired: a tier-1 check
fails on every mutant of their defects.  Each row below plants one
mutant — the historical defect, and one at every other site the rule
guarded — into the live classes (:func:`patch_mutant`), runs the named
check against it, and asserts that the check fails.  ``guarded-by``'s
rows drop each ``with <lock>:`` block that guards a field declared with
:func:`repro.sanitize.guarded_by`, and the armed check must fail on an
``unguarded-access`` report.
"""

import ast
import contextlib
import gc
import importlib
import io
import sys
import threading
import types
import warnings
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, Tuple

import pytest
from tests import (
    test_cli,
    test_core,
    test_db_btree,
    test_db_statement_scope,
    test_merkle_ads,
    test_prepared_statements,
    test_rpc,
    test_sanitize_concurrency,
    test_security,
    test_serve,
    test_stateful,
)

from repro.client.vfs import QueryMode
from repro.errors import ProofError
from repro.sanitize import runtime as san
from repro.serve.server import AsyncIspServer

REPO_ROOT = Path(__file__).resolve().parent.parent


def module_path(module):
    return f"src/{module.replace('.', '/')}.py"


def shipped(module):
    return (REPO_ROOT / module_path(module)).read_text(encoding="utf-8")


def replace_once(source, old, new):
    assert source.count(old) == 1, old
    return source.replace(old, new)


def hoist_out_of_try(source, class_name, func_name):
    """``source`` with the first statement of the method's
    ``try``/``finally`` moved in front of the ``try``."""
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
        if isinstance(node, ast.Try) and node.finalbody
    )
    first = block.body[0]
    shift = first.col_offset - block.col_offset
    lines = source.splitlines(keepends=True)
    hoisted = [
        line[shift:] if not line[:shift].strip() else line
        for line in lines[first.lineno - 1:first.end_lineno]
    ]
    return "".join(
        lines[:block.lineno - 1] + hoisted
        + lines[block.lineno - 1:block.lineno]
        + lines[first.end_lineno:]
    )


def _defs(source):
    """``{qualname: ast dump}`` of the module's functions and methods."""
    found = {}
    for node in ast.parse(source).body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for member in members:
            if isinstance(member, ast.FunctionDef):
                found[prefix + member.name] = ast.dump(member)
    return found


def _code_objects(code, prefix=""):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            qualname = prefix + const.co_name
            yield qualname, const
            yield from _code_objects(const, qualname + ".")


def patch_mutant(monkeypatch, module, mutant):
    """Give the live ``module`` every function of ``mutant`` whose source
    differs from the shipped one, compiled against the live module's
    globals (so classes and constants keep their identity)."""
    live = importlib.import_module(module)
    before, after = _defs(shipped(module)), _defs(mutant)
    codes = dict(_code_objects(compile(mutant, module_path(module), "exec")))
    changed = [name for name in after if before.get(name) != after[name]]
    assert changed, "the mutant changes no function"
    for qualname in changed:
        owner_name, _, name = qualname.rpartition(".")
        owner = getattr(live, owner_name) if owner_name else live
        current = vars(owner)[name]
        shipped_func = getattr(current, "fget", current)
        code = codes[qualname]
        # Zero-argument super() reads the defining class from a cell.
        closure = tuple(types.CellType(owner) for _ in code.co_freevars)
        func = types.FunctionType(
            code, vars(live), name, shipped_func.__defaults__, closure
        )
        func.__kwdefaults__ = shipped_func.__kwdefaults__
        monkeypatch.setattr(
            owner, name,
            property(func) if isinstance(current, property) else func,
        )


class Mutant(NamedTuple):
    """One planted defect and the tier-1 check that fails on it."""

    name: str
    #: ``(module, source -> mutant source)`` pairs.
    edits: Sequence[Tuple[str, Callable[[str], str]]]
    #: Runs the named check (given a temporary directory); it must fail.
    check: Callable[..., None]
    #: How it fails: a failed assert, or a pytest.raises that saw
    #: nothing raised, unless the row says otherwise.
    fails_with: Tuple[type, ...] = (AssertionError, pytest.fail.Exception)


def replacing(module, old, new):
    return (module, lambda source: replace_once(source, old, new))


def run_rows(monkeypatch, tmp_path, row):
    for module, mutate in row.edits:
        patch_mutant(monkeypatch, module, mutate(shipped(module)))
    with pytest.raises(row.fails_with):
        row.check(tmp_path)


#: Planted as is (not every module under a lock imports ``time``); the
#: runtime check is on the call, whatever it waits.
SLEEP = "__import__('time').sleep(0)"


def admission_leak(tmp_path):
    test_rpc.TestAdmissionLeakRegression().test_injected_raise_releases_slot()


def leaks_fail(check):
    """``check`` under tier-1's rule that a socket left for the garbage
    collector fails the test (tests/conftest.py): CPython warns from the
    finalizer, so the warning arrives unraisable."""
    def run(tmp_path):
        leaked, before = [], set(threading.enumerate())
        hook = sys.unraisablehook
        # Kept as text: the exception's frames still hold sockets.
        sys.unraisablehook = lambda args: leaked.append(repr(args.exc_value))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                check()
                # A server thread drops its sockets as it exits.
                for thread in set(threading.enumerate()) - before:
                    thread.join(timeout=5.0)
                gc.collect()
        except ResourceWarning as warning:
            leaked.append(repr(warning))
        finally:
            sys.unraisablehook = hook
        assert leaked == [], leaked[0]
    return run


dropped_connections = leaks_fail(
    test_rpc.TestReliability().test_retries_recover_from_dropped_connections
)
async_query = leaks_fail(
    test_serve.TestProtocolEquivalence(
    ).test_verified_query_through_async_server
)


class TestMustRelease:
    """PR 10 (``bb8e375``): the batch path took admission slots before
    its ``try``/``finally``, so a raise between two ``_admit`` calls
    leaked every slot already taken."""

    ROWS = [
        Mutant("admission-before-the-try", [(
            "repro.rpc.server", lambda source: hoist_out_of_try(
                source, "RpcIspServer", "_handle"),
        )], admission_leak),
        Mutant("release-after-the-finally", [replacing(
            "repro.rpc.server",
            "        finally:\n            self._release(slots)\n"
            "        return responses",
            "        finally:\n            pass\n"
            "        self._release(slots)\n        return responses",
        )], admission_leak),
        Mutant("handler-socket-not-closed", [replacing(
            "repro.rpc.server",
            "                    self._connections.remove(conn)\n"
            "            try:\n                conn.close()\n",
            "                    self._connections.remove(conn)\n"
            "            try:\n                pass\n",
        )], dropped_connections),
        Mutant("listener-not-closed", [replacing(
            "repro.rpc.server",
            "            try:\n                self._listener.close()\n",
            "            try:\n                pass\n",
        )], dropped_connections),
        Mutant("discarded-socket-not-closed", [replacing(
            "repro.rpc.client",
            "    def discard(self, conn: socket.socket) -> None:\n"
            "        _close_quietly(conn)",
            "    def discard(self, conn: socket.socket) -> None:\n"
            "        pass",
        )], dropped_connections),
        Mutant("idle-sockets-not-closed", [replacing(
            "repro.rpc.client",
            "        for conn in idle:\n            _close_quietly(conn)",
            "        for conn in idle:\n            pass",
        )], dropped_connections),
        Mutant("surplus-socket-not-closed", [replacing(
            "repro.rpc.client",
            "                return\n        _close_quietly(conn)",
            "                return",
        )], leaks_fail(test_rpc.TestReliability(
        ).test_pool_closes_the_connections_it_does_not_keep)),
        Mutant("loop-socket-not-closed", [replacing(
            "repro.serve.server",
            "        try:\n            conn.sock.close()\n",
            "        try:\n            pass\n",
        )], async_query),
        Mutant("loop-socket-not-unregistered", [replacing(
            "repro.serve.server",
            "            try:\n                sel.unregister(conn.sock)\n",
            "            try:\n                pass\n",
        )], lambda tmp_path: test_serve.TestConnectionTeardown(
        ).test_a_freed_descriptor_number_is_served_again()),
        Mutant("listener-and-wake-pipe-not-closed", [replacing(
            "repro.serve.server",
            "            try:\n                sock.close()\n",
            "            try:\n                pass\n",
        )], async_query),
    ]

    # A mutant may kill a server thread on its way to failing the check.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    @pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
    def test_tier1_fails(self, monkeypatch, tmp_path, row):
        run_rows(monkeypatch, tmp_path, row)


def sleeping_under(module, with_line, first_line, indent):
    """A mutant that sleeps right inside ``with_line``'s block."""
    pad = " " * indent
    return replacing(
        module, f"{with_line}\n{pad}{first_line}",
        f"{with_line}\n{pad}{SLEEP}\n{pad}{first_line}",
    )


def armed_stress_on(server_class):
    def check(tmp_path):
        test_sanitize_concurrency.TestOrderGraph(
        ).test_observed_edges_follow_the_declared_order(
            tmp_path, server_class
        )
    return check


def threaded_stress(tmp_path):
    test_sanitize_concurrency.TestArmedStress().test_armed_run_is_clean(
        tmp_path
    )


def off_path_locks(tmp_path):
    test_sanitize_concurrency.TestNoBlockingUnderLock(
    ).test_registry_and_health_locks_do_not_block()


class TestBlockingEffect:
    """PR 8 (``fc5c659``): the modeled storage ``sleep`` ran under the
    ``rpc.server`` dispatch lock, so every session on the server queued
    behind one request's modeled I/O.  The other rows sleep under each
    ``SanLock`` of DESIGN §8 that may not sleep."""

    ROWS = [
        Mutant("delay-under-the-dispatch-lock", [replacing(
            "repro.rpc.server",
            "            self._charge_service_delay(1)\n"
            "        with self.lock:\n",
            "        with self.lock:\n"
            "            self._charge_service_delay(1)\n",
        )], lambda tmp_path: test_rpc.TestServiceDelayOffDispatchLock(
        ).test_certificate_not_delayed_by_spindle()),
        Mutant("sleep-under-rpc.server", [sleeping_under(
            "repro.rpc.server", "        with self.lock:",
            "self._check_deadline(deadline)\n"
            "            return self._dispatch(kind, args)", 12,
        )], threaded_stress),
        Mutant("sleep-under-rpc.admission", [sleeping_under(
            "repro.rpc.server", "        with self._admission_lock:",
            "if self._pending >= self.max_pending:", 12,
        )], threaded_stress),
        Mutant("sleep-under-rpc.conns", [sleeping_under(
            "repro.rpc.server", "            with self._conn_lock:",
            "self._connections.append(conn)", 16,
        )], threaded_stress),
        Mutant("sleep-under-serve.outbox", [sleeping_under(
            "repro.serve.server", "        with self._out_lock:",
            "self._completions.extend(completions)", 12,
        )], armed_stress_on(AsyncIspServer)),
        Mutant("sleep-under-isp.sessions", [sleeping_under(
            "repro.isp.sessions", "        with self._lock:",
            "self._sessions[session.session_id] = session", 12,
        )], threaded_stress),
        Mutant("sleep-under-store.pages", [sleeping_under(
            "repro.merkle.persistent_store", "        with self._lock:",
            "if digest in self._offsets:\n"
            "                return digest", 12,
        )], threaded_stress),
        Mutant("sleep-under-obs.registry", [sleeping_under(
            "repro.obs.metrics", "            with self._lock:",
            "instrument = self._instruments.get(name)", 16,
        )], off_path_locks),
        Mutant("sleep-under-fleet.health", [sleeping_under(
            "repro.fleet.health", "        with self._lock:",
            "record = self._records.get(key)\n"
            "            return True if record is None else record.up", 12,
        )], off_path_locks),
    ]

    @pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
    def test_tier1_fails(self, monkeypatch, tmp_path, row):
        try:
            run_rows(monkeypatch, tmp_path, row)
        finally:
            san.reset()


def every_move(tmp_path):
    test_stateful.test_every_move_is_told_and_refused()


def unmined_block(tmp_path):
    with pytest.MonkeyPatch.context() as monkeypatch:
        test_security.TestCertifiedBlocks(
        ).test_block_failing_consensus_is_refused(monkeypatch)


class TestVerifyBeforeUse:
    """PR 27 (``c6fc5e4``): ``mark_fresh_node`` raised ``V_n`` on the
    ISP's unproven "fresh" reply, so a failed query left stale pages
    marked fresh for the next one.  The other rows put an unverified
    value into each function the rule treated as a sink (the metadata
    fill, the pager's writes), and drop the containment each of the
    rule's three suppressions in ``client/vfs.py`` cited."""

    ROWS = [
        Mutant("v_n-raised-on-the-isps-word", [
            ("repro.client.caches", lambda source: replace_once(
                replace_once(
                    source,
                    "    def mark_fresh_node(self, path: str, level: int,"
                    " index: int) -> None:",
                    "    def mark_fresh_node(self, path: str, level: int,"
                    " index: int,\n                        version: int)"
                    " -> None:",
                ),
                "        if obs.ACTIVE:\n"
                "            obs.inc(\"cache.inter.fresh_node\")",
                "        self._raise_version(path, level, index, version)\n"
                "        if obs.ACTIVE:\n"
                "            obs.inc(\"cache.inter.fresh_node\")",
            )),
            replacing(
                "repro.client.vfs",
                "cache.mark_fresh_node(path, level, index)",
                "cache.mark_fresh_node(path, level, index, "
                "self.certificate.version)",
            ),
        ], every_move),
        Mutant("metas-kept-on-the-isps-word", [replacing(
            "repro.client.vfs",
            "            self.used_metas[path] = meta\n",
            "            self.used_metas[path] = meta\n"
            "            self.state.learn_metas(\n"
            "                self.certificate.ads_root, {path: meta})\n",
        )], every_move),
        Mutant("block-header-unchecked", [replacing(
            "repro.core.ci",
            "        check_header(block.header, pow_params, chain_id)\n",
            "",
        )], unmined_block),
        Mutant("read-set-unverified", [replacing(
            "repro.core.ci",
            "            V2fsAds.verify_read_proof("
            "pi_r, self.storage_root, claims)\n",
            "",
        )], lambda tmp_path: test_security.TestMaliciousCiStorage(
        ).test_stale_but_well_formed_page_detected()),
        Mutant("intra-cache-outlives-its-session", [replacing(
            "repro.client.vfs",
            "        self.intra_cache = IntraQueryCache(state.cache_bytes)",
            "        self.intra_cache = vars(state).setdefault(\n"
            "            'intra', IntraQueryCache(state.cache_bytes))",
        )], every_move),
        Mutant("insert-not-rolled-back", [replacing(
            "repro.client.vfs",
            "            cache.insert(key, page, self.certificate.version)\n"
            "            self.inserted.append(key)\n",
            "            cache.insert(key, page, self.certificate.version)\n",
        )], every_move),
        Mutant("update-not-rolled-back", [replacing(
            "repro.client.vfs",
            "        cache.update(key, page, self.certificate.version)\n"
            "        self.inserted.append(key)\n",
            "        cache.update(key, page, self.certificate.version)\n",
        )], every_move),
    ]

    @pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
    def test_tier1_fails(self, monkeypatch, tmp_path, row):
        run_rows(monkeypatch, tmp_path, row)


def demo_command(tmp_path):
    """``test_cli``'s demo check, its ``capsys`` read from a redirect."""
    out = io.StringIO()
    captured = types.SimpleNamespace(
        readouterr=lambda: types.SimpleNamespace(out=out.getvalue())
    )
    with contextlib.redirect_stdout(out):
        test_cli.TestCommands().test_demo_command(captured)


def crash_severs_on(server_class):
    def check(tmp_path):
        with pytest.MonkeyPatch.context() as monkeypatch:
            test_rpc.TestCrashInsideDispatch(
            ).test_a_crash_in_an_isp_call_severs_the_connection(
                monkeypatch, server_class
            )
    return check


class TestCrashHygiene:
    """PR 3 (``e1346d4``): ``V2fsAds.apply_writes`` caught
    ``Exception`` around the trie lookup, so a corrupt trie or an
    unknown digest read as "no such file".  The other rows drop the
    re-raise of each ``except BaseException`` cleanup and of the
    client's rollback, and widen the RPC error-frame handler to
    ``BaseException`` (on both servers, which share it).

    One mutant of the rule's sites is equivalent and has no row:
    widening ``AsyncIspServer._worker_main``'s ``except Exception``
    backstop changes nothing, because the clause above it already
    catches ``SimulatedCrash``."""

    ROWS = [
        Mutant("unknown-digest-read-as-a-new-file", [replacing(
            "repro.merkle.ads",
            "            except FileNotFoundInStoreError:",
            "            except Exception:",
        )], lambda tmp_path: test_merkle_ads.TestWriteProofs(
        ).test_a_missing_file_node_is_no_new_file()),
        # The run goes on past the swallowed insert, and the enclave
        # refuses the write proof of what it left.
        Mutant("failed-insert-swallowed", [replacing(
            "repro.db.btree",
            "            self._insert(key, value, allow_duplicate)\n"
            "        except BaseException:\n"
            "            self._kept.clear()\n            raise\n",
            "            self._insert(key, value, allow_duplicate)\n"
            "        except BaseException:\n"
            "            self._kept.clear()\n",
        )], lambda tmp_path: test_core.TestCiHeldState(
        ).test_a_failed_insert_still_drops_its_files_nodes(),
            fails_with=(ProofError,)),
        Mutant("failed-delete-swallowed", [replacing(
            "repro.db.btree",
            "            return self._delete(key)\n"
            "        except BaseException:\n"
            "            self._kept.clear()\n            raise\n",
            "            return self._delete(key)\n"
            "        except BaseException:\n"
            "            self._kept.clear()\n",
        )], lambda tmp_path: test_db_btree.TestKeptNode(
        ).test_a_mangled_write_is_caught_on_the_next_load()),
        Mutant("failed-pager-open-swallowed", [replacing(
            "repro.db.pager",
            "            self._file.close()\n            raise\n",
            "            self._file.close()\n",
        )], lambda tmp_path: test_db_statement_scope
            .TestPagerConstructorClosesWhatItOpened()
            .test_empty_without_create()),
        # The query returns None, and its caller's unpacking raises.
        Mutant("failed-query-rolled-back-and-swallowed", [replacing(
            "repro.client.query_client",
            "                except ReproError:\n                    pass\n"
            "            raise\n",
            "                except ReproError:\n                    pass\n",
        )], demo_command, fails_with=(TypeError,)),
        Mutant("crash-answered-as-an-error-frame-threaded", [replacing(
            "repro.rpc.server",
            "        except Exception as error:\n"
            "            # A non-ReproError here",
            "        except BaseException as error:\n"
            "            # A non-ReproError here",
        )], crash_severs_on("threaded")),
        Mutant("crash-answered-as-an-error-frame-async", [replacing(
            "repro.rpc.server",
            "        except Exception as error:\n"
            "            # A non-ReproError here",
            "        except BaseException as error:\n"
            "            # A non-ReproError here",
        )], crash_severs_on("async")),
    ]

    @pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
    def test_tier1_fails(self, monkeypatch, tmp_path, row):
        run_rows(monkeypatch, tmp_path, row)


def fresh_a_block_later(shape):
    def check(tmp_path):
        test_prepared_statements.test_a_block_later_the_answer_is_fresh(
            shape)
    return check


def every_page_read_again(tmp_path):
    test_prepared_statements.test_a_kept_statement_reads_every_page_again(
        test_prepared_statements.build_system())


def forged_catalog_planned_again(tmp_path):
    system = test_security.lying_system(2)
    system.advance_block("eth")
    with pytest.MonkeyPatch.context() as monkeypatch:
        test_security.TestCatalogMemo(
        ).test_forged_catalog_served_once_does_not_survive(
            system, "inprocess", QueryMode.INTER_VBF, monkeypatch)


class TestPreparedStatements:
    """A compiled statement kept across queries (DESIGN §4k) may keep
    nothing an execution read.  Each row keeps one such thing, or keeps
    the statement past what its key says."""

    ROWS = [
        Mutant("subquery-results-kept-across-executions", [replacing(
            "repro.db.plan.expressions",
            "        memo = self.provider.statement_memo\n"
            "        key = (\"rows\", id(select))\n",
            "        memo = self.plans\n"
            "        key = (\"rows\", id(select))\n",
        )], fresh_a_block_later("scalar")),
        Mutant("probes-kept-across-executions", [(
            "repro.db.engine", lambda source: replace_once(replace_once(
                source,
                "        site = object()  # this probe's key in the "
                "statement memo\n",
                "        site = object()  # this probe's key in the "
                "statement memo\n        kept: dict = {}\n",
            ), "            probed: Dict[Any, List[List[SqlValue]]] = (\n"
               "                engine.statement_memo.setdefault(site, {}))\n",
               "            probed = kept\n"),
        )], every_page_read_again),
        Mutant("statement-kept-though-planning-read", [replacing(
            "repro.db.engine",
            "                                 keep=self._file_uses == uses)",
            "                                 keep=True)",
        )], fresh_a_block_later("materialized")),
        Mutant("rollback-keeps-statements", [replacing(
            "repro.client.state",
            "        self.statements.clear()\n",
            "",
        )], lambda tmp_path: test_prepared_statements
            .test_a_failed_query_drops_every_kept_statement()),
        Mutant("statement-key-without-the-catalog", [replacing(
            "repro.db.engine",
            "        key = (sql, self.catalog)\n",
            "        self.catalog  # still read through the VFS\n"
            "        key = (sql, None)\n",
        )], forged_catalog_planned_again),
    ]

    @pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
    def test_tier1_fails(self, monkeypatch, tmp_path, row):
        run_rows(monkeypatch, tmp_path, row)


def lock_blocks(body):
    """Every ``with <...lock>:`` in ``body``; nested defs and classes run
    later, so their blocks are skipped."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(stmt, ast.With) and ast.unparse(
            stmt.items[0].context_expr
        ).endswith("lock"):
            yield stmt
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from lock_blocks(getattr(stmt, field, ()))


def blocks_of(source):
    """``{Class.method: [with-block]}`` over the module's classes."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for func in node.body:
                if isinstance(func, ast.FunctionDef):
                    blocks = list(lock_blocks(func.body))
                    if blocks:
                        found[f"{node.name}.{func.name}"] = blocks
    return found


def drop_lock_block(source, qualname):
    """``source`` with the one ``with <lock>:`` of ``qualname`` removed,
    its body dedented into the enclosing suite, so the statements it
    guarded run with no lock held."""
    [block] = blocks_of(source)[qualname]
    shift = block.body[0].col_offset - block.col_offset
    lines = source.splitlines(keepends=True)
    body = [
        text[shift:] if not text[:shift].strip() else text
        for text in lines[block.lineno:block.end_lineno]
    ]
    return "".join(
        lines[:block.lineno - 1] + body + lines[block.end_lineno:]
    )


def dropping(module, qualname):
    return (module, lambda source: drop_lock_block(source, qualname))


def session_table(tmp_path):
    test_sanitize_concurrency.TestGuardedFields(
    ).test_session_registry_is_clean_armed()


def node_store(tmp_path):
    test_sanitize_concurrency.TestGuardedFields(
    ).test_node_store_is_clean_armed(tmp_path)


HEALTH, SESSIONS = "repro.fleet.health", "repro.isp.sessions"
STORE, METRICS = "repro.merkle.persistent_store", "repro.obs.metrics"
RPC, SERVE = "repro.rpc.server", "repro.serve.server"

#: Lock blocks that guard no declared field, so dropping one is no
#: ``unguarded-access``.
EXPECTED_CLEAN = {
    # Histogram's count/total/buckets: a per-instrument stdlib lock.
    (METRICS, "Histogram.observe"),
    (METRICS, "Histogram.snapshot"),
    # self.lock serializes ISP dispatch; the ISP is another object.
    (RPC, "RpcIspServer._serve"),
    (RPC, "RpcIspServer._serve_together"),
    # The spindle lock serializes a sleep; it guards no field.
    (RPC, "RpcIspServer._charge_service_delay"),
}


class TestGuardedBy:
    """PR 5 (``8c9c5d4``): the node store's compaction swapped its
    offset map with no lock, and the ISP's prune sweep iterated the
    session table lock-free.  The rows drop every lock block that
    guards a declared field, one at a time."""

    ROWS = [
        Mutant(f"{module.rsplit('.', 1)[1]}.{qualname}",
               [dropping(module, qualname)], check)
        for module, qualname, check in [
            (HEALTH, "HealthTracker.attach", off_path_locks),
            (HEALTH, "HealthTracker.detach", off_path_locks),
            (HEALTH, "HealthTracker.attached", off_path_locks),
            (HEALTH, "HealthTracker.is_up", off_path_locks),
            (HEALTH, "HealthTracker.down_keys", off_path_locks),
            (HEALTH, "HealthTracker.probe_once", off_path_locks),
            (HEALTH, "HealthTracker._record", off_path_locks),
            (SESSIONS, "SessionRegistry.insert", threaded_stress),
            (SESSIONS, "SessionRegistry.remove", threaded_stress),
            (SESSIONS, "SessionRegistry.live_roots", threaded_stress),
            (SESSIONS, "SessionRegistry.prune", session_table),
            (STORE, "PersistentNodeStore.durable_size", node_store),
            (STORE, "PersistentNodeStore.sync", threaded_stress),
            (STORE, "PersistentNodeStore.close", threaded_stress),
            (STORE, "PersistentNodeStore.simulate_crash", node_store),
            (STORE, "PersistentNodeStore.__len__", node_store),
            (STORE, "PersistentNodeStore.__contains__", node_store),
            (STORE, "PersistentNodeStore.put", threaded_stress),
            (STORE, "PersistentNodeStore.get", threaded_stress),
            (STORE, "PersistentNodeStore.reachable", node_store),
            # PR 5's defect.
            (STORE, "PersistentNodeStore.prune", threaded_stress),
            (METRICS, "MetricsRegistry._get", off_path_locks),
            (METRICS, "MetricsRegistry._listed", off_path_locks),
            (METRICS, "MetricsRegistry.reset", off_path_locks),
            (RPC, "RpcIspServer.stop", threaded_stress),
            (RPC, "RpcIspServer._accept_loop", threaded_stress),
            (RPC, "RpcIspServer._client_loop", threaded_stress),
            (RPC, "RpcIspServer._admit", threaded_stress),
            (RPC, "RpcIspServer._release", threaded_stress),
            (SERVE, "AsyncIspServer.stop", armed_stress_on(AsyncIspServer)),
            (SERVE, "AsyncIspServer._post", armed_stress_on(AsyncIspServer)),
            (SERVE, "AsyncIspServer._drain_completions",
             armed_stress_on(AsyncIspServer)),
        ]
    ]

    def test_every_lock_block_is_a_row_or_named_clean(self):
        modules = {HEALTH, SESSIONS, STORE, METRICS, RPC, SERVE}
        for module in modules:
            importlib.import_module(module)
        assert modules == {cls.__module__ for cls in san.GUARDED
                           if cls.__module__.startswith("repro.")}
        blocks = {(module, qualname) for module in modules
                  for qualname in blocks_of(shipped(module))}
        rows = {(module, row.name.split(".", 1)[1])
                for row in self.ROWS for module, _ in row.edits}
        assert not rows & EXPECTED_CLEAN
        assert blocks == rows | EXPECTED_CLEAN

    # A mutant may kill a server thread on its way to failing the check.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    @pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
    def test_tier1_fails(self, monkeypatch, tmp_path, row):
        filed = []
        file_report = san._file

        def spy(report):
            filed.append(report.kind)
            file_report(report)

        monkeypatch.setattr(san, "_file", spy)
        try:
            run_rows(monkeypatch, tmp_path, row)
        finally:
            san.reset()
        assert san.SanitizerReport.KIND_UNGUARDED in filed
