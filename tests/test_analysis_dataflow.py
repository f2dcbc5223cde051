"""Fixtures for the interprocedural dataflow rules.

``verify-before-use`` and ``blocking-effect`` reason over the whole
program (call graph + taint/effect summaries), so alongside the usual
one-offending/one-clean snippets these tests exercise multi-module
programs, the effect-table export, and finish with the self-check that
the shipped tree stays clean.
"""

import textwrap

import pytest

from repro.analysis.core import (
    analyze_source,
    analyze_sources,
    parse_sources,
)
from repro.analysis.dataflow import (
    BlockingEffectRule,
    VerifyBeforeUseRule,
    build_effect_table,
)

RULES = (VerifyBeforeUseRule(), BlockingEffectRule())


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


def contexts_for(source, module="repro.fixture"):
    contexts, findings = parse_sources(
        [(module, f"{module.replace('.', '/')}.py",
          textwrap.dedent(source))]
    )
    assert not findings
    return contexts


def taint_program(client_body):
    """The shared source/sink/sanitizer cast plus a Client tail."""
    return textwrap.dedent("""
        class Isp:
            # repro: taint-source
            def get_page(self, page_id):
                return b"x" * 4096

        class Cache:
            def __init__(self):
                self.pages = {}

            # repro: taint-sink
            def put(self, key, page):
                self.pages[key] = page

        class Ads:
            # repro: taint-sanitizer
            def verify(self, page):
                return True

        class Client:
            def __init__(self):
                self.isp = Isp()
                self.cache = Cache()
                self.ads = Ads()

            def _fetch(self, page_id):
                return self.isp.get_page(page_id)

    """) + textwrap.indent(textwrap.dedent(client_body), "    ")


# ----------------------------------------------------------------------
# verify-before-use
# ----------------------------------------------------------------------


class TestVerifyBeforeUse:
    def test_decode_to_sink_fires_with_witness_chain(self):
        findings = lint(taint_program("""
            def access(self, page_id):
                page = self._fetch(page_id)
                self.cache.put(page_id, page)
                return page
        """))
        assert [f.rule for f in findings] == ["verify-before-use"]
        message = findings[0].message
        assert "without a sanitizer" in message
        # The witness names the full interprocedural path to the source
        # and the sink call.
        assert (
            "Client.access -> Client._fetch -> Isp.get_page" in message
        )
        assert "sink Cache.put" in message

    def test_sanitized_path_is_clean(self):
        assert lint(taint_program("""
            def access(self, page_id):
                page = self._fetch(page_id)
                self.ads.verify(page)
                self.cache.put(page_id, page)
                return page
        """)) == []

    def test_reassignment_clears_taint(self):
        assert lint(taint_program("""
            def access(self, page_id):
                page = self._fetch(page_id)
                page = b"fresh"
                self.cache.put(page_id, page)
                return page
        """)) == []

    def test_taint_flows_through_callee_parameter_to_sink(self):
        # The sink sits inside a helper; the taint reaches it through
        # the helper's parameter (an interprocedural summary edge).
        findings = lint(taint_program("""
            def _store(self, key, page):
                self.cache.put(key, page)

            def access(self, page_id):
                page = self._fetch(page_id)
                self._store(page_id, page)
                return page
        """))
        assert [f.rule for f in findings] == ["verify-before-use"]
        assert "Client._store -> Cache.put" in findings[0].message

    def test_cross_module_flow(self):
        findings = lint_many(
            ("repro.fixa", """
                class Isp:
                    # repro: taint-source
                    def get_page(self, page_id):
                        return b"x"
             """),
            ("repro.fixb", """
                from repro.fixa import Isp

                class Pager:
                    # repro: taint-sink
                    def write_page(self, page):
                        pass

                class Client:
                    def __init__(self):
                        self.isp = Isp()
                        self.pager = Pager()

                    def pull(self, page_id):
                        page = self.isp.get_page(page_id)
                        self.pager.write_page(page)
             """),
        )
        assert [f.rule for f in findings] == ["verify-before-use"]
        assert findings[0].path == "repro/fixb.py"
        assert "Isp.get_page" in findings[0].message

    def test_suppression_with_rationale_is_clean(self):
        assert lint(taint_program("""
            def access(self, page_id):
                page = self._fetch(page_id)
                # repro: allow(verify-before-use) -- deferred to
                # finalize(), which verifies and rolls back on failure.
                self.cache.put(page_id, page)
                return page
        """)) == []

    def test_no_annotations_means_no_findings(self):
        assert lint(
            """
            class Plain:
                def compute(self, x):
                    return x + 1
            """
        ) == []

    @pytest.mark.parametrize("depth", [1, 20])
    def test_flow_is_found_at_any_wrapper_depth(self, depth):
        # access -> _w01 -> ... -> _w<depth> -> Isp.get_page.  Function
        # ids sort against the call direction, so a pass-per-level
        # solver with a round cap loses the flow once depth >= 12.
        wrappers = "".join(
            f"""
            def _w{i:02d}(self, page_id):
                return self._w{i + 1:02d}(page_id)
            """
            for i in range(1, depth)
        ) + f"""
            def _w{depth:02d}(self, page_id):
                return self.isp.get_page(page_id)
        """
        findings = lint(taint_program(wrappers + """
            def access(self, page_id):
                page = self._w01(page_id)
                self.cache.put(page_id, page)
                return page
        """))
        assert [f.rule for f in findings] == ["verify-before-use"]
        chain = " -> ".join(
            ["Client.access"]
            + [f"Client._w{i:02d}" for i in range(1, depth + 1)]
            + ["Isp.get_page"]
        )
        assert f"tainted via {chain};" in findings[0].message

    def test_recursive_wrappers_terminate_and_still_fire(self):
        findings = lint(taint_program("""
            def _even(self, n):
                if n == 0:
                    return self.isp.get_page(n)
                return self._odd(n - 1)

            def _odd(self, n):
                return self._even(n - 1)

            def access(self, n):
                self.cache.put(n, self._odd(n))
        """))
        assert [f.rule for f in findings] == ["verify-before-use"]
        assert "Isp.get_page" in findings[0].message


# ----------------------------------------------------------------------
# blocking-effect: policy 1 (no blocking under a SanLock)
# ----------------------------------------------------------------------


class TestBlockingUnderLock:
    def test_direct_fsync_under_sanlock_fires(self):
        findings = lint(
            """
            import os

            class Store:
                def __init__(self):
                    self._lock = SanLock("store.pages")

                def sync(self, fd):
                    with self._lock:
                        os.fsync(fd)
            """
        )
        assert [f.rule for f in findings] == ["blocking-effect"]
        message = findings[0].message
        assert "blocking fsync (os.fsync)" in message
        assert "SanLock Store._lock" in message

    def test_callee_fsync_reported_with_call_chain(self):
        # ``flush`` is public, so it is summarized lock-free and the
        # finding lands on the call site with the witness chain.
        findings = lint(
            """
            import os

            class Store:
                def __init__(self):
                    self._lock = SanLock("store.pages")

                def flush(self, fd):
                    os.fsync(fd)

                def sync(self, fd):
                    with self._lock:
                        self.flush(fd)
            """
        )
        assert [f.rule for f in findings] == ["blocking-effect"]
        message = findings[0].message
        assert "call blocks (fsync: os.fsync" in message
        assert "Store.sync -> Store.flush" in message
        assert "SanLock Store._lock" in message

    def test_private_helper_inherits_callers_lock(self):
        # A private helper is analyzed under the meet of its callers'
        # held locks, so the finding lands on the primitive itself.
        findings = lint(
            """
            import os

            class Store:
                def __init__(self):
                    self._lock = SanLock("store.pages")

                def _flush(self, fd):
                    os.fsync(fd)

                def sync(self, fd):
                    with self._lock:
                        self._flush(fd)
            """
        )
        assert [f.rule for f in findings] == ["blocking-effect"]
        assert "in repro.fixture.Store._flush" in findings[0].message

    def test_plain_lock_is_not_policed(self):
        assert lint(
            """
            import os
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def sync(self, fd):
                    with self._lock:
                        os.fsync(fd)
            """
        ) == []

    def test_sleep_outside_the_lock_is_clean(self):
        assert lint(
            """
            import time

            class Server:
                def __init__(self):
                    self.lock = SanLock("rpc.server")

                def serve(self):
                    with self.lock:
                        queued = True
                    time.sleep(0.01)
                    return queued
            """
        ) == []


# ----------------------------------------------------------------------
# blocking-effect: policy 2 (no unbounded wait on a deadline path)
# ----------------------------------------------------------------------


class TestDeadlineWaits:
    def test_unbounded_join_on_deadline_path_fires(self):
        findings = lint(
            """
            class Handler:
                def serve(self, deadline):
                    self.worker.join()
            """
        )
        assert [f.rule for f in findings] == ["blocking-effect"]
        message = findings[0].message
        assert "join() without a timeout" in message
        assert "deadline-carrying path" in message

    def test_wait_reached_transitively_names_the_chain(self):
        findings = lint(
            """
            class Handler:
                def _drain(self):
                    self.worker.join()

                def serve(self, deadline):
                    self._drain()
            """
        )
        assert [f.rule for f in findings] == ["blocking-effect"]
        assert (
            "Handler.serve -> Handler._drain" in findings[0].message
        )

    def test_bounded_join_is_clean(self):
        assert lint(
            """
            class Handler:
                def serve(self, deadline):
                    self.worker.join(timeout=0.5)
            """
        ) == []

    def test_join_off_deadline_paths_is_clean(self):
        assert lint(
            """
            class Harness:
                def drain(self):
                    self.worker.join()
            """
        ) == []


# ----------------------------------------------------------------------
# effect table
# ----------------------------------------------------------------------


class TestEffectTable:
    def test_worst_effect_and_witness_chain(self):
        contexts = contexts_for(
            """
            import os

            class Store:
                def __init__(self):
                    self._lock = SanLock("store.pages")

                def flush(self, fd):
                    os.fsync(fd)

                def sync(self, fd):
                    with self._lock:
                        self.flush(fd)
            """
        )
        table = build_effect_table(contexts)
        assert table["version"] == 1
        rows = {row["function"]: row for row in table["functions"]}
        sync = rows["repro.fixture.Store.sync"]
        assert sync["effects"] == ["lock", "fsync"]
        assert sync["worst"] == "fsync"
        assert sync["witness"]["chain"] == [
            "repro.fixture.Store.sync", "repro.fixture.Store.flush",
        ]
        assert sync["witness"]["primitive"] == "os.fsync"

    def test_pure_functions_are_omitted(self):
        contexts = contexts_for(
            """
            def add(a, b):
                return a + b
            """
        )
        assert build_effect_table(contexts) == {
            "version": 1, "functions": [],
        }


# ----------------------------------------------------------------------
# the shipped tree itself
# ----------------------------------------------------------------------


class TestRepositoryIsClean:
    def test_shipped_tree_has_no_dataflow_findings(self, shipped_tree):
        _contexts, findings = shipped_tree
        names = {rule.name for rule in RULES}
        findings = [f for f in findings if f.rule in names]
        assert findings == [], "\n".join(f.render() for f in findings)
