"""The defect each lint rule caught, put back into today's source.

A rule stays in :mod:`repro.analysis` because it caught a real defect.
Each test here is a mutant of *today's* module that puts that defect
back, in the shape it had at the parent of its fix (DESIGN §6 names the
commit): the rule must fire on the mutant and stay silent on the module
as shipped.  The mutants are built from the working tree, not with
``git show``, so they run in a shallow checkout.  ``guarded-by``'s
fixtures are ``test_analysis_concurrency.py::TestFormerTrackerSites``
(its ``persistent_store.prune`` row is the PR 5 compaction defect).
"""

import ast
from pathlib import Path

from repro.analysis.core import parse_sources, run_rules
from repro.analysis.dataflow import BlockingEffectRule, VerifyBeforeUseRule
from repro.analysis.ownership import MustReleaseRule
from repro.analysis.rules import CrashHygieneRule

REPO_ROOT = Path(__file__).resolve().parent.parent


def module_path(module):
    return f"src/{module.replace('.', '/')}.py"


def shipped(module):
    return (REPO_ROOT / module_path(module)).read_text(encoding="utf-8")


def replace_once(source, old, new):
    assert source.count(old) == 1, old
    return source.replace(old, new)


def lint(rule, sources):
    """``rule``'s findings over ``{module: source}`` as one program."""
    contexts, problems = parse_sources([
        (module, module_path(module), source)
        for module, source in sources.items()
    ])
    assert problems == []
    return [f.render() for f in run_rules(contexts, [rule])]


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


class TestCrashHygiene:
    """PR 3 (``e1346d4``): ``V2fsAds.apply_writes`` caught
    ``Exception`` around the trie lookup, so a corrupt trie or an
    unknown digest read as "no such file"."""

    MODULE = "repro.merkle.ads"

    def test_shipped_module_is_clean(self):
        assert lint(
            CrashHygieneRule(), {self.MODULE: shipped(self.MODULE)}
        ) == []

    def test_widened_handler_is_a_finding(self):
        mutant = replace_once(
            shipped(self.MODULE),
            "            except FileNotFoundInStoreError:",
            "            except Exception:",
        )
        findings = lint(CrashHygieneRule(), {self.MODULE: mutant})
        assert len(findings) == 1
        assert "except Exception on a verification path" in findings[0]


class TestBlockingEffect:
    """PR 8 (``fc5c659``): the modeled storage ``sleep`` ran under the
    ``rpc.server`` dispatch lock, so every session on the server queued
    behind one request's modeled I/O."""

    MODULE = "repro.rpc.server"

    def test_shipped_module_is_clean(self):
        assert lint(
            BlockingEffectRule(), {self.MODULE: shipped(self.MODULE)}
        ) == []

    def test_sleep_under_the_dispatch_lock_is_a_finding(self):
        mutant = replace_once(
            shipped(self.MODULE),
            """            self._charge_service_delay(1)
        with self.lock:
""",
            """        with self.lock:
            self._charge_service_delay(1)
""",
        )
        findings = lint(BlockingEffectRule(), {self.MODULE: mutant})
        assert len(findings) == 1
        assert "time.sleep" in findings[0]
        assert "RpcIspServer.lock" in findings[0]


class TestMustRelease:
    """PR 10 (``bb8e375``): the batch path took admission slots before
    its ``try``/``finally``, so a raise between two ``_admit`` calls
    leaked every slot already taken."""

    MODULE = "repro.rpc.server"

    def test_shipped_module_is_clean(self):
        assert lint(
            MustReleaseRule(), {self.MODULE: shipped(self.MODULE)}
        ) == []

    def test_admission_outside_the_try_is_a_finding(self):
        source = shipped(self.MODULE)
        mutant = hoist_out_of_try(source, "RpcIspServer", "_handle")
        assert mutant != source
        findings = lint(MustReleaseRule(), {self.MODULE: mutant})
        assert len(findings) == 1
        assert "resource 'rpc.admission.slot'" in findings[0]
        assert "exception exit paths" in findings[0]


class TestVerifyBeforeUse:
    """PR 27 (``c6fc5e4``): ``mark_fresh_node`` raised ``V_n`` on the
    ISP's unproven "fresh" reply, so a failed query left stale pages
    marked fresh for the next one."""

    MODULES = ("repro.client.caches", "repro.client.vfs", "repro.isp.server")

    def sources(self):
        return {module: shipped(module) for module in self.MODULES}

    def test_shipped_modules_are_clean(self):
        assert lint(VerifyBeforeUseRule(), self.sources()) == []

    def test_raising_v_n_on_the_isps_word_is_a_finding(self):
        sources = self.sources()
        caches = replace_once(
            sources["repro.client.caches"],
            "    def mark_fresh_node(self, path: str, level: int, index: int)"
            " -> None:",
            "    def mark_fresh_node(self, path: str, level: int, index: int,"
            "\n                        version: int) -> None:",
        )
        sources["repro.client.caches"] = replace_once(
            caches,
            """        if obs.ACTIVE:
            obs.inc("cache.inter.fresh_node")""",
            """        self._raise_version(path, level, index, version)
        if obs.ACTIVE:
            obs.inc("cache.inter.fresh_node")""",
        )
        sources["repro.client.vfs"] = replace_once(
            sources["repro.client.vfs"],
            "cache.mark_fresh_node(path, level, index)",
            "cache.mark_fresh_node(path, level, index, "
            "self.certificate.version)",
        )
        findings = lint(VerifyBeforeUseRule(), sources)
        assert len(findings) == 1
        assert findings[0].startswith("src/repro/client/vfs.py:")
        assert "IspServer.validate_path" in findings[0]
        assert "InterQueryCache._raise_version" in findings[0]
