"""The V²FS invariant rules.

Each rule states, in :attr:`~repro.analysis.core.Rule.invariant`, the
paper property it protects; DESIGN.md § "Static guarantees" carries the
full mapping.  Rules scope themselves by *dotted module name* (never by
filesystem path), so fixtures in tests can impersonate any module.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.analysis.core import (
    SEVERITY_WARNING,
    Finding,
    ModuleContext,
    Rule,
    dotted,
    register,
)
from repro.faults.catalog import FAILPOINTS, suggest
from repro.obs import catalog as obs_catalog


def _walk_with_functions(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, Tuple[str, ...]]]:
    """Yield ``(node, enclosing-function-name-stack)`` pairs."""

    def visit(node: ast.AST, stack: Tuple[str, ...]) -> Iterator:
        yield node, stack
        child_stack = stack
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            child_stack = stack + (node.name,)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, child_stack)

    yield from visit(tree, ())


# ----------------------------------------------------------------------
# vfs-boundary
# ----------------------------------------------------------------------


@register
class VfsBoundaryRule(Rule):
    """All database I/O must flow through the VFS interface.

    The paper's compatibility claim (§ the virtual filesystem) is that
    an *unmodified* database engine becomes verifiable because every
    byte it reads arrives through the POSIX-style VFS, where V2FS
    authenticates it.  One raw ``open()`` inside the engine or the
    client would read bytes nobody verified.
    """

    name = "vfs-boundary"
    description = (
        "no raw file I/O (open/os.open/io.open/pathlib .open) inside "
        "repro.db or repro.client outside the whitelisted pager module"
    )
    invariant = (
        "database compatibility: every engine byte crosses the "
        "authenticated VFS boundary"
    )

    SCOPE = ("repro.db", "repro.client")
    #: The pager is the engine's single sanctioned file-layer module; it
    #: still goes through a VirtualFilesystem, but it is where any
    #: future direct-I/O fast path would legitimately live.
    WHITELIST = ("repro.db.pager",)

    _OS_IO_CALLS = {
        ("os", "open"), ("os", "fdopen"),
        ("io", "open"), ("io", "FileIO"),
    }
    _PATHLIB_METHODS = {
        "open", "read_bytes", "read_text", "write_bytes", "write_text"
    }

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package(*self.SCOPE) and not ctx.in_package(
            *self.WHITELIST
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                yield ctx.finding(
                    node, self.name,
                    "raw open() bypasses the verifiable VFS; route file "
                    "I/O through a VirtualFilesystem",
                )
            elif isinstance(func, ast.Attribute):
                base = func.value
                if (
                    isinstance(base, ast.Name)
                    and (base.id, func.attr) in self._OS_IO_CALLS
                ):
                    yield ctx.finding(
                        node, self.name,
                        f"{base.id}.{func.attr}() bypasses the verifiable "
                        "VFS; route file I/O through a VirtualFilesystem",
                    )
                elif (
                    func.attr in self._PATHLIB_METHODS
                    and isinstance(base, ast.Call)
                    and isinstance(base.func, ast.Name)
                    and base.func.id in ("Path", "PurePath", "PosixPath")
                ):
                    yield ctx.finding(
                        node, self.name,
                        f"pathlib .{func.attr}() bypasses the verifiable "
                        "VFS; route file I/O through a VirtualFilesystem",
                    )


# ----------------------------------------------------------------------
# crash-hygiene
# ----------------------------------------------------------------------


@register
class CrashHygieneRule(Rule):
    """``SimulatedCrash`` and verification failures must propagate.

    ``SimulatedCrash`` subclasses :class:`BaseException` precisely so
    that ``except Exception`` recovery code cannot absorb a modeled
    power loss; a bare ``except:`` or ``except BaseException:`` defeats
    that design everywhere.  On the verification paths (merkle, isp,
    client, rpc) even ``except Exception`` is dangerous: a swallowed
    :class:`~repro.errors.VerificationError` is a successful attack.
    """

    name = "crash-hygiene"
    description = (
        "no bare except/except BaseException without a bare re-raise; "
        "except Exception on verification paths must re-raise or be "
        "explicitly allowed"
    )
    invariant = (
        "failure model (PR 2): a simulated crash or a failed integrity "
        "check can never be silently absorbed"
    )

    VERIFICATION_SCOPE = (
        "repro.merkle", "repro.isp", "repro.client", "repro.rpc"
    )

    @staticmethod
    def _catches(handler: ast.ExceptHandler, names: Tuple[str, ...]) -> bool:
        kind = handler.type
        kinds = kind.elts if isinstance(kind, ast.Tuple) else [kind]
        return any(
            isinstance(k, ast.Name) and k.id in names for k in kinds
        )

    @staticmethod
    def _has_raise(handler: ast.ExceptHandler, bare_only: bool) -> bool:
        for node in ast.walk(ast.Module(body=handler.body,
                                        type_ignores=[])):
            if isinstance(node, ast.Raise):
                if not bare_only or node.exc is None:
                    return True
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        on_verification_path = ctx.in_package(*self.VERIFICATION_SCOPE)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None or self._catches(
                node, ("BaseException",)
            ):
                if not self._has_raise(node, bare_only=True):
                    label = (
                        "bare except:" if node.type is None
                        else "except BaseException:"
                    )
                    yield ctx.finding(
                        node, self.name,
                        f"{label} can absorb SimulatedCrash; catch "
                        "concrete exceptions or re-raise unconditionally",
                    )
            elif on_verification_path and self._catches(
                node, ("Exception",)
            ):
                if not self._has_raise(node, bare_only=False):
                    yield ctx.finding(
                        node, self.name,
                        "except Exception on a verification path "
                        "swallows failures; narrow it to the concrete "
                        "expected exceptions, re-raise, or allow with "
                        "a rationale",
                    )


# ----------------------------------------------------------------------
# proof-determinism
# ----------------------------------------------------------------------


@register
class ProofDeterminismRule(Rule):
    """VO / proof / wire encodings must be byte-deterministic.

    The client accepts a certificate because ``pk_sgx`` signed exact
    bytes; prover and verifier independently re-serialize structures
    and compare digests.  Any nondeterminism in an encode path — wall
    clocks, unseeded randomness, or hash-seed-dependent set iteration —
    would make honest parties disagree about honest data.
    """

    name = "proof-determinism"
    description = (
        "no time/random/os.urandom and no unsorted set/dict iteration "
        "in the proof, VO, and wire-codec encode paths"
    )
    invariant = (
        "signature verifiability: the same structure always encodes to "
        "the same bytes on every machine"
    )

    SCOPE = (
        "repro.merkle.proof", "repro.isp.vo", "repro.rpc.codec", "repro.wire",
    )

    _BANNED_MODULES = ("time", "random", "secrets")
    _BANNED_CALLS = {"os.urandom", "uuid.uuid4", "uuid.uuid1"}
    _DICT_ITERATORS = {"items", "keys", "values"}
    _ENCODE_NAMES = {"to_bytes", "digest", "pack"}

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package(*self.SCOPE)

    @classmethod
    def _is_encode_function(cls, stack: Tuple[str, ...]) -> bool:
        return any(
            name.startswith(("encode", "_encode")) or name in
            cls._ENCODE_NAMES
            for name in stack
        )

    def _iterable_findings(
        self, ctx: ModuleContext, iterable: ast.expr, stack: Tuple[str, ...]
    ) -> Iterator[Finding]:
        if isinstance(iterable, (ast.Set, ast.SetComp)) or (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in ("set", "frozenset")
        ):
            yield ctx.finding(
                iterable, self.name,
                "iterating a set here is hash-seed-dependent; sort it "
                "before it can influence encoded bytes",
            )
        elif (
            self._is_encode_function(stack)
            and isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and iterable.func.attr in self._DICT_ITERATORS
            and not iterable.args and not iterable.keywords
        ):
            yield ctx.finding(
                iterable, self.name,
                f"unsorted .{iterable.func.attr}() iteration inside an "
                "encode path depends on insertion history; wrap it in "
                "sorted()",
            )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node, stack in _walk_with_functions(ctx.tree):
            if isinstance(node, ast.Call):
                name = dotted(node.func)
                if name is None:
                    continue
                head = name.split(".", 1)[0]
                if head in self._BANNED_MODULES and "." in name:
                    yield ctx.finding(
                        node, self.name,
                        f"{name}() is nondeterministic and must not "
                        "feed a proof/VO/wire encoding",
                    )
                elif name in self._BANNED_CALLS:
                    yield ctx.finding(
                        node, self.name,
                        f"{name}() is nondeterministic and must not "
                        "feed a proof/VO/wire encoding",
                    )
            elif isinstance(node, ast.For):
                yield from self._iterable_findings(ctx, node.iter, stack)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._iterable_findings(
                        ctx, generator.iter, stack
                    )


# ----------------------------------------------------------------------
# failpoint-names
# ----------------------------------------------------------------------


@register
class FailpointNamesRule(Rule):
    """Every failpoint call site must target a declared name.

    Fault tests arm failpoints by name; a call site whose
    literal is missing from :data:`repro.faults.FAILPOINTS` can never
    be armed, and a schedule naming it tests nothing.  The runtime
    mirror of this check lives in ``FailpointRegistry.arm``.
    """

    name = "failpoint-names"
    description = (
        "faults.fire/mangle/arm string literals must be declared in "
        "the repro.faults.FAILPOINTS catalog"
    )
    invariant = (
        "chaos coverage: every instrumented site is armable and every "
        "armable name reaches an instrumented site"
    )

    _HOOKS = {"fire", "mangle", "arm"}

    def applies_to(self, ctx: ModuleContext) -> bool:
        # The faults package itself manipulates names generically.
        return not ctx.in_package("repro.faults")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                hook = func.attr
            elif isinstance(func, ast.Name):
                hook = func.id
            else:
                continue
            if hook not in self._HOOKS or not node.args:
                continue
            first = node.args[0]
            if not (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                if isinstance(func, ast.Attribute) and dotted(func) in (
                    "faults.fire", "faults.mangle", "faults.arm",
                    "registry.fire", "registry.mangle", "registry.arm",
                ):
                    yield ctx.finding(
                        node, self.name,
                        f"failpoint name passed to {hook}() is not a "
                        "string literal; the catalog check happens only "
                        "at runtime here",
                        severity=SEVERITY_WARNING,
                    )
                continue
            name = first.value
            if name not in FAILPOINTS:
                hint = suggest(name)
                yield ctx.finding(
                    node, self.name,
                    f"failpoint {name!r} is not declared in "
                    "repro.faults.FAILPOINTS"
                    + (f" (did you mean {hint[0]!r}?)" if hint else ""),
                )


# ----------------------------------------------------------------------
# obs-naming
# ----------------------------------------------------------------------


@register
class ObsNamingRule(Rule):
    """Every metric call site must target a declared scope.

    Experiments read counters from the registry by name; a call site
    whose literal is missing from :data:`repro.obs.SCOPES` accumulates
    counts no figure ever reads, and a figure reading an undeclared
    name reports zeros forever.  The runtime mirror of this check lives
    in ``MetricsRegistry._get``.
    """

    name = "obs-naming"
    description = (
        "obs.inc/add/observe/event/timed/set_gauge string literals "
        "must be declared in the repro.obs.SCOPES catalog"
    )
    invariant = (
        "observability coverage: every recorded scope is readable by "
        "name and every read name is recorded somewhere"
    )

    _HOOKS = {"inc", "add", "observe", "event", "timed", "set_gauge"}
    _RECEIVERS = ("obs", "metrics", "REGISTRY")

    def applies_to(self, ctx: ModuleContext) -> bool:
        # The obs package itself manipulates names generically.
        return not ctx.in_package("repro.obs")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in self._HOOKS or not node.args:
                continue
            name = dotted(func)
            if name is None or name.split(".")[0] not in self._RECEIVERS:
                continue
            first = node.args[0]
            if not (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                suffix = self._dynamic_suffix(first)
                if suffix is not None:
                    if not obs_catalog.is_dynamic_suffix(suffix):
                        yield ctx.finding(
                            node, self.name,
                            f"f-string metric scope suffix {suffix!r} "
                            "is not declared in repro.obs."
                            "DYNAMIC_SCOPE_SUFFIXES",
                        )
                    elif not obs_catalog.dynamic_expansions(suffix):
                        yield ctx.finding(
                            node, self.name,
                            f"dynamic scope suffix {suffix!r} has no "
                            "concrete expansion in repro.obs.SCOPES",
                        )
                    continue
                yield ctx.finding(
                    node, self.name,
                    f"metric scope passed to {func.attr}() is not a "
                    "string literal; the catalog check happens only at "
                    "runtime here",
                    severity=SEVERITY_WARNING,
                )
                continue
            scope = first.value
            if not obs_catalog.is_declared(scope):
                hint = obs_catalog.suggest(scope)
                yield ctx.finding(
                    node, self.name,
                    f"metric scope {scope!r} is not declared in "
                    "repro.obs.SCOPES"
                    + (f" (did you mean {hint[0]!r}?)" if hint else ""),
                )

    @staticmethod
    def _dynamic_suffix(node: ast.AST) -> "Optional[str]":
        """Literal suffix of an ``f"{prefix}.suffix"`` metric scope.

        Only the exact two-part shape — one leading interpolation, one
        trailing string constant — is recognized; anything fancier
        stays a non-literal warning.
        """
        if not isinstance(node, ast.JoinedStr):
            return None
        parts = node.values
        if (
            len(parts) == 2
            and isinstance(parts[0], ast.FormattedValue)
            and isinstance(parts[1], ast.Constant)
            and isinstance(parts[1].value, str)
        ):
            return parts[1].value
        return None


# ----------------------------------------------------------------------
# typed-errors
# ----------------------------------------------------------------------


@register
class TypedErrorsRule(Rule):
    """Cross-subsystem failures must be typed.

    Callers route on the :mod:`repro.errors` hierarchy (the RPC layer
    even encodes it on the wire), so ``raise Exception`` or ``raise
    RuntimeError`` is a failure no boundary can classify — it turns a
    verification outcome into an anonymous crash.  Builtin contract
    errors (``ValueError``/``TypeError``/``KeyError``/
    ``NotImplementedError``) remain fine for local misuse.
    """

    name = "typed-errors"
    description = (
        "raise repro.errors types (or specific builtin contract "
        "errors), never Exception/BaseException/RuntimeError/"
        "AssertionError"
    )
    invariant = (
        "error taxonomy: every failure crossing a subsystem boundary "
        "is classifiable (and wire-encodable) by type"
    )

    _BANNED = ("Exception", "BaseException", "RuntimeError",
               "AssertionError")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(target, ast.Name) and target.id in self._BANNED:
                yield ctx.finding(
                    node, self.name,
                    f"raise {target.id} is untyped for callers; raise a "
                    "repro.errors subclass (or a specific builtin "
                    "contract error) instead",
                )
