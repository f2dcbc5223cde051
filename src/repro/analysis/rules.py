"""The per-module rule: ``crash-hygiene``.

A per-module rule is a pure function of one module's syntax tree; the
whole-program rule lives in :mod:`~repro.analysis.concurrency`.
The rule states, in :attr:`~repro.analysis.core.Rule.invariant`, the
paper property it protects; DESIGN.md § "Static guarantees" carries the
full mapping and the defect it caught.  It scopes itself by *dotted
module name* (never by filesystem path), so fixtures in tests can
impersonate any module.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    register,
)


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
