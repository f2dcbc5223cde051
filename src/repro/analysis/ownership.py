"""Resource-ownership analysis: the ``must-release`` rule.

The serving path admits a request by taking a slot and must give it
back on every path, including exceptional ones, or a crashed handler
shrinks serving capacity for good (the worker backstop swallows the
error, so nothing else notices).  The same holds for sockets and
selector registrations.  This module turns that into a
``ProgramRule`` whose per-function summaries run under
:func:`~repro.analysis.engine.summarize`.

A per-function CFG evaluator (try/except/finally/with/return/raise
aware; every call is a may-raise edge) checks declared acquire/release
pairs and tracked value resources:

- ``# repro: acquires(<resource>[, conditional])`` /
  ``# repro: releases(<resource>)`` on ``def`` lines declare named
  pairs (``_admit``/``_release``).  A ``conditional`` acquire only
  materializes in direct ``if f():`` / ``if not f():`` test position
  (any other shape is a documented miss, never a false positive).
- socket factories (``socket.socket``, ``create_connection``,
  ``accept``) assigned to a plain name are tracked until
  ``.close()``/``.detach()`` or until they *escape* (stored into an
  attribute/subscript, returned, passed into a container or an
  unresolvable callee) — escape ends tracking silently, so only
  provable leaks are reported.
- ``<sel>.register(sock)`` on a tracked socket opens a registration
  that ``unregister(sock)`` must close.
- interprocedural summaries let wrappers count: a callee that
  releases/closes its ``i``-th parameter on every path transfers
  ownership; a function left holding a named resource on *every*
  exit is promoted to an acquirer (its callers inherit the
  obligation); holding on only *some* exits is the leak.

Deliberate conservatism, in the no-false-positive direction: except
handlers are assumed to catch everything their ``try`` body raises,
resources reaching any escape are no longer tracked, and resources
bound to anything but a plain local name are never tracked at all.
So a resource whose handle is stored on an object (a session id kept
on ``ClientSession``, a pager or node store held by its owner) is out
of the rule's reach; DESIGN §6 lists those as known misses.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.core import (
    Finding,
    ModuleContext,
    ProgramRule,
    dotted,
    register,
)
from repro.analysis.engine import (
    Analysis,
    FunctionInfo,
    Program,
    Resolver,
    is_private,
    short,
    summarize,
)

#: Socket-producing callables (dotted form, resolved via the symbol
#: table) whose direct ``name = ...`` assignment opens a tracked value
#: resource.
_SOCKET_FACTORIES = frozenset({
    "socket.socket", "socket.create_connection",
})

#: Method names that end a tracked value resource's lifetime.
_CLOSERS = frozenset({"close", "detach"})


# ----------------------------------------------------------------------
# must-release: per-function CFG evaluation over ownership states
# ----------------------------------------------------------------------
#
# A *token* is one held obligation:
#   ("sock", line)        -- a socket opened by a tracked factory call;
#   ("reg", line)         -- a selector registration of a tracked sock;
#   ("res", R, line)      -- named resource R acquired at `line`;
#   ("seedres", R)        -- R symbolically held at entry, used only to
#                            derive the "releases R on every path"
#                            summary (never reported);
#   ("param", i)          -- the function's own i-th parameter, used to
#                            derive releases/escapes-param summaries.
#
# A *state* is a frozenset of (token, bound_name_or_None) pairs; the
# walker carries a *set of states* (path-sensitive through branches and
# try/except) and accumulates return/raise/break/continue outcomes.
# Every call is a may-raise edge: an acquire's raise edge carries the
# pre-state (the exception means nothing was acquired), a release's
# kill applies on both edges (``close()`` that raises still closed),
# and any other call's raise edge carries the current state — which is
# exactly how a leak on an exceptional path becomes visible.

Token = Tuple
State = FrozenSet[Tuple[Token, Optional[str]]]

_STATE_CAP = 64


@dataclass
class _ReleaseSummary:
    """What a caller needs to know about one callee's ownership."""

    #: resource name -> True when the acquire is conditional.
    acquires: Dict[str, bool] = field(default_factory=dict)
    releases: Set[str] = field(default_factory=set)
    #: parameter indices this function closes/releases on every
    #: path (ownership transfers in).
    releases_param: Set[int] = field(default_factory=set)
    #: parameter indices that escape (stored, re-spawned, handed
    #: to something unresolvable) — callers stop tracking.
    escapes_param: Set[int] = field(default_factory=set)


class _Outcomes:
    """Non-fall-through exits accumulated while walking a body."""

    __slots__ = ("ret", "raise_", "brk", "cont")

    def __init__(self) -> None:
        self.ret: Set[State] = set()
        self.raise_: Set[State] = set()
        self.brk: Set[State] = set()
        self.cont: Set[State] = set()

    def absorb(self, other: "_Outcomes") -> None:
        self.ret |= other.ret
        self.raise_ |= other.raise_
        self.brk |= other.brk
        self.cont |= other.cont


def _join(states: Set[State]) -> Set[State]:
    """Give up path sensitivity: one state holding everything any of
    ``states`` holds."""
    return {frozenset().union(*states)}


def _cap(states: Set[State]) -> Set[State]:
    return states if len(states) <= _STATE_CAP else _join(states)


def _add(states: Set[State], pair: Tuple[Token, Optional[str]],
         ) -> Set[State]:
    return {frozenset(s | {pair}) for s in states}


def _drop_token(states: Set[State], predicate) -> Set[State]:
    return {
        frozenset(p for p in s if not predicate(p[0], p[1]))
        for s in states
    }


class _CfgWalker:
    """Evaluates one function body over ownership states: the
    must-release transfer function.  Its summary starts from the
    function's previous one and only gains entries, which is what lets
    the worklist terminate on recursive code."""

    def __init__(self, program: Program,
                 summaries: Dict[str, _ReleaseSummary],
                 func: FunctionInfo) -> None:
        self.program = program
        self.summaries = summaries
        self.func = func
        self.resolver = Resolver(program, func)
        self.params = func.params
        #: tokens that escaped anywhere (walker-global, conservative).
        self.escaped: Set[Token] = set()
        #: param indices genuinely released (closed), not just dropped.
        self.released_params: Set[int] = set()
        #: value/named tokens generated in this function body.
        self.acquired: Dict[Token, int] = {}
        self.summary = copy.deepcopy(summaries[func.func_id])
        #: (token) -> set of exit-kind strings where it was still held.
        self.leaks: Dict[Token, Set[str]] = {}

    # -- helpers --------------------------------------------------------

    def bound_token(self, state: State, name: str) -> List[Token]:
        return [tok for tok, bound in state if bound == name]

    def any_bound(self, states: Set[State], name: str) -> bool:
        return any(
            bound == name for s in states for _tok, bound in s
        )

    def escape_name(self, states: Set[State], name: str) -> Set[State]:
        for s in states:
            for tok, bound in s:
                if bound == name:
                    self.escaped.add(tok)
        return _drop_token(states, lambda tok, bound: bound == name)

    def escape_names_in(self, states: Set[State],
                        expr: Optional[ast.expr]) -> Set[State]:
        if expr is None:
            return states
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and self.any_bound(
                states, node.id
            ):
                states = self.escape_name(states, node.id)
        return states

    def kill_name(self, states: Set[State], name: str) -> Set[State]:
        """A genuine release of whatever ``name`` holds."""
        for s in states:
            for tok, bound in s:
                if bound == name and tok[0] == "param":
                    self.released_params.add(tok[1])
        return _drop_token(
            states,
            lambda tok, bound: bound == name and tok[0] != "reg",
        )

    def kill_reg(self, states: Set[State], name: str) -> Set[State]:
        return _drop_token(
            states,
            lambda tok, bound: bound == name and tok[0] == "reg",
        )

    def kill_resource(self, states: Set[State],
                      resource: str) -> Set[State]:
        return _drop_token(
            states,
            lambda tok, bound: tok[0] in ("res", "seedres")
            and tok[1] == resource,
        )

    def unbind(self, states: Set[State], name: str) -> Set[State]:
        """Rebinding a name ends tracking of whatever it held (treated
        as an escape: conservative, never a finding)."""
        if self.any_bound(states, name):
            return self.escape_name(states, name)
        return states

    # -- expressions ----------------------------------------------------

    def eval_expr(self, expr: ast.expr, states: Set[State],
                  out: _Outcomes) -> Tuple[Set[State], List[Token]]:
        """Returns (post-states, value-tokens the expression produces).

        Only a *direct* factory/accept call produces tokens a caller
        may bind; tokens produced in any nested position are dropped
        (never tracked), so they can never be reported."""
        if isinstance(expr, ast.Call):
            return self.eval_call(expr, states, out)
        if isinstance(expr, ast.Lambda):
            return states, []
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                states, _gen = self.eval_expr(child, states, out)
            elif isinstance(child, ast.comprehension):
                states, _gen = self.eval_expr(child.iter, states, out)
                for cond in child.ifs:
                    states, _gen = self.eval_expr(cond, states, out)
        return states, []

    def _callee_of(self, call: ast.Call) -> Tuple[Optional[str],
                                                  Optional[str]]:
        callee = self.resolver.resolve_callable(call.func)
        attr = (
            call.func.attr
            if isinstance(call.func, ast.Attribute) else None
        )
        return callee, attr

    def _callee_summary(
        self, callee: Optional[str]
    ) -> Optional[_ReleaseSummary]:
        if callee is None or callee not in self.program.functions:
            return None
        return self.summaries.get(callee)

    def _apply_arg_policy(self, call: ast.Call, callee: Optional[str],
                          states: Set[State]) -> Set[State]:
        """Escape/release/keep for tracked names in argument position.

        The receiver of a method call is *borrowed* (``conn.settimeout``
        keeps ownership where it is); arguments follow the callee's
        summary when the callee resolves and maps, and escape
        otherwise."""
        summary = self._callee_summary(callee)
        callee_func = (
            self.program.functions.get(callee)
            if callee is not None else None
        )
        mappable = (
            summary is not None
            and callee_func is not None
            and callee_func.node.args.vararg is None
            and callee_func.node.args.kwarg is None
            and not any(isinstance(a, ast.Starred) for a in call.args)
            and all(k.arg is not None for k in call.keywords)
        )
        params = (
            callee_func.params if mappable else []
        )
        slots: List[Tuple[Optional[int], ast.expr]] = []
        for index, arg in enumerate(call.args):
            slots.append((
                index if mappable and index < len(params) else None,
                arg,
            ))
        for keyword in call.keywords:
            idx = (
                params.index(keyword.arg)
                if mappable and keyword.arg in params else None
            )
            slots.append((idx, keyword.value))
        for idx, arg in slots:
            if isinstance(arg, ast.Name) and self.any_bound(
                states, arg.id
            ):
                if mappable and idx is not None:
                    if idx in summary.releases_param:
                        states = self.kill_name(states, arg.id)
                        states = self.kill_reg(states, arg.id)
                    elif idx in summary.escapes_param:
                        states = self.escape_name(states, arg.id)
                    # else: borrowed, tracking continues.
                else:
                    states = self.escape_name(states, arg.id)
            else:
                # Names nested deeper (containers, f-strings, calls)
                # escape: the value is out of our hands.
                states = self.escape_names_in(states, arg)
        return states

    def eval_call(self, call: ast.Call, states: Set[State],
                  out: _Outcomes,
                  suppress_acquire: bool = False,
                  ) -> Tuple[Set[State], List[Token]]:
        # Arguments evaluate first (nested calls raise before the
        # outer call runs).
        for arg in call.args:
            states, _gen = self.eval_expr(arg, states, out)
        for keyword in call.keywords:
            states, _gen = self.eval_expr(keyword.value, states, out)
        if isinstance(call.func, ast.Attribute):
            states, _gen = self.eval_expr(call.func.value, states, out)

        callee, attr = self._callee_of(call)
        line = call.lineno
        gen: List[Token] = []

        receiver_name = (
            call.func.value.id
            if isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name) else None
        )
        first_arg_name = (
            call.args[0].id
            if call.args and isinstance(call.args[0], ast.Name)
            else None
        )

        # Selector registration pairing on a tracked socket.
        if attr == "register" and first_arg_name is not None and \
                self.any_bound(states, first_arg_name):
            out.raise_ |= _cap(set(states))
            tok = ("reg", line)
            self.acquired[tok] = line
            states = _add(states, (tok, first_arg_name))
            states = self._apply_mask_args(call, states, out)
            return _cap(states), []
        if attr == "unregister" and first_arg_name is not None:
            states = self.kill_reg(states, first_arg_name)
            out.raise_ |= _cap(set(states))
            return _cap(states), []

        # Releases: kill on both the normal and the exceptional edge
        # (a close() that raises still closed the descriptor; the
        # `try: x.close() except OSError: pass` idiom stays clean).
        if attr in _CLOSERS and receiver_name is not None and \
                self.any_bound(states, receiver_name):
            states = self.kill_name(states, receiver_name)
            out.raise_ |= _cap(set(states))
            return _cap(states), []

        # Named-resource effects through the callee's summary.
        summary = self._callee_summary(callee)
        if summary is not None and summary.releases:
            for resource in sorted(summary.releases):
                states = self.kill_resource(states, resource)
        states = self._apply_arg_policy(call, callee, states)
        if summary is not None and summary.acquires and \
                not suppress_acquire:
            out.raise_ |= _cap(set(states))
            for resource, conditional in sorted(
                summary.acquires.items()
            ):
                if conditional:
                    continue  # only if-test position materializes
                tok = ("res", resource, line)
                self.acquired[tok] = line
                states = _add(states, (tok, None))
            return _cap(states), []

        # Value-resource factories.
        if callee in _SOCKET_FACTORIES or attr == "accept":
            out.raise_ |= _cap(set(states))  # pre-state: not acquired
            tok = ("sock", line)
            self.acquired[tok] = line
            return _cap(states), [tok]
        if callee == "socket.socketpair":
            out.raise_ |= _cap(set(states))
            first: Token = ("sock", line)
            second: Token = ("sock", -line)
            self.acquired[first] = line
            self.acquired[second] = line
            return _cap(states), [first, second]

        out.raise_ |= _cap(set(states))
        return _cap(states), []

    def _apply_mask_args(self, call: ast.Call, states: Set[State],
                         out: _Outcomes) -> Set[State]:
        """register(sock, mask, data=...): remaining args may embed
        tracked names (data=conn keeps the *conn*, not the sock)."""
        for arg in call.args[1:]:
            states = self.escape_names_in(states, arg)
        for keyword in call.keywords:
            states = self.escape_names_in(states, keyword.value)
        return states

    # -- statements -----------------------------------------------------

    def walk_body(self, body: Sequence[ast.stmt],
                  states: Set[State]) -> Tuple[Set[State], _Outcomes]:
        out = _Outcomes()
        current = _cap(set(states))
        for stmt in body:
            if not current:
                break
            current = self.stmt(stmt, current, out)
        return _cap(current), out

    def stmt(self, s: ast.stmt, states: Set[State],
             out: _Outcomes) -> Set[State]:
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef)):
            return states
        if isinstance(s, ast.Assign):
            states, gen = self._eval_value(s.value, states, out)
            for target in s.targets:
                states = self.assign_target(target, s.value, gen,
                                            states)
            return states
        if isinstance(s, ast.AnnAssign):
            if s.value is None:
                return states
            states, gen = self._eval_value(s.value, states, out)
            return self.assign_target(s.target, s.value, gen, states)
        if isinstance(s, ast.AugAssign):
            states, _gen = self.eval_expr(s.value, states, out)
            return states
        if isinstance(s, ast.Expr):
            states, _gen = self._eval_value(s.value, states, out)
            return states
        if isinstance(s, ast.Return):
            if s.value is not None:
                states, _gen = self.eval_expr(s.value, states, out)
                states = self.escape_names_in(states, s.value)
            out.ret |= states
            return set()
        if isinstance(s, ast.Raise):
            if s.exc is not None:
                states, _gen = self.eval_expr(s.exc, states, out)
                states = self.escape_names_in(states, s.exc)
            out.raise_ |= states
            return set()
        if isinstance(s, ast.Break):
            out.brk |= states
            return set()
        if isinstance(s, ast.Continue):
            out.cont |= states
            return set()
        if isinstance(s, ast.If):
            return self.stmt_if(s, states, out)
        if isinstance(s, ast.While):
            return self.stmt_loop(s, states, out, test=s.test)
        if isinstance(s, (ast.For, ast.AsyncFor)):
            states, _gen = self.eval_expr(s.iter, states, out)
            for node in ast.walk(s.target):
                if isinstance(node, ast.Name):
                    states = self.unbind(states, node.id)
            return self.stmt_loop(s, states, out, test=None)
        if isinstance(s, (ast.With, ast.AsyncWith)):
            return self.stmt_with(s, states, out)
        if isinstance(s, ast.Try):
            return self.stmt_try(s, states, out)
        if isinstance(s, ast.Assert):
            states, _gen = self.eval_expr(s.test, states, out)
            return states
        if isinstance(s, ast.Delete):
            for target in s.targets:
                if isinstance(target, ast.Name):
                    states = self.unbind(states, target.id)
            return states
        # Import/Global/Nonlocal/Pass and anything exotic: evaluate
        # any immediate expression children for their raise edges.
        for child in ast.iter_child_nodes(s):
            if isinstance(child, ast.expr):
                states, _gen = self.eval_expr(child, states, out)
        return states

    def _eval_value(self, value: ast.expr, states: Set[State],
                    out: _Outcomes) -> Tuple[Set[State], List[Token]]:
        """A direct call in value position may produce bindable tokens."""
        if isinstance(value, ast.Call):
            return self.eval_call(value, states, out)
        return self.eval_expr(value, states, out)

    def assign_target(self, target: ast.expr, value: ast.expr,
                      gen: List[Token],
                      states: Set[State]) -> Set[State]:
        if isinstance(target, ast.Name):
            states = self.unbind(states, target.id)
            if len(gen) == 1:
                states = _add(states, (gen[0], target.id))
            elif isinstance(value, ast.Name):
                # Aliasing ends tracking (conservative, silent).
                states = self.escape_names_in(states, value)
            return _cap(states)
        if isinstance(target, (ast.Tuple, ast.List)):
            names = [
                elt.id if isinstance(elt, ast.Name) else None
                for elt in target.elts
            ]
            for name in names:
                if name is not None:
                    states = self.unbind(states, name)
            if len(gen) == len(names):
                # socketpair() into (a, b)
                for token, name in zip(gen, names):
                    if name is not None:
                        states = _add(states, (token, name))
            elif len(gen) == 1 and names and names[0] is not None:
                # sock, addr = listener.accept()
                states = _add(states, (gen[0], names[0]))
            elif isinstance(value, ast.Name):
                states = self.escape_names_in(states, value)
            return _cap(states)
        # Attribute / Subscript / Starred target: the value escapes
        # (generated tokens stay unbound and are never reported).
        states = self.escape_names_in(states, value)
        return states

    def _cond_acquire(
        self, test: ast.expr
    ) -> Tuple[Optional[ast.Call], bool]:
        call: Optional[ast.Call] = None
        negated = False
        if isinstance(test, ast.UnaryOp) and isinstance(
            test.op, ast.Not
        ) and isinstance(test.operand, ast.Call):
            call, negated = test.operand, True
        elif isinstance(test, ast.Call):
            call = test
        if call is None:
            return None, False
        callee, _attr = self._callee_of(call)
        summary = self._callee_summary(callee)
        if summary is None or not summary.acquires:
            return None, False
        return call, negated

    def stmt_if(self, s: ast.If, states: Set[State],
                out: _Outcomes) -> Set[State]:
        call, negated = self._cond_acquire(s.test)
        if call is not None:
            # ``if f():`` / ``if not f():`` over an acquirer: the
            # acquired token exists only on the success branch.
            states, _gen = self.eval_call(
                call, states, out, suppress_acquire=True
            )
            callee, _attr = self._callee_of(call)
            summary = self._callee_summary(callee)
            acq_states = states
            for resource, conditional in sorted(
                summary.acquires.items()
            ):
                tok: Token = ("res", resource, call.lineno)
                self.acquired[tok] = call.lineno
                acq_states = _add(acq_states, (tok, None))
                if not conditional:
                    states = _add(states, (tok, None))
            body_in = states if negated else acq_states
            else_in = acq_states if negated else states
        else:
            states, _gen = self.eval_expr(s.test, states, out)
            body_in = else_in = states
        body_fall, body_out = self.walk_body(s.body, body_in)
        out.absorb(body_out)
        if s.orelse:
            else_fall, else_out = self.walk_body(s.orelse, else_in)
            out.absorb(else_out)
        else:
            else_fall = else_in
        return _cap(body_fall | else_fall)

    def stmt_loop(self, s: ast.stmt, states: Set[State],
                  out: _Outcomes,
                  test: Optional[ast.expr]) -> Set[State]:
        head = _cap(set(states))
        brk: Set[State] = set()
        # The loop head grows until another trip adds nothing.  Once it
        # outgrows the state cap it stays joined into a single state
        # (re-splitting it could cycle), which then only gains tokens.
        joined = False
        while True:
            entry = head
            if test is not None:
                entry, _gen = self.eval_expr(test, entry, out)
            body_fall, body_out = self.walk_body(s.body, entry)
            out.ret |= body_out.ret
            out.raise_ |= body_out.raise_
            brk |= body_out.brk
            new_head = head | body_fall | body_out.cont
            joined = joined or len(new_head) > _STATE_CAP
            if joined:
                new_head = _join(new_head)
            if new_head == head:
                break
            head = new_head
        after = head
        if s.orelse:
            else_fall, else_out = self.walk_body(s.orelse, head)
            out.absorb(else_out)
            after = else_fall
        return _cap(after | brk)

    def stmt_with(self, s: ast.stmt, states: Set[State],
                  out: _Outcomes) -> Set[State]:
        cleanup: List[str] = []
        for item in s.items:
            if isinstance(item.context_expr, ast.Call):
                states, gen = self.eval_call(
                    item.context_expr, states, out
                )
            else:
                states, gen = self.eval_expr(
                    item.context_expr, states, out
                )
            if isinstance(item.optional_vars, ast.Name):
                name = item.optional_vars.id
                states = self.unbind(states, name)
                if len(gen) == 1:
                    # ``with create_connection(..) as s:`` —
                    # __exit__ closes on every path out of the body.
                    states = _add(states, (gen[0], name))
                    cleanup.append(name)
        body_fall, body_out = self.walk_body(s.body, states)
        for name in cleanup:
            body_fall = self.kill_name(body_fall, name)
            body_out.ret = self.kill_name(body_out.ret, name)
            body_out.raise_ = self.kill_name(body_out.raise_, name)
            body_out.brk = self.kill_name(body_out.brk, name)
            body_out.cont = self.kill_name(body_out.cont, name)
        out.absorb(body_out)
        return body_fall

    def stmt_try(self, s: ast.Try, states: Set[State],
                 out: _Outcomes) -> Set[State]:
        body_fall, body_out = self.walk_body(s.body, states)
        pre = _Outcomes()
        pre.ret |= body_out.ret
        pre.brk |= body_out.brk
        pre.cont |= body_out.cont
        fall = body_fall
        if s.orelse:
            else_fall, else_out = self.walk_body(s.orelse, body_fall)
            pre.absorb(else_out)  # else raises bypass these handlers
            fall = else_fall
        if s.handlers:
            # Handlers are assumed to catch everything the body
            # raises (no exception-type narrowing): a miss in the
            # propagate direction, never a false positive.
            entry = body_out.raise_
            for handler in s.handlers:
                if handler.name is not None:
                    entry = self.unbind(entry, handler.name)
                h_fall, h_out = self.walk_body(handler.body, entry)
                fall = fall | h_fall
                pre.absorb(h_out)
        else:
            pre.raise_ |= body_out.raise_
        if s.finalbody:
            fall, fin_out = self.walk_body(s.finalbody, fall)
            out.absorb(fin_out)
            for kind in ("ret", "raise_", "brk", "cont"):
                entry = getattr(pre, kind)
                if not entry:
                    continue
                k_fall, k_out = self.walk_body(s.finalbody, entry)
                out.absorb(k_out)
                setattr(out, kind,
                        getattr(out, kind) | k_fall)
        else:
            out.absorb(pre)
        return _cap(fall)

    # -- the run --------------------------------------------------------

    def run(self, universe: Set[str]) -> None:
        node = self.func.node
        init: Set[Tuple[Token, Optional[str]]] = set()
        for index, name in enumerate(self.params):
            init.add((("param", index), name))
        for resource in sorted(universe):
            init.add((("seedres", resource), None))
        fall, out = self.walk_body(node.body, {frozenset(init)})
        normal = fall | out.ret
        exceptional = out.raise_
        escaped_params = {
            tok[1] for tok in self.escaped if tok[0] == "param"
        }
        self.summary.escapes_param |= escaped_params
        if normal:
            for resource in sorted(universe):
                if all(
                    (("seedres", resource), None) not in s
                    for s in normal
                ):
                    self.summary.releases.add(resource)
            for index in sorted(self.released_params):
                if index in escaped_params:
                    continue
                if all(
                    all(tok != ("param", index) for tok, _b in s)
                    for s in normal
                ):
                    self.summary.releases_param.add(index)
            # Promotion: a *private helper* holding a named resource
            # on every normal exit is an acquirer its callers inherit
            # (an _enter-style wrapper).  Public functions get no such
            # benefit of the doubt — nobody is obliged to call their
            # release counterpart, so holding on every exit is the
            # leak, not an idiom.
            if is_private(self.func.func_id):
                by_resource: Dict[str, List[Token]] = {}
                for tok in self.acquired:
                    if tok[0] == "res":
                        by_resource.setdefault(tok[1], []).append(tok)
                for resource, tokens in sorted(by_resource.items()):
                    if all(
                        any((tok, None) in s for tok in tokens)
                        for s in normal
                    ):
                        self.summary.acquires[resource] = False
        promoted = set(self.summary.acquires)
        for kind, exit_states in (("return", normal),
                                  ("exception", exceptional)):
            for state in exit_states:
                for tok, _bound in state:
                    if tok[0] in ("param", "seedres"):
                        continue
                    if tok in self.escaped:
                        continue
                    if tok[0] == "res" and tok[1] in promoted:
                        continue
                    self.leaks.setdefault(tok, set()).add(kind)

    def leak_findings(self, releaser_for: Dict[str, str]) -> List[Finding]:
        """``releaser_for`` names each resource's releasing function."""
        findings: List[Finding] = []
        for tok in sorted(self.leaks, key=repr):
            kinds = "/".join(sorted(self.leaks[tok]))
            line = self.acquired.get(tok, 0)
            if tok[0] == "sock":
                label = f"socket opened at line {line}"
                advice = "close it on every path (try/finally)"
            elif tok[0] == "reg":
                label = f"selector registration at line {line}"
                advice = "unregister it on every path"
            else:
                label = f"resource {tok[1]!r} acquired at line {line}"
                pair = releaser_for.get(tok[1])
                advice = (
                    f"release it via {short(pair)} on every path"
                    if pair else "release it on every path"
                )
            findings.append(Finding(
                path=self.func.ctx.path, line=line,
                rule=MustReleaseRule.name,
                message=(
                    f"{label} in {self.func.func_id} is still held "
                    f"on {kinds} exit paths; {advice}"
                ),
            ))
        return findings


_PRIMITIVE_ATTRS = _CLOSERS | {"register", "unregister", "accept"}


def _has_primitive(program: Program, func: FunctionInfo) -> bool:
    """Cheap prefilter: does this body mention any ownership primitive
    (socket factory, accept, close, selector (un)register)?"""
    symbols = program.symbols.get(func.ctx.module, {})
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _PRIMITIVE_ATTRS:
            return True
        ref = dotted(node.func)
        if ref is None:
            continue
        head, _sep, rest = ref.partition(".")
        resolved = symbols.get(head, head) + (
            "." + rest if rest else ""
        )
        if resolved in _SOCKET_FACTORIES or \
                resolved == "socket.socketpair":
            return True
    return False


def _check_must_release(analysis: Analysis) -> List[Finding]:
    program = analysis.program
    findings: List[Finding] = []
    # Annotated functions *are* the primitive: their summaries are
    # fixed by the annotation and their bodies are not walked.
    summaries: Dict[str, _ReleaseSummary] = {
        func_id: _ReleaseSummary() for func_id in program.functions
    }
    annotated: Set[str] = set()
    acquirers: Dict[str, str] = {}
    releaser_for: Dict[str, str] = {}
    for func_id in sorted(program.functions):
        func = program.functions[func_id]
        decl = func.directive("acquires")
        if decl is not None:
            annotated.add(func_id)
            acquirers[func_id] = decl.args[0]
            summaries[func_id].acquires[decl.args[0]] = len(decl.args) > 1
        decl = func.directive("releases")
        if decl is not None:
            annotated.add(func_id)
            releaser_for.setdefault(decl.args[0], func_id)
            summaries[func_id].releases.add(decl.args[0])
    for func_id, resource in acquirers.items():
        if resource in releaser_for:
            continue
        func = program.functions[func_id]
        findings.append(Finding(
            path=func.ctx.path, line=func.node.lineno,
            rule=MustReleaseRule.name,
            message=(
                f"resource {resource!r} has an acquirer "
                f"({func_id}) but no '# repro: releases"
                f"({resource})' anywhere; the pair cannot be "
                "checked"
            ),
        ))
    universe = set(acquirers.values()) | set(releaser_for)

    def transfer(func_id: str) -> Tuple[_ReleaseSummary, List[Finding]]:
        if func_id in annotated:
            return summaries[func_id], []
        walker = _CfgWalker(program, summaries, program.functions[func_id])
        walker.run(universe)
        return walker.summary, walker.leak_findings(releaser_for)

    # Only bodies that touch a resource need walking: the ones that
    # mention a primitive and the callers of the annotated pairs to
    # begin with; the worklist adds the callers of whatever turns out
    # to have a summary, at any depth.
    callers = program.callers()
    start = {
        func_id for func_id, func in program.functions.items()
        if _has_primitive(program, func)
    }.union(*(callers.get(func_id, ()) for func_id in annotated))
    leaks = summarize(program, transfer, summaries, start)
    for func_id in sorted(leaks):
        findings.extend(leaks[func_id])
    return findings


@register
class MustReleaseRule(ProgramRule):
    name = "must-release"
    description = (
        "declared acquire/release pairs, sockets, and selector "
        "registrations must be released on every path, including "
        "exceptional ones"
    )
    invariant = (
        "a crashed handler can never wedge the serving path by "
        "leaking an admission slot, selector registration, or socket"
    )

    def check_program(
        self, contexts: Sequence[ModuleContext],
    ) -> Iterator[Finding]:
        yield from Analysis.of(contexts).fact(_check_must_release)
