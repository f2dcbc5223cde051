"""Interprocedural dataflow rules: ``verify-before-use`` and
``blocking-effect``.

V2FS's security argument is a trust boundary: every byte that arrives
from the untrusted ISP must pass a verification entry point before any
downstream consumer (the query result, a page cache, the pager) may
use it.  The tests exercise that discipline; this module makes the
checker enforce it, the same way ``guarded-by`` turned the
concurrency conventions of DESIGN §8 into a static guarantee.  Both
rules are clients of :mod:`repro.analysis.engine`: its index and
per-function facts, :func:`~repro.analysis.engine.summarize` for the
taint summaries and :func:`~repro.analysis.engine.propagate` for the
effect lattice.

**verify-before-use** is a taint analysis.  The trust boundary is
declared in the code it protects, with def-line annotations the same
way ``guarded-by`` declares lock ownership:

* ``# repro: taint-source`` — the function returns untrusted bytes
  (socket reads, wire decoders, the ISP-facing interface);
* ``# repro: taint-sanitizer`` — calling it verifies its arguments
  (and, for method-style sanitizers, its receiver) against the
  on-chain certificate, clearing their taint;
* ``# repro: taint-sink`` — its arguments must be verified data
  (cache inserts, pager writes).

Taint propagates through assignments, tuple unpacking, arithmetic,
attribute/subscript loads, and — interprocedurally — through call
edges via per-function summaries (does ``f`` return taint? do any of
its parameters flow to a sink?) run to a fixpoint however many
wrappers deep the flow goes.  A tainted
value reaching a sink yields an error carrying the full witness chain
(source function → intermediate calls → sink call site).

Deliberate conservatism (documented misses, never false positives):
object *fields* are not tracked (``self.x = tainted`` then later
``self.x`` reads as clean), unresolvable callees launder taint, and
the statement walk is flow-sensitive but path-insensitive — a
sanitizer on one branch clears taint for the code after the join.

**blocking-effect** infers each function's worst blocking effect —
lock acquisition, ``sleep``, ``fsync``, socket I/O, subprocess —
transitively over the call graph, and publishes the per-function
table as a JSON artifact (:func:`build_effect_table`): everything
listed there would stall an event loop, so it is what a reviewer
checks before moving code onto the ``repro.serve`` loop thread.  Two
policies are enforced:

1. no blocking primitive may execute (directly or through any
   resolvable call chain) while holding a lock from the DESIGN §8
   ``SanLock`` inventory — a blocked holder stalls every thread
   queued on that lock;
2. on a deadline-carrying path (any function taking a ``deadline``
   parameter, PR 7, plus everything it reaches), unbounded waits —
   ``.join()``/``.wait()`` without a timeout, a bare lock
   ``acquire()``, an uncapped ``create_connection``,
   ``settimeout(None)`` — are errors: a deadline the transport cannot
   enforce is decorative.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.concurrency import acquired_locks, entry_held
from repro.analysis.core import (
    Finding,
    ModuleContext,
    ProgramRule,
    register,
)
from repro.analysis.engine import (
    Analysis,
    Flow,
    FunctionInfo,
    Program,
    Resolver,
    propagate,
    short,
    summarize,
)

# ----------------------------------------------------------------------
# Trust-boundary annotations
# ----------------------------------------------------------------------

ROLE_SOURCE = "source"
ROLE_SANITIZER = "sanitizer"
ROLE_SINK = "sink"


def taint_roles(program: Program) -> Dict[str, str]:
    """func id -> role, from the first ``taint-<role>`` directive on
    the ``def`` line or the line directly above it (which, for
    decorated functions, is the line between decorator and ``def``)."""
    roles: Dict[str, str] = {}
    for func_id, func in program.functions.items():
        for directive in func.directives:
            if directive.name.startswith("taint-"):
                roles[func_id] = directive.name[len("taint-"):]
                break
    return roles


# ----------------------------------------------------------------------
# Taint domain
# ----------------------------------------------------------------------
#
# A taint token is a tuple:
#   ("src", origin_func_id, chain)  -- real untrusted bytes; ``chain``
#       is the call path from the function currently holding the value
#       back to the source function, both inclusive;
#   ("param", index)                -- symbolic taint seeded on the
#       function's own parameters, used to derive the interprocedural
#       summary (return/sink parameter flow) without false findings.

Token = Tuple


@dataclass
class _TaintSummary:
    """What a caller needs to know about one callee."""

    #: origin func id -> call chain (this func ... origin).
    returns: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: parameter indices whose taint flows to the return value.
    return_params: Set[int] = field(default_factory=set)
    #: parameter index -> call chain (this func ... sink) for
    #: parameters that reach a sink un-sanitized.
    sink_params: Dict[int, Tuple[str, ...]] = field(default_factory=dict)


class _SinkHit(NamedTuple):
    """One tainted value reaching a sink (pre-Finding form)."""

    func: FunctionInfo
    line: int
    origin: str
    taint_chain: Tuple[str, ...]
    sink_chain: Tuple[str, ...]


class _TaintWalker:
    """Flow-sensitive walk of one function body: the taint transfer
    function.  The summary it builds starts from the function's
    previous one and only gains entries (a chain, once recorded, is the
    witness for good), which is what lets the worklist terminate on
    recursive code."""

    def __init__(self, program: Program, roles: Dict[str, str],
                 summaries: Dict[str, _TaintSummary],
                 func: FunctionInfo) -> None:
        self.program = program
        self.roles = roles
        self.summaries = summaries
        self.func = func
        self.resolver = Resolver(program, func)
        self.env: Dict[str, Set[Token]] = {}
        self.summary = copy.deepcopy(summaries[func.func_id])
        self.hits: List[_SinkHit] = []

    def run(self) -> None:
        for index, name in enumerate(self.func.params):
            self.env[name] = {("param", index)}
        self.walk(self.func.node.body)

    # -- statements -----------------------------------------------------

    def walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.stmt(stmt)

    def stmt(self, s: ast.stmt) -> None:
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef)):
            return  # nested defs are separate (unsummarized) units
        if isinstance(s, ast.Assign):
            tokens = self.eval_expr(s.value)
            for target in s.targets:
                self.assign(target, tokens)
        elif isinstance(s, ast.AnnAssign):
            if s.value is not None:
                self.assign(s.target, self.eval_expr(s.value))
        elif isinstance(s, ast.AugAssign):
            tokens = self.eval_expr(s.value)
            if isinstance(s.target, ast.Name):
                merged = self.env.get(s.target.id, set()) | tokens
                self.env[s.target.id] = merged
        elif isinstance(s, ast.Return):
            if s.value is not None:
                self.note_return(self.eval_expr(s.value))
        elif isinstance(s, ast.Expr):
            self.eval_expr(s.value)
        elif isinstance(s, (ast.If, ast.While)):
            self.eval_expr(s.test)
            self.walk(s.body)
            self.walk(s.orelse)
        elif isinstance(s, (ast.For, ast.AsyncFor)):
            self.assign(s.target, self.eval_expr(s.iter))
            self.walk(s.body)
            self.walk(s.orelse)
        elif isinstance(s, (ast.With, ast.AsyncWith)):
            for item in s.items:
                tokens = self.eval_expr(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, tokens)
            self.walk(s.body)
        elif isinstance(s, ast.Try):
            self.walk(s.body)
            for handler in s.handlers:
                self.walk(handler.body)
            self.walk(s.orelse)
            self.walk(s.finalbody)
        elif isinstance(s, ast.Raise):
            if s.exc is not None:
                self.eval_expr(s.exc)
        elif isinstance(s, ast.Assert):
            self.eval_expr(s.test)
        elif isinstance(s, ast.Delete):
            for target in s.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        # Pass/Break/Continue/Import/Global/Nonlocal: nothing to do.

    def assign(self, target: ast.expr, tokens: Set[Token]) -> None:
        if isinstance(target, ast.Name):
            # Strong update: reassignment replaces (and an untainted
            # RHS therefore clears) the name's taint.
            self.env[target.id] = set(tokens)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign(elt, tokens)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, tokens)
        # Attribute/Subscript targets: field taint is out of scope.

    def note_return(self, tokens: Set[Token]) -> None:
        for token in sorted(tokens):
            if token[0] == "src":
                self.summary.returns.setdefault(token[1], token[2])
            else:
                self.summary.return_params.add(token[1])

    # -- expressions ----------------------------------------------------

    def eval_expr(self, expr: ast.expr) -> Set[Token]:
        if isinstance(expr, ast.Name):
            return set(self.env.get(expr.id, ()))
        if isinstance(expr, ast.Call):
            return self.eval_call(expr)
        if isinstance(expr, ast.Attribute):
            # A field or method of a tainted object is tainted.
            return self.eval_expr(expr.value)
        if isinstance(expr, ast.Subscript):
            return self.eval_expr(expr.value) | self.eval_expr(expr.slice)
        if isinstance(expr, ast.Compare):
            for comparator in [expr.left] + list(expr.comparators):
                self.eval_expr(comparator)
            return set()  # a boolean verdict is not untrusted bytes
        if isinstance(expr, ast.Lambda):
            return set()
        if isinstance(expr, ast.NamedExpr):
            tokens = self.eval_expr(expr.value)
            self.assign(expr.target, tokens)
            return tokens
        tokens: Set[Token] = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                tokens |= self.eval_expr(child)
            elif isinstance(child, ast.comprehension):
                self.assign(child.target, self.eval_expr(child.iter))
                for cond in child.ifs:
                    self.eval_expr(cond)
        return tokens

    def eval_call(self, call: ast.Call) -> Set[Token]:
        callee = self.resolver.resolve_callable(call.func)
        role = self.roles.get(callee) if callee is not None else None
        if role == ROLE_SANITIZER:
            # Verification: the arguments (and a method-style
            # sanitizer's receiver) are authenticated from here on.
            for arg in call.args:
                self.clear(arg)
            for keyword in call.keywords:
                self.clear(keyword.value)
            if isinstance(call.func, ast.Attribute):
                self.clear(call.func.value)
            return set()

        arg_tokens = [self.eval_expr(arg) for arg in call.args]
        kw_tokens = [
            (keyword.arg, self.eval_expr(keyword.value))
            for keyword in call.keywords
        ]
        line = call.lineno
        result: Set[Token] = set()

        if role == ROLE_SOURCE:
            result.add(("src", callee, (self.func.func_id, callee)))

        summary = (
            self.summaries.get(callee) if callee is not None else None
        )
        callee_func = (
            self.program.functions.get(callee)
            if callee is not None else None
        )
        if summary is not None and callee_func is not None:
            params = callee_func.params
            mapping: List[Tuple[int, Set[Token]]] = [
                (i, tokens) for i, tokens in enumerate(arg_tokens)
                if i < len(params)
            ]
            mapping.extend(
                (params.index(name), tokens)
                for name, tokens in kw_tokens
                if name is not None and name in params
            )
            for origin, chain in summary.returns.items():
                result.add((
                    "src", origin, (self.func.func_id,) + chain
                ))
            for index, tokens in mapping:
                if index in summary.return_params:
                    result |= tokens
                chain = summary.sink_params.get(index)
                if chain is not None:
                    self.flow_to_sink(
                        tokens, line, (self.func.func_id,) + chain
                    )
        if role == ROLE_SINK:
            everything: Set[Token] = set()
            for tokens in arg_tokens:
                everything |= tokens
            for _, tokens in kw_tokens:
                everything |= tokens
            self.flow_to_sink(
                everything, line, (self.func.func_id, callee)
            )
        return result

    def clear(self, expr: ast.expr) -> None:
        if isinstance(expr, ast.Name):
            self.env.pop(expr.id, None)
        elif isinstance(expr, ast.Starred):
            self.clear(expr.value)

    def flow_to_sink(self, tokens: Set[Token], line: int,
                     sink_chain: Tuple[str, ...]) -> None:
        for token in sorted(tokens):
            if token[0] == "src":
                self.hits.append(_SinkHit(
                    self.func, line, token[1], token[2], sink_chain
                ))
            else:
                self.summary.sink_params.setdefault(token[1], sink_chain)


def _taint_hits(analysis: Analysis) -> List[_SinkHit]:
    """Every tainted value reaching a sink, in sorted function order."""
    program = analysis.program
    roles = taint_roles(program)
    if not roles:
        return []
    summaries = {
        func_id: _TaintSummary() for func_id in program.functions
    }

    def transfer(func_id: str) -> Tuple[_TaintSummary, List[_SinkHit]]:
        walker = _TaintWalker(
            program, roles, summaries, program.functions[func_id]
        )
        walker.run()
        return walker.summary, walker.hits

    hits = summarize(program, transfer, summaries, program.functions)
    return [hit for func_id in sorted(hits) for hit in hits[func_id]]


@register
class VerifyBeforeUseRule(ProgramRule):
    """Untrusted bytes must pass a sanitizer before reaching a sink.

    The paper's Algorithm 4 puts ``verify()`` between every ISP
    response and the query result; GlassDB-style deferred verification
    makes it easy to cache or return bytes first and verify later —
    which is sound only if the deferral is deliberate and paired with
    rollback.  This rule finds every flow from a ``taint-source`` to a
    ``taint-sink`` with no ``taint-sanitizer`` on the modeled path, so
    the deliberate deferrals carry written suppressions and everything
    else is an error.
    """

    name = "verify-before-use"
    description = (
        "values returned by '# repro: taint-source' functions must "
        "pass a taint-sanitizer before any argument position of a "
        "taint-sink, on every interprocedural path the call graph "
        "resolves"
    )
    invariant = (
        "query authentication soundness: nothing the ISP sent is "
        "served, cached, or persisted without verification against "
        "the on-chain certificate"
    )

    def check_program(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterator[Finding]:
        # One finding per (site, origin): a sink that forwards to an
        # inner sink (update -> insert) is still one decision point.
        seen: Set[Tuple[str, int, str]] = set()
        for hit in Analysis.of(contexts).fact(_taint_hits):
            sink = hit.sink_chain[-1]
            key = (hit.func.ctx.path, hit.line, hit.origin)
            if key in seen:
                continue
            seen.add(key)
            taint = " -> ".join(short(f) for f in hit.taint_chain)
            reach = " -> ".join(short(f) for f in hit.sink_chain)
            yield Finding(
                path=hit.func.ctx.path, line=hit.line, rule=self.name,
                message=(
                    f"untrusted bytes from {short(hit.origin)} reach "
                    f"sink {short(sink)} without a sanitizer "
                    f"(tainted via {taint}; sink path {reach})"
                ),
            )


# ----------------------------------------------------------------------
# Blocking effects
# ----------------------------------------------------------------------

#: Effect kinds, mildest first; "worst" is the right-most present.
EFFECT_ORDER = ("lock", "sleep", "fsync", "socket", "subprocess")


class Effects:
    """Each function's transitive blocking effects, with witnesses."""

    def __init__(self, analysis: Analysis) -> None:
        program = analysis.program
        #: (function, kind) -> (primitive, line, path) for the first
        #: site where the function itself performs that kind.
        self.direct: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
        for func_id, func in program.functions.items():
            for site in func.blocking:
                self.direct.setdefault((func_id, site.kind), (
                    site.detail, site.line, func.ctx.path
                ))
            if func.acquires:
                first = func.acquires[0]
                self.direct[(func_id, "lock")] = (
                    short(first.lock), first.line, func.ctx.path
                )
        seed: Dict[str, Set[str]] = {}
        for func_id, kind in self.direct:
            seed.setdefault(func_id, set()).add(kind)
        #: Effect kinds flow from callee to caller.
        self.flow: Flow = propagate(program, seed, down=False)

    def kinds(self, func_id: str) -> Set[str]:
        return self.flow.values.get(func_id, set())

    def witness(
        self, func_id: str, kind: str
    ) -> Tuple[List[str], str, int, str]:
        """(call chain down to the primitive, primitive, line, path)."""
        chain = self.flow.chain(func_id, kind)
        return (chain,) + self.direct[(chain[-1], kind)]


def build_effect_table(
    contexts: Sequence[ModuleContext],
) -> Dict[str, object]:
    """The per-function blocking-effect table (JSON-ready).

    One entry per function with any inferred effect: the effect set,
    the worst effect, and a witness chain down to the primitive call.
    Anything listed here blocks the thread that calls it — the list a
    reviewer consults before putting code on an event-loop thread.
    """
    analysis = Analysis.of(contexts)
    effects = analysis.fact(Effects)
    rows: List[Dict[str, object]] = []
    for func_id in sorted(analysis.program.functions):
        kinds = effects.kinds(func_id)
        if not kinds:
            continue
        worst = max(kinds, key=EFFECT_ORDER.index)
        chain, detail, line, path = effects.witness(func_id, worst)
        rows.append({
            "function": func_id,
            "effects": sorted(kinds, key=EFFECT_ORDER.index),
            "worst": worst,
            "witness": {
                "chain": chain,
                "primitive": detail,
                "path": path,
                "line": line,
            },
        })
    return {"version": 1, "functions": rows}


@register
class BlockingEffectRule(ProgramRule):
    """No blocking under a SanLock; no unbounded wait on a deadline path.

    The serving path is thread-per-connection today, but its locks are
    shared: a holder of any DESIGN §8 ``SanLock`` that sleeps, fsyncs,
    or touches a socket stalls every queued thread for the duration
    (policy 1).  And since PR 7 every RPC carries a deadline — an
    unbounded ``join``/``wait``/``acquire``/connect anywhere on a
    deadline-carrying path is a budget the transport cannot enforce
    (policy 2).  Witness chains name the call path to the primitive.
    """

    name = "blocking-effect"
    description = (
        "no blocking primitive (sleep/fsync/socket/subprocess) while "
        "holding a SanLock from the DESIGN §8 inventory, and no "
        "unbounded wait (join/wait/acquire/connect without a timeout) "
        "reachable from a deadline-carrying function"
    )
    invariant = (
        "serving-path liveness under load: lock holders never block "
        "on I/O, and propagated deadlines bound every wait beneath "
        "them"
    )

    def check_program(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterator[Finding]:
        analysis = Analysis.of(contexts)
        yield from self._policy_blocking_under_lock(analysis)
        yield from self._policy_deadline_waits(analysis.program)

    def _policy_blocking_under_lock(
        self, analysis: Analysis
    ) -> Iterator[Finding]:
        program = analysis.program
        san = program.san_locks
        if not san:
            return
        held_on_entry = analysis.fact(entry_held)
        acq_star = analysis.fact(acquired_locks)
        effects = analysis.fact(Effects)
        for func_id in sorted(program.functions):
            func = program.functions[func_id]
            base = held_on_entry[func_id]
            for site in func.blocking:
                held = (base | site.held) & san
                if held:
                    locks = ", ".join(sorted(short(h) for h in held))
                    yield Finding(
                        path=func.ctx.path, line=site.line,
                        rule=self.name,
                        message=(
                            f"blocking {site.kind} ({site.detail}) in "
                            f"{func_id} while holding SanLock "
                            f"{locks}"
                        ),
                    )
            for call in func.calls:
                if call.is_thread_target:
                    continue
                callee_kinds = effects.kinds(call.callee) - {"lock"}
                if not callee_kinds:
                    continue
                held = (base | call.held) & san
                # Locks the callee itself acquires or demonstrably
                # enters with are its own (already reported) problem.
                held -= acq_star[call.callee]
                held -= held_on_entry[call.callee]
                if not held:
                    continue
                worst = max(callee_kinds, key=EFFECT_ORDER.index)
                chain, detail, _line, _path = effects.witness(
                    call.callee, worst
                )
                rendered = " -> ".join(
                    short(f) for f in [func_id] + chain
                )
                locks = ", ".join(sorted(short(h) for h in held))
                yield Finding(
                    path=func.ctx.path, line=call.line,
                    rule=self.name,
                    message=(
                        f"call blocks ({worst}: {detail} via "
                        f"{rendered}) while holding SanLock {locks}"
                    ),
                )

    def _policy_deadline_waits(
        self, program: Program
    ) -> Iterator[Finding]:
        # Breadth-first from every deadline-taking function, so the
        # path shown is a shortest one.
        parent: Dict[str, str] = {}
        frontier = sorted(
            func_id for func_id, func in program.functions.items()
            if "deadline" in func.params
        )
        reached: Set[str] = set(frontier)
        while frontier:
            grown: List[str] = []
            for func_id in frontier:
                for call in program.functions[func_id].calls:
                    if call.is_thread_target:
                        continue
                    callee = call.callee
                    if (
                        callee in program.functions
                        and callee not in reached
                    ):
                        reached.add(callee)
                        parent[callee] = func_id
                        grown.append(callee)
            frontier = sorted(grown)
        for func_id in sorted(reached):
            func = program.functions[func_id]
            if not func.waits:
                continue
            chain = [func_id]
            while chain[-1] in parent:
                chain.append(parent[chain[-1]])
            rendered = " -> ".join(
                short(f) for f in reversed(chain)
            )
            for wait in func.waits:
                yield Finding(
                    path=func.ctx.path, line=wait.line, rule=self.name,
                    message=(
                        f"unbounded wait ({wait.detail}) in {func_id} "
                        f"on a deadline-carrying path ({rendered}); "
                        "cap it with the remaining deadline budget"
                    ),
                )
