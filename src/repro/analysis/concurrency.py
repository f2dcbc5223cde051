"""Lock-discipline rules: ``lock-order`` and ``guarded-by``.

Whether ``IspServer._sessions`` may be touched on some line depends on
which locks every *transitive caller* holds, and whether two locks can
deadlock depends on acquisition orders scattered across modules.  Both
questions are two :func:`~repro.analysis.engine.propagate` calls over
the facts the engine's walk recorded (acquisitions, call edges and
field accesses, each with the locks held at that point):

* ``H(f)``, :func:`entry_held` — the locks held on *every* path into
  ``f``: a meet towards callees in which each call edge also carries
  the locks held at the site, a thread-spawn edge carries nothing (the
  child runs without the spawner's locks) and public functions are
  pinned to the empty set;
* ``Acq*(f)``, :func:`acquired_locks` — the locks ``f`` acquires
  itself or through any (non-thread) callee: a union towards callers.

On top of them:

* **lock-order** derives the global lock-acquisition graph — an edge
  ``A -> B`` wherever ``B`` is acquired (directly or through a call)
  with ``A`` held — and reports every cycle as a potential deadlock;
* **guarded-by** checks that every access to a field annotated
  ``# repro: guarded-by(<lock>)`` happens with that lock in
  ``H(f) ∪ locally-held`` (accesses in the owning ``__init__`` are
  construction and exempt; ``writes`` mode exempts reads for
  deliberately lock-free-read structures).  Annotations naming an
  unknown lock are rejected with a did-you-mean hint, the same UX as
  ``failpoint-names``.
"""

from __future__ import annotations

import difflib
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
    register,
)
from repro.analysis.engine import (
    Analysis,
    FieldDirective,
    is_private,
    propagate,
    short,
)

_MODE_ALL = "all"
_MODE_WRITES = "writes"


def entry_held(analysis: Analysis) -> Dict[str, Set[str]]:
    """``H(f)``: locks held on every known path into ``f``."""
    program = analysis.program
    return propagate(
        program, dict.fromkeys(program.functions, set(program.locks)),
        down=True, meet=True, carried=lambda site: site.held,
        pinned=(f for f in program.functions if not is_private(f)),
    ).values


def acquired_locks(analysis: Analysis) -> Dict[str, Set[str]]:
    """``Acq*(f)``: locks acquired by ``f`` or any (non-thread) callee."""
    program = analysis.program
    return propagate(
        program,
        {
            func_id: {a.lock for a in func.acquires}
            for func_id, func in program.functions.items()
        },
        down=False,
    ).values


class _Guards:
    """Every well-formed ``guarded-by`` field with its resolved lock."""

    def __init__(self, analysis: Analysis) -> None:
        program = analysis.program
        #: FieldDirective -> (lock id, mode).
        self.fields: Dict[FieldDirective, Tuple[str, str]] = {}
        self.findings = list(
            program.index_findings.get(GuardedByRule.name, ())
        )
        for field in program.field_directives.get("guarded-by", ()):
            args = field.directive.args
            lock_name = args[0]
            mode = args[1] if len(args) > 1 else _MODE_ALL
            if mode not in (_MODE_ALL, _MODE_WRITES):
                self.reject(field, (
                    f"guarded-by mode {mode!r} for field "
                    f"{field.attr!r} is unknown; expected "
                    f"'{_MODE_WRITES}' or '{_MODE_ALL}'"
                ))
                continue
            module = program.classes[field.class_id].module
            lock_id = program.lookup_lock_attr(field.class_id, lock_name)
            if lock_id is None and f"{module}.{lock_name}" in program.locks:
                lock_id = f"{module}.{lock_name}"
            if lock_id is None:
                hint = difflib.get_close_matches(
                    lock_name,
                    program.known_lock_names(field.class_id, module),
                    n=1, cutoff=0.5,
                )
                self.reject(field, (
                    f"guarded-by names unknown lock {lock_name!r} for "
                    f"field {field.attr!r}"
                    + (f" (did you mean {hint[0]!r}?)" if hint else "")
                    + "; locks are attributes assigned Lock()/RLock()/"
                      "SanLock() or module-level lock globals"
                ))
                continue
            self.fields[field] = (lock_id, mode)

    def reject(self, field: FieldDirective, message: str) -> None:
        self.findings.append(Finding(
            path=field.path, line=field.line, rule=GuardedByRule.name,
            message=message,
        ))


@register
class LockOrderRule(ProgramRule):
    """No cycles in the interprocedural lock-acquisition graph.

    Two threads taking the same pair of locks in opposite orders is a
    deadlock waiting for the right interleaving; Fig. 13b's
    update-vs-query interference runs exactly that experiment against
    the serving path.  The graph is derived over call edges, so a
    nesting hidden behind three helper calls still counts.  The
    runtime mirror lives in :class:`repro.sanitize.runtime.SanLock`.
    """

    name = "lock-order"
    description = (
        "the global lock-acquisition graph (with-blocks and acquire() "
        "calls, propagated across call edges) must be cycle-free"
    )
    invariant = (
        "liveness of the serving path: concurrent queries and "
        "sync_update ingestion can never deadlock"
    )

    def check_program(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterator[Finding]:
        analysis = Analysis.of(contexts)
        program = analysis.program
        held_on_entry = analysis.fact(entry_held)
        acq_star = analysis.fact(acquired_locks)
        # edge (A, B) -> (path, line, via-function) witness, first wins
        # in deterministic function order.
        edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
        for func_id in sorted(program.functions):
            func = program.functions[func_id]
            base = held_on_entry[func_id]
            for acquisition in func.acquires:
                for held in sorted(base | acquisition.held):
                    if held == acquisition.lock:
                        continue
                    edges.setdefault(
                        (held, acquisition.lock),
                        (func.ctx.path, acquisition.line, func_id),
                    )
            for site in func.calls:
                if site.is_thread_target:
                    continue
                inner = acq_star.get(site.callee)
                if not inner:
                    continue
                for held in sorted(base | site.held):
                    for lock in sorted(inner):
                        if held == lock:
                            continue
                        edges.setdefault(
                            (held, lock),
                            (func.ctx.path, site.line, func_id),
                        )
        yield from self._cycle_findings(edges)

    def _cycle_findings(
        self, edges: Dict[Tuple[str, str], Tuple[str, int, str]]
    ) -> Iterator[Finding]:
        graph: Dict[str, List[str]] = {}
        for src, dst in edges:
            graph.setdefault(src, []).append(dst)
        for successors in graph.values():
            successors.sort()
        reported: Set[FrozenSet[str]] = set()
        for start in sorted(graph):
            cycle = self._find_cycle(graph, start)
            if cycle is None:
                continue
            key = frozenset(cycle)
            if key in reported:
                continue
            reported.add(key)
            rendered = " -> ".join(
                short(lock) for lock in cycle + [cycle[0]]
            )
            witnesses = "; ".join(
                f"{short(a)} -> {short(b)} in "
                f"{edges[(a, b)][2]}"
                for a, b in zip(cycle, cycle[1:] + [cycle[0]])
                if (a, b) in edges
            )
            path, line, _func = edges[(cycle[0], cycle[1])] if (
                (cycle[0], cycle[1]) in edges
            ) else next(iter(edges.values()))
            yield Finding(
                path=path, line=line, rule=self.name,
                message=(
                    f"lock-order cycle {rendered} is a potential "
                    f"deadlock ({witnesses})"
                ),
            )

    @staticmethod
    def _find_cycle(graph: Dict[str, List[str]],
                    start: str) -> Optional[List[str]]:
        """A cycle through ``start``, as a lock list, if one exists."""
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        seen: Set[str] = set()
        while stack:
            node, path = stack.pop()
            for succ in graph.get(node, ()):
                if succ == start:
                    return path
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, path + [succ]))
        return None


@register
class GuardedByRule(ProgramRule):
    """Annotated shared fields are only touched with their lock held.

    ``# repro: guarded-by(<lock>)`` on a field assignment declares the
    lock that protects it; every read/write anywhere in the program
    must then hold that lock, either locally or on every call path in
    (``H(f)``).  ``guarded-by(<lock>, writes)`` exempts reads — the
    documented pattern for structures whose readers are deliberately
    lock-free (snapshot-pinned session lookups, metric instrument
    lookups) and whose runtime races the sanitizer's write-only
    tracking still watches.  Accesses inside the owning class's
    ``__init__`` are construction, before the object can be shared.
    """

    name = "guarded-by"
    description = (
        "fields annotated '# repro: guarded-by(<lock>)' must only be "
        "accessed with that lock held on every interprocedural path; "
        "unknown lock names are rejected with a did-you-mean hint"
    )
    invariant = (
        "serving-path memory safety: the session table, page map, and "
        "instrument map cannot be torn by handler threads racing "
        "sync_update"
    )

    def check_program(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterator[Finding]:
        analysis = Analysis.of(contexts)
        program = analysis.program
        guards = analysis.fact(_Guards)
        yield from guards.findings
        if not guards.fields:
            return
        held_on_entry = analysis.fact(entry_held)
        for func_id in sorted(program.functions):
            func = program.functions[func_id]
            for access in func.accesses:
                field = program.lookup_field(
                    "guarded-by", access.owner, access.attr
                )
                if field not in guards.fields:
                    continue
                lock_id, mode = guards.fields[field]
                if mode == _MODE_WRITES and not access.is_write:
                    continue
                if program.is_construction(func, field):
                    continue
                held = held_on_entry[func_id] | access.held
                if lock_id in held:
                    continue
                kind = "write to" if access.is_write else "read of"
                held_note = (
                    f"holding only {sorted(short(h) for h in held)}"
                    if held else "holding no lock"
                )
                yield Finding(
                    path=func.ctx.path, line=access.line,
                    rule=self.name,
                    message=(
                        f"{kind} {short(field.field_id)} in "
                        f"{func_id} without its guarded-by lock "
                        f"{short(lock_id)} "
                        f"({held_note} on some call path)"
                    ),
                )
