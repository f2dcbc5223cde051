"""The ``guarded-by`` rule.

Whether ``IspServer._sessions`` may be touched on some line depends on
which locks every *transitive caller* holds.  One
:func:`~repro.analysis.engine.propagate` call over the facts the
engine's walk recorded (call edges and field accesses, each with the
locks held at that point) answers it: :func:`entry_held` is ``H(f)``,
the locks held on *every* path into ``f`` — a meet towards callees in
which each call edge also carries the locks held at the site, a
thread-spawn edge carries nothing (the child runs without the
spawner's locks) and public functions are pinned to the empty set.

**guarded-by** checks that every access to a field annotated
``# repro: guarded-by(<lock>)`` happens with that lock in
``H(f) ∪ locally-held`` (accesses in the owning ``__init__`` are
construction and exempt; ``writes`` mode exempts reads for
deliberately lock-free-read structures).  Annotations naming an
unknown lock are rejected with a did-you-mean hint.

Lock *order* is not checked here: the serving path reaches the ISP
through ``getattr`` dispatch, which no static call graph follows, so
the order graph is built at runtime from the acquisitions that happen
(:class:`repro.sanitize.runtime.SanLock`, DESIGN §8).
"""

from __future__ import annotations

import difflib
from typing import Dict, Iterator, Sequence, Set, Tuple

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
        carried=lambda site: site.held,
        pinned=(f for f in program.functions if not is_private(f)),
    )


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
class GuardedByRule(ProgramRule):
    """Annotated shared fields are only touched with their lock held.

    ``# repro: guarded-by(<lock>)`` on a field assignment declares the
    lock that protects it; every read/write anywhere in the program
    must then hold that lock, either locally or on every call path in
    (``H(f)``).  ``guarded-by(<lock>, writes)`` exempts reads — the
    documented pattern for structures whose readers are deliberately
    lock-free (snapshot-pinned session lookups, metric instrument
    lookups).  Accesses inside the owning class's ``__init__`` are
    construction, before the object can be shared.
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
