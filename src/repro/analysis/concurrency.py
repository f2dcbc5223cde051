"""The ``guarded-by`` rule, checked one class at a time.

Like Clang's thread-safety analysis, it needs no call graph and no type
inference.  Per top-level class it indexes the lock attributes
(``self.x = Lock()/RLock()/SanLock(...)``), the guarded fields and the
bases (through the module's imports, so a subclass is checked too); the
locks held on a line are its lexical ``with`` stack, plus, in a private
helper, what every ``self.<m>(...)`` call site holds.  Public methods,
``Thread(target=...)`` targets and helpers also called through another
receiver start with nothing, and touching a guarded field through any
receiver but ``self`` is a finding.  Lock *order* is checked at run
time instead (:class:`repro.sanitize.runtime.SanLock`, DESIGN §8).
"""

from __future__ import annotations

import ast
import difflib
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
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

_MODE_ALL, _MODE_WRITES = "all", "writes"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: Method names whose call mutates the receiver collection in place.
_MUTATORS = frozenset({
    "append", "add", "insert", "extend", "update", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
})
#: Method names whose call iterates the receiver collection.
_ITERATING_METHODS = frozenset({"items", "values", "keys"})
#: Builtins that iterate their one argument.
_ITERATING_BUILTINS = frozenset({"list", "sorted", "dict", "tuple", "set"})
#: Constructor names that create a lock object.
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "SanLock"})


def short(symbol_id: str) -> str:
    """``repro.isp.sessions.SessionRegistry._lock`` -> its last two."""
    return ".".join(symbol_id.rsplit(".", 2)[-2:])


def is_private(name: str) -> bool:
    """One leading underscore, not a dunder."""
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


def _constructs_lock(value: Optional[ast.expr]) -> bool:
    ref = dotted(value.func) if isinstance(value, ast.Call) else None
    return ref is not None and ref.rsplit(".", 1)[-1] in _LOCK_FACTORIES


def _self_attrs(stmt: ast.AST) -> List[str]:
    """The ``X`` of every ``self.X`` target of an assignment."""
    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
               [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [
        target.attr for target in targets
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name) and target.value.id == "self"
    ]


class Guard(NamedTuple):
    field_id: str
    lock_id: str
    mode: str


class _Class:
    """One top-level class: bases, methods, lock attributes, guards."""

    def __init__(self, class_id: str, node: ast.ClassDef,
                 imports: Dict[str, str]) -> None:
        self.class_id = class_id
        self.bases = [imports.get(ref, ref)
                      for ref in map(dotted, node.bases) if ref is not None]
        self.methods = {item.name: item for item in node.body
                        if isinstance(item, _FUNCTIONS)}
        #: attr -> lock id, for ``self.x = Lock()`` in any method.
        self.locks = {
            attr: f"{class_id}.{attr}"
            for item in self.methods.values() for stmt in ast.walk(item)
            if _constructs_lock(getattr(stmt, "value", None))
            for attr in _self_attrs(stmt)
        }
        #: attr -> guarded-by arguments as declared; -> resolved guard.
        self.declared: Dict[str, Tuple[str, ...]] = {}
        self.guards: Dict[str, Guard] = {}


class _Index:
    """Every top-level class and lock global of the analyzed modules,
    and the findings on the annotations themselves."""

    def __init__(self, contexts: Sequence[ModuleContext]) -> None:
        self.classes: Dict[str, _Class] = {}
        #: module -> names of its module-level lock globals.
        self.globals: Dict[str, Set[str]] = {}
        self.findings: List[Finding] = []
        for ctx in contexts:
            imports = {
                alias.asname or alias.name: f"{node.module}.{alias.name}"
                for node in ast.walk(ctx.tree)
                if isinstance(node, ast.ImportFrom) and node.module
                for alias in node.names
            }
            classes = [n for n in ctx.tree.body if isinstance(n, ast.ClassDef)]
            imports.update((n.name, f"{ctx.module}.{n.name}") for n in classes)
            for node in classes:
                class_id = f"{ctx.module}.{node.name}"
                self.classes[class_id] = _Class(class_id, node, imports)
            self.globals[ctx.module] = {
                target.id for node in ctx.tree.body
                if isinstance(node, ast.Assign)
                and _constructs_lock(node.value)
                for target in node.targets if isinstance(target, ast.Name)
            }
        for ctx in contexts:
            self._declare(ctx)

    def mro(self, class_id: str) -> List[_Class]:
        order: List[_Class] = []
        queue = [class_id]
        while queue:
            info = self.classes.get(queue.pop(0))
            if info is not None and info not in order:
                order.append(info)
                queue.extend(info.bases)
        return order

    def lock_attr(self, class_id: str, attr: str) -> Optional[str]:
        return next((info.locks[attr] for info in self.mro(class_id)
                     if attr in info.locks), None)

    def guard(self, class_id: str, attr: str) -> Optional[Guard]:
        return next((info.guards.get(attr) for info in self.mro(class_id)
                     if attr in info.declared), None)

    def _declare(self, ctx: ModuleContext) -> None:
        """Tie each ``guarded-by`` comment to the ``self.<field> = ...``
        line it sits on, and resolve the lock it names."""
        fields: Dict[int, Tuple[_Class, str]] = {}
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                info = self.classes[f"{ctx.module}.{node.name}"]
                for stmt in ast.walk(node):
                    for attr in _self_attrs(stmt):
                        fields[stmt.lineno] = (info, attr)
        for directive in ctx.directives:
            if directive.name == "guarded-by":
                problem = self._resolve(ctx, fields.get(directive.line),
                                        directive.args)
                if problem is not None:
                    self.findings.append(Finding(
                        path=ctx.path, line=directive.line,
                        rule=GuardedByRule.name, message=problem,
                    ))

    def _resolve(self, ctx: ModuleContext,
                 field: Optional[Tuple[_Class, str]],
                 args: Tuple[str, ...]) -> Optional[str]:
        """Record one declaration; the finding text if it is unusable."""
        if field is None:
            return ("guarded-by annotation is not attached to a "
                    "'self.<field> = ...' assignment line")
        info, attr = field
        lock_name, mode = args[0], (args[1:] or (_MODE_ALL,))[0]
        existing = info.declared.setdefault(attr, args)
        if existing != args:
            return (f"field {attr!r} is annotated guarded-by({lock_name}) "
                    f"here but guarded-by({existing[0]}) elsewhere; "
                    "pick one lock")
        if mode not in (_MODE_ALL, _MODE_WRITES):
            return (f"guarded-by mode {mode!r} for field {attr!r} is "
                    f"unknown; expected '{_MODE_WRITES}' or '{_MODE_ALL}'")
        lock_id = self.lock_attr(info.class_id, lock_name)
        if lock_id is None and lock_name in self.globals[ctx.module]:
            lock_id = f"{ctx.module}.{lock_name}"
        if lock_id is None:
            known = self.globals[ctx.module].union(
                *(base.locks for base in self.mro(info.class_id)))
            hint = difflib.get_close_matches(
                lock_name, sorted(known), n=1, cutoff=0.5)
            return (f"guarded-by names unknown lock {lock_name!r} for "
                    f"field {attr!r}"
                    + (f" (did you mean {hint[0]!r}?)" if hint else "")
                    + "; locks are attributes assigned Lock()/RLock()/"
                      "SanLock() or module-level lock globals")
        info.guards[attr] = Guard(f"{info.class_id}.{attr}", lock_id, mode)
        return None


_READ, _WRITE, _ITERATE = "read of", "write to", "iteration over"


class Access(NamedTuple):
    attr: str
    #: ``_READ``, ``_WRITE`` or ``_ITERATE``: a ``writes``-mode guard
    #: exempts only reads, since an iteration a writer interleaves with
    #: raises "changed size during iteration".
    kind: str
    held: FrozenSet[str]
    line: int
    through_self: bool


class _Body(ast.NodeVisitor):
    """One function body's guarded accesses and ``self.`` calls, each
    with the lexical ``with`` stack it runs under."""

    def __init__(self, index: _Index, ctx: ModuleContext,
                 owner: Optional[_Class], node: ast.AST,
                 watched: Dict[str, List[Guard]]) -> None:
        self.index, self.ctx, self.owner = index, ctx, owner
        self.watched = watched
        self.held: List[str] = []
        self.accesses: List[Access] = []
        #: (method name, locks held) per ``self.<m>(...)`` call.
        self.self_calls: List[Tuple[str, FrozenSet[str]]] = []
        #: Methods called through another receiver or started as a
        #: thread: they run with none of this body's locks.
        self.escaped: Set[str] = set()
        for stmt in node.body:
            self.visit(stmt)

    def is_self(self, expr: ast.expr) -> bool:
        return (self.owner is not None and isinstance(expr, ast.Name)
                and expr.id == "self")

    def note(self, attr: ast.Attribute, kind: str) -> None:
        if attr.attr in self.watched:
            self.accesses.append(Access(
                attr.attr, kind, frozenset(self.held), attr.lineno,
                self.is_self(attr.value)))

    def iterated(self, expr: ast.expr) -> None:
        """``expr`` is iterated: note it if it is a field, then visit."""
        if isinstance(expr, ast.Attribute):
            self.note(expr, _ITERATE)
            self.visit(expr.value)
        else:
            self.visit(expr)

    def visit_FunctionDef(self, node: ast.AST) -> None:
        pass  # runs when it is called, not here

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    def visit_With(self, node: ast.With) -> None:
        depth = len(self.held)
        for item in node.items:
            expr, lock = item.context_expr, None
            if isinstance(expr, ast.Name) and (
                    expr.id in self.index.globals[self.ctx.module]):
                lock = f"{self.ctx.module}.{expr.id}"
            elif isinstance(expr, ast.Attribute) and self.is_self(expr.value):
                lock = self.index.lock_attr(self.owner.class_id, expr.attr)
            if lock is None:
                self.visit(expr)
            else:
                self.held.append(lock)
        for stmt in node.body:
            self.visit(stmt)
        del self.held[depth:]

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Store/Del ctx: ``self.F = x`` and ``del self.F`` write.
        self.note(node, _written(node.ctx))
        self.visit(node.value)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # ``self.F[k] = v`` writes the collection behind ``self.F``.
        if isinstance(node.value, ast.Attribute):
            self.note(node.value, _written(node.ctx))
            self.visit(node.value.value)
        else:
            self.visit(node.value)
        self.visit(node.slice)

    def visit_For(self, node: ast.AST) -> None:
        self.visit(node.target)
        self.iterated(node.iter)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self.visit(node.target)
        self.iterated(node.iter)
        for test in node.ifs:
            self.visit(test)

    def visit_Call(self, call: ast.Call) -> None:
        func = call.func
        if (dotted(func) or "").rsplit(".", 1)[-1] == "Thread":
            self.escaped.update(
                kw.value.attr for kw in call.keywords
                if kw.arg == "target" and isinstance(kw.value, ast.Attribute))
        iterates = (isinstance(func, ast.Name)
                    and func.id in _ITERATING_BUILTINS and len(call.args) == 1)
        for arg in call.args + [kw.value for kw in call.keywords]:
            if iterates:
                self.iterated(arg)
            else:
                self.visit(arg)
        if not isinstance(func, ast.Attribute):
            return
        if self.is_self(func.value):
            self.self_calls.append((func.attr, frozenset(self.held)))
        elif is_private(func.attr):
            self.escaped.add(func.attr)
        # self.F.append(x) writes F, self.F.items() iterates it; any
        # other method call on it reads.
        kind = (_WRITE if func.attr in _MUTATORS else
                _ITERATE if func.attr in _ITERATING_METHODS else None)
        if kind is not None and isinstance(func.value, ast.Attribute):
            self.note(func.value, kind)
            self.visit(func.value.value)
        else:
            self.visit(func.value)


def _written(ctx: ast.expr_context) -> str:
    return _WRITE if isinstance(ctx, (ast.Store, ast.Del)) else _READ


def _held_on_entry(index: _Index,
                   bodies: Dict[str, _Body]) -> Dict[str, Set[str]]:
    """Locks held on entry: the meet over a private helper's ``self.``
    call sites, the empty set for everything else."""
    escaped = set().union(*(body.escaped for body in bodies.values()))
    edges = []
    for caller, body in bodies.items():
        for name, held in body.self_calls:
            defining = next((info for info in index.mro(body.owner.class_id)
                             if name in info.methods), None)
            if is_private(name) and name not in escaped and defining:
                edges.append((caller, f"{defining.class_id}.{name}", held))
    # Each reached helper starts holding every lock and keeps what
    # arrives on every edge: the greatest fixpoint, whatever the order.
    every_lock = {f"{module}.{name}" for module, names
                  in index.globals.items() for name in names}.union(
        *(info.locks.values() for info in index.classes.values()))
    reached = {callee for _caller, callee, _held in edges}
    entry = {f: set(every_lock) if f in reached else set() for f in bodies}
    changed = True
    while changed:
        changed = False
        for caller, callee, held in edges:
            arriving = entry[caller] | held
            if not entry[callee] <= arriving:
                entry[callee] &= arriving
                changed = True
    return entry


@register
class GuardedByRule(ProgramRule):
    """Annotated shared fields are only touched with their lock held.

    The owning class's ``__init__`` is construction and exempt, and
    ``guarded-by(<lock>, writes)`` exempts reads: the pattern for
    deliberately lock-free readers (snapshot-pinned session lookups,
    metric instrument lookups).  Iterating the field is no read: a
    ``for`` or comprehension over it, ``.items()``/``.values()``/
    ``.keys()``, or ``list``/``sorted``/``dict``/``tuple``/``set`` of it
    takes the lock in either mode.
    """

    name = "guarded-by"
    description = (
        "fields annotated '# repro: guarded-by(<lock>)' must only be "
        "accessed by their own class with that lock held; unknown lock "
        "names are rejected with a did-you-mean hint"
    )
    invariant = (
        "serving-path memory safety: the session table, page map, and "
        "instrument map cannot be torn by handler threads racing "
        "sync_update"
    )

    def check_program(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterator[Finding]:
        index = _Index(contexts)
        yield from index.findings
        by_attr: Dict[str, List[Guard]] = {}
        for info in index.classes.values():
            for attr, guard in info.guards.items():
                by_attr.setdefault(attr, []).append(guard)
        bodies: Dict[str, _Body] = {}
        for ctx in contexts if by_attr else ():
            for node in ctx.tree.body:
                if isinstance(node, _FUNCTIONS):
                    bodies[f"{ctx.module}.{node.name}"] = _Body(
                        index, ctx, None, node, by_attr)
                elif isinstance(node, ast.ClassDef):
                    info = index.classes[f"{ctx.module}.{node.name}"]
                    for name, method in info.methods.items():
                        bodies[f"{info.class_id}.{name}"] = _Body(
                            index, ctx, info, method, by_attr)
        entry = _held_on_entry(index, bodies)
        for func_id, body in sorted(bodies.items()):
            for access in body.accesses:
                message = self._violation(index, func_id, body, access,
                                          entry[func_id] | access.held)
                if message is not None:
                    yield Finding(path=body.ctx.path, line=access.line,
                                  rule=self.name, message=message)

    @staticmethod
    def _violation(index: _Index, func_id: str, body: _Body,
                   access: Access, held: Set[str]) -> Optional[str]:
        """The finding text for one access, or ``None`` when it is fine."""
        kind = access.kind
        if not access.through_self:
            guards = body.watched[access.attr]
            if kind != _READ or any(g.mode != _MODE_WRITES for g in guards):
                fields = " or ".join(sorted(short(g.field_id) for g in guards))
                return (f"{kind} {fields} in {func_id} through a receiver "
                        "other than self; go through a method of the "
                        "owning class")
            return None
        guard = index.guard(body.owner.class_id, access.attr)
        if guard is None or guard.lock_id in held or func_id.endswith(
                ".__init__") or (guard.mode == _MODE_WRITES
                                 and kind == _READ):
            return None
        held_note = (f"holding only {sorted(short(h) for h in held)}"
                     if held else "holding no lock")
        return (f"{kind} {short(guard.field_id)} in {func_id} without its "
                f"guarded-by lock {short(guard.lock_id)} ({held_note} on "
                "some call path)")
