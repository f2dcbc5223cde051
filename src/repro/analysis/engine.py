"""The interprocedural engine under the ``guarded-by`` rule.

Whether an annotated field may be touched on some line depends on which
locks every *transitive caller* holds, so the rule reasons over the
whole program:

1. the **index** (:class:`Program`) — classes with resolved bases,
   lock objects (attributes or module globals assigned
   ``threading.Lock()`` / ``RLock()`` / ``SanLock``), inferred
   attribute types, and the ``# repro:`` directives attached to fields
   (placement is checked here; the syntax is
   :data:`repro.analysis.core.DIRECTIVES`);
2. one **fact-collecting walk** per function (:class:`_Walk`) — resolved
   call edges and thread-spawn sites, and accesses to annotated fields,
   each with the locks held at that point — stored on
   :class:`FunctionInfo`;
3. the **solver** — :func:`propagate`, a call-graph fixpoint over
   per-function sets (may/union or must/meet, towards callees or
   towards callers);
4. the **memo** (:class:`Analysis`) — one object per analyzed context
   set, so the index and every derived fact are computed once.

Lock identity is the *defining site* (``module.Class.attr`` or
``module.NAME``), matching the runtime ``SanLock.name``
granularity.  The analysis is deliberately conservative: a lock or
callee it cannot resolve contributes nothing — it can miss discipline
violations through reflection or untyped locals, but what it reports
is derived from real call paths.
"""

from __future__ import annotations

import ast
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.analysis.core import (
    DIRECTIVES,
    ON_FIELD,
    Directive,
    Finding,
    ModuleContext,
    dotted,
)

#: Method names whose call mutates the receiver collection in place.
_MUTATORS = frozenset({
    "append", "add", "insert", "extend", "update", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
})

#: Constructor names that create a lock object.
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "SanLock"})

#: Thread classes whose ``target=`` keyword spawns a new root.
_THREAD_FACTORIES = frozenset({"Thread"})


def short(symbol_id: str) -> str:
    """``repro.isp.server.IspServer._lock`` -> ``IspServer._lock``."""
    parts = symbol_id.rsplit(".", 2)
    return ".".join(parts[-2:]) if len(parts) >= 2 else symbol_id


def is_private(func_id: str) -> bool:
    """Private helpers (one leading underscore, not dunders) are the
    only functions whose facts may be derived from their callers:
    anything public is assumed reachable from outside the analyzed
    tree (tests, API users)."""
    name = func_id.rsplit(".", 1)[-1]
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


# ----------------------------------------------------------------------
# Index structures
# ----------------------------------------------------------------------


class FieldDirective(NamedTuple):
    """A directive attached to one ``self.<attr> = ...`` line."""

    class_id: str
    attr: str
    directive: Directive
    path: str

    @property
    def field_id(self) -> str:
        return f"{self.class_id}.{self.attr}"

    @property
    def line(self) -> int:
        return self.directive.line


class ClassInfo:
    """Everything the analysis knows about one class."""

    __slots__ = ("class_id", "module", "name", "base_refs", "methods",
                 "lock_attrs", "attr_types", "field_directives")

    def __init__(self, class_id: str, module: str, name: str) -> None:
        self.class_id = class_id
        self.module = module
        self.name = name
        #: Unresolved base expressions (dotted strings).
        self.base_refs: List[str] = []
        self.methods: Set[str] = set()
        #: attr name -> lock id for ``self.x = Lock()`` assignments.
        self.lock_attrs: Dict[str, str] = {}
        #: attr name -> class id, inferred.
        self.attr_types: Dict[str, str] = {}
        #: (directive name, attr name) -> FieldDirective.
        self.field_directives: Dict[Tuple[str, str], FieldDirective] = {}


class CallSite(NamedTuple):
    """One resolved call edge (or thread spawn) out of a function."""

    callee: str
    held: FrozenSet[str]
    line: int
    is_thread_target: bool


class FieldAccess(NamedTuple):
    """One read/write of an attribute some class annotates; the rule
    that owns the annotation resolves it through ``owner``'s MRO."""

    owner: str
    attr: str
    is_write: bool
    held: FrozenSet[str]
    line: int


class FunctionInfo:
    """The per-function facts the rule consumes."""

    __slots__ = ("func_id", "class_id", "ctx", "name", "param_types",
                 "local_types", "calls", "accesses")

    def __init__(self, func_id: str, class_id: Optional[str],
                 ctx: ModuleContext, node: ast.AST) -> None:
        self.func_id = func_id
        self.class_id = class_id
        self.ctx = ctx
        self.name = node.name
        self.param_types: Dict[str, str] = {}
        self.local_types: Dict[str, str] = {}
        self.calls: List[CallSite] = []
        self.accesses: List[FieldAccess] = []


class Program:
    """The fully indexed program: every module, one symbol space."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: lock id -> defining (path, line).
        self.locks: Dict[str, Tuple[str, int]] = {}
        #: directive name -> every field it is attached to.
        self.field_directives: Dict[str, List[FieldDirective]] = {}
        #: Attribute names some class annotates (the walk's prefilter).
        self.annotated_attrs: Set[str] = set()
        #: rule name -> misplaced-directive findings for it to report.
        self.index_findings: Dict[str, List[Finding]] = {}
        #: module name -> {local name -> dotted ref}.
        self.symbols: Dict[str, Dict[str, str]] = {}
        self._mro_cache: Dict[str, List[str]] = {}

    # -- symbol resolution ---------------------------------------------

    def mro(self, class_id: str) -> List[str]:
        cached = self._mro_cache.get(class_id)
        if cached is not None:
            return cached
        order: List[str] = []
        seen: Set[str] = set()
        stack = [class_id]
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            order.append(current)
            info = self.classes[current]
            for base_ref in info.base_refs:
                resolved = self.symbols.get(info.module, {}).get(
                    base_ref, base_ref
                )
                if resolved in self.classes:
                    stack.append(resolved)
        self._mro_cache[class_id] = order
        return order

    def lookup_method(self, class_id: str, name: str) -> Optional[str]:
        for cid in self.mro(class_id):
            if name in self.classes[cid].methods:
                return f"{cid}.{name}"
        return None

    def lookup_attr_type(self, class_id: str, attr: str) -> Optional[str]:
        for cid in self.mro(class_id):
            hit = self.classes[cid].attr_types.get(attr)
            if hit is not None:
                return hit
        return None

    def lookup_lock_attr(self, class_id: str, attr: str) -> Optional[str]:
        for cid in self.mro(class_id):
            hit = self.classes[cid].lock_attrs.get(attr)
            if hit is not None:
                return hit
        return None

    def lookup_field(self, directive: str, class_id: str,
                     attr: str) -> Optional[FieldDirective]:
        for cid in self.mro(class_id):
            hit = self.classes[cid].field_directives.get((directive, attr))
            if hit is not None:
                return hit
        return None

    def is_construction(self, func: FunctionInfo,
                        field: FieldDirective) -> bool:
        """Accesses in the owning class's ``__init__`` happen before
        the object can be shared with any thread."""
        return (
            func.name == "__init__"
            and func.class_id is not None
            and field.class_id in self.mro(func.class_id)
        )

    def known_lock_names(self, class_id: Optional[str],
                         module: str) -> List[str]:
        names: Set[str] = set()
        if class_id is not None:
            for cid in self.mro(class_id):
                names.update(self.classes[cid].lock_attrs)
        prefix = module + "."
        for lock_id in self.locks:
            if lock_id.startswith(prefix):
                remainder = lock_id[len(prefix):]
                if "." not in remainder:
                    names.add(remainder)
        return sorted(names)


# ----------------------------------------------------------------------
# Indexing pass 1: symbols, classes, locks, attribute types
# ----------------------------------------------------------------------


def _module_symbols(ctx: ModuleContext) -> Dict[str, str]:
    symbols: Dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                symbols[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                symbols[local] = alias.name
    for node in ctx.tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            symbols[node.name] = f"{ctx.module}.{node.name}"
    return symbols


def _constructs_lock(call: Optional[ast.expr]) -> bool:
    """True when ``call`` is ``Lock()``/``RLock()``/``SanLock(...)``."""
    if not isinstance(call, ast.Call):
        return False
    ref = dotted(call.func)
    return ref is not None and ref.rsplit(".", 1)[-1] in _LOCK_FACTORIES


def _annotation_class_ref(node: Optional[ast.expr]) -> Optional[str]:
    """A dotted name from a parameter/attribute annotation, if simple.

    Plain names, dotted names, and string forward references resolve;
    ``Optional[X]`` is peeled (the wrapped class is what the attribute
    holds when it holds anything); other subscripted generics stay out
    of scope — a ``Dict[int, X]`` is not an ``X``.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        candidate = node.value.strip()
        return candidate if candidate.replace(".", "").isidentifier() \
            else None
    if isinstance(node, ast.Subscript):
        head = dotted(node.value)
        if head is not None and head.rsplit(".", 1)[-1] == "Optional":
            return _annotation_class_ref(node.slice)
    return dotted(node)


def _self_attr_targets(stmt: ast.stmt) -> List[str]:
    """The ``X`` of every ``self.X`` target of an assignment."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return []
    targets = (
        stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    )
    return [
        target.attr for target in targets
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ]


def _index_module(program: Program, ctx: ModuleContext) -> None:
    symbols = _module_symbols(ctx)
    program.symbols[ctx.module] = symbols
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign) and _constructs_lock(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    program.locks[f"{ctx.module}.{target.id}"] = (
                        ctx.path, node.lineno
                    )
        if not isinstance(node, ast.ClassDef):
            continue
        class_id = f"{ctx.module}.{node.name}"
        info = ClassInfo(class_id, ctx.module, node.name)
        for base in node.bases:
            ref = dotted(base)
            if ref is not None:
                info.base_refs.append(ref)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods.add(item.name)
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                ref = _annotation_class_ref(item.annotation)
                if ref is not None:
                    resolved = symbols.get(ref, f"{ctx.module}.{ref}")
                    info.attr_types[item.target.id] = resolved
        program.classes[class_id] = info


def _typed_params(program: Program, symbols: Dict[str, str],
                  node: ast.AST) -> Dict[str, str]:
    """param name -> class id, from simple annotations."""
    types: Dict[str, str] = {}
    for arg in node.args.args + node.args.kwonlyargs:
        ref = _annotation_class_ref(arg.annotation)
        if ref is not None:
            resolved = symbols.get(ref, ref)
            if resolved in program.classes:
                types[arg.arg] = resolved
    return types


def _index_class_bodies(program: Program, ctx: ModuleContext) -> None:
    """Second sweep over class methods: lock attrs, attribute types and
    field-placed directives (needs every class indexed first, so
    ``ClassName(...)`` resolves)."""
    symbols = program.symbols[ctx.module]
    #: line -> (class info, attr) for every ``self.X = ...`` statement.
    field_lines: Dict[int, Tuple[ClassInfo, str]] = {}
    for node in ctx.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        info = program.classes[f"{ctx.module}.{node.name}"]
        for stmt in ast.walk(node):
            for attr in _self_attr_targets(stmt):
                field_lines[stmt.lineno] = (info, attr)
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            param_types = _typed_params(program, symbols, item)
            for stmt in ast.walk(item):
                for attr in _self_attr_targets(stmt):
                    _index_field(program, ctx, info, attr, stmt,
                                 param_types)
    for directive in ctx.directives:
        if DIRECTIVES[directive.name].placement == ON_FIELD:
            _attach_field_directive(
                program, ctx, directive, field_lines.get(directive.line)
            )


def _index_field(program: Program, ctx: ModuleContext, info: ClassInfo,
                 attr: str, stmt: ast.stmt,
                 param_types: Dict[str, str]) -> None:
    symbols = program.symbols[ctx.module]
    value = stmt.value
    if _constructs_lock(value):
        lock_id = f"{info.class_id}.{attr}"
        info.lock_attrs[attr] = lock_id
        program.locks[lock_id] = (ctx.path, stmt.lineno)
    elif isinstance(value, ast.Call):
        ref = dotted(value.func)
        if ref is not None:
            resolved = symbols.get(ref, ref)
            if resolved in program.classes:
                info.attr_types[attr] = resolved
    elif isinstance(value, ast.Name):
        hinted = param_types.get(value.id)
        if hinted is not None:
            info.attr_types[attr] = hinted
    if isinstance(stmt, ast.AnnAssign):
        ref = _annotation_class_ref(stmt.annotation)
        if ref is not None:
            resolved = symbols.get(ref, ref)
            if resolved in program.classes:
                info.attr_types[attr] = resolved


def _attach_field_directive(
    program: Program, ctx: ModuleContext, directive: Directive,
    owner: Optional[Tuple[ClassInfo, str]],
) -> None:
    name = directive.name
    spec = DIRECTIVES[name]

    def reject(message: str) -> None:
        program.index_findings.setdefault(spec.rule, []).append(Finding(
            path=ctx.path, line=directive.line, rule=spec.rule,
            message=message,
        ))

    if owner is None:
        reject(
            f"{name} annotation is not attached to a "
            "'self.<field> = ...' assignment line"
        )
        return
    info, attr = owner
    existing = info.field_directives.get((name, attr))
    if existing is not None and existing.directive.args != directive.args:
        reject(
            f"field {attr!r} is annotated {name}({directive.args[0]}) "
            f"here but {name}({existing.directive.args[0]}) elsewhere; "
            "pick one lock"
        )
        return
    field = FieldDirective(info.class_id, attr, directive, ctx.path)
    info.field_directives[(name, attr)] = field
    program.field_directives.setdefault(name, []).append(field)
    program.annotated_attrs.add(attr)


# ----------------------------------------------------------------------
# Indexing pass 2: one fact-collecting walk per function
# ----------------------------------------------------------------------


class _Walk:
    """Walks one function body tracking the held-lock stack and
    recording every fact on the function's :class:`FunctionInfo`."""

    def __init__(self, program: Program, func: FunctionInfo) -> None:
        self.program = program
        self.func = func
        self.ctx = func.ctx
        self.held: List[str] = []

    def resolve_receiver(self, expr: ast.expr) -> Optional[str]:
        """The class id an expression evaluates to, if inferable."""
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and self.func.class_id:
                return self.func.class_id
            hit = self.func.param_types.get(expr.id)
            if hit is not None:
                return hit
            return self.func.local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.resolve_receiver(expr.value)
            if base is not None:
                return self.program.lookup_attr_type(base, expr.attr)
            # module attribute: mod.ClassName
            ref = dotted(expr)
            if ref is not None:
                symbols = self.program.symbols.get(self.ctx.module, {})
                head, _, rest = ref.partition(".")
                known = symbols.get(head)
                if known is not None:
                    candidate = f"{known}.{rest}" if rest else known
                    if candidate in self.program.classes:
                        return candidate
            return None
        if isinstance(expr, ast.Call):
            if (
                isinstance(expr.func, ast.Name)
                and expr.func.id == "super"
                and self.func.class_id is not None
            ):
                mro = self.program.mro(self.func.class_id)
                return mro[1] if len(mro) > 1 else None
            ref = dotted(expr.func)
            if ref is not None:
                symbols = self.program.symbols.get(self.ctx.module, {})
                resolved = symbols.get(ref, ref)
                if resolved in self.program.classes:
                    return resolved
        return None

    def resolve_lock(self, expr: ast.expr) -> Optional[str]:
        """The lock id a ``with``-expression names, if inferable."""
        if isinstance(expr, ast.Name):
            module_lock = f"{self.ctx.module}.{expr.id}"
            if module_lock in self.program.locks:
                return module_lock
            return None
        if isinstance(expr, ast.Attribute):
            owner = self.resolve_receiver(expr.value)
            if owner is not None:
                return self.program.lookup_lock_attr(owner, expr.attr)
        return None

    def resolve_callable(self, func: ast.expr) -> Optional[str]:
        """The function id a call expression targets, if inferable."""
        if isinstance(func, ast.Name):
            symbols = self.program.symbols.get(self.ctx.module, {})
            ref = symbols.get(func.id, f"{self.ctx.module}.{func.id}")
            if ref in self.program.classes:
                return self.program.lookup_method(ref, "__init__")
            # The functions dict is still filling during collection
            # (later modules are not summarized yet), so membership
            # cannot be checked here — return the candidate and let
            # the solver drop refs that never resolve (builtins,
            # stdlib calls).
            return ref
        if isinstance(func, ast.Attribute):
            owner = self.resolve_receiver(func.value)
            if owner is not None:
                return self.program.lookup_method(owner, func.attr)
            ref = dotted(func)
            if ref is not None and "." in ref:
                symbols = self.program.symbols.get(self.ctx.module, {})
                head, _, rest = ref.partition(".")
                known = symbols.get(head)
                if known is not None:
                    return f"{known}.{rest}"
        return None

    def held_set(self) -> FrozenSet[str]:
        return frozenset(self.held)

    def visit_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.With):
            pushed = 0
            for item in stmt.items:
                lock = self.resolve_lock(item.context_expr)
                if lock is not None:
                    self.held.append(lock)
                    pushed += 1
                else:
                    self.visit_expr(item.context_expr)
            self.visit_body(stmt.body)
            for _ in range(pushed):
                self.held.pop()
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # a nested def runs when it is called, not here
        self.visit_children(stmt)

    def visit_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self.visit_stmt(child)
            elif isinstance(child, ast.expr):
                self.visit_expr(child)
            else:
                self.visit_children(child)

    def visit_expr(self, expr: ast.expr) -> None:
        if isinstance(expr, ast.Call):
            self.visit_call(expr)
            return
        if isinstance(expr, ast.Attribute):
            # ast marks assignment/deletion targets with Store/Del ctx,
            # so `self.F = x` and `del self.F` classify as writes here.
            self.note_field_access(expr, is_write=isinstance(
                expr.ctx, (ast.Store, ast.Del)
            ))
            self.visit_expr(expr.value)
            return
        if isinstance(expr, ast.Subscript):
            # self.F[k] = v mutates the collection behind self.F even
            # though the inner Attribute itself has Load ctx.
            if isinstance(expr.value, ast.Attribute):
                self.note_field_access(
                    expr.value,
                    is_write=isinstance(expr.ctx, (ast.Store, ast.Del)),
                )
                self.visit_expr(expr.value.value)
            else:
                self.visit_expr(expr.value)
            self.visit_expr(expr.slice)
            return
        if isinstance(expr, ast.Lambda):
            return
        self.visit_children(expr)

    def visit_call(self, call: ast.Call) -> None:
        ref = dotted(call.func)
        last = ref.rsplit(".", 1)[-1] if ref else None
        attr = (
            call.func.attr if isinstance(call.func, ast.Attribute)
            else None
        )
        # Thread spawn: the target runs with no caller locks.
        if last in _THREAD_FACTORIES:
            for keyword in call.keywords:
                if keyword.arg == "target":
                    target = self.resolve_callable(keyword.value)
                    if target is not None:
                        self.func.calls.append(CallSite(
                            target, frozenset(), call.lineno,
                            is_thread_target=True,
                        ))
        # Mutating method on an annotated field: self.F.append(x) is a
        # write; any other method call on it (values(), items()) reads.
        receiver_noted = (
            attr in _MUTATORS
            and isinstance(call.func.value, ast.Attribute)
        )
        if receiver_noted:
            self.note_field_access(call.func.value, is_write=True)
        callee = self.resolve_callable(call.func)
        if callee is not None:
            self.func.calls.append(CallSite(
                callee, self.held_set(), call.lineno,
                is_thread_target=False,
            ))
        for arg in call.args:
            self.visit_expr(arg)
        for keyword in call.keywords:
            self.visit_expr(keyword.value)
        if attr is not None:
            if receiver_noted:
                self.visit_expr(call.func.value.value)
            else:
                self.visit_expr(call.func.value)

    def note_field_access(self, attr: ast.Attribute,
                          is_write: bool) -> None:
        if attr.attr not in self.program.annotated_attrs:
            return
        owner = self.resolve_receiver(attr.value)
        if owner is not None:
            self.func.accesses.append(FieldAccess(
                owner, attr.attr, is_write, self.held_set(), attr.lineno
            ))


def _collect_function(program: Program, ctx: ModuleContext,
                      node: ast.AST, func_id: str,
                      class_id: Optional[str]) -> None:
    func = FunctionInfo(func_id, class_id, ctx, node)
    symbols = program.symbols[ctx.module]
    func.param_types = _typed_params(program, symbols, node)
    walk = _Walk(program, func)
    for stmt in ast.walk(node):
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            continue
        target = stmt.targets[0].id
        if isinstance(stmt.value, ast.Call):
            ref = dotted(stmt.value.func)
            if ref is not None:
                resolved = symbols.get(ref, ref)
                if resolved in program.classes:
                    func.local_types[target] = resolved
        elif isinstance(stmt.value, (ast.Attribute, ast.Name)):
            # Local alias of a typed attribute or parameter
            # (``cache = self.inter_cache``) — a single pass suffices
            # for the assign-then-use idiom; chained aliases that only
            # resolve on a later sweep stay unresolved (conservative).
            hit = walk.resolve_receiver(stmt.value)
            if hit is not None:
                func.local_types.setdefault(target, hit)
    program.functions[func_id] = func
    walk.visit_body(node.body)


def _collect_functions(program: Program, ctx: ModuleContext) -> None:
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _collect_function(
                program, ctx, node, f"{ctx.module}.{node.name}", None
            )
        elif isinstance(node, ast.ClassDef):
            class_id = f"{ctx.module}.{node.name}"
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    _collect_function(
                        program, ctx, item,
                        f"{class_id}.{item.name}", class_id,
                    )


def build_program(contexts: Sequence[ModuleContext]) -> Program:
    """Index ``contexts`` as one program and walk every function."""
    program = Program()
    for ctx in contexts:
        _index_module(program, ctx)
    for ctx in contexts:
        _index_class_bodies(program, ctx)
    for ctx in contexts:
        _collect_functions(program, ctx)
    return program


# ----------------------------------------------------------------------
# The solver
# ----------------------------------------------------------------------


def propagate(
    program: Program,
    seed: Dict[str, Iterable[Hashable]],
    *,
    down: bool,
    meet: bool = False,
    carried: Optional[Callable[[CallSite], Iterable[Hashable]]] = None,
    pinned: Iterable[str] = (),
) -> Dict[str, Set[Hashable]]:
    """Call-graph fixpoint over per-function sets of facts.

    Facts travel along resolved call edges, caller to callee when
    ``down`` and callee to caller otherwise; an edge delivers the
    source function's set plus whatever ``carried(site)`` adds.  A
    ``Thread(target=...)`` edge delivers the empty set: the child
    starts with none of the spawner's locks.

    With ``meet=False`` (may-analysis) every function starts at its
    seed and takes the union of what arrives — the least fixpoint.
    With ``meet=True`` (must-analysis) every function starts at its
    seed as *top* and keeps only what arrives on **every** edge — the
    greatest fixpoint; a function no edge reaches has nothing
    guaranteed and gets the empty set.  ``pinned`` functions never
    take anything from an edge (in a meet they hold the empty set):
    public functions are reachable from outside the analyzed tree.

    Functions are swept in sorted order and sites in source order
    until nothing changes.
    """
    order = sorted(program.functions)
    pinned = set(pinned)
    values: Dict[str, Set[Hashable]] = {
        func_id: set(seed.get(func_id, ())) for func_id in order
    }
    edges: List[Tuple[str, str, CallSite]] = []
    for caller in order:
        for site in program.functions[caller].calls:
            if site.callee in values:
                src, dst = (
                    (caller, site.callee) if down
                    else (site.callee, caller)
                )
                if dst not in pinned:
                    edges.append((src, dst, site))
    if meet:
        reached = {dst for _src, dst, _site in edges}
        for func_id in order:
            if func_id not in reached:
                values[func_id] = set()
    changed = True
    while changed:
        changed = False
        for src, dst, site in edges:
            arriving: Set[Hashable] = set()
            if not site.is_thread_target:
                arriving = values[src] | set(
                    carried(site) if carried is not None else ()
                )
            have = values[dst]
            if meet:
                if not have <= arriving:
                    have &= arriving
                    changed = True
            elif not arriving <= have:
                have |= arriving
                changed = True
    return values


# ----------------------------------------------------------------------
# The memo
# ----------------------------------------------------------------------

T = TypeVar("T")


class Analysis:
    """The program and every fact derived from one context set.

    :meth:`of` hands every caller with the same contexts the same
    object, and :meth:`fact` computes each derived fact (entry-held
    locks, resolved guards) the first time anyone asks.
    """

    _latest: Optional["Analysis"] = None

    def __init__(self, contexts: Sequence[ModuleContext]) -> None:
        self.contexts = tuple(contexts)
        self.program = build_program(contexts)
        self._facts: Dict[Callable, object] = {}

    @classmethod
    def of(cls, contexts: Sequence[ModuleContext]) -> "Analysis":
        latest = cls._latest
        # ModuleContext compares by identity, so equal tuples mean the
        # very same parsed modules.
        if latest is None or latest.contexts != tuple(contexts):
            latest = cls._latest = cls(contexts)
        return latest

    def fact(self, compute: Callable[["Analysis"], T]) -> T:
        if compute not in self._facts:
            self._facts[compute] = compute(self)
        return self._facts[compute]  # type: ignore[return-value]
