"""Runtime concurrency checker for the threaded serving path.

It checks three properties of the serving path's locks, each on the
accesses and acquisitions that actually happen.  The RPC server reaches
the ISP through ``getattr(self.isp, op)``, so no static edge leads from
``rpc.server`` to the locks below it; at runtime every such nesting is
observed directly.

* **Lock order.**  :class:`SanLock` is an instrumented mutex.  While the
  checker is armed it maintains a per-thread held-lock stack and a
  global lock-*order* graph over lock names (an edge ``A -> B`` whenever
  ``B`` is acquired with ``A`` held).  An acquisition that closes a
  cycle in the order graph is reported as a potential deadlock — with
  the stack of the current acquisition *and* the remembered stack of
  the reversed edge — without actually deadlocking the test.
  :func:`order_edges` reads the observed graph so a stress run can be
  compared with the order DESIGN §8 declares.
* **Blocking under a lock.**  While armed, ``time.sleep`` and
  ``os.fsync`` are wrapped: one called with a :class:`SanLock` held is
  reported, unless that lock names the call in ``may_block`` (the
  spindle lock's modeled sleep, the node store's group-commit fsyncs) —
  a blocked holder stalls every handler thread queued on its lock.
* **Guarded fields.**  A class declares which :class:`SanLock` guards
  each shared field with :func:`guarded_by`.  While armed, each declared
  field is a data descriptor on its class, and an access is reported
  (``unguarded-access``) when it comes from a frame whose ``self`` is
  not the instance, or when the calling thread does not hold the
  declared lock and the instance's own ``__init__`` is not on the
  stack.  A ``writes``-mode field is handed out through a forwarding
  view: reads pass, a mutation or an iteration is checked.

Everything is **zero-cost when disarmed**: a disarmed :class:`SanLock`
delegates straight to the underlying :class:`threading.Lock` after one
:data:`ACTIVE` check, and no guarded class carries a descriptor.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import SanitizerError

#: Fast-path flag read by :class:`SanLock` on every acquire/release.
#: True exactly while :func:`arm` is in effect.
ACTIVE = False

#: Frames kept per captured stack (innermost last, sanitizer frames
#: trimmed).  Stacks are captured only while armed and only at
#: bookkeeping points, never on the disarmed path.
STACK_DEPTH = 12

#: One internal mutex guards every checker structure.  It is a plain
#: ``threading.Lock`` (never a SanLock: the checker does not watch
#: itself) and is always the innermost lock — no checker code calls
#: out while holding it — so it can introduce no ordering cycle.
_state_lock = threading.Lock()


def _capture_stack() -> Tuple[str, ...]:
    """A compact, trimmed stack for reports (outermost first): the
    innermost :data:`STACK_DEPTH` frames outside this module, read off
    the frame chain without looking up source lines (an armed run
    captures one per acquisition)."""
    trimmed: List[str] = []
    frame = sys._getframe(1)
    while frame is not None and len(trimmed) < STACK_DEPTH:
        code = frame.f_code
        if code.co_filename != __file__:
            trimmed.append(
                f"{os.path.basename(code.co_filename)}:{frame.f_lineno} "
                f"in {code.co_name}"
            )
        frame = frame.f_back
    return tuple(reversed(trimmed))


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


class SanitizerReport:
    """One lock-order, blocking or guarded-field finding, with every
    involved stack."""

    KIND_LOCK_ORDER = "lock-order-inversion"
    KIND_BLOCKING = "blocking-under-lock"
    KIND_UNGUARDED = "unguarded-access"

    def __init__(self, kind: str, subject: str, detail: str,
                 stacks: List[Tuple[str, Tuple[str, ...]]]) -> None:
        self.kind = kind
        #: What the report is about: the ``A -> B -> A`` cycle, the
        #: ``sleep under A`` call, or the ``write to C.f in m`` access.
        self.subject = subject
        self.detail = detail
        #: ``(label, frames)`` pairs — every side of the conflict.
        self.stacks = stacks

    def render(self) -> str:
        lines = [f"[{self.kind}] {self.subject}: {self.detail}"]
        for label, frames in self.stacks:
            lines.append(f"  {label}:")
            lines.extend(f"    {frame}" for frame in frames)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SanitizerReport({self.kind!r}, {self.subject!r})"


_reports: List[SanitizerReport] = []
#: Dedup keys so one hot site does not flood the report list.
_reported_keys: Set[Tuple[str, str]] = set()


def _file(report: SanitizerReport) -> None:
    """Keep ``report`` unless one with its kind and subject is already
    kept (callers hold :data:`_state_lock`)."""
    key = (report.kind, report.subject)
    if key not in _reported_keys:
        _reported_keys.add(key)
        _reports.append(report)


def reports() -> List[SanitizerReport]:
    """Snapshot of every report accumulated since the last reset."""
    with _state_lock:
        return list(_reports)


def assert_clean() -> None:
    """Raise :class:`SanitizerError` rendering every report, if any."""
    pending = reports()
    if pending:
        rendered = "\n\n".join(r.render() for r in pending)
        raise SanitizerError(
            f"{len(pending)} sanitizer report(s):\n{rendered}"
        )


# ----------------------------------------------------------------------
# Per-thread held-lock stacks
# ----------------------------------------------------------------------

#: Thread ident -> acquisition-ordered stack of (SanLock, acquire-stack).
_held: Dict[int, List[Tuple["SanLock", Tuple[str, ...]]]] = {}


def _held_stack() -> List[Tuple["SanLock", Tuple[str, ...]]]:
    """The calling thread's held stack (callers hold _state_lock)."""
    return _held.setdefault(threading.get_ident(), [])


# ----------------------------------------------------------------------
# SanLock: the instrumented mutex
# ----------------------------------------------------------------------

#: Lock-order graph over lock *names*: edges[a] = {b: witness_stack}
#: meaning b was acquired while a was held.  Name-level (not instance-
#: level) so two store instances locked in opposite orders still count.
_order_edges: Dict[str, Dict[str, Tuple[str, ...]]] = {}


def _path_exists(src: str, dst: str) -> bool:
    """DFS reachability in the order graph (callers hold _state_lock)."""
    stack, seen = [src], set()
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(_order_edges.get(node, ()))
    return False


def _witness_path(src: str, dst: str) -> List[str]:
    """One concrete src -> ... -> dst path (callers hold _state_lock)."""
    stack: List[Tuple[str, List[str]]] = [(src, [src])]
    seen: Set[str] = set()
    while stack:
        node, path = stack.pop()
        if node == dst:
            return path
        if node in seen:
            continue
        seen.add(node)
        for succ in _order_edges.get(node, ()):
            stack.append((succ, path + [succ]))
    return [src, dst]  # pragma: no cover - only on racing graph edits


class SanLock:
    """A mutex that feeds the lock-order graph while armed.

    Disarmed, every entry point delegates to the wrapped
    ``threading.Lock`` / ``RLock`` after one :data:`ACTIVE` check.  The
    ``name`` identifies the lock *class* in reports and in the order
    graph (e.g. ``"isp.sessions"``); instances of the same name share
    ordering constraints.  ``may_block`` names the blocking calls
    (``"sleep"``, ``"fsync"``) its holder may make.
    """

    __slots__ = ("name", "_inner", "_reentrant", "_may_block")

    def __init__(self, name: str, reentrant: bool = False,
                 may_block: Tuple[str, ...] = ()) -> None:
        self.name = name
        self._reentrant = reentrant
        self._may_block = may_block
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def raw(self) -> Any:
        """The wrapped stdlib lock (benchmark baselines swap this in)."""
        return self._inner

    # -- armed bookkeeping --------------------------------------------

    def _note_acquired(self) -> None:
        stack = _capture_stack()
        with _state_lock:
            held = _held_stack()
            held_names = [lock.name for lock, _ in held]
            if not (self._reentrant and self.name in held_names):
                for prior, prior_stack in held:
                    if prior.name == self.name:
                        continue
                    self._note_order_edge(
                        prior.name, prior_stack, stack
                    )
            held.append((self, stack))

    def _note_order_edge(
        self,
        held_name: str,
        held_stack: Tuple[str, ...],
        acquire_stack: Tuple[str, ...],
    ) -> None:
        """Insert edge held_name -> self.name; report a closed cycle.

        Callers hold :data:`_state_lock`.
        """
        successors = _order_edges.setdefault(held_name, {})
        is_new = self.name not in successors
        if is_new:
            successors[self.name] = acquire_stack
        if is_new and _path_exists(self.name, held_name):
            cycle = _witness_path(self.name, held_name) + [self.name]
            reverse_witness = _order_edges.get(self.name, {}).get(
                cycle[1], ()
            )
            report = SanitizerReport(
                SanitizerReport.KIND_LOCK_ORDER,
                " -> ".join(cycle),
                f"lock {self.name!r} acquired while {held_name!r} is "
                "held, but the opposite order also occurs",
                [
                    (f"acquiring {self.name!r} with {held_name!r} held",
                     acquire_stack),
                    (f"{held_name!r} acquisition", held_stack),
                    (f"earlier {cycle[1]!r} after {self.name!r}",
                     tuple(reverse_witness)),
                ],
            )
            _file(report)

    def _note_released(self) -> None:
        with _state_lock:
            held = _held_stack()
            for index in range(len(held) - 1, -1, -1):
                if held[index][0] is self:
                    del held[index]
                    break

    # -- lock protocol -------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired and ACTIVE:
            self._note_acquired()
        return acquired

    def release(self) -> None:
        if ACTIVE:
            self._note_released()
        self._inner.release()

    def __enter__(self) -> "SanLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SanLock({self.name!r})"


def held_locks() -> List[str]:
    """Names of SanLocks the calling thread holds (armed only)."""
    with _state_lock:
        return [lock.name for lock, _ in _held_stack()]


def _note_blocking(kind: str) -> None:
    """Report a ``kind`` call made with a lock held that does not allow
    it (one report per call kind and lock)."""
    with _state_lock:
        held = [
            lock.name for lock, _ in _held.get(threading.get_ident(), ())
            if kind not in lock._may_block
        ]
    if not held:
        return
    report = SanitizerReport(
        SanitizerReport.KIND_BLOCKING,
        f"{kind} under {held[-1]}",
        f"{kind} called while holding {', '.join(map(repr, held))}; "
        "every thread queued on the lock waits it out",
        [(f"{kind} call", _capture_stack())],
    )
    with _state_lock:
        _file(report)


def _watching(kind: str, call: Callable[..., Any]) -> Callable[..., Any]:
    def blocking(*args: Any, **kwargs: Any) -> Any:
        if ACTIVE:
            _note_blocking(kind)
        return call(*args, **kwargs)

    blocking.unwatched = call  # type: ignore[attr-defined]
    return blocking


#: The blocking calls watched while armed: kind -> (module, attribute).
_BLOCKING_CALLS = {"sleep": (time, "sleep"), "fsync": (os, "fsync")}


def _watch_blocking(on: bool) -> None:
    for kind, (module, attr) in _BLOCKING_CALLS.items():
        current = getattr(module, attr)
        unwatched = getattr(current, "unwatched", current)
        setattr(module, attr, _watching(kind, unwatched) if on else unwatched)


def order_edges() -> Set[Tuple[str, str]]:
    """Every ``(held, acquired)`` name pair observed since the last reset."""
    with _state_lock:
        return {
            (held, acquired)
            for held, successors in _order_edges.items()
            for acquired in successors
        }


# ----------------------------------------------------------------------
# Guarded fields
# ----------------------------------------------------------------------

#: Method names whose call mutates the receiver collection in place.
_MUTATORS = frozenset({
    "append", "add", "insert", "extend", "update", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
})
#: Method names whose call iterates the receiver collection.
_ITERATORS = frozenset({"items", "values", "keys", "copy"})

_READ, _WRITE, _ITERATE = "read of", "write to", "iteration over"


def _holds(lock: "SanLock") -> bool:
    """Whether the calling thread holds ``lock`` (armed only)."""
    with _state_lock:
        return any(held is lock
                   for held, _ in _held.get(threading.get_ident(), ()))


def _constructing(obj: object, frame: Any) -> bool:
    """Whether ``obj``'s own ``__init__`` is on the stack from ``frame``
    outwards: nothing else can see the instance yet."""
    while frame is not None:
        if (frame.f_code.co_name == "__init__"
                and frame.f_locals.get("self") is obj):
            return True
        frame = frame.f_back
    return False


class _Guard:
    """The data descriptor :func:`arm` puts on one declared field."""

    __slots__ = ("owner", "name", "lock", "writes")

    def __init__(self, owner: type, name: str, lock: str,
                 writes: bool) -> None:
        self.owner = owner
        self.name = name
        #: The attribute that holds the guarding :class:`SanLock`.
        self.lock = lock
        self.writes = writes

    def check(self, obj: object, kind: str, frame: Any) -> None:
        """Report ``kind`` of this field of ``obj``, made by ``frame``,
        unless that frame is one of ``obj``'s methods and holds the lock
        or runs under ``obj``'s ``__init__``."""
        if not ACTIVE:
            return
        lock = getattr(obj, self.lock, None)
        if not isinstance(lock, SanLock):
            raise SanitizerError(
                f"{self.owner.__name__}.{self.name} is declared guarded by "
                f"{self.lock!r}, which is {type(lock).__name__}, not a "
                "SanLock"
            )
        field = f"{self.owner.__name__}.{self.name}"
        if frame.f_locals.get("self") is not obj:
            problem = "from a frame whose self is another object"
        elif _holds(lock) or _constructing(obj, frame):
            return
        else:
            problem = f"without {lock.name!r} held"
        report = SanitizerReport(
            SanitizerReport.KIND_UNGUARDED,
            f"{kind} {field} in {frame.f_code.co_name}",
            f"{kind} {field} {problem}; it is guarded by {lock.name!r}",
            [(f"{kind} {field}", _capture_stack())],
        )
        with _state_lock:
            _file(report)

    def __get__(self, obj: object, owner: Optional[type] = None) -> Any:
        if obj is None:
            return self
        try:
            value = obj.__dict__[self.name]
        except KeyError:
            raise AttributeError(self.name) from None
        if self.writes:
            return _WritesView(self, obj, value)
        self.check(obj, _READ, sys._getframe(1))
        return value

    def __set__(self, obj: object, value: Any) -> None:
        self.check(obj, _WRITE, sys._getframe(1))
        obj.__dict__[self.name] = value

    def __delete__(self, obj: object) -> None:
        self.check(obj, _WRITE, sys._getframe(1))
        del obj.__dict__[self.name]


class _WritesView:
    """A ``writes``-mode collection as the armed descriptor hands it out.

    Reads are forwarded unchecked; a mutation or an iteration is checked
    first (an iteration a writer interleaves with raises "changed size
    during iteration").  The field still holds the one collection, so
    an alias of it sees every change."""

    __slots__ = ("_guard", "_obj", "_value")

    def __init__(self, guard: _Guard, obj: object, value: Any) -> None:
        self._guard = guard
        self._obj = obj
        self._value = value

    def __getattr__(self, name: str) -> Any:
        kind = (_WRITE if name in _MUTATORS
                else _ITERATE if name in _ITERATORS else None)
        if kind is not None:
            self._guard.check(self._obj, kind, sys._getframe(1))
        return getattr(self._value, name)

    def __iter__(self) -> Any:
        self._guard.check(self._obj, _ITERATE, sys._getframe(1))
        return iter(self._value)

    def __setitem__(self, key: Any, value: Any) -> None:
        self._guard.check(self._obj, _WRITE, sys._getframe(1))
        self._value[key] = value

    def __delitem__(self, key: Any) -> None:
        self._guard.check(self._obj, _WRITE, sys._getframe(1))
        del self._value[key]

    def __getitem__(self, key: Any) -> Any:
        return self._value[key]

    def __contains__(self, key: Any) -> bool:
        return key in self._value

    def __len__(self) -> int:
        return len(self._value)


#: Every class :func:`guarded_by` declared -> its fields' descriptors.
GUARDED: Dict[type, Dict[str, _Guard]] = {}


def guarded_by(**fields: Any) -> Callable[[type], type]:
    """Declare the :class:`SanLock` that guards each shared field.

    Each keyword names a field and the attribute holding its lock:
    ``@guarded_by(_pending="_admission_lock")``.  ``("_lock", "writes")``
    exempts reads, for deliberately lock-free lookups in a collection
    that only mutation and iteration must lock.  The decorator only
    records the declaration; :func:`arm` puts the checking descriptors
    on the class and :func:`disarm` takes them off.
    """
    def declare(cls: type) -> type:
        guards = {}
        for name, spec in fields.items():
            lock, mode = (spec, "all") if isinstance(spec, str) else spec
            if mode not in ("all", "writes"):
                raise ValueError(
                    f"guarded_by mode {mode!r} for {name!r} is unknown; "
                    "expected 'writes' or a lock name alone"
                )
            if name in vars(cls):
                raise ValueError(
                    f"{cls.__name__}.{name} is a class attribute; a "
                    "guarded field lives on the instance"
                )
            guards[name] = _Guard(cls, name, lock, mode == "writes")
        GUARDED[cls] = guards
        if ACTIVE:  # declared by a module imported mid-run
            _watch_fields(True)
        return cls
    return declare


def _watch_fields(on: bool) -> None:
    for guards in GUARDED.values():
        for name, guard in guards.items():
            if on:
                setattr(guard.owner, name, guard)
            elif vars(guard.owner).get(name) is guard:
                delattr(guard.owner, name)


# ----------------------------------------------------------------------
# Arming
# ----------------------------------------------------------------------


def arm() -> None:
    """Start watching.  State from a previous run is cleared."""
    global ACTIVE
    reset()
    _watch_blocking(True)
    _watch_fields(True)
    ACTIVE = True


def disarm() -> None:
    """Stop watching.  Accumulated reports and edges stay readable."""
    global ACTIVE
    ACTIVE = False
    _watch_blocking(False)
    _watch_fields(False)


def reset() -> None:
    """Disarm and drop every report, held stack, and order edge."""
    disarm()
    with _state_lock:
        _reports.clear()
        _reported_keys.clear()
        _held.clear()
        _order_edges.clear()
