"""Runtime lock checker for the threaded serving path.

The static ``guarded-by`` rule (:mod:`repro.analysis.concurrency`)
proves which lock protects each annotated shared field; this module
watches what the static call graph cannot see: the order in which the
serving path *actually* takes its locks, and whether a lock holder
blocks.  The RPC server reaches the ISP through
``getattr(self.isp, op)``, so no static edge leads from ``rpc.server``
to the locks below it; at runtime every such nesting is observed
directly.

:class:`SanLock` is an instrumented mutex.  While the checker is armed
it maintains a per-thread held-lock stack and a global lock-*order*
graph over lock names (an edge ``A -> B`` whenever ``B`` is acquired
with ``A`` held).  An acquisition that closes a cycle in the order
graph is reported as a potential deadlock — with the stack of the
current acquisition *and* the remembered stack of the reversed edge —
without actually deadlocking the test.  :func:`order_edges` reads the
observed graph so a stress run can be compared with the order DESIGN
§8 declares.  While armed, ``time.sleep`` and ``os.fsync`` are wrapped
too: one called with a :class:`SanLock` held is reported, unless that
lock names the call in ``may_block`` (the spindle lock's modeled sleep,
the node store's group-commit fsyncs) — a blocked holder stalls every
handler thread queued on its lock.

Everything is **zero-cost when disarmed**: a disarmed :class:`SanLock`
delegates straight to the underlying :class:`threading.Lock` after one
:data:`ACTIVE` check.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Set, Tuple

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
    """One lock-order or blocking finding, with every involved stack."""

    KIND_LOCK_ORDER = "lock-order-inversion"
    KIND_BLOCKING = "blocking-under-lock"

    def __init__(self, kind: str, subject: str, detail: str,
                 stacks: List[Tuple[str, Tuple[str, ...]]]) -> None:
        self.kind = kind
        #: What the report is about: the ``A -> B -> A`` cycle, or the
        #: ``sleep under A`` call.
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
            key = (report.kind, report.subject)
            if key not in _reported_keys:
                _reported_keys.add(key)
                _reports.append(report)

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
        key = (report.kind, report.subject)
        if key not in _reported_keys:
            _reported_keys.add(key)
            _reports.append(report)


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
# Arming
# ----------------------------------------------------------------------


def arm() -> None:
    """Start watching.  State from a previous run is cleared."""
    global ACTIVE
    reset()
    _watch_blocking(True)
    ACTIVE = True


def disarm() -> None:
    """Stop watching.  Accumulated reports and edges stay readable."""
    global ACTIVE
    ACTIVE = False
    _watch_blocking(False)


def reset() -> None:
    """Disarm and drop every report, held stack, and order edge."""
    disarm()
    with _state_lock:
        _reports.clear()
        _reported_keys.clear()
        _held.clear()
        _order_edges.clear()
