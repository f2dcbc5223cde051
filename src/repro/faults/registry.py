"""Process-wide failpoint registry.

A *failpoint* is a named hook compiled into a production code path
(``faults.fire("pager.write_page.pre")``) that does nothing until a test
or an operator **arms** it with a trigger policy and an action.  The
design goals, in order:

1. **Zero cost when disabled.**  Instrumented sites guard every hook
   behind the module-level :data:`ACTIVE` flag — one attribute read on
   the hot path, no function call, no dictionary lookup.
2. **Deterministic.**  Probabilistic triggers draw from one seeded RNG
   owned by the registry, so a fault schedule replays exactly from its
   seed (the CLI's ``--fault-schedule``/``--fault-seed``).
3. **Typed failure modes.**  An armed failpoint either raises
   :class:`InjectedFault` (an operational error the code under test must
   handle or surface), raises :class:`SimulatedCrash` (a process death:
   deliberately *not* a :class:`~repro.errors.ReproError`, so blanket
   ``except Exception`` recovery code cannot swallow it), corrupts bytes
   flowing through :func:`mangle`, or runs an arbitrary callable (used
   by the RPC layer for wire-level behaviours like frame truncation).

Trigger policies compose: ``after`` skips the first N hits, ``every``
fires each Nth remaining hit, ``probability`` gates each candidate hit
through the seeded RNG, and ``times`` bounds the total number of fires.

Schedules are plain strings so they can ride in a CLI flag
(``serve``/``fleet --fault-schedule``)::

    store.append.mid=crash@p:0.001;rpc.server.drop=raise@p:0.08

Entry grammar: ``name=action[@term,term...]`` joined by ``;`` where
``action`` is one of ``raise`` / ``crash`` / ``corrupt`` / ``count``
and each term is ``p:<float>``, ``times:<int>``, ``every:<int>`` or
``after:<int>`` (see :func:`parse_schedule`).
"""

from __future__ import annotations

import logging
import random
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.faults.catalog import is_declared, suggest

logger = logging.getLogger("repro.faults")

#: Fast-path flag read by instrumented call sites (``if faults.ACTIVE:``).
#: True exactly while at least one failpoint is armed and not suspended.
ACTIVE = False


class InjectedFault(ReproError):
    """An operational failure injected by an armed failpoint.

    Subclasses :class:`~repro.errors.ReproError`, so the production
    error handling (RPC error frames, transactional rollback, client
    retries) treats it exactly like the real failure it stands in for.
    """

    def __init__(self, failpoint: str, message: str = "") -> None:
        self.failpoint = failpoint
        super().__init__(
            message or f"injected fault at failpoint {failpoint!r}"
        )


class SimulatedCrash(BaseException):
    """A simulated hard crash (power loss / SIGKILL) at a failpoint.

    Inherits :class:`BaseException` — like ``KeyboardInterrupt`` — so no
    ``except Exception`` recovery path can absorb it: the "process" is
    dead, and only a test that models the reboot (the fault machine in
    ``tests/test_stateful.py``) may catch it.  Durability is then judged by what an un-fsynced file model
    preserves: see :class:`repro.faults.shadowfs.ShadowFilesystem` and
    :meth:`repro.merkle.persistent_store.PersistentNodeStore.simulate_crash`.
    """

    def __init__(self, failpoint: str) -> None:
        self.failpoint = failpoint
        super().__init__(f"simulated crash at failpoint {failpoint!r}")


#: Builtin action names accepted by :meth:`FailpointRegistry.arm`.
ACTION_RAISE = "raise"
ACTION_CRASH = "crash"
ACTION_CORRUPT = "corrupt"
ACTION_COUNT = "count"

_BUILTIN_ACTIONS = (ACTION_RAISE, ACTION_CRASH, ACTION_CORRUPT, ACTION_COUNT)


class Failpoint:
    """One armed failpoint: a trigger policy plus an action."""

    def __init__(
        self,
        name: str,
        action: "str | Callable[[Dict[str, Any]], Any]",
        *,
        times: Optional[int] = None,
        every: Optional[int] = None,
        probability: Optional[float] = None,
        after: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if isinstance(action, str) and action not in _BUILTIN_ACTIONS:
            raise ValueError(
                f"unknown failpoint action {action!r}; expected one of "
                f"{_BUILTIN_ACTIONS} or a callable"
            )
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if every is not None and every < 1:
            raise ValueError("every must be >= 1")
        self.name = name
        self.action = action
        self.times = times
        self.every = every
        self.probability = probability
        self.after = after
        self._rng = rng if rng is not None else random.Random()
        #: How many times the instrumented site was reached while armed.
        self.hits = 0
        #: How many times the action actually ran.
        self.fires = 0

    def should_fire(self) -> bool:
        """Advance the hit counter and decide whether the action runs."""
        self.hits += 1
        if self.times is not None and self.fires >= self.times:
            return False
        eligible = self.hits - self.after
        if eligible < 1:
            return False
        if self.every is not None and eligible % self.every != 0:
            return False
        if (
            self.probability is not None
            and self._rng.random() >= self.probability
        ):
            return False
        self.fires += 1
        return True

    def run(self, ctx: Dict[str, Any]) -> Any:
        """Execute the action (the trigger already said yes)."""
        logger.debug("failpoint %s fired (fire #%d)", self.name, self.fires)
        if callable(self.action):
            return self.action(ctx)
        if self.action == ACTION_RAISE:
            raise InjectedFault(self.name)
        if self.action == ACTION_CRASH:
            raise SimulatedCrash(self.name)
        if self.action == ACTION_CORRUPT:
            data = ctx.get("data")
            if not isinstance(data, (bytes, bytearray)) or not data:
                raise InjectedFault(
                    self.name,
                    f"corrupt action at {self.name!r} received no bytes",
                )
            corrupted = bytearray(data)
            offset = self._rng.randrange(len(corrupted))
            flip = 1 + self._rng.randrange(255)  # never a no-op flip
            corrupted[offset] ^= flip
            return bytes(corrupted)
        return None  # ACTION_COUNT: observe only

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Failpoint({self.name!r}, action={self.action!r}, "
            f"hits={self.hits}, fires={self.fires})"
        )


class FailpointRegistry:
    """The process-wide collection of armed failpoints."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._points: Dict[str, Failpoint] = {}
        self._suspended = 0
        self.rng = random.Random()

    # -- arming ----------------------------------------------------------

    def seed(self, seed: int) -> None:
        """Reseed the shared RNG (probabilistic triggers, corruption)."""
        self.rng.seed(seed)

    def arm(
        self,
        name: str,
        action: "str | Callable[[Dict[str, Any]], Any]" = ACTION_RAISE,
        *,
        times: Optional[int] = None,
        every: Optional[int] = None,
        probability: Optional[float] = None,
        after: int = 0,
    ) -> Failpoint:
        """Arm (or re-arm) the failpoint ``name``; returns its handle.

        ``name`` must be declared in :data:`repro.faults.FAILPOINTS` —
        arming an undeclared (typo'd) name would build a fault schedule
        that silently targets nothing, so it is rejected here instead of
        discovered never.
        """
        if not is_declared(name):
            hint = suggest(name)
            raise ValueError(
                f"failpoint {name!r} is not declared in the "
                "repro.faults.FAILPOINTS catalog"
                + (f"; did you mean {', '.join(map(repr, hint))}?"
                   if hint else "")
            )
        point = Failpoint(
            name, action, times=times, every=every,
            probability=probability, after=after, rng=self.rng,
        )
        with self._lock:
            self._points[name] = point
            self._refresh_active_locked()
        logger.info("armed failpoint %s (%s)", name, action)
        return point

    def disarm(self, name: str) -> None:
        with self._lock:
            self._points.pop(name, None)
            self._refresh_active_locked()

    def reset(self) -> None:
        """Disarm everything and clear any suspension."""
        with self._lock:
            self._points.clear()
            self._suspended = 0
            self._refresh_active_locked()

    def stats(self) -> Dict[str, Failpoint]:
        """Snapshot of armed failpoints by name (live handles)."""
        with self._lock:
            return dict(self._points)

    # -- suspension ------------------------------------------------------

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Temporarily disable every failpoint (re-entrant).

        Fault tests use this around *trusted-party* work (chain
        generation, the CI's maintenance run, oracle queries) so faults
        land only on the storage/ISP/RPC paths under test.
        """
        with self._lock:
            self._suspended += 1
            self._refresh_active_locked()
        try:
            yield
        finally:
            with self._lock:
                self._suspended -= 1
                self._refresh_active_locked()

    def _refresh_active_locked(self) -> None:
        global ACTIVE
        ACTIVE = bool(self._points) and self._suspended == 0

    # -- firing ----------------------------------------------------------

    def fire(self, name: str, ctx: Dict[str, Any]) -> Any:
        with self._lock:
            point = self._points.get(name)
            if point is None or self._suspended:
                return None
            fire_now = point.should_fire()
        if not fire_now:
            return None
        ctx.setdefault("name", name)
        return point.run(ctx)

    def mangle(self, name: str, data: bytes) -> bytes:
        """Pass ``data`` through the failpoint; corrupting actions may
        return a modified copy, every other action behaves as in
        :meth:`fire` (raising or observing)."""
        result = self.fire(name, {"data": data})
        if isinstance(result, (bytes, bytearray)):
            return bytes(result)
        return data


#: The process-wide registry used by every instrumented call site.
_REGISTRY = FailpointRegistry()


def seed(value: int) -> None:
    _REGISTRY.seed(value)


def arm(name: str, action="raise", **policy) -> Failpoint:
    return _REGISTRY.arm(name, action, **policy)


def disarm(name: str) -> None:
    _REGISTRY.disarm(name)


def reset() -> None:
    _REGISTRY.reset()


def suspended():
    return _REGISTRY.suspended()


def stats() -> Dict[str, Failpoint]:
    return _REGISTRY.stats()


def fire(name: str, **ctx: Any) -> Any:
    """Trigger the named failpoint, if armed.

    Call sites guard this behind ``if faults.ACTIVE:`` so the disabled
    path costs a single module-attribute read.
    """
    if not ACTIVE:
        return None
    return _REGISTRY.fire(name, ctx)


def mangle(name: str, data: bytes) -> bytes:
    """Route bytes through the named failpoint (corruption hook)."""
    if not ACTIVE:
        return data
    return _REGISTRY.mangle(name, data)


#: Schedule term -> (``arm`` keyword, value type).
_TERMS = {"p": ("probability", float), "times": ("times", int),
          "every": ("every", int), "after": ("after", int)}


def parse_schedule(text: str) -> List[Tuple[str, str, Dict[str, Any]]]:
    """Parse a schedule string into ``(name, action, policy)`` triples."""
    entries: List[Tuple[str, str, Dict[str, Any]]] = []
    for chunk in filter(None, (part.strip() for part in text.split(";"))):
        name, sep, spec = chunk.partition("=")
        if not sep:
            raise ValueError(
                f"bad schedule entry {chunk!r}: expected name=action[@terms]"
            )
        action, _, terms = spec.partition("@")
        policy: Dict[str, Any] = {}
        for term in filter(None, (part.strip() for part in terms.split(","))):
            key, sep, value = term.partition(":")
            if not sep or key not in _TERMS:
                raise ValueError(
                    f"bad schedule term {term!r} in {chunk!r}: expected "
                    "p, times, every or after, then :value"
                )
            keyword, kind = _TERMS[key]
            policy[keyword] = kind(value)
        entries.append((name.strip(), action.strip(), policy))
    return entries


def apply_schedule(text: str) -> List[str]:
    """Arm every entry of ``text``; returns the armed failpoint names."""
    armed = []
    for name, action, policy in parse_schedule(text):
        arm(name, action, **policy)
        armed.append(name)
    return armed
