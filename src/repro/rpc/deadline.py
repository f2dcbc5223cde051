"""Deadline budgets and retry budgets for the RPC path.

The reliability primitives PR 6's fleet was missing compose here:

* :class:`Deadline` — an absolute point on the monotonic clock that a
  whole *call tree* spends from.  A client attaches one to a query;
  every retry, every backoff sleep, and every router fan-out hop
  deducts from the same remaining budget instead of stacking flat
  per-request timeouts (three shards x ``timeout_s`` x retries can
  otherwise exceed any end-to-end promise by an order of magnitude).
  The remaining budget travels on the wire as a relative
  millisecond count (see :func:`repro.rpc.codec.frame`), so no clock
  synchronization between peers is assumed.

* :class:`RetryBudget` — a token bucket that caps the *global* rate of
  retries an endpoint handle may issue.  Individual calls keep their
  documented ``max_retries`` contract; the budget only kicks in when
  many calls fail at once, which is exactly when per-call retries
  amplify a brownout into a retry storm.  Tokens refill continuously
  and successes deposit a small bonus, so a healthy endpoint is never
  throttled.

Everything here raises typed errors from :mod:`repro.errors`; a spent
deadline is :class:`~repro.errors.DeadlineExceededError`, never a hang
and never a silent truncation of work.
"""

from __future__ import annotations

import threading
import time

from repro.errors import DeadlineExceededError

#: Wire bound: deadlines are carried as u32 milliseconds.  Anything
#: longer is clamped — a budget of 49 days is "no deadline" in practice.
MAX_DEADLINE_MS = 0xFFFFFFFF


class Deadline:
    """An absolute monotonic-clock deadline that callees spend from."""

    __slots__ = ("_at",)

    def __init__(self, at: float) -> None:
        self._at = at

    @classmethod
    def after(cls, budget_s: float) -> "Deadline":
        """A deadline ``budget_s`` seconds from now."""
        return cls(time.monotonic() + budget_s)

    @classmethod
    def from_wire_ms(cls, budget_ms: int) -> "Deadline":
        """Rebase a relative wire budget onto the local clock."""
        return cls(time.monotonic() + budget_ms / 1000.0)

    def remaining(self) -> float:
        """Seconds left; never negative."""
        return max(0.0, self._at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self._at

    def check(self, context: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired:
            raise DeadlineExceededError(
                f"{context} deadline exceeded (budget exhausted)"
            )

    def cap(self, timeout_s: float) -> float:
        """A per-attempt timeout that cannot outlive the deadline.

        Returns ``min(timeout_s, remaining)`` floored at a millisecond
        so a nearly-spent budget still surfaces as a timeout, not a
        zero-second socket error.
        """
        return max(0.001, min(timeout_s, self.remaining()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


class RetryBudget:
    """A token bucket bounding how fast retries may be issued.

    ``capacity`` tokens are available at rest; each retry withdraws
    one; tokens refill at ``refill_per_s`` and every success deposits
    ``success_bonus`` (both capped at capacity).  ``spend`` is
    non-blocking: a denied withdrawal means the caller must give up
    with the error it already has rather than queue more load onto a
    failing endpoint.
    """

    def __init__(
        self,
        capacity: float = 10.0,
        refill_per_s: float = 2.0,
        success_bonus: float = 0.1,
    ) -> None:
        if capacity <= 0:
            raise ValueError("retry budget capacity must be positive")
        self.capacity = capacity
        self.refill_per_s = refill_per_s
        self.success_bonus = success_bonus
        self._lock = threading.Lock()
        self._tokens = capacity
        self._stamp = time.monotonic()

    def _refill(self) -> None:
        now = time.monotonic()
        self._tokens = min(
            self.capacity,
            self._tokens + (now - self._stamp) * self.refill_per_s,
        )
        self._stamp = now

    def spend(self) -> bool:
        """Withdraw one retry token; False when the budget is dry."""
        with self._lock:
            self._refill()
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    def deposit(self) -> None:
        """Record a success (small token bonus)."""
        with self._lock:
            self._refill()
            self._tokens = min(
                self.capacity, self._tokens + self.success_bonus
            )

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill()
            return self._tokens


__all__ = [
    "MAX_DEADLINE_MS",
    "Deadline",
    "RetryBudget",
]
