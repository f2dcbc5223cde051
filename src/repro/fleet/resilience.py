"""Fleet resilience policies: endpoint config, hedging, deadline split.

This module is the fleet's *degraded-modes* policy box — the knobs and
mechanisms the router uses to keep serving when parts of the fleet are
slow, dead, or partitioned:

* :class:`ResilienceConfig` — the three failure-behavior values
  callers actually vary (hop timeout, hedging on/off, hedge floor) and
  the router's default handle factory; the retry, breaker and
  retry-budget policy of those handles is fixed beside it.
* :class:`HedgePolicy` — an adaptive hedging trigger: it tracks a
  sliding window of observed page-read latencies and fires a *hedge*
  (a duplicate read to another endpoint) only when the primary has
  been slower than the observed p99 — so hedges are rare (~1% of
  reads) in a healthy fleet but fire quickly when a shard browns out.
  The router spends it on a *tied request*: the primary read is capped
  at the adaptive delay via the deadline machinery and the hedge is
  issued inline on expiry (see
  :meth:`~repro.fleet.router.FleetIsp.get_page`).  Safe for V²FS reads
  by construction: both answers come from sessions pinned to the same
  certified version, and the client verifies whichever VO set arrives,
  so a hedging mistake can only cost bytes, never correctness.
* :func:`split_deadline` — deadline algebra for sequential fan-out:
  hand each of ``n`` remaining shards an equal slice of the remaining
  budget so one slow shard cannot starve the rest of the fan-out.

Everything here fails typed (:mod:`repro.errors`) and within the
caller's deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.rpc.client import RemoteIsp
from repro.rpc.deadline import Deadline, RetryBudget


#: Policy of every router-to-shard endpoint handle (see
#: :class:`~repro.rpc.client.RemoteIsp` for each one's meaning).  No
#: deployment, test or benchmark ever set them apart from these values,
#: so they are not options.  ``_LABEL`` is the netsplit identity: the
#: router sits on its own side of simulated partitions.
_MAX_RETRIES = 2
_BACKOFF_S = 0.05
_MAX_BACKOFF_S = 1.0
_BREAKER_THRESHOLD = 4
_BREAKER_COOLDOWN_S = 0.25
_LABEL = "router"
#: One token bucket across every handle a config builds: caps the
#: *whole router's* retry rate during a fleet-wide brownout, not just
#: one endpoint's.
_RETRY_BUDGET_CAPACITY = 32.0
_RETRY_BUDGET_REFILL_PER_S = 8.0

#: The latency percentile a hedge waits out, and how many new
#: observations pass before it is re-derived (sorting the window on
#: every read would cost more than the read's own bookkeeping).
_HEDGE_QUANTILE = 0.99
_HEDGE_RECOMPUTE_EVERY = 16


@dataclass
class ResilienceConfig:
    """Failure-behavior knobs for one fleet's router-to-shard plane."""

    #: Per-attempt socket timeout for router-to-shard hops.  Tighter
    #: than a WAN client's: shards are co-located and a dead one
    #: should surface quickly.
    timeout_s: float = 5.0
    #: Hedged reads: duplicate a slow page read to another endpoint of
    #: the same shard after an adaptive delay.
    hedge_enabled: bool = True
    #: Floor under the adaptive hedge delay — never hedge faster than
    #: this even when observed latencies are tiny, or a healthy fleet
    #: would double its read traffic on noise.
    hedge_floor_s: float = 0.010

    _shared_budget: Optional[RetryBudget] = field(
        default=None, repr=False, compare=False
    )

    def retry_budget(self) -> RetryBudget:
        """The config's process-wide shared retry bucket (lazy)."""
        if self._shared_budget is None:
            self._shared_budget = RetryBudget(
                capacity=_RETRY_BUDGET_CAPACITY,
                refill_per_s=_RETRY_BUDGET_REFILL_PER_S,
            )
        return self._shared_budget

    def make_handle(self, endpoint: Tuple[str, int]) -> RemoteIsp:
        """Build one endpoint proxy carrying this config's policies."""
        return RemoteIsp(
            endpoint[0],
            endpoint[1],
            timeout_s=self.timeout_s,
            max_retries=_MAX_RETRIES,
            backoff_s=_BACKOFF_S,
            max_backoff_s=_MAX_BACKOFF_S,
            breaker_threshold=_BREAKER_THRESHOLD,
            breaker_cooldown_s=_BREAKER_COOLDOWN_S,
            label=_LABEL,
            retry_budget=self.retry_budget(),
        )


class HedgePolicy:
    """Adaptive hedge trigger from a sliding latency window.

    Not thread-synchronized: it is only ever touched from the router
    handler thread serving one request at a time per session, and the
    worst a racy append can do is perturb the percentile estimate by
    one sample — the delay is a heuristic, not a correctness input.
    """

    def __init__(
        self,
        floor_s: float = 0.010,
        window: int = 128,
        min_samples: int = 16,
        fallback_delay_s: float = 1.0,
    ) -> None:
        self.floor_s = floor_s
        #: Sliding-window size for the latency percentile estimate.
        self.window = window
        #: Minimum observations before trusting the percentile (until
        #: then, hedge at ``fallback_delay_s`` — effectively only for
        #: pathological slowness).
        self.min_samples = min_samples
        self.fallback_delay_s = fallback_delay_s
        self._samples: List[float] = []
        self._next = 0
        self._cached_delay: Optional[float] = None
        self._since_compute = 0

    def observe(self, latency_s: float) -> None:
        """Record one completed primary read's latency (ring buffer)."""
        if len(self._samples) < self.window:
            self._samples.append(latency_s)
        else:
            self._samples[self._next] = latency_s
            self._next = (self._next + 1) % self.window
        self._since_compute += 1

    def delay_s(self) -> float:
        """How long to wait for the primary before hedging."""
        if len(self._samples) < self.min_samples:
            return max(self.floor_s, self.fallback_delay_s)
        if (
            self._cached_delay is None
            or self._since_compute >= _HEDGE_RECOMPUTE_EVERY
        ):
            ordered = sorted(self._samples)
            index = min(
                len(ordered) - 1, int(len(ordered) * _HEDGE_QUANTILE)
            )
            self._cached_delay = max(self.floor_s, ordered[index])
            self._since_compute = 0
        return self._cached_delay


def split_deadline(
    deadline: Optional[Deadline], parts: int
) -> Optional[Deadline]:
    """An equal slice of the remaining budget for one of ``parts``
    sequential sub-calls (``None`` passes through unconstrained)."""
    if deadline is None:
        return None
    return Deadline.after(deadline.remaining() / max(1, parts))


__all__ = [
    "HedgePolicy",
    "ResilienceConfig",
    "split_deadline",
]
