"""Key-space partitioning and the versioned shard map.

A partitioner deterministically assigns every partition *key* to
exactly one shard.  Ownership is decided per **page**, not per file:
the key for a page's content is :func:`page_key`, which appends the
page id to the path behind a ``\\x00`` separator.  Only page *content*
is partitioned — every shard folds the full digest skeleton — so the
granularity of the key decides load spread, nothing else.  Two
strategies:

* **hash** — uniform assignment by the first eight bytes of the key's
  digest, modulo the shard count.  Because the key is page-granular,
  one huge table file spreads across the whole fleet instead of
  pinning its shard (a path-granular hash caps speedup at the largest
  file's share of the read load).
* **range** — contiguous lexicographic ranges split at explicit
  boundary paths (``bounds[i]`` is the first key of shard ``i+1``).
  Page keys sort immediately after their path (``\\x00`` precedes
  every printable byte), so a file's pages stay together on one shard
  except at a ``\\x00``-nudged bound — locality at the cost of
  planning the split (:func:`plan_range_split`).

The :class:`ShardMap` is the versioned description of the whole fleet:
strategy, boundary paths, and every shard's endpoints (primary plus
read replicas).  It is the router's own routing state, built by the
lifecycle in the same process, and nothing about it is trusted: routing
a query to the wrong shard yields a typed error or a proof that fails
client verification — never wrong data.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.crypto.hashing import hash_bytes
from repro.errors import FleetError

STRATEGY_HASH = "hash"
STRATEGY_RANGE = "range"

#: An endpoint is a (host, port) pair.
Endpoint = Tuple[str, int]


def page_key(path: str, page_id: int) -> str:
    """The partition key for one page's *content*.

    ``\\x00`` cannot appear in a path, so page keys never collide with
    paths or with another file's keys, and they sort as a contiguous
    run right after the path itself — hash partitioning spreads a
    file's pages uniformly while range partitioning keeps them with
    their file.
    """
    return f"{path}\x00{page_id}"


class HashPartitioner:
    """Uniform assignment by key digest (strategy ``hash``)."""

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise FleetError("a fleet needs at least one shard")
        self.shard_count = shard_count

    def shard_for(self, key: str) -> int:
        digest = hash_bytes(key.encode("utf-8"))
        return int.from_bytes(digest[:8], "big") % self.shard_count


class RangePartitioner:
    """Contiguous lexicographic ranges (strategy ``range``).

    ``bounds`` holds ``shard_count - 1`` strictly increasing boundary
    paths; shard ``i`` owns paths in ``[bounds[i-1], bounds[i])`` with
    the outermost ranges open-ended.
    """

    def __init__(self, shard_count: int, bounds: Sequence[str]) -> None:
        if shard_count < 1:
            raise FleetError("a fleet needs at least one shard")
        if len(bounds) != shard_count - 1:
            raise FleetError(
                f"range partitioner over {shard_count} shards needs "
                f"{shard_count - 1} bounds, got {len(bounds)}"
            )
        if any(bounds[i] >= bounds[i + 1]
               for i in range(len(bounds) - 1)):
            raise FleetError("range bounds must be strictly increasing")
        self.shard_count = shard_count
        self.bounds = tuple(bounds)

    def shard_for(self, key: str) -> int:
        return bisect.bisect_right(self.bounds, key)


#: Either strategy, behaviorally: a ``shard_for(key) -> int`` over
#: paths and :func:`page_key` strings alike.
Partitioner = Callable[[str], int]


def plan_range_split(paths: Sequence[str], shard_count: int) -> Tuple[str, ...]:
    """Boundary paths that split ``paths`` into even contiguous runs.

    Planning input, not a trust anchor: a bad split only unbalances the
    fleet.  Duplicate boundaries from heavily skewed inputs are
    collapsed by nudging, so the result is always valid for
    :class:`RangePartitioner` — possibly leaving trailing shards
    empty when there are fewer distinct paths than shards.
    """
    if shard_count < 1:
        raise FleetError("a fleet needs at least one shard")
    distinct = sorted(set(paths))
    bounds: List[str] = []
    for i in range(1, shard_count):
        index = (i * len(distinct)) // shard_count
        candidate = distinct[index] if index < len(distinct) else None
        if candidate is None or (bounds and candidate <= bounds[-1]):
            # Skewed or exhausted input: nudge past the previous bound
            # to keep the sequence strictly increasing.
            candidate = (bounds[-1] if bounds else "") + "\x00"
        bounds.append(candidate)
    return tuple(bounds)


@dataclass(frozen=True)
class ShardDesc:
    """One shard's endpoints: the primary plus zero or more replicas."""

    shard_id: int
    primary: Endpoint
    replicas: Tuple[Endpoint, ...] = ()


@dataclass(frozen=True)
class ShardMap:
    """The versioned fleet description the router routes by."""

    version: int
    strategy: str
    shards: Tuple[ShardDesc, ...]
    bounds: Tuple[str, ...] = ()

    def partitioner(self) -> Partitioner:
        """The ``key -> shard_id`` function this map describes."""
        return make_partitioner(
            self.strategy, len(self.shards), self.bounds
        )


def make_partitioner(
    strategy: str, shard_count: int, bounds: Sequence[str] = ()
) -> Partitioner:
    """Build the ``key -> shard_id`` function for a strategy."""
    if strategy == STRATEGY_HASH:
        return HashPartitioner(shard_count).shard_for
    if strategy == STRATEGY_RANGE:
        return RangePartitioner(shard_count, bounds).shard_for
    raise FleetError(f"unknown partition strategy {strategy!r}")


__all__ = [
    "STRATEGY_HASH",
    "STRATEGY_RANGE",
    "Endpoint",
    "HashPartitioner",
    "RangePartitioner",
    "Partitioner",
    "ShardDesc",
    "ShardMap",
    "make_partitioner",
    "page_key",
    "plan_range_split",
]
