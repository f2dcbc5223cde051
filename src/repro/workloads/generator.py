"""Workload generation (Section VII-A of the paper).

For each query type, a workload of ``queries_per_workload`` (default 20)
random instances is generated; the Mixed workload draws five instances of
each of the eight types (40 total).  Window *lengths* come from the
experiment parameter (3-48 simulated hours); window *positions* follow a
Zipfian recency distribution — recent data is queried most, which is the
real-world pattern that makes inter-query caching effective.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import List, Optional

from repro.chain.datagen import Universe
from repro.workloads.queries import QUERY_TEMPLATES

#: Zipf exponent for window recency.
RECENCY_EXPONENT = 1.2


@dataclass
class Workload:
    """A named list of SQL statements."""

    name: str
    queries: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.queries)


class WorkloadGenerator:
    """Seeded factory for the nine evaluation workloads."""

    def __init__(
        self,
        universe: Universe,
        data_start: int,
        data_end: int,
        seed: int = 99,
        queries_per_workload: int = 20,
    ) -> None:
        if data_end <= data_start:
            raise ValueError("empty data time range")
        self.universe = universe
        self.data_start = data_start
        self.data_end = data_end
        self.seed = seed
        self.queries_per_workload = queries_per_workload

    def _window(
        self, rng: random.Random, window_s: int
    ) -> "tuple[int, int]":
        """A window of ``window_s`` seconds, Zipfian-recent end point."""
        span = self.data_end - self.data_start
        window_s = min(window_s, span)
        # Zipf-ish offset back from the freshest data.
        u = rng.random()
        back = int((u ** RECENCY_EXPONENT) * max(1, span - window_s))
        end = self.data_end - back
        return end - window_s, end

    def workload(
        self,
        query_type: str,
        window_hours: float,
        count: Optional[int] = None,
    ) -> Workload:
        """Generate one workload of a single query type."""
        template = QUERY_TEMPLATES[query_type]
        count = count if count is not None else self.queries_per_workload
        # crc32 of the label, not hash(): the rendered queries must not
        # depend on the process's string-hash seed.
        rng = random.Random(
            (self.seed << 8)
            ^ zlib.crc32(f"{query_type}|{window_hours!r}".encode()) & 0xFF
        )
        window_s = int(window_hours * 3600)
        queries = []
        for _ in range(count):
            t0, t1 = self._window(rng, window_s)
            queries.append(template.render(t0, t1, rng, self.universe))
        return Workload(name=query_type, queries=queries)

    def mixed(
        self, window_hours: float, per_type: int = 5
    ) -> Workload:
        """The Mixed workload: ``per_type`` instances of each type."""
        rng = random.Random((self.seed << 8) ^ 0xA5)
        window_s = int(window_hours * 3600)
        queries = []
        for query_type in sorted(QUERY_TEMPLATES):
            template = QUERY_TEMPLATES[query_type]
            for _ in range(per_type):
                t0, t1 = self._window(rng, window_s)
                queries.append(
                    template.render(t0, t1, rng, self.universe)
                )
        rng.shuffle(queries)
        return Workload(name="Mixed", queries=queries)
