"""The one recipe every workload shares: system build, query rendering,
and the correctness oracle.

All four workloads run against ``SystemConfig(seed=SEED,
txs_per_block=6)`` advanced ``HOURS`` blocks per chain.  Queries are
rendered here, from the benchmark's own ``random.Random(SEED)``, with
the same Zipf-recency window rule as ``WorkloadGenerator._window`` —
``WorkloadGenerator.workload()`` itself is never called, because its
RNG seed mixes in ``hash(str)`` and so changes with every interpreter
start (see README "Known determinism bugs").  The program under test
only ever receives SQL text.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.system import SystemConfig, V2FSSystem
from repro.workloads.generator import RECENCY_EXPONENT
from repro.workloads.queries import QUERY_TEMPLATES
from speed import ScaledStopwatch, SpeedMeter

#: Blocks per chain (one block per simulated hour).
HOURS = 30
#: ``--smoke`` history: the workloads' windows clip to it.
SMOKE_HOURS = 6
TXS_PER_BLOCK = 6

ALL_QUERY_TYPES: Tuple[str, ...] = tuple(sorted(QUERY_TEMPLATES))


def build_system(
    seed: int, hours: int = HOURS,
    stopwatch: Optional[ScaledStopwatch] = None,
) -> V2FSSystem:
    """``advance_all(hours)``, one stopwatch segment per block so the
    set-up time can be scaled to the reference speed (see speed.py)."""
    stopwatch = stopwatch or ScaledStopwatch(SpeedMeter())
    with stopwatch:
        system = V2FSSystem(
            SystemConfig(seed=seed, txs_per_block=TXS_PER_BLOCK)
        )
    for _ in range(hours):
        for chain_id in sorted(system.generators):
            with stopwatch:
                system.advance_block(chain_id)
    return system


def page_population(system: V2FSSystem) -> List[Tuple[str, int]]:
    """Every (path, page_id) under the ISP's current root, sorted."""
    ads, root = system.isp.ads, system.isp.root
    return [
        (path, page_id)
        for path in sorted(ads.list_files(root))
        for page_id in range(ads.file_node(root, path).page_count)
    ]


def _window(
    rng: random.Random, data_start: int, data_end: int, window_s: int
) -> Tuple[int, int]:
    """``WorkloadGenerator._window``: Zipfian-recent end point."""
    span = data_end - data_start
    window_s = min(window_s, span)
    back = int((rng.random() ** RECENCY_EXPONENT) * max(1, span - window_s))
    end = data_end - back
    return end - window_s, end


def render_queries(
    system: V2FSSystem,
    rng: random.Random,
    query_types: Sequence[str],
    per_type: int,
    window_hours: float,
) -> List[str]:
    """``per_type`` instances of each type, shuffled, as SQL text."""
    data_start = system.config.start_time
    data_end = system.latest_time
    window_s = int(window_hours * 3600)
    queries = []
    for query_type in query_types:
        template = QUERY_TEMPLATES[query_type]
        for _ in range(per_type):
            t0, t1 = _window(rng, data_start, data_end, window_s)
            queries.append(template.render(t0, t1, rng, system.universe))
    rng.shuffle(queries)
    return queries


class Oracle:
    """Expected rows for each query at one certificate version.

    The reference is the same SQL on ``system.plain_replica()`` — the
    same engine with no verification and no network — taken at the
    certificate version the verified query will run against.  Built and
    consulted outside the timed region.
    """

    def __init__(self, system: V2FSSystem) -> None:
        self._system = system
        self._replica = system.plain_replica()
        self._version = system.isp.certificate.version
        self._rows: Dict[str, list] = {}
        #: Wall time of each reference execution (the engine-only floor
        #: reported as ``db.plain_query_p50_ms``).
        self.plain_times_s: List[float] = []

    def refresh(self) -> None:
        """Re-take the replica after an ``advance_block``."""
        version = self._system.isp.certificate.version
        if version != self._version:
            self._replica = self._system.plain_replica()
            self._version = version
            self._rows.clear()

    def expected(self, sql: str) -> list:
        rows = self._rows.get(sql)
        if rows is None:
            started = time.perf_counter()
            rows = self._replica.execute(sql).rows
            self.plain_times_s.append(time.perf_counter() - started)
            self._rows[sql] = rows
        return rows

    def matches(self, sql: str, rows: list) -> bool:
        return rows == self.expected(sql)
