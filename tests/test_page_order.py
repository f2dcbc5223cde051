"""The page-access pattern, pinned in order.

The count files (Figs. 8, 10, 11, 15, 16) pin how many pages a query
reads, not which ones in which order; a change that reorders reads can
leave every count equal and still move what an LRU cache keeps, and so
what a cached client asks the ISP for.  This pin records, per query of a
small seeded system: a digest of the rows, the sha256 of the ordered
``(kind, path, page_id)`` list of requests the ISP served,
``client.page.requests``, ``pager.read_page`` and ``client.vo.bytes`` —
in ``BASELINE`` and in ``INTER_VBF`` with a cache small enough to
evict.  The fixture was written once by this module's ``__main__``
block and is never rewritten by the test::

    PYTHONPATH=src python -m tests.test_page_order --write

A deliberate change to the pattern (a new page format, a planner that
reads differently) rewrites it with that command and says why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.isp.server import IspServer
from repro.obs import REGISTRY
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.queries import QUERY_TEMPLATES

FIXTURE = Path(__file__).resolve().parent / "page_order.json"

#: An evicting cache: a few dozen pages of a database of hundreds.
SMALL_CACHE = 32 * 1024
MODES = (("baseline", QueryMode.BASELINE, 1 << 30),
         ("inter+vbf", QueryMode.INTER_VBF, SMALL_CACHE))

#: Shapes no figure query has, each rendered over one window.
SHAPES = (
    # A bare LIMIT over an index scan, and over an IndexJoin.
    "SELECT hash, value FROM eth_transactions "
    "WHERE block_time BETWEEN {t0} AND {t1} LIMIT 3",
    "SELECT hash FROM eth_transactions "
    "WHERE block_time BETWEEN {t0} AND {t1} LIMIT 0",
    "SELECT x.symbol, t.gas_price FROM eth_token_transfers x "
    "JOIN eth_transactions t ON x.tx_hash = t.hash "
    "WHERE x.block_time BETWEEN {t0} AND {t1} LIMIT 4",
    # IN (subquery) with no join.
    "SELECT hash, value FROM eth_transactions "
    "WHERE block_time BETWEEN {t0} AND {t1} AND from_address IN "
    "(SELECT from_address FROM eth_token_transfers "
    "WHERE block_time BETWEEN {t0} AND {t1})",
    # A scalar subquery.
    "SELECT tx_id, fee FROM btc_transactions "
    "WHERE block_time BETWEEN {t0} AND {t1} AND fee > "
    "(SELECT AVG(fee) FROM btc_transactions "
    "WHERE block_time BETWEEN {t0} AND {t1}) ORDER BY fee DESC, tx_id",
    # A self-join: the inner probes share the outer scan's trees.
    "SELECT a.hash, b.hash FROM eth_transactions a "
    "JOIN eth_transactions b ON a.to_address = b.from_address "
    "WHERE a.block_time BETWEEN {t0} AND {t1}",
    # LEFT JOINs, materialized and probing an index.
    "SELECT b.height, t.tx_id FROM btc_blocks b "
    "LEFT JOIN btc_transactions t ON b.height = t.block_height "
    "WHERE b.block_time BETWEEN {t0} AND {t1}",
    "SELECT t.hash, l.topic FROM eth_transactions t "
    "LEFT JOIN eth_logs l ON t.hash = l.tx_hash "
    "WHERE t.block_time BETWEEN {t0} AND {t1}",
)


def build():
    """The system and its queries: Q1-Q8 twice at two windows, then
    the shapes."""
    system = V2FSSystem(SystemConfig(seed=5, txs_per_block=4))
    system.advance_all(8)
    generator = WorkloadGenerator(
        system.universe, system.config.start_time, system.latest_time
    )
    queries = [
        sql
        for hours in (3, 6)
        for name in sorted(QUERY_TEMPLATES)
        for sql in generator.workload(name, hours, count=2).queries
    ]
    rng = random.Random(5)
    for shape in SHAPES:
        t0, t1 = generator._window(rng, 4 * 3600)
        queries.append(shape.format(t0=t0, t1=t1))
    return system, queries


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def profile(system, queries, mode, cache_bytes, monkeypatch):
    """Per query: what it returned, what the ISP served, in order, and
    what it counted."""
    served = []
    real_get, real_validate = IspServer.get_page, IspServer.validate_path

    def get_page(isp, session_id, path, page_id):
        served.append(("page", path, page_id))
        return real_get(isp, session_id, path, page_id)

    def validate_path(isp, session_id, path, page_id, digs_path):
        served.append(("check", path, page_id))
        return real_validate(isp, session_id, path, page_id, digs_path)

    monkeypatch.setattr(IspServer, "get_page", get_page)
    monkeypatch.setattr(IspServer, "validate_path", validate_path)
    client = system.make_client(mode, cache_bytes)
    rows = []
    before = REGISTRY.counters_snapshot()
    for sql in queries:
        served.clear()
        counted = REGISTRY.counters_snapshot()
        result = client.query(sql)
        reads = REGISTRY.counters_delta(counted).get("pager.read_page", 0)
        rows.append({
            "rows": digest(result.rows),
            "served": digest(served),
            "requests": result.stats.page_requests,
            "reads": reads,
            "vo_bytes": result.stats.vo_bytes,
        })
    monkeypatch.undo()
    return rows, REGISTRY.counters_delta(before)


@pytest.fixture(scope="module")
def pinned():
    system, queries = build()
    return system, queries, json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name,mode,cache_bytes", MODES,
                         ids=[name for name, *_ in MODES])
def test_each_query_reads_the_pinned_pages_in_order(
    pinned, name, mode, cache_bytes, monkeypatch
):
    system, queries, fixture = pinned
    assert fixture["queries"] == queries
    rows, counters = profile(system, queries, mode, cache_bytes, monkeypatch)
    if mode is QueryMode.INTER_VBF:
        # The precondition: the cache evicts, so read order matters.
        assert counters.get("cache.inter.evict", 0) > 0
    assert len(fixture[name]) == len(rows)
    for sql, expected, got in zip(queries, fixture[name], rows):
        assert got == expected, sql


def record() -> None:
    """Write the fixture from the code as it stands."""
    system, queries = build()
    fixture = {"queries": queries}
    patch = pytest.MonkeyPatch()
    for name, mode, cache_bytes in MODES:
        fixture[name], _ = profile(system, queries, mode, cache_bytes, patch)
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_page_order --write")
    record()
