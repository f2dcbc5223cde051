"""A verifying client parses and plans each SELECT once per SQL text and
catalog, and binds every execution afresh (DESIGN §4k).

A statement is kept from its second compile on.  A kept statement
holds no engine and nothing one execution read: every execution of it
reads the pages, and only the pages, a statement compiled for that
execution reads.  A statement whose planning read data is compiled again
at every execution.
"""

from __future__ import annotations

import pytest
from tests.adversary import MOVES, LyingIsp
from tests.test_page_order import MODES, build, digest

from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.db import engine as engine_module
from repro.db.engine import STATEMENT_CACHE_SIZE, Engine, StatementCache
from repro.errors import ReproError
from repro.isp.server import IspServer
from repro.obs import REGISTRY
from repro.vfs.local import LocalFilesystem

#: Shapes whose planning reads data, so they are never kept.
PLANNING_READS = {
    # The scalar subquery is folded into the index bound on block_time.
    "folded": "SELECT COUNT(*), SUM(gas_used) FROM eth_transactions "
              "WHERE block_time >= "
              "(SELECT MAX(block_time) FROM eth_transactions)",
    # The FROM-subquery is materialized while planning.
    "materialized": "SELECT COUNT(*), SUM(g) FROM "
                    "(SELECT gas_used AS g FROM eth_transactions) s",
}
#: Shapes kept, whose subqueries and probes run at every execution.
KEPT = {
    "in-subquery": "SELECT COUNT(*) FROM eth_token_transfers "
                   "WHERE tx_hash IN (SELECT hash FROM eth_transactions)",
    "scalar": "SELECT COUNT(*), (SELECT COUNT(*) FROM eth_transactions) "
              "FROM eth_blocks",
    "probe": "SELECT COUNT(*), SUM(x.value), SUM(t.gas_price) "
             "FROM eth_token_transfers x JOIN eth_transactions t "
             "ON x.tx_hash = t.hash",
}


def build_system(hours=2):
    system = V2FSSystem(SystemConfig(txs_per_block=4))
    system.advance_all(hours)
    return system


def oracle(system, sql):
    return system.plain_replica().execute(sql).rows


def counted(client, sql):
    """``client``'s rows for ``sql``, and the statement counters it
    moved."""
    before = REGISTRY.counters_snapshot()
    rows = client.query(sql).rows
    delta = REGISTRY.counters_delta(before)
    return rows, {name: delta.get(f"db.statement.{name}", 0)
                  for name in ("hit", "miss", "unkept")}


@pytest.fixture(scope="module")
def two_hours():
    return build_system()


class TestCompiledOnce:
    def test_a_warm_query_neither_parses_nor_plans(
        self, two_hours, monkeypatch
    ):
        calls = []
        for name in ("parse_statement", "plan_select"):
            real = getattr(engine_module, name)
            monkeypatch.setattr(
                engine_module, name,
                lambda *args, real=real, name=name: (
                    calls.append(name) or real(*args)))
        client = two_hours.make_client()
        for sql in KEPT.values():
            cold = [client.query(sql).rows for _ in range(2)]
            assert calls.count("parse_statement") == 2
            assert calls.count("plan_select") >= 2
            del calls[:]
            assert client.query(sql).rows == cold[0] == cold[1]
            assert calls == []

    def test_planning_that_reads_data_compiles_every_time(self, two_hours):
        client = two_hours.make_client()
        for sql in PLANNING_READS.values():
            for _ in range(2):
                assert counted(client, sql)[1] == {
                    "hit": 0, "miss": 1, "unkept": 1}
        assert len(client.state.statements) == 0

    def test_the_plain_engine_keeps_nothing(self, two_hours):
        replica = two_hours.plain_replica()
        assert replica._statements is None
        before = REGISTRY.counters_snapshot()
        replica.execute(KEPT["scalar"])
        assert "db.statement.miss" not in REGISTRY.counters_delta(before)

    def test_a_key_is_kept_from_its_second_compile(self):
        cache = StatementCache()
        cache.keep(("a", None), "first")
        assert cache.get(("a", None)) is None and len(cache) == 1
        cache.keep(("a", None), "second")
        assert cache.get(("a", None)) == "second"

    def test_the_cache_drops_the_least_recently_used(self):
        cache = StatementCache()
        for n in range(STATEMENT_CACHE_SIZE):
            cache.keep((n, None), n)
            cache.keep((n, None), n)
        assert cache.get((0, None)) == 0  # now the most recent
        cache.keep(("new", None), "new")
        assert len(cache) == STATEMENT_CACHE_SIZE
        cache.keep((1, None), 1)  # evicted: seen again for the first time
        assert cache.get((1, None)) is None
        assert cache.get((0, None)) == 0

    def test_explain_goes_through_the_same_compile(self, monkeypatch):
        engine = Engine(LocalFilesystem(), statements=StatementCache())
        engine.execute("CREATE TABLE t (a INTEGER)")
        plans = []
        real = engine_module.plan_select
        monkeypatch.setattr(engine_module, "plan_select",
                            lambda *args: plans.append(1) or real(*args))
        for _ in range(2):
            assert engine.explain("SELECT a FROM t") == (
                "Project\n  Scan(seq t)")
        assert engine.execute("SELECT a FROM t").rows == []
        assert len(plans) == 2


@pytest.mark.parametrize("shape", sorted({**PLANNING_READS, **KEPT}))
def test_a_block_later_the_answer_is_fresh(shape):
    """The same statement, a block apart: what the first execution read
    is not what the second answers from."""
    system = build_system()
    sql = {**PLANNING_READS, **KEPT}[shape]
    client = system.make_client()
    before = client.query(sql).rows
    assert client.query(sql).rows == before == oracle(system, sql)
    system.advance_block("eth")
    after, moved = counted(client, sql)
    assert after == oracle(system, sql)
    assert after != before  # the block changed the answer
    assert moved["hit"] == (shape in KEPT)


def test_a_kept_statement_reads_every_page_again(two_hours):
    """With no cache and no block, every execution of a kept statement
    reads the pages and asks the ISP for the pages the first one did:
    no subquery result and no probed row outlives its execution."""
    client = two_hours.make_client(QueryMode.BASELINE)
    for sql in KEPT.values():
        runs = []
        for _ in range(4):
            before = REGISTRY.counters_snapshot()
            result = client.query(sql)
            delta = REGISTRY.counters_delta(before)
            runs.append((tuple(result.rows), result.stats.page_requests,
                         delta.get("pager.read_page", 0),
                         delta.get("db.statement.hit", 0)))
        assert [run[3] for run in runs] == [0, 0, 1, 1]
        assert len({run[:3] for run in runs}) == 1, sql


def test_a_failed_query_drops_every_kept_statement():
    system = build_system()
    isp = LyingIsp.install(system)
    client = system.make_client(QueryMode.BASELINE)  # reads the catalog
    for _ in range(2):
        client.query(KEPT["scalar"])
    assert client.state.statements.get(
        (KEPT["scalar"], client.state.catalog.value)) is not None
    isp.arm(MOVES["swapped-catalog"])
    with pytest.raises(ReproError):
        client.query(KEPT["probe"])
    isp.disarm()
    assert len(client.state.statements) == 0


@pytest.fixture(scope="module")
def page_order_system():
    return build()


@pytest.mark.parametrize("name,mode,cache_bytes", MODES,
                         ids=[name for name, *_ in MODES])
def test_kept_statements_read_what_compiled_ones_read(
    page_order_system, name, mode, cache_bytes, monkeypatch
):
    """The page-order queries on two clients in step: one keeps its
    statements, the other compiles every query afresh.  Per query they
    return the same rows, are served the same requests in the same
    order, and count the same requests, pager reads and VO bytes —
    when the statements are compiled (twice: once seen, once kept),
    when the keeping client runs them kept, and again after a block."""
    system, queries = page_order_system
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
    keeping = system.make_client(mode, cache_bytes)
    compiling = system.make_client(mode, cache_bytes)

    def profile(client, sql):
        served.clear()
        before = REGISTRY.counters_snapshot()
        result = client.query(sql)
        delta = REGISTRY.counters_delta(before)
        return {
            "rows": digest(result.rows),
            "served": digest(served),
            "requests": result.stats.page_requests,
            "reads": delta.get("pager.read_page", 0),
            "vo_bytes": result.stats.vo_bytes,
        }, delta.get("db.statement.hit", 0)

    hits = []
    for run in ("seen", "kept", "again", "a block later"):
        if run == "a block later":
            system.advance_block("eth")
        for sql in queries:
            kept, hit = profile(keeping, sql)
            compiling.state.statements.clear()
            assert kept == profile(compiling, sql)[0], (run, sql)
            hits.append(hit)
    # Every query is a hit on its last two runs, but the one whose
    # planning runs its scalar subquery.
    assert sum(hits) == 2 * (len(queries) - 1)
