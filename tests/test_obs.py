"""Unit tests for the repro.obs metrics/tracing layer."""

import json

import pytest

from repro.obs import (
    REGISTRY,
    SCHEMA,
    SCOPES,
    MetricsRegistry,
    TraceBuffer,
    declare,
    is_declared,
    suggest,
    validate_payload,
)
from repro.obs import metrics as obs
from repro.obs.metrics import SIZE_BUCKETS, TIME_BUCKETS, Histogram


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True, trace_capacity=8)


class TestCatalog:
    def test_production_scopes_declared(self):
        assert is_declared("cache.inter.hit")
        assert is_declared("sgx.ocall")
        assert not is_declared("no.such.scope")

    def test_suggest_offers_near_misses(self):
        hints = suggest("cache.inter.hits")
        assert "cache.inter.hit" in hints

    def test_declare_adds_a_scope(self):
        declare("test.obs.catalog.extra", "throwaway test scope")
        assert is_declared("test.obs.catalog.extra")

    def test_every_scope_is_documented(self):
        for name, doc in SCOPES.items():
            assert doc.strip(), f"{name} lacks a docstring"


class TestRegistry:
    def test_undeclared_scope_rejected_with_hint(self, registry):
        with pytest.raises(ValueError, match="did you mean"):
            registry.inc("cache.inter.hits")

    def test_counter_inc_and_value(self, registry):
        registry.inc("cache.inter.hit")
        registry.inc("cache.inter.hit", 2)
        assert registry.value("cache.inter.hit") == 3

    def test_kind_conflict_raises(self, registry):
        registry.inc("cache.inter.hit")
        with pytest.raises(ValueError, match="already a counter"):
            registry.observe("cache.inter.hit", 1)

    def test_gauge_last_value_wins(self, registry):
        declare("test.obs.gauge", "throwaway")
        registry.set_gauge("test.obs.gauge", 5)
        registry.set_gauge("test.obs.gauge", 2)
        assert registry.value("test.obs.gauge") == 2

    def test_counters_delta_reports_only_changes(self, registry):
        registry.inc("cache.inter.hit")
        before = registry.counters_snapshot()
        registry.inc("cache.inter.miss", 4)
        delta = registry.counters_delta(before)
        assert delta == {"cache.inter.miss": 4}

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("cache.inter.hit")
        registry.observe("isp.vo.bytes", 100)
        registry.event("isp.sync_update", version=1)
        with registry.timed("client.query.latency_s"):
            pass
        payload = registry.payload()
        assert payload["counters"] == {}
        assert payload["histograms"] == {}
        assert len(registry.trace) == 0

    def test_disabled_timed_is_shared_noop(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.timed("client.query.latency_s") is \
            registry.timed("client.query.latency_s")

    def test_timed_records_a_sample(self, registry):
        with registry.timed("client.query.latency_s"):
            pass
        histogram = registry.histogram("client.query.latency_s")
        assert histogram.count == 1
        assert histogram.boundaries == TIME_BUCKETS

    def test_histogram_bucket_defaults_by_suffix(self, registry):
        assert registry.histogram("isp.vo.bytes").boundaries == SIZE_BUCKETS

    def test_reset_zeroes_everything(self, registry):
        registry.inc("cache.inter.hit")
        registry.event("isp.sync_update", version=1)
        registry.reset()
        assert registry.value("cache.inter.hit") == 0
        assert len(registry.trace) == 0
        assert registry.trace.emitted == 0


class TestHistogram:
    def test_bucket_placement(self):
        histogram = Histogram("isp.vo.bytes", boundaries=(10, 100))
        for value in (1, 10, 11, 100, 101):
            histogram.observe(value)
        assert histogram.buckets == [2, 2]
        assert histogram.overflow == 1
        assert histogram.count == 5
        assert histogram.total == 223

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError):
            Histogram("isp.vo.bytes", boundaries=(100, 10))


class TestTrace:
    def test_ring_discards_oldest(self):
        buffer = TraceBuffer(capacity=3)
        for i in range(5):
            buffer.emit(float(i), "isp.sync_update", {"version": i})
        assert buffer.emitted == 5
        assert len(buffer) == 3
        assert [f["version"] for _, _, f in buffer.events()] == [2, 3, 4]

    def test_jsonl_round_trips(self):
        buffer = TraceBuffer(capacity=4)
        buffer.emit(1.25, "isp.sync_update", {"version": 7, "files": 2})
        lines = buffer.to_jsonl().strip().splitlines()
        record = json.loads(lines[0])
        assert record == {
            "ts": 1.25, "scope": "isp.sync_update",
            "version": 7, "files": 2,
        }

    def test_event_validates_scope(self, registry):
        with pytest.raises(ValueError):
            registry.event("not.a.scope", x=1)


class TestFacade:
    def test_disable_enable_round_trip(self):
        before = REGISTRY.value("cache.inter.hit")
        obs.disable()
        try:
            assert not obs.ACTIVE
            obs.inc("cache.inter.hit")
            assert REGISTRY.value("cache.inter.hit") == before
        finally:
            obs.enable()
        assert obs.ACTIVE
        obs.inc("cache.inter.hit")
        assert REGISTRY.value("cache.inter.hit") == before + 1

    def test_add_is_inc(self):
        assert obs.add is obs.inc


class TestValidatePayload:
    def test_live_payload_validates(self, registry):
        registry.inc("cache.inter.hit")
        registry.observe("isp.vo.bytes", 500)
        assert validate_payload(registry.payload()) == []

    def test_schema_tag_checked(self, registry):
        payload = registry.payload()
        payload["schema"] = "bogus/v9"
        assert any("schema" in p for p in validate_payload(payload))
        assert SCHEMA == "repro.obs/v1"

    def test_undeclared_scope_flagged(self, registry):
        payload = registry.payload()
        payload["counters"]["made.up"] = 1
        assert any("made.up" in p for p in validate_payload(payload))

    def test_non_numeric_counter_flagged(self, registry):
        payload = registry.payload()
        payload["counters"]["cache.inter.hit"] = "many"
        assert any("not numeric" in p for p in validate_payload(payload))

    def test_histogram_bucket_sum_checked(self, registry):
        registry.observe("isp.vo.bytes", 500)
        payload = registry.payload()
        payload["histograms"]["isp.vo.bytes"]["count"] = 9
        assert any("bucket sum" in p for p in validate_payload(payload))

    def test_non_object_payload(self):
        assert validate_payload([1, 2]) != []


class TestCounterUnderThreads:
    def test_concurrent_increments_are_all_counted(self, registry):
        import sys
        import threading

        counter = registry.counter("cache.inter.hit")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # preempt between bytecodes, often
        try:
            threads = [
                threading.Thread(
                    target=lambda: [counter.inc() for _ in range(20_000)]
                )
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert counter.value == 80_000

    def test_a_failed_add_releases_the_lock(self, registry):
        counter = registry.counter("cache.inter.hit")
        with pytest.raises(TypeError):
            counter.inc("one")
        counter.inc()  # would deadlock had the lock stayed held
        assert counter.value == 1


class TestTalliedSites:
    """The three per-page sites of a query's read path count into a
    plain int on their single-threaded owner and reach the registry in
    one add when the owner is done; the totals must stay exact."""

    def test_pager_and_file_reads_are_reported_on_close(self):
        from repro.db.pager import Pager
        from repro.vfs.local import LocalFilesystem

        fs = LocalFilesystem()
        pager = Pager(fs, "/t", create=True)
        pid = pager.allocate_page()
        pager.write_page(pid, b"x")
        pager.close()

        before = REGISTRY.counters_snapshot()
        pager = Pager(fs, "/t")  # reads the header page through the file
        for _ in range(3):
            pager.read_page(pid)
        pager.close()
        delta = REGISTRY.counters_delta(before)
        assert delta["pager.read_page"] == 3
        assert delta["vfs.read_page"] == 4
        assert delta["pager.flush"] == 1

        before = REGISTRY.counters_snapshot()
        Pager(fs, "/t").close()  # nothing read: nothing to report
        assert "pager.read_page" not in REGISTRY.counters_delta(before)

    def test_flush_reports_a_long_lived_pagers_reads(self):
        from repro.db.pager import Pager
        from repro.vfs.local import LocalFilesystem

        pager = Pager(LocalFilesystem(), "/t", create=True)
        pid = pager.allocate_page()
        pager.write_page(pid, b"x")
        before = REGISTRY.counters_snapshot()
        pager.read_page(pid)
        pager.flush()
        pager.flush()
        delta = REGISTRY.counters_delta(before)
        assert delta["pager.read_page"] == 1  # once, not once per flush

    @staticmethod
    def indexed_engine(rows):
        from repro.db.engine import Engine
        from repro.vfs.local import LocalFilesystem

        engine = Engine(LocalFilesystem())
        engine.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        engine.execute("CREATE INDEX t_a ON t (a)")
        engine.insert_rows("t", [[i % 7, i] for i in range(rows)])
        return engine

    def test_a_statements_pagers_report_together(self, monkeypatch):
        """A statement opens each file once and its pagers share one
        tally: one registry call per name, and the totals are what the
        pagers would have reported one by one."""
        engine = self.indexed_engine(300)
        calls = []
        real_add = obs.add
        monkeypatch.setattr(
            obs, "add",
            lambda name, value=1: (calls.append(name), real_add(name, value)),
        )
        before = REGISTRY.counters_snapshot()
        join = "SELECT COUNT(*) FROM t x JOIN t y ON x.a = y.a WHERE x.b < 3"
        assert engine.execute(join).scalar() > 0
        delta = REGISTRY.counters_delta(before)
        # The table and its index, however often the join visits them:
        # one pager each, closed (so flushed) once.
        assert delta["pager.flush"] == delta["db.pager.opened"] == 2
        assert (delta["db.node.memo.hit"] + delta["db.node.memo.miss"]
                == delta["pager.read_page"])
        # Every data page and every pager's header page crossed the VFS.
        assert (delta["vfs.read_page"]
                == delta["pager.read_page"] + delta["pager.flush"])
        for name in ("pager.flush", "pager.read_page", "vfs.read_page",
                     "db.pager.opened", "db.cursor.held",
                     "db.cursor.held.internal"):
            assert calls.count(name) == 1

    def test_a_held_seek_saves_exactly_one_descent(self, monkeypatch):
        """A held seek skips the descent down to the node it starts at:
        with both trees two levels deep, one that starts at a held leaf
        (``db.cursor.held``) reads root and leaf fewer, and one that
        starts at the held root (``db.cursor.held.internal``) reads the
        root fewer, than the same statement with nothing ever held."""
        from repro.db.btree import BTree, InternalNode

        engine = self.indexed_engine(1500)
        with engine._statement():
            for path in list(engine.vfs.list_files()):
                if path.endswith((".tbl", ".idx")):
                    pager, tree = engine._pager(path)
                    root = tree._view(pager.root_pid)
                    assert isinstance(root, InternalNode)
                    assert not isinstance(
                        tree._view(root.children[0]), InternalNode)
        join = "SELECT COUNT(*) FROM t x JOIN t y ON x.a = y.a WHERE x.b < 3"

        def run():
            before = REGISTRY.counters_snapshot()
            count = engine.execute(join).scalar()
            return count, REGISTRY.counters_delta(before)

        count, held = run()
        assert held["db.cursor.held"] > 0
        assert held["db.cursor.held.internal"] > 0
        monkeypatch.setattr(  # a tree that cannot keep a path
            BTree, "_path",
            property(lambda tree: [], lambda tree, path: None),
            raising=False,
        )
        same_count, descending = run()
        assert same_count == count
        assert "db.cursor.held" not in descending
        assert "db.cursor.held.internal" not in descending
        assert (descending["pager.read_page"] - held["pager.read_page"]
                == 2 * held["db.cursor.held"]
                + held["db.cursor.held.internal"])

    def test_fetch_path_counts_partition_the_page_requests(self):
        """What a session paid for once and what it probed, client side
        and ISP side, reported once per query."""
        from repro.client.vfs import QueryMode
        from repro.core.system import SystemConfig, V2FSSystem

        system = V2FSSystem(SystemConfig(txs_per_block=4))
        system.advance_all(3)
        client = system.make_client(QueryMode.BASELINE)
        vo_pages = REGISTRY.histogram("isp.vo.pages")
        before = REGISTRY.counters_snapshot()
        pages_before = vo_pages.snapshot()["total"]
        client.query("SELECT COUNT(*) FROM eth_transactions")
        client.query("SELECT COUNT(*), SUM(fee) FROM btc_transactions")
        delta = REGISTRY.counters_delta(before)
        hashed = delta["client.page.hashed"]
        repeated = delta["client.page.repeated"]
        assert hashed + repeated == delta["client.page.requests"]
        assert hashed > 0 and repeated > 0
        assert delta["isp.get_page"] == delta["client.page.requests"]
        assert (delta["isp.page.resolved"] == hashed
                == vo_pages.snapshot()["total"] - pages_before)

    #: One row per entry whose lookups are counted: ``(mode, answered,
    #: derived, lookups)``.  Every lookup is answered by the entry or
    #: derives its value again, and a workload that repeats its queries
    #: has some answered.
    COUNTED_ENTRIES = {
        # Carried: the certificate signature last proven, probed once
        # per validation, of a fetched or a held certificate: once per
        # query that succeeds.
        "signature": ("INTER_VBF", "client.cert.memo.hit",
                      "client.cert.memo.miss", "client.query.count"),
        # Carried: the node memo, on every read-path node load.
        "nodes": ("INTER_VBF", "db.node.memo.hit", "db.node.memo.miss",
                  "pager.read_page"),
        # Per session: the first response for each page key is hashed,
        # every later one compared to it.
        "served_pages": ("BASELINE", "client.page.repeated",
                         "client.page.hashed", "client.page.requests"),
    }

    @pytest.mark.parametrize("entry", sorted(COUNTED_ENTRIES))
    def test_each_lookup_is_answered_or_derived(self, entry):
        from repro.client.vfs import QueryMode
        from repro.core.system import SystemConfig, V2FSSystem

        mode, answered, derived, lookups = self.COUNTED_ENTRIES[entry]
        system = V2FSSystem(SystemConfig(txs_per_block=4))
        system.advance_all(3)
        client = system.make_client(QueryMode[mode])
        before = REGISTRY.counters_snapshot()
        for _ in range(2):
            client.query("SELECT COUNT(*) FROM eth_transactions")
            client.query("SELECT COUNT(*), SUM(fee) FROM btc_transactions")
        delta = REGISTRY.counters_delta(before)
        hits, misses = delta.get(answered, 0), delta.get(derived, 0)
        assert hits > 0, f"no lookup of {entry} was answered"
        assert hits + misses == delta[lookups], f"a lookup bypassed {entry}"

    def test_a_repeated_baseline_query_decodes_no_row(self):
        """The second run of a query reads every page the first read
        (``BASELINE`` keeps none of them) and decodes none of its rows:
        each is copied from the slot the first run filled."""
        from repro.client.vfs import QueryMode
        from repro.core.system import SystemConfig, V2FSSystem

        system = V2FSSystem(SystemConfig(txs_per_block=4))
        system.advance_all(3)
        client = system.make_client(QueryMode.BASELINE)
        sql = ("SELECT COUNT(*), SUM(t.gas_price) FROM eth_transactions t "
               "JOIN eth_token_transfers x ON x.tx_hash = t.hash "
               "WHERE t.block_time > 0")

        def run():
            before = REGISTRY.counters_snapshot()
            rows = client.query(sql).rows
            return rows, REGISTRY.counters_delta(before)

        rows, first = run()
        again, second = run()
        assert again == rows
        assert first["db.row.decoded"] > 0
        assert "db.row.decoded" not in second
        assert second["pager.read_page"] == first["pager.read_page"]

    def test_cache_lookups_in_a_query_are_reported_at_its_end(self):
        from repro.client.caches import InterQueryCache

        cache = InterQueryCache()
        cache.insert(("/f", 0), b"a", 1)
        before = REGISTRY.counters_snapshot()
        cache.begin_query()
        for _ in range(5):
            cache.get(("/f", 0))
        cache.get(("/f", 9))
        cache.end_query()
        cache.end_query()  # idempotent
        delta = REGISTRY.counters_delta(before)
        assert delta["cache.inter.hit"] == 5
        assert delta["cache.inter.miss"] == 1
        # Outside a query every lookup reports at once.
        cache.get(("/f", 0))
        assert REGISTRY.counters_delta(before)["cache.inter.hit"] == 6

    def test_a_failed_query_still_reports_its_lookups(self):
        from repro.client.vfs import QueryMode
        from repro.core.system import SystemConfig, V2FSSystem
        from repro.errors import ReproError

        system = V2FSSystem(SystemConfig(txs_per_block=2))
        system.advance_all(1)
        client = system.make_client(QueryMode.INTER)
        before = REGISTRY.counters_snapshot()
        with pytest.raises(ReproError):
            client.query("SELECT COUNT(*) FROM no_such_table")
        delta = REGISTRY.counters_delta(before)
        lookups = delta.get("cache.inter.hit", 0) + delta["cache.inter.miss"]
        assert lookups > 0
        # Reported with the failed query, not carried into the next one.
        assert (client.state.pages._hits, client.state.pages._misses) == (0, 0)

    @pytest.mark.parametrize("mode_name", ["INTRA", "INTER", "INTER_VBF"])
    def test_meta_requests_and_proven_partition_the_files_looked_up(
        self, mode_name, monkeypatch
    ):
        """Each file a (finalized) session looks up is either asked of
        the ISP or taken from what earlier sessions proved under the
        same root: ``client.meta.requests + client.meta.proven`` is the
        number of distinct (session, path) lookups, whatever the mode
        and across a certificate change."""
        from repro.client.vfs import ClientSession, QueryMode
        from repro.core.system import SystemConfig, V2FSSystem

        mode = QueryMode[mode_name]
        looked_up = set()
        real = ClientSession.file_meta

        def recording(session, path):
            looked_up.add((session.session_id, path))
            return real(session, path)

        monkeypatch.setattr(ClientSession, "file_meta", recording)
        system = V2FSSystem(SystemConfig(txs_per_block=4))
        system.advance_all(2)
        client = system.make_client(mode)
        before = REGISTRY.counters_snapshot()
        queries = ["SELECT COUNT(*) FROM eth_transactions",
                   "SELECT COUNT(*), SUM(fee) FROM btc_transactions"]
        for sql in queries + queries:
            client.query(sql)
        system.advance_block("eth")
        for sql in queries:
            client.query(sql)
        delta = REGISTRY.counters_delta(before)
        proven = delta.get("client.meta.proven", 0)
        assert delta["client.meta.requests"] + proven == len(looked_up)
        if mode.uses_inter_cache:
            # catalog + 2 tables per root; everything else was proven.
            assert delta["client.meta.requests"] == 6
            assert proven == len(looked_up) - 6 > 0
        else:
            assert proven == 0

    @pytest.mark.parametrize("mode_name", ["INTER", "INTER_VBF"])
    def test_a_warm_query_asks_no_meta_and_decodes_no_filter(
        self, mode_name, monkeypatch
    ):
        from repro.client.vfs import QueryMode
        from repro.core.certificate import V2fsCertificate
        from repro.core.system import SystemConfig, V2FSSystem

        decodes = []
        real = V2fsCertificate.vbf
        monkeypatch.setattr(
            V2fsCertificate, "vbf",
            lambda certificate: decodes.append(1) or real(certificate),
        )
        system = V2FSSystem(SystemConfig(txs_per_block=4))
        system.advance_all(2)
        client = system.make_client(QueryMode[mode_name])
        sql = "SELECT COUNT(*) FROM eth_transactions"
        client.query(sql)
        assert len(decodes) == (mode_name == "INTER_VBF")
        del decodes[:]
        before = REGISTRY.counters_snapshot()
        for _ in range(3):
            client.query(sql)
        delta = REGISTRY.counters_delta(before)
        assert delta.get("client.meta.requests", 0) == 0
        assert delta["client.meta.proven"] == 3 * 2  # catalog + table
        assert delta["client.vo.requests"] == 3  # still verified, each
        assert decodes == []
