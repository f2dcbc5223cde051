"""Tests for the client caches, session behavior, and query modes."""

import pytest

from repro.client.caches import InterQueryCache, IntraQueryCache
from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.crypto.hashing import hash_bytes, hash_pair
from repro.merkle.page_tree import EMPTY
from repro.vfs.interface import PAGE_SIZE


class TestIntraQueryCache:
    def test_put_get_clear(self):
        cache = IntraQueryCache()
        cache.put(("/f", 0), b"page")
        assert cache.get(("/f", 0)) == b"page"
        assert cache.get(("/f", 1)) is None
        cache.clear()
        assert len(cache) == 0


class TestInterQueryCache:
    def test_insert_marks_fresh(self):
        cache = InterQueryCache()
        cache.insert(("/f", 0), b"page", version=1)
        assert cache.is_fresh(("/f", 0))
        cache.begin_query()
        assert not cache.is_fresh(("/f", 0))

    def test_node_freshness_covers_descendants(self):
        cache = InterQueryCache()
        cache.insert(("/f", 0), b"a", 1)
        cache.insert(("/f", 1), b"b", 1)
        cache.insert(("/f", 2), b"c", 1)
        cache.begin_query()
        cache.mark_fresh_node("/f", 1, 0)
        assert cache.is_fresh(("/f", 0))
        assert cache.is_fresh(("/f", 1))
        assert not cache.is_fresh(("/f", 2))
        # The mark is the ISP's word: no V_n moves until the query's VO
        # has verified and the marks are confirmed (VBF bookkeeping).
        assert cache.get(("/f", 0)).version == 1
        cache.confirm_fresh(2)
        assert cache.get(("/f", 0)).version == 2
        assert cache.get(("/f", 1)).version == 2
        assert cache.get(("/f", 2)).version == 1

    def test_known_digest_from_children(self):
        cache = InterQueryCache()
        cache.insert(("/f", 0), b"a", 1)
        cache.insert(("/f", 1), b"b", 1)
        expected = hash_pair(hash_bytes(b"a"), hash_bytes(b"b"))
        assert cache.known_digest("/f", 1, 0, page_count=2) == expected

    def test_known_digest_uses_empty_padding(self):
        cache = InterQueryCache()
        cache.insert(("/f", 0), b"a", 1)
        # page_count=1 -> sibling position is structural padding
        expected = hash_pair(hash_bytes(b"a"), EMPTY[0])
        assert cache.known_digest("/f", 1, 0, page_count=1) == expected

    def test_digs_path_top_down(self):
        cache = InterQueryCache()
        for i in range(4):
            cache.insert(("/f", i), b"p%d" % i, 1)
        path = cache.digs_path(("/f", 2), height=2, page_count=4)
        levels = [level for level, _, _ in path]
        assert levels == [2, 1, 0]  # root first

    def test_digs_path_partial_knowledge(self):
        cache = InterQueryCache()
        cache.insert(("/f", 2), b"x", 1)
        path = cache.digs_path(("/f", 2), height=2, page_count=4)
        # Only the leaf is computable (sibling 3 unknown).
        assert [level for level, _, _ in path] == [0]

    def test_update_invalidates_ancestors(self):
        cache = InterQueryCache()
        cache.insert(("/f", 0), b"a", 1)
        cache.insert(("/f", 1), b"b", 1)
        before = cache.known_digest("/f", 1, 0, 2)
        cache.update(("/f", 0), b"A", 2)
        after = cache.known_digest("/f", 1, 0, 2)
        assert before != after
        assert after == hash_pair(hash_bytes(b"A"), hash_bytes(b"b"))

    def test_learned_nodes_used_in_paths(self):
        cache = InterQueryCache()
        cache.insert(("/f", 5), b"p5", 1)
        learned = hash_bytes(b"some-internal")
        cache.learn_node("/f", 2, 1, learned)
        path = cache.digs_path(("/f", 5), height=3, page_count=9)
        assert (2, 1, learned) in path

    def test_lru_eviction(self):
        cache = InterQueryCache(capacity_bytes=2 * PAGE_SIZE)
        cache.insert(("/f", 0), b"a", 1)
        cache.insert(("/f", 1), b"b", 1)
        cache.get(("/f", 0))  # touch 0 so 1 is the LRU victim
        cache.insert(("/f", 2), b"c", 1)
        assert cache.get(("/f", 1)) is None
        assert cache.get(("/f", 0)) is not None
        assert len(cache) == 2

    def test_hit_miss_counters(self):
        from repro.obs import REGISTRY

        cache = InterQueryCache()
        cache.insert(("/f", 0), b"a", 1)
        before = REGISTRY.counters_snapshot()
        cache.get(("/f", 0))
        cache.get(("/f", 9))
        delta = REGISTRY.counters_delta(before)
        assert delta.get("cache.inter.hit", 0) >= 1
        assert delta.get("cache.inter.miss", 0) >= 1


@pytest.fixture(scope="module")
def live_system():
    system = V2FSSystem(SystemConfig(txs_per_block=4))
    system.advance_all(4)
    return system


COUNT_SQL = "SELECT COUNT(*) FROM eth_transactions"


class TestQueryModes:
    def test_all_modes_same_answer(self, live_system):
        answers = set()
        for mode in QueryMode:
            client = live_system.make_client(mode)
            answers.add(client.query(COUNT_SQL).rows[0])
        assert len(answers) == 1

    def test_baseline_refetches_repeated_pages(self, live_system):
        baseline = live_system.make_client(QueryMode.BASELINE)
        intra = live_system.make_client(QueryMode.INTRA)
        b = baseline.query(COUNT_SQL).stats
        i = intra.query(COUNT_SQL).stats
        assert b.page_requests >= i.page_requests

    def test_inter_cache_warm_second_query(self, live_system):
        client = live_system.make_client(QueryMode.INTER)
        first = client.query(COUNT_SQL).stats
        second = client.query(COUNT_SQL).stats
        assert first.page_requests > 0
        assert second.page_requests == 0
        # Freshness revalidation happened instead.
        assert second.check_requests > 0

    def test_vbf_eliminates_checks_without_updates(self, live_system):
        client = live_system.make_client(QueryMode.INTER_VBF)
        client.query(COUNT_SQL)
        second = client.query(COUNT_SQL).stats
        assert second.page_requests == 0
        assert second.check_requests == 0

    def test_vbf_detects_updates(self):
        system = V2FSSystem(SystemConfig(txs_per_block=4))
        system.advance_all(2)
        client = system.make_client(QueryMode.INTER_VBF)
        before = client.query(COUNT_SQL).rows[0][0]
        system.advance_block("eth")
        after = client.query(COUNT_SQL).rows[0][0]
        assert after > before  # stale cache was not served

    def test_stats_populated(self, live_system):
        client = live_system.make_client(QueryMode.BASELINE)
        stats = client.query(COUNT_SQL).stats
        assert stats.exec_s > 0
        assert stats.net_s > 0
        assert stats.vo_bytes > 0
        assert stats.latency_s == pytest.approx(
            stats.exec_s + stats.net_s
        )

    def test_mode_requires_cache(self, live_system):
        """A cached mode cannot be built without its cache: the carried
        state makes one from the mode, and every session uses it."""
        from repro.client.state import CarriedState
        from repro.client.vfs import ClientSession
        from repro.network.transport import Transport

        certificate = live_system.isp.get_certificate()
        for mode in QueryMode:
            state = CarriedState(mode, 1 << 20)
            assert (state.pages is not None) == mode.uses_inter_cache
            session = ClientSession(live_system.isp, Transport(),
                                    certificate, state)
            assert session.inter_cache is state.pages
            live_system.isp.finalize_session(session.session_id)

    def test_remote_files_read_only_temps_local(self, live_system):
        from repro.client.state import CarriedState
        from repro.client.vfs import ClientSession, ClientVfs
        from repro.errors import StorageError
        from repro.network.transport import Transport

        session = ClientSession(
            live_system.isp, Transport(),
            live_system.isp.get_certificate(),
            CarriedState(QueryMode.BASELINE, 1 << 20),
        )
        vfs = ClientVfs(session)
        # Remote files cannot be written or removed.
        handle = vfs.open("/db/catalog")
        with pytest.raises(StorageError):
            handle.write(b"x")
        with pytest.raises(StorageError):
            vfs.remove("/db/catalog")
        # Created files are local temporaries (Appendix A, Algorithm 6):
        # written and read back locally, then dropped at finalize.
        with vfs.open("/tmp/spill-0", create=True) as temp:
            temp.write(b"run data")
        assert vfs.exists("/tmp/spill-0")
        with vfs.open("/tmp/spill-0") as temp:
            assert temp.read(100) == b"run data"
        before = session.transport.stats.total_requests()
        vfs.open("/tmp/spill-0").read(4)  # no network for temp reads
        assert session.transport.stats.total_requests() == before
        vfs.drop_temp_files()
        assert not vfs._temp.exists("/tmp/spill-0")
