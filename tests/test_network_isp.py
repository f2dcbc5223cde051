"""Tests for the network accounting layer and the ISP server."""

import pytest

from repro.core.system import SystemConfig, V2FSSystem
from repro.errors import NetworkError, StorageError
from repro.merkle import page_tree
from repro.merkle.ads import V2fsAds
from repro.network.transport import (
    CATEGORY_CHECK,
    CATEGORY_PAGE,
    NetworkCostModel,
    NetworkStats,
    Transport,
)


class TestNetworkAccounting:
    def test_round_trip_cost(self):
        model = NetworkCostModel(latency_s=0.001,
                                 bandwidth_bytes_per_s=1000.0)
        assert model.round_trip_cost(500, 500) == pytest.approx(1.001)

    def test_transport_accumulates(self):
        transport = Transport(NetworkCostModel(0.001, 1e9))
        transport.account(CATEGORY_PAGE, 10, 4096)
        transport.account(CATEGORY_PAGE, 10, 4096)
        transport.account(CATEGORY_CHECK, 100, 40)
        stats = transport.stats
        assert stats.requests == {CATEGORY_PAGE: 2, CATEGORY_CHECK: 1}
        assert stats.bytes_received[CATEGORY_PAGE] == 8192
        assert stats.total_requests() == 3
        assert stats.total_bytes() == 10 + 10 + 100 + 8192 + 40

    def test_snapshot_and_delta(self):
        transport = Transport(NetworkCostModel(0.001, 1e9))
        transport.account(CATEGORY_PAGE, 1, 1)
        before = transport.stats.snapshot()
        transport.account(CATEGORY_PAGE, 1, 1)
        transport.account(CATEGORY_CHECK, 1, 1)
        delta = transport.stats.delta_since(before)
        assert delta.requests[CATEGORY_PAGE] == 1
        assert delta.requests[CATEGORY_CHECK] == 1
        assert delta.simulated_time_s == pytest.approx(0.002, rel=0.01)

    def test_empty_stats(self):
        stats = NetworkStats()
        assert stats.total_requests() == 0
        assert stats.total_bytes() == 0

    def test_unknown_category_rejected(self):
        transport = Transport()
        with pytest.raises(ValueError, match="unknown transport category"):
            transport.account("pgae", 10, 4096)  # typo'd "page"
        assert transport.stats.total_requests() == 0

    def test_all_known_categories_accepted(self):
        from repro.network.transport import KNOWN_CATEGORIES

        transport = Transport()
        for category in sorted(KNOWN_CATEGORIES):
            transport.account(category, 1, 1)
        assert transport.stats.total_requests() == len(KNOWN_CATEGORIES)


@pytest.fixture(scope="module")
def isp_system():
    system = V2FSSystem(SystemConfig(txs_per_block=4))
    system.advance_all(3)
    return system


class TestIspServer:
    def test_certificate_matches_root(self, isp_system):
        isp = isp_system.isp
        assert isp.get_certificate().ads_root == isp.root

    def test_session_snapshot_isolation(self, isp_system):
        # Open a session, then update; the session still reads old data.
        system = V2FSSystem(SystemConfig(txs_per_block=4))
        system.advance_all(2)
        isp = system.isp
        session = isp.open_session()
        old_root = isp._sessions[session].root
        system.advance_block("eth")
        assert isp.root != old_root
        # Pages under the pinned root remain readable.
        path = "/db/tables/eth_transactions.tbl"
        page = isp.get_page(session, path, 0)
        assert isinstance(page, bytes) and len(page) == 4096

    def test_meta_for_missing_file(self, isp_system):
        session = isp_system.isp.open_session()
        exists, size, pages = isp_system.isp.get_file_meta(
            session, "/no/such/file"
        )
        assert (exists, size, pages) == (False, 0, 0)

    def test_unknown_session_rejected(self, isp_system):
        with pytest.raises(NetworkError):
            isp_system.isp.get_page(999999, "/db/catalog", 0)

    def test_page_claims_accumulate_into_vo(self, isp_system):
        isp = isp_system.isp
        session = isp.open_session()
        page = isp.get_page(session, "/db/catalog", 0)
        vo = isp.finalize_session(session)
        claims = {("/db/catalog", 0): V2fsAds.page_digest(page)}
        V2fsAds.verify_read_proof(vo, isp.root, claims)

    def test_validate_path_fresh_match(self, isp_system):
        isp = isp_system.isp
        session = isp.open_session()
        path = "/db/catalog"
        digest = V2fsAds.page_digest(isp.get_page(session, path, 0))
        response = isp.validate_path(
            session, path, 0, [(0, 0, digest)]
        )
        assert response[0] == "fresh"
        assert response[1:3] == (0, 0)

    def test_validate_path_stale_returns_page(self, isp_system):
        isp = isp_system.isp
        session = isp.open_session()
        path = "/db/catalog"
        response = isp.validate_path(
            session, path, 0, [(0, 0, b"\x00" * 32)]
        )
        assert response[0] == "page"
        assert V2fsAds.page_digest(response[1]) != b"\x00" * 32

    def test_validate_path_prefers_topmost_match(self, isp_system):
        isp = isp_system.isp
        session = isp.open_session()
        path = "/db/tables/eth_transactions.tbl"
        node = isp.ads.file_node(isp._sessions[session].root, path)
        height = page_tree.height_for(node.page_count)
        top = isp.ads.node_digest(
            isp._sessions[session].root, path, height, 0
        )
        leaf = isp.ads.node_digest(
            isp._sessions[session].root, path, 0, 0
        )
        response = isp.validate_path(
            session, path, 0, [(height, 0, top), (0, 0, leaf)]
        )
        assert response[0] == "fresh"
        assert response[1] == height  # matched the topmost entry

    def test_sync_rejects_mismatched_certificate(self):
        system = V2FSSystem(SystemConfig(txs_per_block=4))
        system.advance_block("btc")
        report = system.ci.process_block.__self__  # issuer alive
        del report
        certificate = system.isp.get_certificate()
        with pytest.raises(StorageError):
            system.isp.sync_update(
                {"/db/catalog": {0: b"junk".ljust(4096, b"\x00")}},
                {"/db/catalog": 4096},
                certificate,
            )


TABLE = "/db/tables/eth_transactions.tbl"


def session_vo(isp, requests, repeat):
    """Encoded VO of one session that asks for metadata and every page
    of ``requests`` ``repeat`` times over, and the pages it got."""
    session = isp.open_session()
    pages = {}
    for _ in range(repeat):
        for path, page_id in requests:
            isp.get_file_meta(session, path)
            page = isp.get_page(session, path, page_id)
            assert pages.setdefault((path, page_id), page) == page
    return isp.finalize_session(session).encode(), pages


@pytest.fixture(scope="module")
def memo_system():
    system = V2FSSystem(SystemConfig(txs_per_block=4))
    system.advance_all(6)
    return system


class TestSessionMemo:
    """A session resolves each file and page once under its pinned root
    and answers repeats from what it remembered.  Nothing a client can
    observe may depend on that: not the bytes, not the VO, not which
    requests fail."""

    REQUESTS = [(TABLE, 1), ("/db/catalog", 0), (TABLE, 3), (TABLE, 0)]

    @pytest.mark.parametrize("serving", ["inprocess", "thread", "loop"])
    def test_vo_does_not_depend_on_how_often_a_page_was_asked(
        self, memo_system, serving
    ):
        import hashlib

        from repro.rpc.client import RemoteIsp
        from repro.rpc.server import RpcIspServer, serve_system
        from repro.serve import AsyncIspServer

        reference = session_vo(memo_system.isp, self.REQUESTS, 1)
        if serving == "inprocess":
            once = reference
            thrice = session_vo(memo_system.isp, self.REQUESTS, 3)
        else:
            server_class = (
                RpcIspServer if serving == "thread" else AsyncIspServer
            )
            with serve_system(memo_system, server_class=server_class) as s:
                isp = RemoteIsp(*s.address)
                try:
                    once = session_vo(isp, self.REQUESTS, 1)
                    thrice = session_vo(isp, self.REQUESTS, 3)
                finally:
                    isp.close()
        digest = hashlib.sha256(reference[0]).hexdigest()
        assert hashlib.sha256(once[0]).hexdigest() == digest
        assert hashlib.sha256(thrice[0]).hexdigest() == digest
        assert once[1] == thrice[1] == reference[1]
        assert len(memo_system.isp.sessions) == 0

    def test_pinned_snapshot_survives_update_and_prune(self):
        """Memoised pages and pages first asked for after the update
        both come from the root the session pinned."""
        system = V2FSSystem(SystemConfig(txs_per_block=4))
        system.advance_all(6)
        isp = system.isp
        session = isp.open_session()
        pinned = isp._sessions[session].root
        _, _, count = isp.get_file_meta(session, TABLE)
        early = isp.get_page(session, TABLE, 1)
        # Two updates that rewrite the table: the pinned root is then
        # neither current nor previous, and only the pin keeps it.
        for _ in range(2):
            while TABLE not in system.advance_block("eth").writes:
                pass
        assert pinned not in (isp.root, isp._previous_root)
        # From the memo, and the same object: nothing was resolved again.
        assert isp.get_page(session, TABLE, 1) is early
        assert isp.get_file_meta(session, TABLE)[2] == count
        # A miss after the update still descends the *pinned* tree (the
        # header page changes with every insert).
        late = isp.get_page(session, TABLE, 0)
        assert late == isp.ads.get_page(pinned, TABLE, 0)
        assert late != isp.ads.get_page(isp.root, TABLE, 0)
        claims = {(TABLE, 1): V2fsAds.page_digest(early),
                  (TABLE, 0): V2fsAds.page_digest(late)}
        V2fsAds.verify_read_proof(
            isp.finalize_session(session), pinned, claims
        )

    def test_file_and_page_are_resolved_once(self, memo_system):
        isp = memo_system.isp
        calls = {"file_node": 0, "get_page": 0}

        def counting(name):
            real = getattr(isp.ads, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        isp.ads.file_node = counting("file_node")
        isp.ads.get_page = counting("get_page")
        try:
            session = isp.open_session()
            for _ in range(5):
                isp.get_file_meta(session, TABLE)
                isp.get_page(session, TABLE, 1)
                isp.validate_path(session, TABLE, 1, [])
            served = dict(calls)
            isp.finalize_session(session)
        finally:
            del isp.ads.file_node, isp.ads.get_page
        # One page lookup (which walks the trie itself) and one
        # metadata lookup for fifteen requests.
        assert served == {"get_page": 1, "file_node": 2}

    def test_failed_lookup_memoises_nothing(self, memo_system):
        isp = memo_system.isp
        session = isp.open_session()
        _, _, count = isp.get_file_meta(session, TABLE)
        for _ in range(3):
            with pytest.raises(StorageError, match="beyond EOF"):
                isp.get_page(session, TABLE, count)
            with pytest.raises(StorageError, match="beyond EOF"):
                isp.validate_path(session, TABLE, count, [])
            assert isp.get_file_meta(session, "/no/such") == (False, 0, 0)
        state = isp._sessions[session]
        assert list(state.files) == [TABLE] and not state.pages
        assert state.vo.page_keys == set()
        isp.finalize_session(session)

    def test_memo_dies_with_the_session(self, memo_system):
        import gc
        import weakref

        isp = memo_system.isp
        finalized, abandoned = isp.open_session(), isp.open_session()
        refs = []
        for session in (finalized, abandoned):
            isp.get_page(session, TABLE, 1)
            refs.append(weakref.ref(isp._sessions[session]))
        isp.finalize_session(finalized)
        assert isp.sessions.prune(lambda s: s.session_id == abandoned) == 1
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert len(isp.sessions) == 0


def finalized_vo_digests(client, queries):
    """Rows of each query, and the sha-256 of the encoding of each VO
    ``client`` got back from its ISP, in query order."""
    import hashlib

    digests = []
    real = client.isp.finalize_session

    def recording_finalize(session_id):
        vo = real(session_id)
        digests.append(hashlib.sha256(vo.encode()).hexdigest())
        return vo

    client.isp.finalize_session = recording_finalize
    try:
        rows = [client.query(sql).rows for sql in queries]
    finally:
        del client.isp.finalize_session
    assert len(digests) == len(queries)
    return rows, digests


class TestVoBytesOracle:
    """The in-process ISP is the oracle for proof bytes: a BASELINE
    client running Q1-Q8 receives, query for query, a VO whose encoding
    is sha-equal on every serving path."""

    @staticmethod
    def queries(system):
        import random

        from repro.workloads.queries import QUERY_TEMPLATES

        rng = random.Random(3)
        t0, t1 = system.config.start_time, system.latest_time
        return [QUERY_TEMPLATES[name].render(t0, t1, rng, system.universe)
                for name in sorted(QUERY_TEMPLATES)]

    @pytest.mark.parametrize("serving", ["thread", "loop"])
    def test_finalized_vos_are_sha_equal_to_the_in_process_isp(
        self, memo_system, serving
    ):
        from repro.client.vfs import QueryMode
        from repro.rpc.client import connect_client
        from repro.rpc.server import RpcIspServer, serve_system
        from repro.serve import AsyncIspServer

        queries = self.queries(memo_system)
        assert len(queries) == 8
        reference = finalized_vo_digests(
            memo_system.make_client(QueryMode.BASELINE), queries)
        server_class = RpcIspServer if serving == "thread" else AsyncIspServer
        with serve_system(memo_system, server_class=server_class) as server:
            client = connect_client(*server.address, mode=QueryMode.BASELINE)
            try:
                served = finalized_vo_digests(client, queries)
            finally:
                client.isp.close()
        assert served == reference
        assert len(set(reference[1])) > 1  # the queries prove different pages
        assert len(memo_system.isp.sessions) == 0
