"""The sharded fleet (:mod:`repro.fleet`), end to end.

The load-bearing claims under test:

- a shard stores only its partition's pages yet reproduces the
  fleet-wide certified root byte-identically, so the unmodified client
  verifier accepts fleet answers in every query mode, in-process and
  over the wire;
- replicas advance by replaying their primary's certified write batches
  through the same ``sync_update`` (so a replica never publishes a root
  it cannot serve, whatever its primary's store happened to hold) and
  the router falls back to the primary the moment one lags;
- ``sync_update`` fan-out is per-shard idempotent: a partial failure
  raises, and the retry after restart completes exactly the
  stragglers;
- the shard map is an in-process object with no byte encoding: the
  request kind that once served it is refused, typed.
"""

import threading
import time

import pytest

from repro import cli
from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.errors import (
    FleetError,
    NetworkError,
    RpcConnectionError,
    StorageError,
)
from repro.faults.chaos import apply_schedule, run_fleet_chaos
from repro.fleet.lifecycle import Fleet
from repro.fleet.partition import (
    HashPartitioner,
    RangePartitioner,
    page_key,
    plan_range_split,
)
from repro.fleet.replication import ReplicaIsp, ReplicationLog
from repro.fleet.shard import ShardIsp
from repro.fleet.stitch import stitch_proofs
from repro.rpc.client import CircuitBreaker, connect_client

SQL = "SELECT COUNT(*) FROM eth_transactions"


def build_system(hours=1, txs_per_block=4):
    system = V2FSSystem(SystemConfig(txs_per_block=txs_per_block))
    system.advance_all(hours)
    return system


def make_client(system, isp, mode=QueryMode.INTER_VBF):
    return system.make_client(mode, isp=isp)


def publish_via_fleet(system, chain_id="eth"):
    """Advance one block, fanning the report out through the fleet."""
    isp = system.isp
    isp.sync_update = lambda writes, sizes, cert: None
    try:
        report = system.advance_block(chain_id)
    finally:
        del isp.sync_update
    isp.sync_update(report.writes, report.new_sizes, report.certificate)
    return report


# ---------------------------------------------------------------------------
# Partitioners and the shard map
# ---------------------------------------------------------------------------


class TestPartitioning:
    def test_hash_partitioner_is_total_and_deterministic(self):
        part = HashPartitioner(4).shard_for
        paths = [f"/db/table{i}.tbl" for i in range(64)]
        first = [part(p) for p in paths]
        assert [part(p) for p in paths] == first  # deterministic
        assert set(first) == {0, 1, 2, 3}  # all shards get work
        assert all(0 <= s < 4 for s in first)

    def test_range_partitioner_respects_planned_bounds(self):
        paths = sorted(f"/db/{c}.tbl" for c in "abcdefgh")
        bounds = plan_range_split(paths, 3)
        assert len(bounds) == 2
        part = RangePartitioner(3, bounds).shard_for
        shards = [part(p) for p in paths]
        assert shards == sorted(shards)  # order-preserving
        assert set(shards) == {0, 1, 2}

    def test_hash_spreads_pages_where_range_keeps_them_together(self):
        # Ownership keys are page-granular: under hash, one hot table
        # file loads every shard; under range, page keys sort right
        # after their path so the file stays whole.
        keys = [page_key("/db/tables/huge.tbl", pid) for pid in range(64)]
        part = HashPartitioner(4).shard_for
        assert {part(k) for k in keys} == {0, 1, 2, 3}
        rng = RangePartitioner(2, ("/db/tables/m",)).shard_for
        assert {rng(k) for k in keys} == {rng("/db/tables/huge.tbl")}

    def test_range_partitioner_rejects_bad_bounds(self):
        with pytest.raises(FleetError):
            RangePartitioner(3, ("/b", "/a"))  # not increasing
        with pytest.raises(FleetError):
            RangePartitioner(3, ("/a",))  # wrong count


# ---------------------------------------------------------------------------
# Shards and replicas
# ---------------------------------------------------------------------------


def replicated_pair():
    """An empty primary, its replica, and the log between them."""
    own_all = HashPartitioner(1).shard_for
    primary = ShardIsp(0, own_all)
    replica = ReplicaIsp(0, own_all)
    log = ReplicationLog(0)
    log.attach("replica", replica.sync_update)
    return primary, replica, log


class TestShardAndReplica:
    def test_shard_reproduces_certified_root_with_partial_storage(self):
        system = build_system()
        part = HashPartitioner(4).shard_for
        shard = ShardIsp(2, part)
        shard.sync_update(*system.certified_state())
        # The partial store lands on the very root the CI certified.
        assert shard.root == system.update_reports[-1].certificate.ads_root
        paths = system.isp.ads.list_files(system.isp.root)
        owned = [p for p in paths if part(page_key(p, 0)) == 2]
        foreign = [p for p in paths if part(page_key(p, 0)) != 2]
        assert owned and foreign  # the partition is real
        sid = shard.open_session()
        assert shard.get_page(sid, owned[0], 0)
        with pytest.raises(FleetError):
            shard.get_page(sid, foreign[0], 0)

    def test_ownership_guard_runs_before_the_session_memo(self):
        """A misroute is refused on every request, and a refusal leaves
        nothing in the session's memo for a later request to find."""
        system = build_system()
        part = HashPartitioner(4).shard_for
        shard = ShardIsp(2, part)
        shard.sync_update(*system.certified_state())
        paths = system.isp.ads.list_files(system.isp.root)
        owned = next(p for p in paths if part(page_key(p, 0)) == 2)
        foreign = next(p for p in paths if part(page_key(p, 0)) != 2)
        sid = shard.open_session()
        first = shard.get_page(sid, owned, 0)
        for _ in range(3):
            assert shard.get_page(sid, owned, 0) is first
            with pytest.raises(FleetError):
                shard.get_page(sid, foreign, 0)
            with pytest.raises(FleetError):
                shard.validate_path(sid, foreign, 0, [])
        assert list(shard._sessions[sid].pages) == [(owned, 0)]

    def test_batch_replay_and_replica_follows(self):
        system = build_system()
        primary, replica, log = replicated_pair()
        # The snapshot catch-up, then one ordinary block on top of it.
        batches = [system.certified_state()]
        report = system.advance_block("eth")
        batches.append(
            (report.writes, report.new_sizes, report.certificate)
        )
        for batch in batches:
            primary.sync_update(*batch)
            log.append(*batch)
            assert log.lag_of("replica") == 1
            assert log.ship() == 1
            assert log.lag_of("replica") == 0
            assert replica.certificate is batch[2]
        assert replica.root == primary.root
        # The replica serves verified queries at the replicated root.
        rows = make_client(system, replica).query(SQL).rows
        assert rows == make_client(system, system.isp).query(SQL).rows

    def test_replica_rejects_mismatched_batch(self):
        system = build_system(hours=0)
        _, replica, log = replicated_pair()
        writes, new_sizes, certificate = system.certified_state()
        system.advance_all(1)
        newer = system.update_reports[-1].certificate
        with pytest.raises(StorageError, match="certified root"):
            # Certificate from a different version than the batch.
            replica.sync_update(writes, new_sizes, newer)
        assert replica.certificate is None  # nothing was published
        # Through the log the refusal is a lag, retried next round: the
        # cursor and the served version both stay put.
        log.append(writes, new_sizes, newer)
        assert log.ship() == 0
        assert log.lag_of("replica") == 1
        assert replica.certificate is None
        with pytest.raises(FleetError):
            replica.promote(newer.version)


def run_maintenance(system, *statements):
    """One certified maintenance run of plain SQL; returns its batch."""

    def work(engine):
        for sql in statements:
            engine.execute(sql)

    report = system.ci.bootstrap(work)
    system._publish(report)
    return report.writes, report.new_sizes, report.certificate


class TestPinnedReaderOnThePrimary:
    """Contents that revert to a state a reader still pins.

    With a session open at state S1, three updates bring ``t`` back to
    S1's bytes.  The primary's store still holds S1's nodes (the session
    pins them through ``prune``), the replica pruned them two versions
    ago — so whatever feeds the replica must not depend on what the
    primary's store happened to hold.
    """

    REVERTING = (
        ("UPDATE t SET v = 2 WHERE k = 1",),
        ("UPDATE t SET v = 3 WHERE k = 1",),
        ("UPDATE t SET v = 1 WHERE k = 1",),
    )

    def _pair(self, system):
        primary, replica, log = replicated_pair()

        def publish(batch):
            primary.sync_update(*batch)
            log.append(*batch)
            assert log.ship() == 1

        publish(system.certified_state())
        return primary, replica, publish

    def _check(self, system, primary, replica):
        assert replica.root == primary.root
        assert replica.certificate is primary.certificate
        client = make_client(system, replica, QueryMode.BASELINE)
        assert client.query("SELECT v FROM t WHERE k = 1").rows == [(1,)]

    @pytest.mark.parametrize("pinned", [True, False])
    def test_whole_image_reverts(self, pinned):
        system = build_system()
        primary, replica, publish = self._pair(system)
        publish(run_maintenance(
            system,
            "CREATE TABLE t (k INTEGER, v INTEGER)",
            "INSERT INTO t VALUES (1, 1)",
        ))
        if pinned:
            primary.open_session()
        for statements in self.REVERTING:
            publish(run_maintenance(system, *statements))
        self._check(system, primary, replica)

    def test_one_table_reverts_while_another_grows(self):
        system = build_system()
        primary, replica, publish = self._pair(system)
        publish(run_maintenance(
            system,
            "CREATE TABLE t (k INTEGER, v INTEGER)",
            "INSERT INTO t VALUES (1, 1)",
            "CREATE TABLE u (k INTEGER)",
            "INSERT INTO u VALUES (0)",
        ))
        primary.open_session()
        grow = tuple(f"INSERT INTO u VALUES ({i})" for i in range(1, 400))
        for statements in self.REVERTING[:-1]:
            publish(run_maintenance(system, *statements))
        publish(run_maintenance(system, *self.REVERTING[-1], *grow))
        self._check(system, primary, replica)
        rows = make_client(system, replica, QueryMode.BASELINE).query(
            "SELECT COUNT(*) FROM u"
        ).rows
        assert rows == [(400,)]


# ---------------------------------------------------------------------------
# Stitching
# ---------------------------------------------------------------------------


class TestStitch:
    def test_stitch_unions_views_of_one_tree(self):
        system = build_system()
        isp = system.isp
        paths = isp.ads.list_files(isp.root)
        assert len(paths) >= 2
        proofs = []
        for path in (paths[0], paths[-1]):
            sid = isp.open_session()
            isp.get_file_meta(sid, path)
            proofs.append(isp.finalize_session(sid))
        stitched = stitch_proofs(proofs)
        certificate = isp.get_certificate()
        assert stitched.trie.digest() == certificate.ads_root
        covered = set(proofs[0].files) | set(proofs[1].files)
        assert set(stitched.files) == covered

    def test_stitch_rejects_cross_version_views(self):
        system = build_system()
        isp = system.isp
        path = isp.ads.list_files(isp.root)[0]

        def proof_for(path):
            sid = isp.open_session()
            isp.get_file_meta(sid, path)
            return isp.finalize_session(sid)

        old = proof_for(path)
        system.advance_block("eth")
        new = proof_for(path)
        with pytest.raises(FleetError):
            stitch_proofs([old, new])
        # Collusive mode forwards the inconsistency instead of raising
        # (the client is the one that must catch it).
        stitch_proofs([old, new], verify=False)

    def test_stitch_requires_at_least_one_proof(self):
        with pytest.raises(FleetError):
            stitch_proofs([])


# ---------------------------------------------------------------------------
# The full fleet behind the router
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def running_fleet():
    """A 4-shard, 2-replica fleet over 2h of history (read-mostly)."""
    system = build_system(hours=2)
    fleet = Fleet(system, shard_count=4, replicas=2)
    fleet.start()
    yield system, fleet
    fleet.stop()


class TestFleetEndToEnd:
    def test_all_query_modes_verify_through_the_router(
        self, running_fleet
    ):
        system, fleet = running_fleet
        reference = make_client(
            system, fleet._original_isp, QueryMode.BASELINE
        ).query(SQL).rows
        for mode in QueryMode:
            rows = make_client(system, fleet.isp, mode).query(SQL).rows
            assert rows == reference, mode

    def test_remote_client_and_shard_map_over_the_wire(
        self, running_fleet
    ):
        system, fleet = running_fleet
        host, port = fleet.router_address
        client = connect_client(host, port)
        try:
            rows = client.query(SQL).rows
            assert rows == make_client(system, fleet.isp).query(SQL).rows
            # The shard map is the router's own state: the request kind
            # that once served it (0x0A) is refused like any unknown
            # kind, and the connection keeps serving.
            with pytest.raises(NetworkError, match="unknown request kind"):
                client.isp._call(b"\x0a", 0x8A)
            client.isp.ping()
        finally:
            client.isp.close()

    def test_vo_does_not_depend_on_how_often_a_page_was_asked(self):
        """Through a 2-shard router: each shard's session memo answers
        the repeats, and the stitched VO is the single ISP's, byte for
        byte."""
        from tests.test_network_isp import TABLE, session_vo

        system = build_system(hours=6)
        requests = [(TABLE, 1), ("/db/catalog", 0), (TABLE, 3), (TABLE, 0)]
        reference = session_vo(system.isp, requests, 1)
        fleet = Fleet(system, shard_count=2, replicas=1)
        fleet.start()
        try:
            assert session_vo(fleet.isp, requests, 1) == reference
            assert session_vo(fleet.isp, requests, 3) == reference
        finally:
            fleet.stop()

    def test_replicas_are_caught_up_after_bootstrap(self, running_fleet):
        _, fleet = running_fleet
        version = fleet.isp.get_certificate().version
        for shard_id, pairs in fleet.replicas.items():
            for label, replica in pairs:
                assert fleet.logs[shard_id].lag_of(label) == 0
                assert replica.certificate.version == version

    def test_empty_touch_query_still_returns_anchored_proof(
        self, running_fleet
    ):
        _, fleet = running_fleet
        sid = fleet.isp.open_session()
        proof = fleet.isp.finalize_session(sid)
        certificate = fleet.isp.get_certificate()
        assert proof.trie.digest() == certificate.ads_root


class TestFleetUpdatesAndFailures:
    def test_update_fans_out_and_replicas_ship(self):
        system = build_system()
        with Fleet(system, shard_count=2, replicas=2) as fleet:
            before = fleet.isp.get_certificate().version
            report = publish_via_fleet(system)
            assert report.certificate.version > before
            assert (
                fleet.isp.get_certificate().version
                == report.certificate.version
            )
            for shard_id, pairs in fleet.replicas.items():
                for label, replica in pairs:
                    assert fleet.logs[shard_id].lag_of(label) == 0
                    assert (
                        replica.certificate.version
                        == report.certificate.version
                    )
            rows = make_client(system, fleet.isp).query(SQL).rows
            assert rows  # verifies at the new version

    def test_partial_sync_raises_and_retry_completes_stragglers(self):
        system = build_system()
        with Fleet(system, shard_count=2) as fleet:
            isp = fleet.isp
            isp.sync_update = lambda writes, sizes, cert: None
            try:
                report = system.advance_block("eth")
            finally:
                del isp.sync_update
            fleet.kill_shard(1)
            with pytest.raises(FleetError):
                isp.sync_update(
                    report.writes, report.new_sizes, report.certificate
                )
            # Shard 0 acked; shard 1 is the straggler.
            assert isp._synced[0] == report.certificate.version
            assert isp._synced.get(1) != report.certificate.version
            fleet.restart_shard(1)
            isp.sync_update(
                report.writes, report.new_sizes, report.certificate
            )
            assert isp._synced[1] == report.certificate.version
            assert (
                fleet.shards[1].root == report.certificate.ads_root
            )

    @staticmethod
    def _table_files(fleet):
        shard = fleet.shards[0]
        return sorted(
            p for p in shard.ads.list_files(shard.root)
            if p.startswith("/db/tables/")
        )

    def _owner_of_table_header(self, fleet):
        """The shard owning page 0 of the table every COUNT(*) reads."""
        (path,) = [
            p for p in self._table_files(fleet) if "eth_transactions" in p
        ]
        return fleet.isp.shard_for_page(path, 0)

    def test_dead_shard_aborts_queries_typed_then_recovers(self):
        system = build_system()
        with Fleet(system, shard_count=2) as fleet:
            # Page 0 of the table is read by every COUNT(*) scan, so
            # killing its owner guarantees the query hits the hole —
            # for a client that carries nothing from query to query
            # (a cached one no longer needs the shard at all: below).
            victim = self._owner_of_table_header(fleet)
            host, port = fleet.router_address
            client = connect_client(
                host, port, mode=QueryMode.BASELINE,
                timeout_s=0.5, max_retries=1,
            )
            try:
                assert client.query(SQL).rows
                fleet.kill_shard(victim)
                # Aborted with a typed error — never wrong rows.
                with pytest.raises(NetworkError):
                    client.query(SQL)
                fleet.restart_shard(victim)
                assert client.query(SQL).rows
            finally:
                client.isp.close()

    def test_cached_fresh_query_is_answered_while_its_shard_is_down(self):
        """Under an unchanged certificate a warm client asks the fleet
        for no page and no metadata, so the owner of what it cached can
        be down: the answer is still verified against the certified
        root (an empty-touch VO), and equal to the one it got before."""
        system = build_system()
        with Fleet(system, shard_count=2) as fleet:
            victim = self._owner_of_table_header(fleet)
            host, port = fleet.router_address
            client = connect_client(
                host, port, timeout_s=0.5, max_retries=1
            )
            try:
                rows = client.query(SQL).rows
                fleet.kill_shard(victim)
                answer = client.query(SQL)
                assert answer.rows == rows
                assert answer.stats.page_requests == 0
                assert answer.stats.meta_requests == 0
                # A table the cache does not hold still needs its
                # owner: typed refusal, and the proven metadata goes
                # with the failed query ...
                uncached = next(
                    p for p in self._table_files(fleet)
                    if "eth_transactions" not in p
                    and fleet.isp.shard_for_page(p, 0) == victim
                )
                table = uncached.rsplit("/", 1)[1][:-len(".tbl")]
                with pytest.raises(NetworkError):
                    client.query(f"SELECT COUNT(*) FROM {table}")
                # ... so the cached query must ask again, and waits for
                # the shard like everyone else.
                with pytest.raises(NetworkError):
                    client.query(SQL)
                fleet.restart_shard(victim)
                # Two refused queries opened the router's breaker on the
                # shard: let its cooldown pass.
                time.sleep(2 * CircuitBreaker().cooldown_s)
                assert client.query(SQL).rows == rows
            finally:
                client.isp.close()

    def test_replica_lag_falls_back_to_primary(self):
        system = build_system()
        with Fleet(system, shard_count=2, replicas=2) as fleet:
            from repro.faults import registry as faults

            faults.seed(0)
            apply_schedule("fleet.replica.lag=raise@p:1")
            report = publish_via_fleet(system)
            faults.reset()
            # Every replica was withheld: all lag behind the head.
            lags = [
                fleet.logs[shard_id].lag_of(label)
                for shard_id, pairs in fleet.replicas.items()
                for label, _ in pairs
            ]
            assert lags and all(lag > 0 for lag in lags)
            # Reads still verify — the router detects staleness and
            # serves from the primaries.
            rows = make_client(system, fleet.isp).query(SQL).rows
            assert rows
            # The next shipment drains the backlog.
            for shard_id in fleet.logs:
                fleet.logs[shard_id].ship()
                for label, replica in fleet.replicas[shard_id]:
                    assert fleet.logs[shard_id].lag_of(label) == 0
                    assert (
                        replica.certificate.version
                        == report.certificate.version
                    )


class TestBreaker:
    def test_breaker_opens_after_threshold_and_probes_after_cooldown(
        self,
    ):
        breaker = CircuitBreaker(threshold=2, cooldown_s=0.05)
        breaker.check()  # closed: no-op
        breaker.record_failure()
        breaker.check()  # still closed below threshold
        breaker.record_failure()
        assert breaker.is_open
        with pytest.raises(RpcConnectionError):
            breaker.check()
        time.sleep(0.06)
        breaker.check()  # half-open: one probe admitted
        with pytest.raises(RpcConnectionError):
            breaker.check()  # ...but only one
        breaker.record_success()
        assert not breaker.is_open
        breaker.check()

    def test_dead_endpoint_fails_fast_once_open(self):
        system = build_system()
        with Fleet(system, shard_count=2) as fleet:
            host, port = fleet.router_address
            client = connect_client(
                host, port, timeout_s=0.5, max_retries=1
            )
            try:
                assert client.query(SQL).rows
                fleet.router_server.stop()
                fleet.router_server = None
                # Each failed query records 2 connection failures
                # (initial attempt + 1 retry); the default threshold
                # of 4 opens the circuit after the second query.
                for _ in range(2):
                    with pytest.raises(NetworkError):
                        client.query(SQL)
                # The breaker is open now: failure is immediate, with
                # no connection attempts (hence near-zero latency).
                assert client.isp.breaker.is_open
                started = time.perf_counter()
                with pytest.raises(RpcConnectionError):
                    client.query(SQL)
                assert time.perf_counter() - started < 0.05
            finally:
                client.isp.close()


# ---------------------------------------------------------------------------
# CLI and chaos entry points
# ---------------------------------------------------------------------------


class TestFleetCli:
    def test_fleet_serve_and_query_connect(self, capsys, tmp_path):
        port_file = tmp_path / "port"
        result = {}

        def run_fleet():
            result["code"] = cli.main([
                "fleet", "--hours", "1", "--txs-per-block", "2",
                "--shards", "2", "--replicas", "1",
                "--port-file", str(port_file), "--serve-for", "120",
            ])

        thread = threading.Thread(target=run_fleet, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 90
            while not port_file.exists():
                assert time.monotonic() < deadline, "fleet never bound"
                time.sleep(0.05)
            address = port_file.read_text().strip()
            capsys.readouterr()  # drain the fleet banner
            code = cli.main([
                "query", "SELECT COUNT(*) AS n FROM btc_blocks",
                "--connect", address, "--mode", "baseline",
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert out.splitlines()[0] == "n"
            assert out.splitlines()[1] == "1"
        finally:
            cli._serve_shutdown.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert result["code"] == 0


class TestFleetChaosSmoke:
    def test_short_fleet_chaos_run_holds_invariants(self):
        stats = run_fleet_chaos(3, steps=8, shard_count=2, replicas=1)
        assert stats.steps == 8
        # Either path proves liveness: queries completed, or every
        # abort was a typed error (the harness asserts on divergence).
        assert stats.remote_queries_ok + stats.remote_queries_failed > 0
