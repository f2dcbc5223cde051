"""Failure-domain resilience for the ISP fleet.

The load-bearing claims under test:

- health verdicts flip only on *consecutive* missed heartbeats and
  recover on the first good probe (:mod:`repro.fleet.health`);
- replica promotion is certificate-gated: a caught-up replica takes
  over as primary, a lagging one refuses and the fleet stays degraded
  rather than serve from a stale copy (:mod:`repro.fleet.replication`);
- a replica can serve every root it publishes, even when its primary's
  store still held what the replica had pruned (a reader pinned on
  every primary while contents revert);
- a promotion bumps the router's shard-map *epoch* and every session
  opened under the old topology aborts with a typed
  :class:`~repro.errors.EpochError` — never a proof stitched across
  two fleets;
- slow reads hedge to a second endpoint of the same shard and the
  stitched proof still verifies (the hedge session is a view of the
  same pinned tree);
- the end-to-end failover path (kill primary → promote → query) keeps
  returning verified answers, manually and via the health watcher.
"""

import time

import pytest

from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.errors import (
    DeadlineExceededError,
    EpochError,
    FleetError,
    NetworkError,
)
from repro.faults.registry import apply_schedule
from repro.fleet.health import HealthTracker
from repro.fleet.lifecycle import Fleet
from repro.fleet.partition import (
    STRATEGY_HASH,
    HashPartitioner,
    ShardDesc,
    ShardMap,
)
from repro.fleet.replication import ReplicaIsp
from repro.fleet.resilience import ResilienceConfig
from repro.fleet.router import FleetIsp
from repro.fleet.shard import ShardIsp
from repro.rpc.client import RemoteIsp, connect_client
from repro.rpc.deadline import Deadline

SQL = "SELECT COUNT(*) FROM eth_transactions"
SHARDS = 2


def build_system(hours=1, txs_per_block=4):
    system = V2FSSystem(SystemConfig(txs_per_block=txs_per_block))
    system.advance_all(hours)
    return system


def make_client(system, isp, mode=QueryMode.INTER_VBF):
    return system.make_client(mode, isp=isp)


def build_shards(system, count=SHARDS):
    """In-process shard primaries at the system's certified state."""
    part = HashPartitioner(count).shard_for
    shards = {}
    for shard_id in range(count):
        shard = ShardIsp(shard_id, part)
        shard.sync_update(*system.certified_state())
        shards[shard_id] = shard
    return shards


def shard_map_over(handles, version=1):
    """A shard map whose endpoint ports index into ``handles``."""
    return ShardMap(
        version=version,
        strategy=STRATEGY_HASH,
        shards=tuple(
            ShardDesc(shard_id, ("inproc", shard_id), ())
            for shard_id in sorted(handles)
        ),
        bounds=(),
    )


def fleet_over(handles, version=1, **router_kwargs):
    """An in-process router whose 'endpoints' are the handle objects."""
    router_kwargs.setdefault(
        "config", ResilienceConfig(hedge_enabled=False)
    )
    return FleetIsp(
        shard_map_over(handles, version),
        handle_factory=lambda endpoint: handles[endpoint[1]],
        **router_kwargs,
    )


# ---------------------------------------------------------------------------
# Heartbeat health tracking
# ---------------------------------------------------------------------------


class _FlakyProbe:
    """A probe whose next outcome the test controls."""

    def __init__(self):
        self.alive = True

    def __call__(self):
        if not self.alive:
            raise OSError("endpoint unreachable")


class TestHealthTracker:
    def test_down_needs_consecutive_misses_and_recovers(self):
        downs, ups = [], []
        tracker = HealthTracker(
            miss_threshold=2,
            on_down=downs.append,
            on_up=ups.append,
        )
        probe = _FlakyProbe()
        tracker.attach("a:1", probe)
        assert tracker.probe_once() == []  # healthy round, no change
        probe.alive = False
        assert tracker.probe_once() == []  # one miss is noise
        assert tracker.is_up("a:1")
        assert tracker.probe_once() == [("a:1", False)]  # the streak
        assert not tracker.is_up("a:1")
        assert tracker.down_keys() == ["a:1"]
        assert downs == ["a:1"] and ups == []
        probe.alive = True
        assert tracker.probe_once() == [("a:1", True)]
        assert tracker.is_up("a:1")
        assert ups == ["a:1"]

    def test_intermittent_misses_never_trip_the_threshold(self):
        tracker = HealthTracker(miss_threshold=2)
        probe = _FlakyProbe()
        tracker.attach("a:1", probe)
        for _ in range(3):  # miss, hit, miss, hit, ... never two in a row
            probe.alive = False
            tracker.probe_once()
            probe.alive = True
            tracker.probe_once()
        assert tracker.is_up("a:1")

    def test_unknown_endpoints_are_optimistically_up(self):
        tracker = HealthTracker()
        assert tracker.is_up("never:seen")
        probe = _FlakyProbe()
        tracker.attach("a:1", probe)
        tracker.detach("a:1")
        probe.alive = False
        assert tracker.probe_once() == []  # detached: not probed
        assert tracker.is_up("a:1")

    def test_background_loop_probes_until_stopped(self):
        tracker = HealthTracker(miss_threshold=1)
        probe = _FlakyProbe()
        tracker.attach("a:1", probe)
        tracker.start(interval_s=0.01)
        try:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                with tracker._lock:
                    probes = tracker._records["a:1"].probes
                if probes >= 3:
                    break
                time.sleep(0.01)
            assert probes >= 3
        finally:
            tracker.stop()

    def test_rejects_nonsense_threshold(self):
        with pytest.raises(ValueError):
            HealthTracker(miss_threshold=0)


# ---------------------------------------------------------------------------
# Certificate-gated replica promotion
# ---------------------------------------------------------------------------


class TestReplicaPromotion:
    def _replicated_pair(self, system):
        """A primary and its replica at the system's certified state."""
        own_all = HashPartitioner(1).shard_for
        primary = ShardIsp(0, own_all)
        replica = ReplicaIsp(0, own_all)
        for isp in (primary, replica):
            isp.sync_update(*system.certified_state())
        return primary, replica

    def test_caught_up_replica_promotes_and_accepts_writes(self):
        system = build_system()
        _, replica = self._replicated_pair(system)
        head = system.update_reports[-1].certificate.version
        assert replica.promote(head) is replica
        assert replica.promote(head) is replica  # idempotent
        # A promoted replica takes the fan-out's next certified batch
        # the way it took every batch before: through sync_update.
        report = system.advance_block("eth")
        replica.sync_update(
            report.writes, report.new_sizes, report.certificate
        )
        assert replica.root == report.certificate.ads_root
        rows = make_client(system, replica).query(SQL).rows
        assert rows == make_client(system, system.isp).query(SQL).rows

    def test_lagging_replica_refuses_promotion(self):
        system = build_system(hours=0)
        _, replica = self._replicated_pair(system)  # stops after v1
        system.advance_all(1)
        head = system.update_reports[-1].certificate.version
        assert replica.certificate.version < head
        with pytest.raises(FleetError):
            replica.promote(head)
        # The refusal is recoverable: once the missing state is
        # shipped the same replica accepts.
        replica.sync_update(*system.certified_state())
        assert replica.promote(head) is replica

    def test_never_synced_replica_refuses_promotion(self):
        replica = ReplicaIsp(0, HashPartitioner(1).shard_for)
        with pytest.raises(FleetError):
            replica.promote(1)


# ---------------------------------------------------------------------------
# Shard-map epochs: promotion aborts in-flight sessions, typed
# ---------------------------------------------------------------------------


class TestEpochAbort:
    def test_adopt_bumps_epoch_and_aborts_old_sessions(self):
        system = build_system()
        handles = build_shards(system)
        fleet = fleet_over(handles)
        stale_read = fleet.open_session()
        stale_final = fleet.open_session()
        fleet.adopt_shard_map(shard_map_over(handles, version=2))
        assert fleet.epoch == 2
        with pytest.raises(EpochError):
            fleet.get_file_meta(stale_read, "/any/path")
        with pytest.raises(EpochError):
            fleet.finalize_session(stale_final)
        # The aborted session is gone, not retryable under a new guise.
        with pytest.raises(NetworkError):
            fleet.get_file_meta(stale_read, "/any/path")
        # Sessions opened under the new epoch verify end to end.
        rows = make_client(system, fleet).query(SQL).rows
        assert rows == make_client(system, system.isp).query(SQL).rows

    def test_shard_map_downgrade_is_refused(self):
        handles = build_shards(build_system())
        fleet = fleet_over(handles, version=3)
        with pytest.raises(FleetError):
            fleet.adopt_shard_map(shard_map_over(handles, version=3))
        with pytest.raises(FleetError):
            fleet.adopt_shard_map(shard_map_over(handles, version=2))
        assert fleet.epoch == 1  # nothing changed


# ---------------------------------------------------------------------------
# Router close releases lazily-opened shard sessions
# ---------------------------------------------------------------------------


class _CountingHandle:
    """Proxies one in-process shard, counting session lifecycle calls."""

    def __init__(self, shard):
        self._shard = shard
        self.opened = 0
        self.finalized = 0
        self.closed = 0

    def close(self):
        self.closed += 1

    def open_session(self, expected_version=None):
        self.opened += 1
        return self._shard.open_session(expected_version)

    def finalize_session(self, session_id):
        self.finalized += 1
        return self._shard.finalize_session(session_id)

    def __getattr__(self, name):
        return getattr(self._shard, name)


class TestRouterClose:
    def test_close_finalizes_lazy_shard_sessions(self):
        system = build_system()
        handles = {
            shard_id: _CountingHandle(shard)
            for shard_id, shard in build_shards(system).items()
        }
        fleet = fleet_over(handles)
        # Two abandoned fleet sessions, each touching shard 0.
        paths = handles[0].ads.list_files(handles[0].root)
        owned = next(p for p in paths if fleet.shard_for(p) == 0)
        for _ in range(2):
            sid = fleet.open_session()
            fleet.get_file_meta(sid, owned)
        assert handles[0].opened == 2
        assert handles[0].finalized == 0
        fleet.close()
        # Every lazily-opened per-shard session was finalized (snapshot
        # roots released) and every endpoint handle closed.
        assert handles[0].finalized == 2
        assert all(h.closed == 1 for h in handles.values())


# ---------------------------------------------------------------------------
# Hedged reads through the router
# ---------------------------------------------------------------------------


class _PacedHandle(_CountingHandle):
    """A shard proxy with a settable per-read service delay.

    Enforces a per-call deadline the way :class:`RemoteIsp` does — a
    read whose service time exceeds the remaining budget blocks only
    for the budget, then fails typed — so the router's tied-request
    hedging behaves in-process exactly as it does over sockets.
    """

    supports_deadline = True

    def __init__(self, shard, delay_s=0.0):
        super().__init__(shard)
        self.delay_s = delay_s
        self.pages_served = 0

    def get_page(self, session_id, path, page_id, deadline=None):
        if deadline is not None and deadline.remaining() < self.delay_s:
            time.sleep(deadline.remaining())
            raise DeadlineExceededError(
                f"simulated read needs {self.delay_s}s, budget spent"
            )
        if self.delay_s:
            time.sleep(self.delay_s)
        self.pages_served += 1
        return self._shard.get_page(session_id, path, page_id)


class TestHedgedReads:
    def _hedging_fleet(self, shard, slow_s, config):
        # One shard, two endpoints over the *same* tree: the replica
        # (preferred by read/write splitting) is slow, the primary is
        # the hedge target.
        slow = _PacedHandle(shard, delay_s=slow_s)
        fast = _PacedHandle(shard)
        shard_map = ShardMap(
            version=1,
            strategy=STRATEGY_HASH,
            shards=(ShardDesc(0, ("inproc", 0), (("inproc", 1),)),),
            bounds=(),
        )
        fleet = FleetIsp(
            shard_map,
            handle_factory=lambda endpoint: (
                fast if endpoint[1] == 0 else slow
            ),
            config=config,
        )
        return fleet, slow, fast

    def _one_page(self, system):
        shard = ShardIsp(0, HashPartitioner(1).shard_for)
        shard.sync_update(*system.certified_state())
        path = sorted(shard.ads.list_files(shard.root))[0]
        return shard, path

    def test_slow_endpoint_hedges_and_proof_still_stitches(self):
        system = build_system()
        shard, path = self._one_page(system)
        fleet, slow, fast = self._hedging_fleet(
            shard, slow_s=0.4,
            config=ResilienceConfig(
                hedge_enabled=True, timeout_s=0.2, hedge_floor_s=0.01
            ),  # fallback hedge delay = timeout/4 = 50ms << 400ms
        )
        sid = fleet.open_session()
        page = fleet.get_page(sid, path, 0)
        direct_sid = shard.open_session()
        assert page == shard.get_page(direct_sid, path, 0)
        shard.finalize_session(direct_sid)
        session = fleet.sessions.get(sid)
        assert session.hedge_sessions  # the hedge fired and won a session
        assert fast.pages_served >= 1
        # Finalize stitches primary + hedge views of the same pinned
        # tree into one proof anchored at the certified root.
        proof = fleet.finalize_session(sid)
        certificate = fleet.get_certificate()
        assert proof.trie.digest() == certificate.ads_root

    def test_fast_endpoint_never_hedges(self):
        system = build_system()
        shard, path = self._one_page(system)
        fleet, slow, fast = self._hedging_fleet(
            shard, slow_s=0.0,
            config=ResilienceConfig(
                hedge_enabled=True, timeout_s=4.0, hedge_floor_s=0.05
            ),  # fallback hedge delay = 1s; reads are instant
        )
        sid = fleet.open_session()
        for _ in range(3):
            fleet.get_page(sid, path, 0)
        session = fleet.sessions.get(sid)
        assert not session.hedge_sessions
        fleet.finalize_session(sid)

    def test_hedging_disabled_stays_on_one_endpoint(self):
        system = build_system()
        shard, path = self._one_page(system)
        fleet, slow, fast = self._hedging_fleet(
            shard, slow_s=0.05,
            config=ResilienceConfig(hedge_enabled=False, timeout_s=0.1),
        )
        sid = fleet.open_session()
        fleet.get_page(sid, path, 0)
        assert not fleet.sessions.get(sid).hedge_sessions
        assert fast.pages_served == 0


# ---------------------------------------------------------------------------
# End-to-end failover on a live fleet
# ---------------------------------------------------------------------------


class TestFleetFailover:
    def test_kill_primary_promote_and_requery(self):
        system = build_system()
        with Fleet(system, shard_count=2, replicas=2) as fleet:
            reference = make_client(
                system, fleet._original_isp, QueryMode.BASELINE
            ).query(SQL).rows
            host, port = fleet.router_address
            client = connect_client(host, port, deadline_s=10.0)
            try:
                assert client.query(SQL).rows == reference
                stale = fleet.isp.open_session()
                fleet.kill_shard(0)
                label = fleet.promote_replica(0)
                assert label.startswith("shard0-replica")
                assert fleet.isp.epoch == 2
                assert fleet.isp.shard_map.version == 2
                assert isinstance(fleet.shards[0], ReplicaIsp)
                # The pre-failover session aborts typed...
                with pytest.raises(EpochError):
                    fleet.isp.finalize_session(stale)
                # ...and fresh queries verify against the new topology.
                assert client.query(SQL).rows == reference
                # The promoted shard takes writes: publish fans out.
                isp = fleet.isp
                isp.sync_update = lambda *a: None
                try:
                    report = system.advance_block("eth")
                finally:
                    del isp.sync_update
                isp.sync_update(
                    report.writes, report.new_sizes, report.certificate
                )
                assert client.query(SQL).rows != reference
            finally:
                client.isp.close()

    def test_promotion_refused_when_every_replica_lags(self):
        system = build_system()
        with Fleet(system, shard_count=1, replicas=1) as fleet:
            from repro.faults import registry as faults

            faults.seed(0)
            apply_schedule("fleet.replica.lag=raise@p:1")
            isp = fleet.isp
            isp.sync_update = lambda *a: None
            try:
                report = system.advance_block("eth")
            finally:
                del isp.sync_update
            isp.sync_update(
                report.writes, report.new_sizes, report.certificate
            )
            faults.reset()
            label, _ = fleet.replicas[0][0]
            assert fleet.logs[0].lag_of(label) > 0
            with pytest.raises(FleetError):
                fleet.promote_replica(0)
            assert fleet.isp.epoch == 1  # topology untouched
            # Shipment drains the lag; now promotion is accepted.
            fleet.logs[0].ship()
            assert fleet.promote_replica(0) == label
            assert fleet.isp.epoch == 2

    def test_a_lagging_members_certificate_does_not_gate_promotion(self):
        """With every primary down the router serves its certificate
        from a replica, here a lagging one: promotion still refuses the
        lagging replica (the outgoing primary's version gates it)."""
        system = build_system()
        with Fleet(system, shard_count=2, replicas=2) as fleet:
            from repro.faults import registry as faults

            apply_schedule("fleet.replica.lag=raise@p:1")
            system.advance_block("eth")
            faults.reset()
            fleet.kill_shard(0)
            fleet.kill_shard(1)
            assert fleet.isp.get_certificate().version < (
                fleet.shards[1].certificate.version)
            with pytest.raises(FleetError):
                fleet.promote_replica(1)
            assert fleet.isp.epoch == 1  # topology untouched

    def test_watch_health_declares_dead_primary_and_recovery(self):
        system = build_system()
        with Fleet(system, shard_count=2, replicas=1) as fleet:
            tracker = fleet.watch_health(miss_threshold=2)
            assert tracker.probe_once() == []  # everyone starts up
            key = f"{fleet.host}:{fleet._shard_ports[0]}"
            fleet.kill_shard(0)
            tracker.probe_once()
            tracker.probe_once()
            assert key in tracker.down_keys()
            # The router consults the same verdicts.
            assert fleet.isp.health is tracker
            fleet.restart_shard(0)
            tracker.probe_once()
            assert tracker.down_keys() == []

    def test_auto_promotion_fires_on_primary_death(self):
        system = build_system()
        with Fleet(system, shard_count=2, replicas=2) as fleet:
            tracker = fleet.watch_health(
                miss_threshold=1, auto_promote=True
            )
            fleet.kill_shard(0)
            tracker.probe_once()  # down transition triggers failover
            assert fleet.isp.epoch == 2
            assert isinstance(fleet.shards[0], ReplicaIsp)
            rows = make_client(system, fleet.isp).query(SQL).rows
            assert rows == make_client(
                system, fleet._original_isp
            ).query(SQL).rows


class TestPinnedReadersAcrossTheFleet:
    def test_replicas_serve_contents_that_reverted_under_a_pin(self):
        """A reader pinned on every primary keeps the old nodes in the
        primaries' stores while three updates bring ``t`` back to the
        pinned bytes; the replicas pruned them long ago, are preferred
        by the router because they are caught up, and must still serve
        every page under the root they published."""
        from tests.test_fleet import run_maintenance

        system = build_system()
        with Fleet(system, shard_count=2, replicas=2) as fleet:
            run_maintenance(
                system,
                "CREATE TABLE t (k INTEGER, v INTEGER)",
                "INSERT INTO t VALUES (1, 1)",
            )
            for primary in fleet.shards.values():
                primary.open_session()
            for value in (2, 3, 1):
                run_maintenance(
                    system, f"UPDATE t SET v = {value} WHERE k = 1"
                )
            for shard_id, pairs in fleet.replicas.items():
                for label, replica in pairs:
                    assert fleet.logs[shard_id].lag_of(label) == 0
                    assert replica.root == fleet.shards[shard_id].root
            for mode in QueryMode:
                rows = make_client(system, fleet.isp, mode).query(
                    "SELECT v FROM t WHERE k = 1"
                ).rows
                assert rows == [(1,)], mode


# ---------------------------------------------------------------------------
# Deadlines over the wire
# ---------------------------------------------------------------------------


class TestFleetDeadlines:
    def test_spent_deadline_fails_typed_and_generous_one_serves(self):
        system = build_system()
        with Fleet(system, shard_count=2, replicas=1) as fleet:
            host, port = fleet.router_address
            remote = RemoteIsp(
                host, port, timeout_s=5.0, default_deadline_s=10.0
            )
            try:
                remote.get_certificate()  # generous budget: served
                with pytest.raises(DeadlineExceededError):
                    remote.get_certificate(
                        deadline=Deadline.after(0.0)
                    )
            finally:
                remote.close()
