"""Adversarial fleet scenarios: the client catches every cheat.

The fleet adds two untrusted parties to the threat model — shard
servers and the router — and the soundness claim is that they add no
trust: a tampered, stale, or incomplete answer from any single shard,
replica, or a fully collusive router still fails verification in the
*unmodified* client, with a typed :class:`VerificationError`.

Each scenario runs a collusive router (``verify=False`` stitching, no
version pinning) so nothing router-side masks the attack — the honest
router would refuse earlier, which is liveness, not the property under
test here.

Scenario map (2-shard *range* partition split at ``/db/tables/eth_q``;
range keeps a file's pages with its path, so the layout below is by
construction, not by hash accident):

- ``/db/catalog``, every index, and ``eth_nft_transfers.tbl`` live on
  shard 0 — always fresh, and the certificate source;
- ``/db/tables/eth_transactions.tbl`` lives on shard 1 — the shard the
  scenarios make stale, lagging, or dropped,

so ``SPAN_SQL`` (transaction count) must touch both shards and reads
shard 1's *changed* pages, while ``LOCAL_SQL`` (NFT count) is served
entirely by the fresh shard 0 and scopes each rejection.
"""

import pytest

from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.errors import VerificationError
from repro.fleet.partition import (
    STRATEGY_RANGE,
    RangePartitioner,
    ShardDesc,
    ShardMap,
)
from repro.fleet.replication import ReplicaIsp
from repro.fleet.router import FleetIsp
from repro.fleet.shard import ShardIsp
from repro.fleet.stitch import stitch_proofs

SPAN_SQL = "SELECT COUNT(*) FROM eth_transactions"
LOCAL_SQL = "SELECT COUNT(*) FROM eth_nft_transfers"
SHARDS = 2
BOUNDS = ("/db/tables/eth_q",)


def build_system():
    system = V2FSSystem(SystemConfig(txs_per_block=4))
    system.advance_all(1)
    return system


def make_client(system, isp, mode=QueryMode.INTER_VBF):
    return system.make_client(mode, isp=isp)


def build_shards(system, stale_ids=()):
    """Two in-process shard primaries at the system's certified state.

    Shards in ``stale_ids`` are :class:`StaleShard` — they ignore the
    router's version pin and keep serving whatever root they last saw.
    """
    part = RangePartitioner(SHARDS, BOUNDS).shard_for
    shards = {}
    for shard_id in range(SHARDS):
        cls = StaleShard if shard_id in stale_ids else ShardIsp
        shard = cls(shard_id, part)
        shard.sync_update(*system.certified_state())
        shards[shard_id] = shard
    return shards


def fleet_over(shards, router_cls=FleetIsp, **router_kwargs):
    """An in-process router whose 'endpoints' are the shard objects."""
    shard_map = ShardMap(
        version=1,
        strategy=STRATEGY_RANGE,
        shards=tuple(
            ShardDesc(shard_id, ("inproc", shard_id), ())
            for shard_id in sorted(shards)
        ),
        bounds=BOUNDS,
    )
    return router_cls(
        shard_map,
        handle_factory=lambda endpoint: shards[endpoint[1]],
        **router_kwargs,
    )


def publish(system, shards, chain_id="eth"):
    """Advance one block and sync it to the given shards only."""
    report = system.advance_block(chain_id)
    for shard in shards:
        shard.sync_update(
            report.writes, report.new_sizes, report.certificate
        )
    return report


class StaleShard(ShardIsp):
    """A shard that silently drops the client's version pin.

    Everything it serves is *authentic* — real pages, real proofs,
    a root the CI really certified — just old.  This is the strongest
    staleness attack available to a single shard: it cannot forge a
    newer state, only replay a superseded one.
    """

    def open_session(self, expected_version=None):
        return super().open_session()  # ignore the pin


class CollusiveFleetIsp(FleetIsp):
    """A router that forwards inconsistent shard output unchecked."""

    def _stitch(self, proofs):
        return stitch_proofs(proofs, verify=False)


class MisroutingFleetIsp(CollusiveFleetIsp):
    """A router that knowingly reads from lagging replicas, unpinned."""

    def __init__(self, *args, lagging=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._lagging = lagging or {}

    def _shard_session(self, session, shard_id, deadline=None):
        held = session.shard_sessions.get(shard_id)
        if held is not None:
            return held
        replica = self._lagging.get(shard_id)
        if replica is None:
            return super()._shard_session(session, shard_id, deadline)
        remote_sid = replica.open_session()  # no expected_version
        session.shard_sessions[shard_id] = (replica, remote_sid)
        return replica, remote_sid


class DroppingFleetIsp(CollusiveFleetIsp):
    """A router that discards one shard's VO before stitching."""

    def _stitch(self, proofs):
        return stitch_proofs(proofs[:1], verify=False)


class TestStaleShardSnapshot:
    def test_stale_but_signed_shard_answer_is_rejected(self):
        system = build_system()
        shards = build_shards(system, stale_ids=(1,))
        fleet = fleet_over(shards, CollusiveFleetIsp)
        # Sanity: before any divergence the fleet verifies end to end.
        assert make_client(system, fleet).query(SPAN_SQL).rows

        # The fleet moves on; shard 1 keeps serving the old snapshot.
        publish(system, [shards[0]])
        assert shards[0].root != shards[1].root
        with pytest.raises(VerificationError):
            make_client(system, fleet).query(SPAN_SQL)
        # Data that lives on the fresh shard still verifies — the
        # rejection is precisely scoped to the stale partition.
        assert make_client(system, fleet).query(LOCAL_SQL).rows

    def test_honest_router_refuses_to_stitch_the_divergence(self):
        system = build_system()
        shards = build_shards(system, stale_ids=(1,))
        publish(system, [shards[0]])
        honest = fleet_over(shards, FleetIsp)
        # The honest router's cross-check turns the same divergence
        # into a typed fleet error before any proof reaches a client
        # (FleetError is a NetworkError, i.e. liveness, not soundness).
        from repro.errors import FleetError

        client = make_client(system, honest)
        with pytest.raises((FleetError, VerificationError)):
            client.query(SPAN_SQL)


class TestLaggingReplica:
    def test_replica_behind_pinned_version_is_rejected(self):
        system = build_system()
        shards = build_shards(system)
        part = RangePartitioner(SHARDS, BOUNDS).shard_for
        replica = ReplicaIsp(1, part)
        # Bring the replica to the current certified state...
        replica.sync_update(*system.certified_state())
        # ...then advance the fleet without shipping the last batch.
        publish(system, shards.values())
        assert replica.root != shards[1].root

        fleet = fleet_over(
            shards, MisroutingFleetIsp, lagging={1: replica}
        )
        with pytest.raises(VerificationError):
            make_client(system, fleet).query(SPAN_SQL)
        # The same fleet with honest routing (primary reads) verifies.
        honest = fleet_over(shards, FleetIsp)
        assert make_client(system, honest).query(SPAN_SQL).rows


class TestDroppedShardVo:
    def test_router_dropping_one_shards_vo_is_rejected(self):
        system = build_system()
        shards = build_shards(system)
        fleet = fleet_over(shards, DroppingFleetIsp)
        # SPAN_SQL needs both shards (catalog on 0, table on 1): with
        # one VO discarded the stitched proof cannot cover the reads.
        with pytest.raises(VerificationError):
            make_client(system, fleet).query(SPAN_SQL)
        honest = fleet_over(shards, FleetIsp)
        assert make_client(system, honest).query(SPAN_SQL).rows
