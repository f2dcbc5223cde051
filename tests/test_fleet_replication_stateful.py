"""The fleet side of the fault machine: a replica serves what it
publishes (:class:`ReplicationMachine`), and a running fleet answers
like one ISP under killed primaries, promotions, netsplits and withheld
shipments (:class:`FleetMachine` and its failure-domain scenarios).

:class:`ReplicationMachine`: one shard primary and two replicas behind
a :class:`~repro.fleet.replication.ReplicationLog`, driven by a
:class:`hypothesis.stateful.RuleBasedStateMachine`.  Maintenance runs
draw ``v`` from three values so page contents *revert* to bytes an
earlier version had; sessions open and close on the primary and on the
replicas, so every store prunes a different set; shipments are withheld
per replica (``fleet.replica.lag``), so replicas trail by different
amounts; promotion swaps a caught-up replica in as the primary, whose
store never held what the old primary's did.

The invariant after every rule: each replica sits at *some* certified
version, and at that version every page of every file under its root is
readable — never a published root with an unknown digest beneath it.

The rules and the invariant touch nothing but public fleet surface and
keep their state on the machine, so the system-wide machine of ROADMAP
item 1 can take them over as one more rule set.

:class:`FleetMachine` serves a real fleet over loopback; its rules and
its oracle are described on the class.
"""

import time
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)
from tests.fault_machine import (
    MAX_PUBLISH_ATTEMPTS,
    Oracle,
    machine_settings,
    next_block,
    read_everything,
)

from repro.core.system import SystemConfig, V2FSSystem
from repro.errors import FleetError, ReproError
from repro.faults import netsplit
from repro.faults import registry as faults
from repro.faults.chaos import QUERY_POOL, _query_with_retries
from repro.faults.registry import InjectedFault
from repro.fleet.lifecycle import Fleet
from repro.fleet.partition import HashPartitioner
from repro.fleet.replication import ReplicaIsp, ReplicationLog
from repro.fleet.shard import ShardIsp
from repro.rpc.client import connect_client

VALUES = st.sampled_from([1, 2, 3])
REPLICAS = st.sampled_from(["replica0", "replica1"])
MEMBERS = st.sampled_from(["primary", "replica0", "replica1"])


class ReplicationMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        faults.reset()
        self.system = V2FSSystem(SystemConfig(txs_per_block=2))
        own_all = HashPartitioner(1).shard_for
        self.primary = ShardIsp(0, own_all)
        self.replicas = {
            label: ReplicaIsp(0, own_all)
            for label in ("replica0", "replica1")
        }
        self.log = ReplicationLog(0)
        for label, replica in self.replicas.items():
            self.log.attach(label, replica.sync_update)
        #: version -> root, for every certificate the CI has issued.
        self.certified = {}
        #: Open sessions as (isp, session id).
        self.sessions = []
        self.rows = 1
        self._publish(self.system.certified_state())
        self._run(
            "CREATE TABLE t (k INTEGER, v INTEGER)",
            "INSERT INTO t VALUES (1, 1)",
        )
        self.log.ship()

    def teardown(self):
        faults.reset()

    def _publish(self, batch):
        certificate = batch[2]
        self.certified[certificate.version] = certificate.ads_root
        self.primary.sync_update(*batch)
        self.log.append(*batch)

    def _run(self, *statements):
        from tests.test_fleet import run_maintenance

        self._publish(run_maintenance(self.system, *statements))

    # -- rules ------------------------------------------------------------

    @rule(value=VALUES)
    def insert(self, value):
        self.rows += 1
        self._run(f"INSERT INTO t VALUES ({self.rows}, {value})")

    @rule(value=VALUES, pick=st.integers(min_value=0))
    def update(self, value, pick):
        key = 1 + pick % self.rows
        self._run(f"UPDATE t SET v = {value} WHERE k = {key}")

    @rule(label=MEMBERS)
    def open_session(self, label):
        # A label that left the log by promotion maps to the primary.
        isp = self.replicas.get(label, self.primary)
        self.sessions.append((isp, isp.open_session()))

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(min_value=0))
    def finalize_session(self, pick):
        isp, session_id = self.sessions.pop(pick % len(self.sessions))
        isp.finalize_session(session_id)

    @rule(withheld=st.none() | REPLICAS)
    def ship(self, withheld):
        def lag(ctx):
            if ctx["replica"] == withheld:
                raise InjectedFault("fleet.replica.lag")

        faults.arm("fleet.replica.lag", lag)
        try:
            self.log.ship()
        finally:
            faults.reset()
        for label in self.replicas:
            if label != withheld:
                assert self.log.lag_of(label) == 0

    @rule(label=REPLICAS)
    def promote(self, label):
        """Fail over the way ``Fleet.promote_replica`` does: the old
        primary (and whatever its sessions pinned) is gone."""
        replica = self.replicas.get(label)
        if replica is None:
            return
        try:
            replica.promote(self.primary.certificate.version)
        except FleetError:
            return
        self.log.detach(label)
        del self.replicas[label]
        self.sessions = [
            (isp, session_id) for isp, session_id in self.sessions
            if isp is not self.primary
        ]
        self.primary = replica

    # -- the invariant ----------------------------------------------------

    @invariant()
    def every_member_serves_what_it_publishes(self):
        head = self.primary.certificate
        assert self.primary.root == head.ads_root
        assert self.certified[head.version] == head.ads_root
        read_everything(self.primary, self.primary.root)
        for label, replica in self.replicas.items():
            certificate = replica.certificate
            assert certificate is not None, label
            assert replica.root == certificate.ads_root
            assert self.certified[certificate.version] == replica.root
            read_everything(replica, replica.root)
            at_head = certificate.version == head.version
            assert at_head == (self.log.lag_of(label) == 0)
            if at_head:
                assert replica.root == self.primary.root
                assert replica.promote(head.version) is replica
            else:
                with pytest.raises(FleetError):
                    replica.promote(head.version)

    @invariant()
    def pinned_snapshots_stay_readable(self):
        for isp, session_id in self.sessions:
            read_everything(isp, isp._sessions[session_id].root)


TestReplicationMachine = ReplicationMachine.TestCase
TestReplicationMachine.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)


# -- A running fleet ------------------------------------------------------------

#: Per-query deadline of the machine's client, and the no-hang envelope
#: around one query: a query is many RPCs, each with its own deadline
#: and retry backoff, so the envelope is a generous multiple — a hang
#: blows through any multiple.
DEADLINE_S = 8.0
ENVELOPE_S = 8 * DEADLINE_S
CHAINS = st.sampled_from(["eth", "btc"])
SHARDS = st.sampled_from([0, 1])
SHARD_OR_NONE = st.sampled_from([None, 0, 1])
#: What a router query may meet once: its fan-out severed, or a server
#: dropping the connection.
QUERY_FAULTS = ["fleet.router.fanout", "rpc.server.drop"]
#: Rules run and failpoints fired, summed over every example of a run.
RAN = Counter()


def in_scenario(name):
    """Gate a fault rule on the scenario's ``ENABLED`` set."""
    return precondition(lambda self: name in self.ENABLED)


class FleetMachine(RuleBasedStateMachine):
    """Two shard primaries, one replica each, behind the router.

    Every query goes through the router and must return the single-ISP
    oracle's rows, or abort typed — either way inside ``ENVELOPE_S``.  A
    publish that a dying shard interrupted is retried after restarting
    it (the router's per-shard acks complete only the stragglers).
    After every rule each primary serves the last published certificate
    and each replica is at it exactly when its log lag is 0.

    ``ENABLED`` names the fault rules and failpoints a scenario weights
    in; the subclasses below are the scenarios, one failure domain each.
    """

    ENABLED = frozenset()
    #: Rules per program under the ``default`` profile.
    STEPS = 6

    def __init__(self):
        super().__init__()
        faults.reset()
        netsplit.heal()
        self.system = V2FSSystem(SystemConfig(txs_per_block=2))
        self.system.advance_all(1)
        self.oracle = Oracle(self.system)
        self.published = self.system.ci.certificate
        self.fleet = Fleet(self.system, shard_count=2, replicas=2).start()
        self.client = connect_client(
            *self.fleet.router_address, timeout_s=2.0, max_retries=4,
            deadline_s=DEADLINE_S)
        self.queries = 0

    def teardown(self):
        try:
            faults.reset()
            netsplit.heal()
            self.restart_down_shards()
            # The closing sweep: healed, every shard up, a fresh client
            # (this one's circuit breaker may still be cooling down).
            sweep = connect_client(*self.fleet.router_address,
                                   timeout_s=2.0, max_retries=4)
            try:
                for sql in QUERY_POOL:
                    answer = _query_with_retries(sweep, sql, deadline_s=30.0)
                    assert answer.rows == self.oracle.rows(sql)
            finally:
                sweep.isp.close()
        finally:
            self.client.isp.close()
            self.fleet.stop()

    def arm(self, name, shard=None):
        """Arm ``name``, if this scenario weights it in, to raise once
        (at ``shard``'s hit, when given)."""
        if name not in self.ENABLED:
            return

        def once(ctx):
            if shard is None or ctx["shard"] == shard:
                faults.disarm(name)
                RAN[name] += 1
                raise InjectedFault(name)

        faults.arm(name, once)

    def restart_down_shards(self):
        for shard_id in self.fleet.down_shards():
            self.fleet.restart_shard(shard_id)

    def router_query(self):
        sql = QUERY_POOL[self.queries % len(QUERY_POOL)]
        self.queries += 1
        start = time.monotonic()
        try:
            rows = self.client.query(sql).rows
        except ReproError:
            rows = None  # aborted typed: acceptable under faults
        assert time.monotonic() - start <= ENVELOPE_S, "a query hung"
        if rows is not None:
            RAN["answered"] += 1
            assert rows == self.oracle.rows(sql)

    # -- rules ----------------------------------------------------------------

    @initialize(chain_id=CHAINS, dying=SHARDS, withheld=SHARDS)
    def every_failpoint_once(self, chain_id, dying, withheld):
        """Each program starts by meeting every failpoint its scenario
        enables once: a block whose fan-out kills shard ``dying`` and
        holds back shard ``withheld``'s shipment, then a router query
        per query failpoint."""
        self.ingest(chain_id, dying, withheld)
        for fault in QUERY_FAULTS:
            self.query(fault)

    @rule(chain_id=CHAINS, dying=SHARD_OR_NONE, withheld=SHARD_OR_NONE)
    def ingest(self, chain_id, dying, withheld):
        """One block through chain and CI, then the router's fan-out:
        shard ``dying`` dies at it (``fleet.shard.crash``) and the
        replica of shard ``withheld`` misses its shipment
        (``fleet.replica.lag``)."""
        RAN["ingest"] += 1
        batch = next_block(self.system, chain_id)
        if dying is not None:
            self.arm("fleet.shard.crash", dying)
        if withheld is not None:
            self.arm("fleet.replica.lag", withheld)
        for _ in range(MAX_PUBLISH_ATTEMPTS):
            self.restart_down_shards()
            try:
                self.system.isp.sync_update(*batch)
            except ReproError:
                continue
            break
        else:
            self.restart_down_shards()
            with faults.suspended():
                self.system.isp.sync_update(*batch)
        faults.reset()
        self.published = batch[2]
        self.oracle.publish(batch)

    @rule(fault=st.sampled_from([None, *QUERY_FAULTS]))
    def query(self, fault):
        """A router query that may meet ``fault`` once."""
        RAN["query"] += 1
        if fault is not None:
            self.arm(fault)
        try:
            self.router_query()
        finally:
            faults.reset()

    @in_scenario("kill_primary")
    @rule(shard_id=SHARDS)
    def kill_primary(self, shard_id):
        """Kill a primary, query through the gap, restart it."""
        RAN["kill_primary"] += 1
        self.fleet.kill_shard(shard_id)
        self.router_query()
        self.restart_down_shards()

    @in_scenario("kill_and_promote")
    @rule(shard_id=SHARDS)
    def kill_and_promote(self, shard_id):
        """Kill a primary, query through the gap, then fail over to a
        replica — or restart the primary if none accepts."""
        RAN["kill_and_promote"] += 1
        self.fleet.kill_shard(shard_id)
        self.router_query()
        try:
            self.fleet.promote_replica(shard_id)
        except FleetError:
            self.restart_down_shards()
        self.router_query()

    @in_scenario("split_router_link")
    @rule(shard_id=SHARDS)
    def split_router_link(self, shard_id):
        """Blackhole the router's link to a primary for one query
        (:mod:`repro.faults.netsplit`)."""
        RAN["split_router_link"] += 1
        endpoint = (self.fleet.host, self.fleet._shard_ports[shard_id])
        netsplit.sever_pair("router", endpoint)
        try:
            self.router_query()
        finally:
            netsplit.heal(endpoint)

    @in_scenario("promote_under_lag")
    @rule(shard_id=SHARDS)
    def promote_under_lag(self, shard_id):
        """Promote a replica: refused exactly when it lags."""
        RAN["promote_under_lag"] += 1
        if self.fleet.replicas[shard_id]:
            label, _ = self.fleet.replicas[shard_id][0]
            lag = self.fleet.logs[shard_id].lag_of(label)
            try:
                self.fleet.promote_replica(shard_id, label=label)
            except FleetError:
                assert lag > 0, f"caught-up {label} refused promotion"
            else:
                assert lag == 0, f"{label} promoted {lag} batches behind"
        self.router_query()

    # -- the invariant --------------------------------------------------------

    @invariant()
    def members_serve_the_published_certificate(self):
        version = self.published.version
        for shard_id, primary in self.fleet.shards.items():
            assert primary.root == self.published.ads_root
            assert primary.certificate.version == version
            for label, replica in self.fleet.replicas[shard_id]:
                lag = self.fleet.logs[shard_id].lag_of(label)
                at_head = replica.certificate.version == version
                assert at_head == (lag == 0), label


class NetsplitScenario(FleetMachine):
    ENABLED = frozenset({"split_router_link", "fleet.router.fanout",
                         "fleet.replica.lag", "rpc.server.drop"})


class KillPrimaryScenario(FleetMachine):
    ENABLED = frozenset({"kill_primary", "kill_and_promote",
                         "fleet.shard.crash", "fleet.replica.lag"})


class PromoteLagScenario(FleetMachine):
    ENABLED = frozenset({"promote_under_lag", "fleet.replica.lag",
                         "rpc.server.drop"})


class MixedScenario(FleetMachine):
    """Every failure domain at once: each scenario's rules and
    failpoints interleaved in one program."""

    ENABLED = (NetsplitScenario.ENABLED | KillPrimaryScenario.ENABLED
               | PromoteLagScenario.ENABLED)
    STEPS = 10  # twice the fault rules of a one-domain scenario


SCENARIOS = {
    "netsplit": NetsplitScenario,
    "kill-primary": KillPrimaryScenario,
    "promote-lag": PromoteLagScenario,
    "mixed": MixedScenario,
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fleet_machine(scenario):
    """The machine under one scenario's weighting, then its coverage:
    every rule and failpoint the scenario enables ran, and queries were
    answered."""
    machine = SCENARIOS[scenario]
    RAN.clear()
    run_state_machine_as_test(machine,
                              settings=machine_settings(5, machine.STEPS))
    expected = {"ingest", "query", "answered", *machine.ENABLED}
    assert expected <= {name for name, count in RAN.items() if count}, RAN
