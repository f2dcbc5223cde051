"""Replication under random interleavings: a replica serves what it publishes.

One shard primary and two replicas behind a
:class:`~repro.fleet.replication.ReplicationLog`, driven by a
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
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.system import SystemConfig, V2FSSystem
from repro.errors import FleetError
from repro.faults import registry as faults
from repro.faults.registry import InjectedFault
from repro.fleet.partition import HashPartitioner
from repro.fleet.replication import ReplicaIsp, ReplicationLog
from repro.fleet.shard import ShardIsp

VALUES = st.sampled_from([1, 2, 3])
REPLICAS = st.sampled_from(["replica0", "replica1"])
MEMBERS = st.sampled_from(["primary", "replica0", "replica1"])


def read_everything(isp, root):
    """Resolve every page of every file under ``root`` in ``isp``'s
    store; an unknown digest anywhere raises ``StorageError``."""
    for path in isp.ads.list_files(root):
        node = isp.ads.file_node(root, path)
        for page_id in range(node.page_count):
            isp.ads.get_page(root, path, page_id)


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
