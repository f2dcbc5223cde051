"""The system side of the fault machine: what a verifying client
carries from query to query under honest queries, new blocks and lies
(:class:`ClientStateMachine`), and a durable ISP under failpoints,
crashes and restarts (:class:`DurableIspMachine`).

The first slice of ROADMAP item 1's machine, scoped to the client's
``CarriedState``.  Its entries come in three kinds, and the checks are
per kind, not per entry:

* *content* (node memo with its row slots, parsed catalog, decoded
  filter) — each entry equals what deriving it from its key gives;
* *root* (inter-query pages with their ``V_n``, learned node digests,
  proven metadata) — each entry is true under the root it is kept for:
  proven metadata under its own root, every learned digest under some
  root the CI issued, and every cached page that the current
  certificate's filter would accept as fresh at its ``V_n`` is the
  honest page under the current root;
* *certificate* (the proven signature, the held certificate) — a
  triple the CI issued under ``pk_sgx``, and a certificate it issued.

And the two rules that keep them so: nothing is filled from an ISP
answer before the VO that proves it has verified (checked at the moment
the VO is asked for: root entries are what they were when the query
began, apart from the pages it fetched), and a failed query leaves no
entry it filled or changed (the one rollback).

Rules: a query from a fixed scan / index-range / join list on a client
of any mode (among them an ``INTER_VBF`` client whose cache holds two
pages, and one over ``connect_client`` to a threaded server), maybe
arming a row of the adversary table (``tests/adversary.py``) to lie
once, after a block for the rows with nothing to lie about before one;
a block on either chain; a maintenance run, which issues a new
certificate and moves no chain head.  A client that holds the current
certificate must answer with its ``get_certificate`` refused, any other
fetches exactly one.  A lie is told the first time the ISP is asked
a thing it can lie about, which may be queries later or never; a query
it was told in must fail with the row's typed error, any other return
the oracle's rows.  A careless reader scribbles on every row the B+Tree
hands out.  :func:`test_every_move_is_told_and_refused` walks the whole
table through the same rule.

Oracle: ``system.plain_replica()`` at the same certificate version.

The durable ISP's rules and invariants are on :class:`DurableIspMachine`
below; the fleet side is ``tests/test_fleet_replication_stateful.py``.
CI runs both under ``--hypothesis-profile=chaos`` (``tests/conftest.py``).
"""

import contextlib
import os
import random
import tempfile
from collections import Counter

import pytest
from hypothesis import seed
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)
from tests.adversary import MOVES, TABLE, LyingIsp, careless_reader
from tests.fault_machine import (
    MAX_PUBLISH_ATTEMPTS,
    Oracle,
    machine_settings,
    next_block,
    read_everything,
)

from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.db.btree import LeafNode, _freeze_node
from repro.db.catalog import Catalog
from repro.db.record import decode_record
from repro.errors import ReproError
from repro.faults import registry as faults
from repro.faults.chaos import QUERY_POOL, _build_durable_system
from repro.faults.registry import InjectedFault, SimulatedCrash
from repro.isp.server import IspServer
from repro.merkle.page_tree import EMPTY, height_for
from repro.merkle.persistent_store import _HEADER
from repro.network.transport import CATEGORY_CERT
from repro.rpc import connect_client, serve_system
from repro.rpc.server import IspBootstrap, RpcIspServer

QUERIES = (
    "SELECT COUNT(*), SUM(gas_used) FROM eth_transactions",
    "SELECT COUNT(*), SUM(fee) FROM btc_transactions",
    "SELECT hash FROM eth_transactions WHERE block_time > 0",
    "SELECT COUNT(*), SUM(x.value), SUM(t.gas_price) "
    "FROM eth_token_transfers x JOIN eth_transactions t "
    "ON x.tx_hash = t.hash",
)
#: Client name -> (mode, cache bytes, over RPC).  Hypothesis leans
#: towards the first entry of each list here (and of QUERIES, and "eth"
#: before "btc"), so the carrying clients and the lie only they can be
#: told come first.
CLIENTS = {
    "inter+vbf": (QueryMode.INTER_VBF, 1 << 30, False),
    "inter": (QueryMode.INTER, 1 << 30, False),
    "baseline": (QueryMode.BASELINE, 1 << 30, False),
    "inter+vbf, two pages": (QueryMode.INTER_VBF, 2 * 4096, False),
    "inter+vbf over rpc": (QueryMode.INTER_VBF, 1 << 30, True),
    "intra": (QueryMode.INTRA, 1 << 30, False),
}
#: Every row of the table, armed once; the five lies the machine knew
#: first lead.
_LEADING = ("fresh-top", "meta-1", "meta+1", "flip@40", "replay")
#: Of history before the first rule: every table then has two leaves
#: under a root, so the rows that serve a page from elsewhere in the
#: file (or link past a leaf) have something to tell.
HOURS = 2
ADVERSARIES = _LEADING + tuple(name for name in MOVES
                               if name not in _LEADING)


def carried(client):
    """What ``client`` carries across queries, as comparable values."""
    state = client.state
    pages = state.pages._pages if state.pages is not None else {}
    return {
        "pages": {key: (entry.page, entry.version)
                  for key, entry in pages.items()},
        "metas": (state.metas.key, dict(state.metas.value or {})),
        "nodes": set(state.nodes._nodes),
        "catalog": state.catalog.key,
        "filter": state.filter.key,
        "signature": state.signature.key,
        "held": state.held,
    }


class _CertificatesRefused:
    """A client's ISP handle whose ``get_certificate`` raises: a query
    that needs no certificate fetch still passes, any other fails."""

    def __init__(self, isp):
        self._isp = isp

    def get_certificate(self, *args, **kwargs):
        raise AssertionError("a certificate was fetched under a held one")

    def __getattr__(self, name):
        return getattr(self._isp, name)


@contextlib.contextmanager
def certificates_refused(client):
    isp = client.isp
    client.isp = _CertificatesRefused(isp)
    try:
        yield
    finally:
        client.isp = isp


def certificate_fetches(client):
    return client.transport.stats.requests.get(CATEGORY_CERT, 0)


@contextlib.contextmanager
def recording_inserts(client):
    """The set of pages the client inserts inside the block (the one
    exception to "filled only after proof")."""
    inserted, pages = set(), client.state.pages
    if pages is None:
        yield inserted
        return
    insert = pages.insert

    def recording(key, page, version):
        inserted.add(key)
        insert(key, page, version)

    pages.insert = recording
    try:
        yield inserted
    finally:
        del pages.insert


class ClientStateMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        system = V2FSSystem(SystemConfig(txs_per_block=4))
        system.advance_all(2)
        self.system, self.isp = system, LyingIsp.install(system)
        self._serving = contextlib.ExitStack()
        server = self._serving.enter_context(serve_system(system))
        self.clients = {}
        for name, (mode, cache_bytes, remote) in CLIENTS.items():
            if remote:
                client = connect_client(*server.address, mode=mode,
                                        cache_bytes=cache_bytes)
                self._serving.callback(client.isp.close)
            else:
                client = system.make_client(mode, cache_bytes=cache_bytes)
            self.clients[name] = client
        self.pk_sgx = next(iter(self.clients.values())).pk_sgx
        self.issued = []
        #: ``(path, level, index, digest)`` of every internal node under
        #: every root the CI issued.
        self.honest_nodes = set()
        self.issue()
        self._oracle = (None, None)
        self._filter = (None, None)

    def teardown(self):
        self._serving.close()

    def issue(self):
        """Note the certificate the CI just issued, and the honest
        digest of every internal node under its root."""
        ads, root = self.isp.ads, self.isp.root
        self.issued.append(self.isp.certificate)
        for path in ads.list_files(root):
            node = ads.file_node(root, path)
            todo = [(height_for(node.page_count), 0, node.tree_root)]
            while todo:
                level, index, digest = todo.pop()
                entry = (path, level, index, digest)
                if level == 0 or entry in self.honest_nodes:
                    continue  # a leaf, or a subtree already walked
                self.honest_nodes.add(entry)
                if digest != EMPTY[level]:
                    pair = ads.store.get_pair(digest)
                    todo += [(level - 1, 2 * index, pair.left),
                             (level - 1, 2 * index + 1, pair.right)]

    def expected(self, sql):
        version = self.isp.certificate.version
        if self._oracle[0] != version:
            self._oracle = (version, self.system.plain_replica())
        return self._oracle[1].execute(sql).rows

    def current_filter(self):
        certificate = self.isp.certificate
        if self._filter[0] is not certificate:
            self._filter = (certificate, certificate.vbf())
        return self._filter[1]

    # -- rules --------------------------------------------------------------

    @initialize()
    def warm_the_carrying_clients(self):
        for name in ("inter+vbf", "inter"):
            self.query(name, QUERIES[0], None)

    @rule(chain_id=st.sampled_from(["eth", "btc"]),
          blocks=st.integers(1, 2))
    def advance(self, chain_id, blocks):
        for _ in range(blocks):
            self.system.advance_block(chain_id)
            self.issue()

    @rule(rewrite=st.booleans())
    def recertify(self, rewrite):
        """A maintenance run: a new certificate version, a new root if
        it ``rewrite``s a row, and no chain head moved.  A client that
        holds the previous certificate is refused its session and
        fetches the new one."""

        def work(engine):
            if rewrite:
                engine.execute("UPDATE btc_transactions SET fee = fee + 1 "
                               "WHERE block_height = 0")

        self.system._publish(self.system.ci.bootstrap(work))
        self.issue()

    @rule(name=st.sampled_from(list(CLIENTS)), sql=st.sampled_from(QUERIES),
          lie=st.sampled_from((None,) + ADVERSARIES))
    def query(self, name, sql, lie):
        """``lie`` is armed first, unless one already is: it is told in
        this query if the ISP is asked a thing it can lie about, else in
        a later one, or never.  A row with nothing to lie about before
        a block comes with one on ``eth``.

        A client that holds the current certificate (no head moved and
        no maintenance run since) queries with its ``get_certificate``
        refused; any other fetches exactly one certificate."""
        isp = self.isp
        if lie is not None and isp.move is None:
            if MOVES[lie].block_first:
                self.advance("eth", 1)
            isp.arm(MOVES[lie])
        client = self.clients[name]
        before, told, asked_for_vo = carried(client), len(isp.told), []
        isp.on_asked = lambda answer: (
            answer == "finalize_session" and not asked_for_vo
            and asked_for_vo.append(carried(client)))
        current = before["held"] == isp.certificate
        fetches = certificate_fetches(client)
        try:
            with contextlib.ExitStack() as stack:
                inserted = stack.enter_context(recording_inserts(client))
                stack.enter_context(careless_reader())
                if current:
                    stack.enter_context(certificates_refused(client))
                rows = client.query(sql).rows
        except ReproError as error:
            assert len(isp.told) > told, f"an honest query failed: {error!r}"
            move = MOVES[isp.told[-1][0]]
            assert isinstance(error, move.error), (move.name, error)
            self.check_rolled_back(before, carried(client))
        else:
            assert len(isp.told) == told, f"{isp.told[-1][0]} went unnoticed"
            assert rows == self.expected(sql)
        finally:
            isp.on_asked = None
        assert certificate_fetches(client) - fetches == (0 if current else 1)
        for now in asked_for_vo:
            self.check_nothing_filled_yet(before, now, inserted)

    # -- the fill rule and the drop rule -------------------------------------

    def check_nothing_filled_yet(self, before, now, inserted):
        """When the VO is asked for, no root entry has moved on the
        ISP's word: the pages the query did not fetch have the bytes and
        ``V_n`` they had, and no metadata is kept that was not proven
        under this root before the query began, nor a certificate held
        that was not.  (A query that failed early asks for the VO only
        to close its session, after the rollback.)"""
        for key, entry in now["pages"].items():
            if key not in inserted:
                assert entry == before["pages"][key], key
        assert now["held"] in (before["held"], None)
        root = self.isp.certificate.ads_root
        kept_root, kept = before["metas"]
        assert now["metas"][1].items() <= (
            kept if kept_root == root else {}).items()

    def check_rolled_back(self, before, after):
        """A failed query leaves no entry it filled or changed."""
        for key, entry in after["pages"].items():
            assert entry == before["pages"].get(key), key
        assert after["metas"][1].items() <= before["metas"][1].items()
        assert after["nodes"] <= before["nodes"]
        assert after["catalog"] in (None, before["catalog"])
        assert after["filter"] in (before["filter"], *self.issued)
        assert after["signature"] in (
            before["signature"], *self.issued_triples())
        assert after["held"] is None

    def issued_triples(self):
        return [(self.pk_sgx, c.message(), c.signature) for c in self.issued]

    # -- invariants, one per kind ---------------------------------------------

    @invariant()
    def no_session_is_left_open(self):
        assert len(self.isp.sessions) == 0

    @invariant()
    def content_entries_are_derived_from_their_keys(self):
        for client in self.clients.values():
            state = client.state
            for raw, node in state.nodes._nodes.items():
                derived = _freeze_node(raw)
                assert node.tuples == derived.tuples
                if not isinstance(node, LeafNode):
                    assert node == derived
                    continue
                assert node.entries == derived.entries
                for (_, value), row in zip(derived.entries, node.rows):
                    assert row is None or list(row) == decode_record(value)[0]
            if state.catalog.key is not None:
                assert (state.catalog.value.to_json()
                        == Catalog.from_json(state.catalog.key).to_json())
            if state.filter.key is not None:
                assert state.filter.key in self.issued
                assert (state.filter.value.encode()
                        == state.filter.key.vbf_encoded)

    @invariant()
    def root_entries_are_true_under_their_root(self):
        ads, root = self.isp.ads, self.isp.root
        vbf = self.current_filter()
        for client in self.clients.values():
            state = client.state
            if state.metas.key == root:
                for path, (exists, size, page_count) in (
                        state.metas.value.items()):
                    node = ads.file_node(root, path)
                    assert exists
                    assert (size, page_count) == (node.size, node.page_count)
            if state.pages is None:
                continue
            for (path, page_id), entry in state.pages._pages.items():
                positions = vbf.positions(path, page_id)
                if vbf.fresh_since(positions, entry.version):
                    assert entry.page == ads.get_page(root, path, page_id), (
                        f"page {page_id} of {path} passes as fresh at "
                        f"V_n={entry.version} but is stale")

    @invariant()
    def learned_digests_are_honest_under_an_issued_root(self):
        for client in self.clients.values():
            pages = client.state.pages
            for (path, level, index), digest in (
                    pages._nodes.items() if pages is not None else ()):
                assert (path, level, index, digest) in self.honest_nodes, (
                    f"learned digest at level {level}, index {index} of "
                    f"{path} is no root's")

    @invariant()
    def the_certificate_entries_are_ones_the_ci_issued(self):
        triples = self.issued_triples()
        for client in self.clients.values():
            triple = client.state.signature.key
            assert triple is None or triple in triples
            held = client.state.held
            assert held is None or held in self.issued


TestClientStateMachine = ClientStateMachine.TestCase
TestClientStateMachine.settings = machine_settings(10, 14)


def test_every_move_is_told_and_refused():
    """Each row of the table, armed once through the machine's own rule,
    is told within a few queries and refused under its checks; the
    exploration above need not reach every row in its budget."""
    machine = ClientStateMachine()
    invariants = [getattr(machine, name) for name in dir(machine)
                  if hasattr(getattr(type(machine), name, None),
                             "hypothesis_stateful_invariant")]
    assert invariants
    names, isp = list(CLIENTS), machine.isp
    try:
        machine.warm_the_carrying_clients()
        # Two leaves under a root: the rows that serve another page of
        # the file, or link past a leaf, have something to tell.
        while isp.ads.file_node(isp.root, TABLE).page_count < 4:
            machine.advance("eth", 1)
        for number, lie in enumerate(ADVERSARIES):
            told = len(isp.told)
            for step in range(2 * len(names)):
                if step == len(names):  # not asked yet: move the roots
                    machine.advance("eth", 1)
                machine.query(names[(number + step) % len(names)],
                              QUERIES[step % len(QUERIES)],
                              lie if step == 0 else None)
                for check in invariants:
                    check()
                if len(isp.told) > told:
                    break
            assert len(isp.told) > told, f"{lie} was never told"
    finally:
        machine.teardown()


# -- The durable ISP ----------------------------------------------------------

#: The failpoints on the durable ISP's update path and on its wire.  On
#: the update path a failpoint may fail (``raise``) or die (``crash``),
#: except in compaction, which runs after the publish point: there it
#: may only die.  On the wire it may only fail.
UPDATE_FAULTS = ["isp.sync_update.pre", "isp.sync_update.pre_publish",
                 "store.append.pre", "store.append.mid", "store.sync.pre",
                 "store.compact.pre_replace"]
WIRE_FAULTS = ["rpc.server.drop", "rpc.server.stall", "rpc.server.truncate"]
#: What a chaotic run must have done besides firing every failpoint.
LIVENESS = ["crash", "publish", "answered in-process", "answered over rpc"]
#: Fires per failpoint, and counts of ``LIVENESS``, summed over every
#: example of a run.
FIRED = Counter()


def log_is_whole(path):
    """True if the node log at ``path`` is a whole number of records."""
    with open(path, "rb") as log:
        data = log.read()
    position = 0
    while position + _HEADER.size <= len(data):
        position += _HEADER.size + _HEADER.unpack_from(data, position)[2]
    return position == len(data)


@contextlib.contextmanager
def armed(fault):
    """Arm ``fault``, a ``(name, action)`` pair or None, to fire once in
    the block; yields a callable that says whether it fired."""
    if fault is None:
        yield lambda: False
        return
    point = faults.arm(*fault, times=1)
    try:
        yield lambda: point.fires > 0
    finally:
        FIRED[point.name] += point.fires
        faults.disarm(point.name)


class DurableIspMachine(RuleBasedStateMachine):
    """A durable ISP (its ADS in a ``PersistentNodeStore``), served
    in-process and over a threaded RPC server, under crashes, clean
    restarts and one failpoint at a time, armed for one publish or one
    query.

    What the ISP served when it died is what it published: recovery
    reopens the store at that certificate (``IspServer.reopen``), so a
    root made visible before its nodes reached disk fails the
    invariant.
    """

    def __init__(self):
        super().__init__()
        faults.reset()
        self.rng = random.Random(0)
        self._scratch = tempfile.TemporaryDirectory(prefix="v2fs-machine-")
        self.path = os.path.join(self._scratch.name, "ads.log")
        self.system = _build_durable_system(1, 2, self.path)
        self.oracle = Oracle(self.system)
        self.published = self.system.ci.certificate
        self.server = RpcIspServer(
            self.isp, bootstrap=IspBootstrap.for_system(self.system))
        self.server.fault_stall_s = 0.5  # outlasts the clients' timeout
        self.server.start()
        #: Clients by mode, kept across queries; the in-process ones are
        #: rebuilt when a restart replaces the ISP.
        self.local, self.remote = {}, {}
        self._resolved = None

    @property
    def isp(self):
        return self.system.isp

    def teardown(self):
        try:
            # The closing sweep: faults off, the durable ISP agrees with
            # the oracle on every pool query.
            client = self.system.make_client()
            for sql in QUERY_POOL:
                assert client.query(sql).rows == self.oracle.rows(sql)
        finally:
            for client in self.remote.values():
                client.isp.close()
            self.server.stop()
            self.isp.ads.store.close()
            self._scratch.cleanup()

    def client(self, mode, remote):
        if not remote:
            if mode not in self.local:
                self.local[mode] = self.system.make_client(mode)
            return self.local[mode]
        if mode not in self.remote:
            with faults.suspended():
                self.remote[mode] = connect_client(
                    *self.server.address, mode=mode, timeout_s=0.25,
                    max_retries=4)
        return self.remote[mode]

    def recover(self, crashed):
        """Process death (or a clean stop), then a restart from disk."""
        with faults.suspended():
            store = self.isp.ads.store
            if crashed:
                FIRED["crash"] += 1
                store.simulate_crash(self.rng)
            else:
                store.close()
            self.system.isp = self.server.isp = IspServer.reopen(
                self.path, self.published)
            self.local.clear()
        assert log_is_whole(self.path), "reopen kept a torn tail record"

    def publish(self, batch):
        """Publish through the faulted update path the way an operator
        would: retry a failed update, restart a dead ISP and retry, and
        force it through once ``MAX_PUBLISH_ATTEMPTS`` have failed."""
        certificate = batch[2]
        for _ in range(MAX_PUBLISH_ATTEMPTS):
            try:
                self.isp.sync_update(*batch)
            except InjectedFault:
                # Transactional: a failed update changed nothing.
                assert self.isp.certificate is self.published
            except SimulatedCrash:
                # What the ISP served when it died is what it published.
                self.published = self.isp.certificate
                self.recover(crashed=True)
            else:
                self.published = certificate
            if self.published is certificate:
                break
        else:
            with faults.suspended():
                self.isp.sync_update(*batch)
            self.published = certificate
        FIRED["publish"] += 1
        self.oracle.publish(batch)

    # -- rules ----------------------------------------------------------------

    @initialize(order=st.permutations(UPDATE_FAULTS + WIRE_FAULTS),
                crash=st.booleans())
    def every_failpoint_once(self, order, crash):
        """Each program starts by meeting every failpoint once, in a
        drawn order: a published block per update failpoint, a query
        over the wire per wire failpoint.  Then one in-process query
        reads what the recovered ISP serves."""
        for fault in order:
            if fault in WIRE_FAULTS:
                self.query(QUERY_POOL[0], QueryMode.INTER_VBF, fault)
            else:
                self.ingest("eth", fault, crash)
        self.query(QUERY_POOL[0], QueryMode.INTER_VBF, None)

    @rule(crashed=st.booleans())
    def crash_or_restart(self, crashed):
        self.recover(crashed)

    @rule(chain_id=st.sampled_from(["eth", "btc"]),
          fault=st.sampled_from([None, *UPDATE_FAULTS]), crash=st.booleans())
    def ingest(self, chain_id, fault, crash):
        """A new block, published with ``fault`` armed to fire once."""
        if crash or fault == "store.compact.pre_replace":
            action = "crash"
        else:
            action = "raise"
        batch = next_block(self.system, chain_id)
        with armed((fault, action) if fault else None):
            self.publish(batch)

    @rule(sql=st.sampled_from(QUERY_POOL), mode=st.sampled_from(QueryMode),
          wire=st.sampled_from([None, "rpc", *WIRE_FAULTS]))
    def query(self, sql, mode, wire):
        """A verified query, in-process (``wire`` None) or over the wire
        (``rpc``, or a wire failpoint armed to fire once on it).  It
        returns the oracle's rows, or aborts typed when the fault fired."""
        fault = wire if wire in WIRE_FAULTS else None
        with armed((fault, "raise") if fault else None) as fired:
            try:
                rows = self.client(mode, wire is not None).query(sql).rows
            except ReproError as error:
                assert fired(), repr(error)
                return
        assert rows == self.oracle.rows(sql)
        FIRED["answered over rpc" if wire else "answered in-process"] += 1

    # -- the invariant --------------------------------------------------------

    @invariant()
    def serves_the_published_certificate(self):
        """The last published root and version, every node under that
        root resolving, and no session left open."""
        isp, published = self.isp, self.published
        assert isp.root == published.ads_root
        assert isp.certificate.version == published.version
        if self._resolved != (isp, isp.root):  # a new ISP, or a new root
            read_everything(isp, isp.root)
            self._resolved = (isp, isp.root)
        assert len(isp.sessions) == 0


@pytest.mark.parametrize("program_seed", [1, 2, 3])
def test_durable_isp_machine(program_seed):
    """The machine's programs from one seed, then its coverage: every
    failpoint it arms fired, and the run was chaotic — it crashed,
    published, and answered queries in-process and over the wire."""
    FIRED.clear()
    machine = seed(program_seed)(lambda: DurableIspMachine())
    run_state_machine_as_test(machine, settings=machine_settings(2, 10))
    names = set(UPDATE_FAULTS) | set(WIRE_FAULTS)
    assert {name for name in names if FIRED[name]} == names, FIRED
    assert all(FIRED[name] for name in LIVENESS), FIRED
