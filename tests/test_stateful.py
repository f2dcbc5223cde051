"""What a verifying client carries from query to query, under random
interleavings of honest queries, new blocks and one-shot adversaries.

The first slice of ROADMAP item 1's machine, scoped to the client's
``CarriedState``.  Its entries come in three kinds, and the checks are
per kind, not per entry:

* *content* (node memo with its row slots, parsed catalog, decoded
  filter) — each entry equals what deriving it from its key gives;
* *root* (inter-query pages with their ``V_n``, proven metadata) —
  each entry is true under the root it is kept for: proven metadata
  under its own root, and every cached page that the current
  certificate's filter would accept as fresh at its ``V_n`` is the
  honest page under the current root;
* *certificate* (the proven signature) — a triple the CI issued under
  ``pk_sgx``.

And the two rules that keep them so: nothing is filled from an ISP
answer before the VO that proves it has verified (checked at the moment
the VO is asked for: root entries are what they were when the query
began, apart from the pages it fetched), and a failed query leaves no
entry it filled or changed (the one rollback).

Rules: a query from a fixed scan / index-range / join list on a client
of any mode (one of them an ``INTER_VBF`` client whose cache holds two
pages, so rollbacks meet evictions and re-fetches), optionally arming a
one-shot adversary in the ISP first (a file's size misstated by a page
either way, a flipped byte in a data page, the previous certificate
replayed, a block followed by an unproven "fresh" for the client's own
top digest); a block on either chain.  An armed adversary fires the
first time the ISP is *asked* the thing it lies about — which, for a
warm client under an unchanged certificate, may be several queries
later or never.  Every query is read by a careless reader that keeps
every row the B+Tree hands out and scribbles on it after the query.

Oracle: ``system.plain_replica()`` at the same certificate version.
"""

import contextlib

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.db.btree import BTree, LeafNode, _freeze_node
from repro.db.catalog import Catalog
from repro.db.record import decode_record
from repro.errors import ReproError
from repro.isp.server import IspServer

QUERIES = (
    "SELECT COUNT(*), SUM(gas_used) FROM eth_transactions",
    "SELECT COUNT(*), SUM(fee) FROM btc_transactions",
    "SELECT hash FROM eth_transactions WHERE block_time > 0",
    "SELECT COUNT(*), SUM(x.value), SUM(t.gas_price) "
    "FROM eth_token_transfers x JOIN eth_transactions t "
    "ON x.tx_hash = t.hash",
)
#: Client name -> (mode, cache bytes).  Hypothesis leans towards the
#: first entry of each list here (and of QUERIES, and "eth" before
#: "btc"), so the carrying clients and the lie only they can be told
#: come first.
CLIENTS = {
    "inter+vbf": (QueryMode.INTER_VBF, 1 << 30),
    "inter": (QueryMode.INTER, 1 << 30),
    "baseline": (QueryMode.BASELINE, 1 << 30),
    "inter+vbf, two pages": (QueryMode.INTER_VBF, 2 * 4096),
    "intra": (QueryMode.INTRA, 1 << 30),
}
ADVERSARIES = (("fresh", "eth"), ("meta", -1), ("meta", +1), ("flip", 40),
               ("replay", True))


class OneShotIsp(IspServer):
    """Honest until ``armed = (kind, arg)``; lies once, the next time it
    is asked what that kind lies about, and disarms itself.
    ``on_vo_request`` is called the next time a VO is asked for."""

    armed = None
    on_vo_request = None

    def __init__(self):
        super().__init__()
        self.previous_certificate = None

    def _fire(self, kind):
        if self.armed is not None and self.armed[0] == kind:
            (_, arg), self.armed = self.armed, None
            return arg
        return None

    def sync_update(self, writes, new_sizes, certificate):
        self.previous_certificate = self.certificate
        super().sync_update(writes, new_sizes, certificate)

    def get_certificate(self):
        if self._fire("replay"):
            return self.previous_certificate
        return super().get_certificate()

    def get_file_meta(self, session_id, path):
        exists, size, page_count = super().get_file_meta(session_id, path)
        if path.endswith(".tbl") and page_count > 1:
            delta = self._fire("meta")
            if delta is not None:
                return exists, size + 4096 * delta, page_count + delta
        return exists, size, page_count

    def get_page(self, session_id, path, page_id):
        page = super().get_page(session_id, path, page_id)
        if path.endswith(".tbl") and page_id >= 1:
            offset = self._fire("flip")
            if offset is not None:
                return (page[:offset] + bytes([page[offset] ^ 0x01])
                        + page[offset + 1:])
        return page

    def validate_path(self, session_id, path, page_id, digs_path):
        honest = super().validate_path(session_id, path, page_id, digs_path)
        if digs_path and honest != ("fresh", *digs_path[0]):
            if self._fire("fresh"):
                return ("fresh", *digs_path[0])
        return honest

    def finalize_session(self, session_id):
        hook, self.on_vo_request = self.on_vo_request, None
        if hook is not None:
            hook()
        return super().finalize_session(session_id)


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
    }


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


@contextlib.contextmanager
def careless_reader():
    """Keep every row ``BTree.rows``/``get_row`` hand out; scribble on
    them all once the block is done."""
    rows, get_row, kept = BTree.rows, BTree.get_row, []

    def keeping_rows(tree):
        for key, row in rows(tree):
            kept.append(row)
            yield key, row

    def keeping_row(tree, key):
        row = get_row(tree, key)
        if row is not None:
            kept.append(row)
        return row

    BTree.rows, BTree.get_row = keeping_rows, keeping_row
    try:
        yield
    finally:
        BTree.rows, BTree.get_row = rows, get_row
        for row in kept:
            row[:] = ["scribbled"] * (len(row) + 1)


class ClientStateMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        system = V2FSSystem(SystemConfig(txs_per_block=4))
        system.advance_all(2)
        isp = OneShotIsp()
        isp.ads, isp.root = system.isp.ads, system.isp.root
        isp.certificate = system.isp.certificate
        system.isp = isp
        self.system, self.isp = system, isp
        self.clients = {
            name: system.make_client(mode, cache_bytes=cache_bytes)
            for name, (mode, cache_bytes) in CLIENTS.items()
        }
        self.pk_sgx = next(iter(self.clients.values())).pk_sgx
        self.issued = [isp.certificate]
        self._oracle = (None, None)
        self._filter = (None, None)

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
            self.issued.append(self.isp.certificate)

    @rule(name=st.sampled_from(list(CLIENTS)), sql=st.sampled_from(QUERIES),
          lie=st.sampled_from((None,) + ADVERSARIES))
    def query(self, name, sql, lie):
        """``lie`` is armed first, unless one already is: it fires in
        this query if the ISP is asked what it lies about, else in a
        later one, or never.  A "fresh" lie comes with a block on its
        chain, whose writes it hides."""
        if lie is not None and self.isp.armed is None and (
                lie[0] != "replay" or len(self.issued) > 1):
            if lie[0] == "fresh":
                self.advance(lie[1], 1)
            self.isp.armed = lie
        client, isp = self.clients[name], self.isp
        before = carried(client)
        armed = isp.armed
        try:
            with recording_inserts(client) as inserted, careless_reader():
                isp.on_vo_request = lambda: self.check_nothing_filled_yet(
                    client, before, inserted)
                rows = client.query(sql).rows
        except ReproError as error:
            fired = armed is not None and isp.armed is None
            assert fired, f"an honest query failed: {error!r}"
            self.check_rolled_back(before, carried(client))
        else:
            assert not (armed is not None and isp.armed is None), (
                f"{armed} went unnoticed")
            assert rows == self.expected(sql)
        finally:
            isp.on_vo_request = None

    # -- the fill rule and the drop rule -------------------------------------

    def check_nothing_filled_yet(self, client, before, inserted):
        """When the VO is asked for, no root entry has moved on the
        ISP's word: the pages the query did not fetch have the bytes and
        ``V_n`` they had, and no metadata is kept that was not proven
        under this root before the query began.  (A query that failed
        early asks for the VO only to close its session, after the
        rollback.)"""
        now = carried(client)
        for key, entry in now["pages"].items():
            if key not in inserted:
                assert entry == before["pages"][key], key
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
    def the_certificate_entry_is_one_the_ci_issued(self):
        triples = self.issued_triples()
        for client in self.clients.values():
            triple = client.state.signature.key
            assert triple is None or triple in triples


TestClientStateMachine = ClientStateMachine.TestCase
TestClientStateMachine.settings = settings(
    max_examples=10, stateful_step_count=14, deadline=None,
    derandomize=True,
)
