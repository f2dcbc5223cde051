"""What a verifying client carries from query to query, under random
interleavings of honest queries, new blocks and one-shot adversaries.

The first slice of ROADMAP item 1's machine, scoped to the client's
cross-query state: the proven file metadata and the decoded VBF (both in
``InterQueryCache``, beside the cached pages and node digests), the
``NodeMemo`` (with the rows it decoded into its leaves' slots), the
``CatalogMemo`` and the ``ProvenSignature``.

Rules: an honest query from a fixed scan / index-range / join list on a
client of any cached mode; a block on either chain; arming a one-shot
adversary in the ISP (a file's size misstated by a page either way, a
flipped byte in a data page, the previous certificate replayed).  An
armed adversary fires the first time the ISP is *asked* the thing it
lies about — which, for a warm client under an unchanged certificate,
may be several queries later or never.

Oracle: ``system.plain_replica()`` at the same certificate version.

After every step: a query returned oracle-equal rows, or a typed
``ReproError`` that an adversary caused; no ISP session is open; after
an error the client holds nothing the failed query contributed; proven
metadata is true under the root it is kept for, and was not yet there
when the ISP was asked for the VO that proves it; every filled row slot
is its entry's bytes decoded; the kept filter is the decoding of a
certificate the CI issued; the proven signature is one of theirs too.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.db.btree import LeafNode
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
CACHED_MODES = (QueryMode.INTRA, QueryMode.INTER, QueryMode.INTER_VBF)
ADVERSARIES = (("meta", -1), ("meta", +1), ("flip", 40), ("replay", True))


class OneShotIsp(IspServer):
    """Honest until ``armed = (kind, arg)``; lies once, the next time it
    is asked what that kind lies about, and disarms itself."""

    armed = None
    #: The client whose proven metadata is copied to ``seen_proven``
    #: each time it asks for a VO — before it has verified anything.
    watched = None
    seen_proven = None

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

    def finalize_session(self, session_id):
        cache = getattr(self.watched, "inter_cache", None)
        if cache is not None:
            self.seen_proven = dict(cache._metas)
        return super().finalize_session(session_id)


def carried(client):
    """What ``client`` holds across queries, as comparable values."""
    cache = client.inter_cache
    return {
        "pages": set(cache._pages) if cache is not None else set(),
        "metas": dict(cache._metas) if cache is not None else {},
        "metas_root": cache._metas_root if cache is not None else None,
        "filter_of": cache._vbf_certificate if cache is not None else None,
        "nodes": set(client._nodes._nodes),
        "catalog": client._catalogs._raw,
    }


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
        self.clients = {mode: system.make_client(mode)
                        for mode in CACHED_MODES}
        self.issued = [isp.certificate]
        self._oracle = (None, None)

    def expected(self, sql):
        version = self.isp.certificate.version
        if self._oracle[0] != version:
            self._oracle = (version, self.system.plain_replica())
        return self._oracle[1].execute(sql).rows

    # -- rules --------------------------------------------------------------

    @rule(chain_id=st.sampled_from(["btc", "eth"]),
          blocks=st.integers(1, 3))
    def advance(self, chain_id, blocks):
        for _ in range(blocks):
            self.system.advance_block(chain_id)
            self.issued.append(self.isp.certificate)

    @precondition(lambda self: self.isp.armed is None)
    @rule(adversary=st.sampled_from(ADVERSARIES))
    def arm(self, adversary):
        if adversary[0] != "replay" or len(self.issued) > 1:
            self.isp.armed = adversary

    @rule(mode=st.sampled_from(CACHED_MODES), sql=st.sampled_from(QUERIES))
    def query(self, mode, sql):
        client, isp = self.clients[mode], self.isp
        before = carried(client)
        armed = isp.armed
        isp.watched, isp.seen_proven = client, None
        try:
            rows = client.query(sql).rows
        except ReproError as error:
            fired = armed is not None and isp.armed is None
            assert fired, f"an honest query failed: {error!r}"
            after = carried(client)
            assert after["pages"] <= before["pages"]
            assert after["metas"].items() <= before["metas"].items()
            assert after["nodes"] <= before["nodes"]
            assert after["catalog"] in (None, before["catalog"])
            assert after["filter_of"] in (before["filter_of"], *self.issued)
        else:
            assert not (armed is not None and isp.armed is None), (
                f"{armed} went unnoticed")
            assert rows == self.expected(sql)
            cache = client.inter_cache
            if cache is not None:
                root = isp.certificate.ads_root
                assert cache._metas_root == root
                # When the VO was asked for, nothing of this query was
                # proven yet: what was there was there when it began,
                # under this root.
                assert isp.seen_proven == (
                    before["metas"] if before["metas_root"] == root else {}
                )
        finally:
            isp.watched = None

    # -- invariants ---------------------------------------------------------

    @invariant()
    def no_session_is_left_open(self):
        assert len(self.isp.sessions) == 0

    @invariant()
    def proven_metadata_is_true_under_its_root(self):
        ads, root = self.isp.ads, self.isp.root
        for client in self.clients.values():
            cache = client.inter_cache
            if cache is None or cache._metas_root != root:
                continue  # kept for a root that is no longer served
            for path, (exists, size, page_count) in cache._metas.items():
                node = ads.file_node(root, path)
                assert exists
                assert (size, page_count) == (node.size, node.page_count)

    @invariant()
    def row_slots_are_their_entries_decoded(self):
        for client in self.clients.values():
            for node in client._nodes._nodes.values():
                if not isinstance(node, LeafNode):
                    continue
                for (_, value), row in zip(node.entries, node.rows):
                    assert row is None or list(row) == decode_record(value)[0]

    @invariant()
    def what_is_kept_of_a_certificate_is_the_cis(self):
        messages = {c.message() for c in self.issued}
        for client in self.clients.values():
            triple = client._proven.triple
            assert triple is None or triple[1] in messages
            cache = client.inter_cache
            if cache is not None and cache._vbf is not None:
                assert cache._vbf_certificate in self.issued
                assert (cache._vbf.encode()
                        == cache._vbf_certificate.vbf_encoded)


TestClientStateMachine = ClientStateMachine.TestCase
TestClientStateMachine.settings = settings(
    max_examples=10, stateful_step_count=14, deadline=None,
    derandomize=True,
)
