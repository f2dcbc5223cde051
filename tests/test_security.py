"""Adversarial tests: every attack the threat model covers must be caught.

The ISP and the V2FS CI are untrusted; these tests subclass the honest
implementations with malicious behaviours and assert the client (or the
enclave) rejects them.
"""

import contextlib
import dataclasses
import random

import pytest

from repro.client.state import CarriedState
from repro.client.vfs import QueryMode
from repro.core import certificate as certificate_module
from repro.core.certificate import V2fsCertificate
from repro.core.system import SystemConfig, V2FSSystem
from repro.crypto.signature import KeyPair, Signature, sign
from repro.errors import (
    CertificateError,
    NetworkError,
    ProofError,
    ReproError,
    StorageError,
    VerificationError,
)
from repro.isp.server import IspServer
from repro.merkle.ads import V2fsAds

SQL = "SELECT COUNT(*) FROM eth_transactions"


def build_system(hours=3):
    system = V2FSSystem(SystemConfig(txs_per_block=4))
    system.advance_all(hours)
    return system


class TamperingIsp(IspServer):
    """Serves pages with a flipped byte in the payload area.

    The flip lands late in the page so the B+Tree node header still
    parses — the engine computes a (wrong) answer and only the VO check
    can catch it.
    """

    def get_page(self, session_id, path, page_id):
        page = super().get_page(session_id, path, page_id)
        if path.endswith("eth_transactions.tbl") and page_id >= 1:
            return page[:-1] + bytes([page[-1] ^ 0xFF])
        return page


class WithholdingIsp(IspServer):
    """Returns an empty VO, hiding the proof."""

    def finalize_session(self, session_id):
        from repro.merkle.proof import AdsProof, gen_trie_proof

        session = self._sessions.pop(session_id, None)
        if session is None:  # closed already, as the honest ISP says it
            raise NetworkError(f"unknown session {session_id}")
        return AdsProof(
            trie=gen_trie_proof(self.ads.store, session.root, [])
        )


class StaleMetaIsp(IspServer):
    """Reports a subtly wrong file size (off by a few bytes)."""

    def get_file_meta(self, session_id, path):
        exists, size, page_count = super().get_file_meta(
            session_id, path
        )
        if path.endswith("eth_transactions.tbl"):
            return exists, size - 16, page_count
        return exists, size, page_count


class TruncatingMetaIsp(IspServer):
    """Understates a file's page count (hiding recent appends)."""

    def get_file_meta(self, session_id, path):
        exists, size, page_count = super().get_file_meta(
            session_id, path
        )
        if path.endswith("eth_transactions.tbl") and page_count > 1:
            return exists, max(4096, size - 4096), page_count - 1
        return exists, size, page_count


class LyingFreshnessIsp(IspServer):
    """Confirms freshness of digests that do not match its ADS."""

    def validate_path(self, session_id, path, page_id, digs_path):
        if digs_path:
            level, index, digest = digs_path[-1]
            session = self._sessions[session_id]
            session.vo.add_node(path, level, index)
            return ("fresh", level, index, digest)
        return super().validate_path(session_id, path, page_id,
                                     digs_path)


def swap_isp(system, isp_class):
    """Clone the honest ISP's state into a malicious subclass."""
    malicious = isp_class()
    malicious.ads = system.isp.ads
    malicious.root = system.isp.root
    malicious.certificate = system.isp.certificate
    system.isp = malicious
    return system


@contextlib.contextmanager
def client_of(system, path, mode=QueryMode.INTER_VBF, **options):
    """A verifying client of ``system.isp``: in-process, or over
    ``connect_client`` to a threaded server around the same ISP."""
    if path == "inprocess":
        yield system.make_client(mode, **options)
        return
    from repro.rpc import connect_client
    from repro.rpc.server import serve_system

    with serve_system(system) as server:
        client = connect_client(*server.address, mode=mode, **options)
        try:
            yield client
        finally:
            client.isp.close()


class TestMaliciousIsp:
    def test_tampered_page_rejected(self):
        system = swap_isp(build_system(), TamperingIsp)
        client = system.make_client(QueryMode.BASELINE)
        with pytest.raises(ReproError):
            client.query(SQL)

    def test_withheld_vo_rejected(self):
        system = swap_isp(build_system(), WithholdingIsp)
        client = system.make_client(QueryMode.BASELINE)
        with pytest.raises(ReproError):
            client.query(SQL)

    def test_wrong_size_metadata_rejected(self):
        system = swap_isp(build_system(), StaleMetaIsp)
        client = system.make_client(QueryMode.BASELINE)
        with pytest.raises(VerificationError):
            client.query(SQL)

    def test_truncating_metadata_rejected(self):
        # Hiding recent appends either breaks the engine's parse or
        # fails the metadata check; either way no wrong answer escapes.
        system = swap_isp(build_system(), TruncatingMetaIsp)
        client = system.make_client(QueryMode.BASELINE)
        with pytest.raises(ReproError):
            client.query(SQL)

    def test_lying_freshness_rejected(self):
        system = swap_isp(build_system(2), LyingFreshnessIsp)
        client = system.make_client(QueryMode.INTER)
        client.query(SQL)  # warm the cache (no checks yet)
        system.advance_block("eth")  # make cached pages stale
        # The malicious ISP will claim the stale path is fresh, but its
        # node claim cannot be proven against the new certified root.
        with pytest.raises(ReproError):
            client.query(SQL)

    def test_failed_query_rolls_back_cache_inserts(self):
        system = swap_isp(build_system(), TamperingIsp)
        client = system.make_client(QueryMode.INTER)
        with pytest.raises(ReproError):
            client.query(SQL)
        assert len(client.state.pages) == 0


class TestForgedCertificates:
    def test_certificate_from_wrong_key_rejected(self):
        system = build_system(2)
        real = system.isp.certificate
        rogue = KeyPair.generate(b"rogue-ci")
        forged = V2fsCertificate(
            ads_root=real.ads_root,
            chain_states=real.chain_states,
            version=real.version,
            signature=sign(rogue, real.message()),
            vbf_encoded=real.vbf_encoded,
        )
        system.isp.certificate = forged
        client = system.make_client(QueryMode.BASELINE)
        with pytest.raises(CertificateError):
            client.query(SQL)

    def test_stale_certificate_rejected(self):
        system = build_system(2)
        old_certificate = system.isp.certificate
        old_root = system.isp.root
        old_store_state = None  # the ADS keeps the old root readable
        system.advance_block("eth")
        # A malicious ISP replays the old (validly signed) certificate:
        # the client's observed chain heads are newer, so it is stale.
        system.isp.certificate = old_certificate
        system.isp.root = old_root
        del old_store_state
        client = system.make_client(QueryMode.BASELINE)
        with pytest.raises(CertificateError):
            client.query(SQL)

    def test_tampered_certificate_body_rejected(self):
        system = build_system(2)
        real = system.isp.certificate
        system.isp.certificate = V2fsCertificate(
            ads_root=b"\x00" * 32,
            chain_states=real.chain_states,
            version=real.version,
            signature=real.signature,
            vbf_encoded=real.vbf_encoded,
        )
        client = system.make_client(QueryMode.BASELINE)
        with pytest.raises(CertificateError):
            client.query(SQL)


def _flip(data, index=0, bit=0x01):
    return data[:index] + bytes([data[index] ^ bit]) + data[index + 1:]


def _with_chain_digest_flipped(certificate):
    (chain_id, digest, height), *rest = certificate.chain_states
    return dataclasses.replace(
        certificate,
        chain_states=((chain_id, _flip(digest), height), *rest),
    )


#: One-byte forgeries of a certificate the client has already proven:
#: same version, everything else (including the signature, unless it is
#: the mutated field) carried over unchanged.
ONE_BYTE_FORGERIES = {
    "ads_root": lambda c: dataclasses.replace(
        c, ads_root=_flip(c.ads_root, 31)),
    "chain_digest": _with_chain_digest_flipped,
    "vbf_byte": lambda c: dataclasses.replace(
        c, vbf_encoded=_flip(c.vbf_encoded, len(c.vbf_encoded) // 2)),
    "s_plus_1": lambda c: dataclasses.replace(
        c, signature=Signature(c.signature.s + 1, c.signature.e)),
    "s_minus_1": lambda c: dataclasses.replace(
        c, signature=Signature(c.signature.s - 1, c.signature.e)),
    "e_bit": lambda c: dataclasses.replace(
        c, signature=Signature(c.signature.s, c.signature.e ^ (1 << 77))),
}


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
class TestCertificateMemo:
    """The client proves an unchanged certificate once (exact-triple
    memo) — and *only* an unchanged one.  Every case runs in-process,
    where the ISP hands back the same certificate object each query,
    and over ``connect_client``, where each query decodes a fresh one:
    the memo must key on bytes, never on identity."""

    @pytest.fixture
    def verify_calls(self, monkeypatch):
        """Messages passed to the full Schnorr ``verify`` by
        ``verify_signature`` (the client's, and the CI's self-check on
        ``advance_block``), in order."""
        calls = []
        real = certificate_module.verify

        def counting(public, message, signature):
            calls.append(message)
            return real(public, message, signature)

        monkeypatch.setattr(certificate_module, "verify", counting)
        return calls

    def test_unchanged_certificate_is_verified_once(
        self, path, verify_calls
    ):
        system = build_system(2)
        del verify_calls[:]  # the CI self-checks every block it signs
        with client_of(system, path) as client:
            answers = {tuple(client.query(SQL).rows) for _ in range(5)}
        assert len(answers) == 1
        assert len(verify_calls) == 1

    @pytest.mark.parametrize("field", sorted(ONE_BYTE_FORGERIES))
    def test_one_byte_forgery_misses_and_is_rejected(
        self, path, field, verify_calls
    ):
        system = build_system(2)
        honest = system.isp.certificate
        forged = ONE_BYTE_FORGERIES[field](honest)
        assert forged.version == honest.version and forged != honest
        with client_of(system, path) as client:
            expected = client.query(SQL).rows  # proves `honest`
            cached = dict(client.state.pages._pages)
            assert cached
            del verify_calls[:]

            system.isp.certificate = forged
            for _ in range(2):  # a failure never populates the memo
                with pytest.raises(CertificateError):
                    client.query(SQL)
            # Both presentations went through the full verify (out-of-
            # range ``s`` is refused by it, not skipped around it)...
            assert len(verify_calls) == 2
            # ...nothing the forgery touched outlived it...
            assert dict(client.state.pages._pages) == cached
            # ...and the honest certificate is still the proven one.
            system.isp.certificate = honest
            assert client.query(SQL).rows == expected
            assert len(verify_calls) == 2

    def test_new_block_misses_then_hits_again(self, path, verify_calls):
        system = build_system(2)
        del verify_calls[:]
        with client_of(system, path) as client:
            client.query(SQL)
            client.query(SQL)
            assert len(verify_calls) == 1
            first = verify_calls[0]

            system.advance_block("eth")
            del verify_calls[:]  # drops the CI's own self-check
            client.query(SQL)
            client.query(SQL)
            client.query(SQL)
        assert len(verify_calls) == 1
        assert verify_calls[0] != first

    def test_replayed_old_certificate_hits_and_is_still_stale(
        self, path, verify_calls
    ):
        """Validity is memoized, freshness is not: the replayed triple
        is byte-identical to the proven one, so the signature check is
        a hit — and the chain-head check rejects it all the same."""
        system = build_system(2)
        old_certificate = system.isp.certificate
        old_root = system.isp.root
        with client_of(system, path) as client:
            client.query(SQL)
            system.advance_block("eth")
            system.isp.certificate = old_certificate
            system.isp.root = old_root
            del verify_calls[:]
            with pytest.raises(CertificateError, match="stale"):
                client.query(SQL)
        assert verify_calls == []  # it *was* a hit

    def test_hits_and_misses_partition_the_certificate_requests(
        self, path
    ):
        """``hit + miss == client.cert.requests``: every fetched
        certificate is counted as exactly one of the two, rejected
        ones included (a forgery is a miss that then fails)."""
        from repro.obs import REGISTRY

        system = build_system(2)
        before = REGISTRY.counters_snapshot()
        with client_of(system, path) as client:
            for _ in range(3):
                client.query(SQL)  # miss, hit, hit
            honest = system.isp.certificate
            system.isp.certificate = ONE_BYTE_FORGERIES["ads_root"](honest)
            with pytest.raises(CertificateError):
                client.query(SQL)  # miss
            system.isp.certificate = honest
            client.query(SQL)  # hit
            system.advance_block("btc")
            client.query(SQL)  # miss
            client.query(SQL)  # hit
        delta = REGISTRY.counters_delta(before)
        assert delta["client.cert.memo.hit"] == 4
        assert delta["client.cert.memo.miss"] == 3
        assert delta["client.cert.requests"] == 7

    def test_clients_with_different_enclave_keys_share_nothing(
        self, path, verify_calls
    ):
        from repro.client.query_client import QueryClient
        from repro.sgx.enclave import Enclave

        system = build_system(2)
        real = system.isp.certificate
        other_enclave = Enclave(b"some-other-ci-build")
        with client_of(system, path) as client:
            other = QueryClient(
                isp=client.isp,
                chains=client.chains,
                attestation_report=system.attestation.quote(other_enclave),
                attestation_root=system.attestation.root_public_key,
                expected_measurement=other_enclave.measurement,
            )
            assert other.pk_sgx != client.pk_sgx
            del verify_calls[:]
            resigned = dataclasses.replace(
                real, signature=other_enclave.sign_inside(real.message())
            )
            client.query(SQL)  # `real` is proven — to `client` only
            with pytest.raises(CertificateError):
                other.query(SQL)
            system.isp.certificate = resigned
            other.query(SQL)  # `resigned` is proven — to `other` only
            with pytest.raises(CertificateError):
                client.query(SQL)
        assert len(verify_calls) == 4


class FlippingIsp(IspServer):
    """Honest until told otherwise: serves ``flip = (path, page_id)``
    with one byte changed."""

    flip = None
    #: Inside the first entries of the node, so the *decoded* content
    #: differs (or the parse fails), not just the page checksum.
    OFFSET = 40

    def get_page(self, session_id, path, page_id):
        page = super().get_page(session_id, path, page_id)
        if (path, page_id) == self.flip:
            changed = page[self.OFFSET] ^ 0x01
            return (page[:self.OFFSET] + bytes([changed])
                    + page[self.OFFSET + 1:])
        return page


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
class TestNodeMemo:
    """The client decodes a B+Tree node once per distinct page *content*
    and keeps the decoded nodes across queries.  Content-keyed, an
    entry cannot be stale or belong to a forged page; what these tests
    pin down is that nothing decoded from unverified bytes outlives a
    failed query, and that nothing else (page ids, other clients, the
    plain oracle engine) can stand in for the bytes."""

    SUM = "SELECT COUNT(*), SUM(gas_used) FROM eth_transactions"
    TABLE = "/db/tables/eth_transactions.tbl"

    @staticmethod
    def oracle(system, sql):
        return system.plain_replica().execute(sql).rows

    def test_tampered_page_leaves_no_decoded_node_behind(self, path):
        system = swap_isp(build_system(2), FlippingIsp)
        expected = self.oracle(system, self.SUM)
        with client_of(system, path, QueryMode.BASELINE) as client:
            assert client.query(self.SUM).rows == expected
            assert len(client.state.nodes) > 0
            # The same (path, page_id), one byte different.
            system.isp.flip = (self.TABLE, 1)
            for _ in range(2):
                with pytest.raises(ReproError):
                    client.query(self.SUM)
                assert len(client.state.nodes) == 0
            system.isp.flip = None
            assert client.query(self.SUM).rows == expected
            assert len(client.state.nodes) > 0

    @pytest.mark.parametrize("mode", [QueryMode.BASELINE,
                                      QueryMode.INTER_VBF])
    def test_rewritten_leaf_is_seen_by_the_next_query(self, path, mode):
        system = build_system(2)
        with client_of(system, path, mode) as client:
            before = client.query(self.SUM).rows
            assert before == self.oracle(system, self.SUM)
            report = system.advance_block("eth")
            # The block rewrote pages of the table in place ...
            assert self.TABLE in report.writes
            after = client.query(self.SUM).rows
            # ... and the nodes memoized from their old bytes are not
            # what the next query computes on.
            assert after == self.oracle(system, self.SUM)
            assert after[0][0] > before[0][0]

    def test_clients_and_the_plain_engine_share_nothing(self, path):
        system = build_system(2)
        with client_of(system, path) as client:
            other = system.make_client()
            client.query(SQL)
            self.oracle(system, SQL)  # a plain engine, its own memo
            assert len(client.state.nodes) > 0
            assert len(other.state.nodes) == 0
            assert other.state.nodes is not client.state.nodes
            other.query(SQL)
            assert len(other.state.nodes) == len(client.state.nodes)

    def test_memoized_nodes_cannot_be_changed_through_results(self, path):
        system = build_system(2)
        with client_of(system, path, QueryMode.BASELINE) as client:
            expected = client.query(self.SUM).rows
            for node in client.state.nodes._nodes.values():
                assert isinstance(node, tuple)
                assert isinstance(node.tuples, tuple)
                with pytest.raises(AttributeError):
                    node.tuples = ()
                for entry in getattr(node, "entries", ()):
                    key, value = entry
                    assert isinstance(entry, tuple)
                    assert isinstance(key, tuple)
                    assert isinstance(value, bytes)
            assert client.query(self.SUM).rows == expected


class EquivocatingIsp(IspServer):
    """Honest until armed with ``(kind, arg)``; then the *first* time a
    session asks for a data page of ``TABLE`` it gets forged bytes, and
    every later request of that key in the session gets the genuine
    ones — so the last response for the key always hashes to what the
    VO proves.  ``("flip", offset)`` changes one byte inside the node's
    first entries; ``("swap", shift)`` serves another page of the file.
    """

    TABLE = "/db/tables/eth_transactions.tbl"
    armed = None

    def __init__(self):
        super().__init__()
        self.forged = set()

    def get_page(self, session_id, path, page_id):
        page = super().get_page(session_id, path, page_id)
        request = (session_id, page_id)
        if (self.armed is None or path != self.TABLE or page_id < 1
                or request in self.forged):
            return page
        self.forged.add(request)
        kind, arg = self.armed
        if kind == "flip":
            return page[:arg] + bytes([page[arg] ^ 0x01]) + page[arg + 1:]
        _, _, count = super().get_file_meta(session_id, path)
        other = 1 + (page_id - 1 + arg) % (count - 1)
        return super().get_page(session_id, path, other)


@pytest.fixture(scope="module")
def equivocating_system():
    return swap_isp(build_system(6), EquivocatingIsp)


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
@pytest.mark.parametrize("mode,options", [
    pytest.param(QueryMode.BASELINE, {}, id="baseline"),
    # One page of cache: evictions force re-fetches inside one query.
    # (With two, the engine — one pager per file and a cursor on each
    # tree — no longer asks for any page of the join twice.)
    pytest.param(QueryMode.INTRA, {"cache_bytes": 4096}, id="intra"),
    pytest.param(QueryMode.INTER, {"cache_bytes": 4096}, id="inter"),
    pytest.param(QueryMode.INTER_VBF, {"cache_bytes": 4096},
                 id="inter+vbf"),
])
class TestEquivocation:
    """One key, two contents, one session.  The claim the VO is checked
    against must be the bytes the engine consumed: a later (genuine)
    response for a key may not replace the claim of an earlier (forged)
    one the engine has already computed on."""

    #: The Q2 shape: the join's inner side looks every transaction up by
    #: rowid.  A leaf answers consecutive lookups from the tree's cursor;
    #: the key still requested again and again is the table's root, once
    #: per descent to another leaf.
    JOIN = ("SELECT COUNT(*), SUM(x.value), SUM(t.gas_price) "
            "FROM eth_token_transfers x JOIN eth_transactions t "
            "ON x.tx_hash = t.hash")
    FORGERIES = [("flip", offset) for offset in range(8, 120, 8)] + [
        ("swap", 1), ("swap", 2),
    ]

    def test_first_forged_then_genuine_is_rejected(
        self, equivocating_system, path, mode, options
    ):
        system = equivocating_system
        isp = system.isp
        expected = system.plain_replica().execute(self.JOIN).rows
        try:
            with client_of(system, path, mode, **options) as client:
                assert client.query(self.JOIN).rows == expected
                second_responses = 0
                for forgery in self.FORGERIES:
                    cache = client.state.pages
                    cached = set(cache._pages) if cache is not None else None
                    isp.armed = forgery
                    with pytest.raises(ReproError) as refused:
                        client.query(self.JOIN)
                    isp.armed = None
                    second_responses += "two different contents" in str(
                        refused.value)
                    assert len(isp.sessions) == 0
                    assert len(client.state.nodes) == 0
                    if cache is not None:  # evicted from, never added to
                        assert set(cache._pages) <= cached
                    assert client.query(self.JOIN).rows == expected
                # Most forgeries parse, and are then caught by the
                # genuine second response — not only by the final VO
                # check, which a once-requested key would leave them to.
                assert second_responses > len(self.FORGERIES) // 2
        finally:
            isp.armed = None


class ForgedLeafIsp(IspServer):
    """Honest until armed; then the first request a session makes for a
    leaf of ``TABLE`` is answered with a well-formed forgery — once, and
    every later request with the genuine page.  ``"forged"`` re-encodes
    the leaf with every row carrying its shortest row's record;
    ``"misplaced"`` serves another leaf of the file in its place."""

    TABLE = "/db/tables/eth_transactions.tbl"
    armed = None

    def __init__(self):
        super().__init__()
        self.deceived = set()

    def get_page(self, session_id, path, page_id):
        from repro.db import btree
        from repro.db.pager import seal_page

        page = super().get_page(session_id, path, page_id)
        if (self.armed is None or path != self.TABLE or page_id < 1
                or page[0] != btree._LEAF or session_id in self.deceived):
            return page
        self.deceived.add(session_id)
        if self.armed == "forged":
            leaf = btree._decode_node(page)
            record = min((value for _, value in leaf.entries), key=len)
            leaf.entries = [(key, record) for key, _ in leaf.entries]
            return seal_page(leaf.encode())
        _, _, count = super().get_file_meta(session_id, path)
        return next(
            other for other in (
                super(ForgedLeafIsp, self).get_page(session_id, path, pid)
                for pid in range(1, count) if pid != page_id
            ) if other[0] == btree._LEAF
        )


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
@pytest.mark.parametrize("mode", [QueryMode.BASELINE, QueryMode.INTER_VBF],
                         ids=["baseline", "inter+vbf"])
class TestHeldLeaf:
    """A statement keeps one pager per file and each tree keeps the
    leaf it last landed on, so one response now answers many lookups
    without a second request.  It is still one ``page_claims`` entry
    the VO must vouch for, and nothing held outlives the statement."""

    JOIN = TestEquivocation.JOIN
    TABLE = ForgedLeafIsp.TABLE

    @pytest.mark.parametrize("forgery", ["forged", "misplaced"])
    def test_leaf_forged_once_never_verifies(self, path, mode, forgery):
        system = swap_isp(build_system(6), ForgedLeafIsp)
        isp = system.isp
        expected = system.plain_replica().execute(self.JOIN).rows
        with client_of(system, path, mode) as client:
            for _ in range(2):  # on a cold client, then on a warm one
                isp.armed = forgery
                cache = client.state.pages
                cached = set(cache._pages) if cache is not None else None
                if cached:  # make the warm client fetch the table again
                    for key in [k for k in cached if k[0] == self.TABLE]:
                        cache.discard(key)
                        cached.discard(key)
                deceived = len(isp.deceived)
                with pytest.raises(VerificationError):
                    client.query(self.JOIN)
                isp.armed = None
                assert len(isp.deceived) == deceived + 1
                assert len(isp.sessions) == 0
                assert len(client.state.nodes) == 0
                if cache is not None:
                    assert set(cache._pages) <= cached
                assert client.query(self.JOIN).rows == expected

    def test_block_rewriting_the_held_leaf_is_seen(self, path, mode):
        """The join's lookups, and the row lookups of a range over the
        newest transactions, end on the table's last leaf — the page the
        next block appends to in place.  Whether the block adds a token
        transfer the join counts is up to the generated data; that it
        adds rows to that range follows from the block itself."""
        system = build_system(6)
        newest = system.plain_replica().execute(
            "SELECT MAX(block_time) FROM eth_transactions").scalar()
        tail = ("SELECT COUNT(*), SUM(gas_price) FROM eth_transactions "
                f"WHERE block_time >= {newest}")

        def answers(client):
            oracle = system.plain_replica()
            rows = [client.query(sql).rows for sql in (self.JOIN, tail)]
            assert rows == [oracle.execute(self.JOIN).rows,
                            oracle.execute(tail).rows]
            return rows[1][0][0]

        with client_of(system, path, mode) as client:
            before = answers(client)
            report = system.advance_block("eth")
            assert self.TABLE in report.writes  # transactions appended
            assert answers(client) > before


class GarbledRowIsp(IspServer):
    """Honest until armed; then the first leaf of ``TABLE`` a session
    asks for is served with every row's record bytes garbled and its
    keys and lengths intact, so the page parses.  ``"tag"`` makes each
    row's first value tag unknown (decoding the row raises); ``"text"``
    flips a bit of each row's first text value (the rows decode, to the
    wrong values, and only the VO can tell)."""

    TABLE = ForgedLeafIsp.TABLE
    armed = None

    def __init__(self):
        super().__init__()
        self.garbled = set()

    def get_page(self, session_id, path, page_id):
        from repro.db import btree
        from repro.db.pager import seal_page

        page = super().get_page(session_id, path, page_id)
        if (self.armed is None or path != self.TABLE or page_id < 1
                or page[0] != btree._LEAF or session_id in self.garbled):
            return page
        self.garbled.add(session_id)
        # A record is [count:2][tag:1][payload]; a text payload starts
        # with its 4-byte length.
        offset, bits = (2, 0x7C) if self.armed == "tag" else (7, 0x01)
        leaf = btree._decode_node(page)
        leaf.entries = [
            (key, value[:offset] + bytes([value[offset] ^ bits])
             + value[offset + 1:])
            for key, value in leaf.entries
        ]
        return seal_page(leaf.encode())


@pytest.fixture(scope="module")
def garbled_row_system():
    return swap_isp(build_system(6), GarbledRowIsp)


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
@pytest.mark.parametrize("mode", [QueryMode.BASELINE, QueryMode.INTER_VBF],
                         ids=["baseline", "inter+vbf"])
class TestRowSlots:
    """A memoized table leaf keeps each row it decoded.  The slots are a
    function of the page bytes the engine was handed, so they are only
    as trustworthy as those bytes: gone with the memo when the query
    fails, and never shared with a reader that could change them."""

    #: Rows read through the cursor's point lookups, and through a scan.
    QUERIES = [
        TestEquivocation.JOIN,
        "SELECT COUNT(*), SUM(gas_price), MAX(hash) FROM eth_transactions",
    ]
    TABLE = GarbledRowIsp.TABLE

    @pytest.mark.parametrize("garbling", ["tag", "text"])
    def test_garbled_rows_served_once_never_survive(
        self, garbled_row_system, path, mode, garbling
    ):
        system = garbled_row_system
        isp = system.isp
        oracle = system.plain_replica()
        try:
            with client_of(system, path, mode) as client:
                for sql in self.QUERIES * 2:  # cold, then warm
                    cache = client.state.pages
                    if cache is not None:  # make it fetch the table again
                        for key in [k for k in cache._pages
                                    if k[0] == self.TABLE]:
                            cache.discard(key)
                    garbled = len(isp.garbled)
                    isp.armed = garbling
                    with pytest.raises((StorageError, VerificationError)):
                        client.query(sql)
                    isp.armed = None
                    assert len(isp.garbled) == garbled + 1
                    assert len(isp.sessions) == 0
                    assert len(client.state.nodes) == 0
                    assert client.query(sql).rows == oracle.execute(sql).rows
        finally:
            isp.armed = None

    def test_a_reader_that_keeps_and_mutates_rows_changes_nothing(
        self, garbled_row_system, path, mode, monkeypatch
    ):
        from repro.db.btree import BTree

        system = garbled_row_system
        handed = []
        rows, get_row = BTree.rows, BTree.get_row

        def kept_rows(tree):
            for key, row in rows(tree):
                handed.append(row)
                yield key, row

        def kept_row(tree, key):
            row = get_row(tree, key)
            handed.append([] if row is None else row)
            return row

        with client_of(system, path, mode) as client:
            for sql in self.QUERIES:
                expected = system.plain_replica().execute(sql).rows
                with monkeypatch.context() as patch:
                    patch.setattr(BTree, "rows", kept_rows)
                    patch.setattr(BTree, "get_row", kept_row)
                    assert client.query(sql).rows == expected
                assert handed
                for row in handed:
                    row[:] = ["scribbled"] * (len(row) + 1)
                handed.clear()
                assert client.query(sql).rows == expected
                assert len(client.state.nodes) > 0  # the memo was in play


class _TwoFacedIsp:
    """The slice of the ISP interface a ``ClientSession`` reads pages
    through, answering each request with the next of ``pages``."""

    def __init__(self, pages):
        self.pages = list(pages)
        self.finalized = False

    def open_session(self, expected_version=None):
        return 1

    def get_page(self, session_id, path, page_id):
        return self.pages.pop(0)

    def finalize_session(self, session_id):
        self.finalized = True
        raise NetworkError("not reached")


class TestOneContentPerKey:
    """The unit form, on a ``ClientSession`` alone."""

    GENUINE = b"g" * 4096
    FORGED = b"g" * 4095 + b"f"

    @staticmethod
    def session(system, isp):
        from repro.client.vfs import ClientSession
        from repro.network.transport import Transport

        return ClientSession(isp, Transport(), system.isp.get_certificate(),
                             CarriedState(QueryMode.BASELINE, 1 << 20))

    @pytest.mark.parametrize("order", ["forged-first", "genuine-first"])
    def test_second_content_for_a_key_is_refused(self, order):
        system = build_system(1)
        pages = [self.FORGED, self.GENUINE]
        if order == "genuine-first":
            pages.reverse()
        isp = _TwoFacedIsp(pages)
        session = self.session(system, isp)
        first = session.access_page("/f", 1)
        claim = dict(session.page_claims)
        with pytest.raises(VerificationError, match="two different"):
            session.access_page("/f", 1)
        # The claim is still the one for the bytes the engine was given.
        assert session.page_claims == claim
        assert claim[("/f", 1)] == V2fsAds.page_digest(first)
        assert not isp.finalized

    def test_equal_bytes_are_one_claim_and_one_object(self):
        system = build_system(1)
        isp = _TwoFacedIsp([self.GENUINE, bytes(bytearray(self.GENUINE)),
                            self.FORGED])
        session = self.session(system, isp)
        first = session.access_page("/f", 1)
        assert session.access_page("/f", 1) is first  # a copy came back
        other = session.access_page("/f", 2)          # another key
        assert other == self.FORGED
        assert len(session.page_claims) == 2

    def test_stale_path_page_reply_is_bound_by_the_same_rule(self):
        """``validate_path`` answering "page" is a page response too."""
        from repro.client.vfs import ClientSession
        from repro.network.transport import Transport

        system = build_system(1)
        isp = _TwoFacedIsp([self.FORGED])
        isp.get_file_meta = lambda sid, path: (True, 8192, 2)
        isp.validate_path = lambda sid, path, pid, digs: (
            "page", self.GENUINE
        )
        state = CarriedState(QueryMode.INTER, 2 * 4096)
        cache = state.pages
        cache.insert(("/f", 1), b"old" * 1365 + b"o", 0)  # a past query's
        session = ClientSession(
            isp, Transport(), system.isp.get_certificate(), state,
        )
        assert session.access_page("/f", 1) == self.GENUINE  # the reply
        cache.discard(("/f", 1))                             # "evicted"
        with pytest.raises(VerificationError, match="two different"):
            session.access_page("/f", 1)                     # re-fetched


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
class TestFailedQueryClosesItsSession:
    """An ISP session pins its snapshot root against pruning, so a
    client whose query fails must still close the one it opened."""

    BAD_SQL = "SELECT * FROM no_such_table"

    def test_failed_queries_leave_no_session_behind(self, path):
        system = build_system(2)
        with client_of(system, path) as client:
            for _ in range(3):
                with pytest.raises(ReproError):
                    client.query(self.BAD_SQL)
            assert len(system.isp.sessions) == 0
            assert client.query(SQL).rows  # and the client still works
        assert len(system.isp.sessions) == 0

    def test_rejected_answer_leaves_no_session_behind(self, path):
        """finalize() itself failed, so the session is already closed
        when the client tries to: that error is not the one raised."""
        system = swap_isp(build_system(2), TamperingIsp)
        with client_of(system, path, QueryMode.BASELINE) as client:
            with pytest.raises(VerificationError):
                client.query(SQL)
        assert len(system.isp.sessions) == 0

    def test_failed_querys_root_is_pruned(self, path):
        system = build_system(2)
        with client_of(system, path) as client:
            with pytest.raises(ReproError):
                client.query(self.BAD_SQL)
        failed_root = system.isp.root
        for _ in range(2):
            system.advance_block("eth")
        assert failed_root not in system.isp.ads.store


def _flip8(page, rng):
    garbled = bytearray(page)
    for _ in range(8):
        garbled[rng.randrange(len(page))] ^= 1 + rng.randrange(255)
    return bytes(garbled)


def _wrong_schema(page, rng):
    """A well-formed catalog file — length prefix, valid UTF-8, valid
    JSON — whose document is not a catalog."""
    raw = rng.choice([
        '[1, 2]', '{"tables": 5}', '{"tables": [{"name": "t"}]}', '"é"',
        '{"tables": [{"name": "t", "columns": [1], "file_path": "x",'
        ' "indexes": [{"bogus": 1}]}]}',
    ]).encode("utf-8")
    return (len(raw).to_bytes(8, "big") + raw).ljust(len(page), b"\x00")


PAGE_MUTATIONS = {
    "flip8": _flip8,
    "random": lambda page, rng: rng.randbytes(len(page)),
    "truncated": lambda page, rng: page[:rng.randrange(64)],
    "wrong-schema": _wrong_schema,
    "short-meta": None,  # the page is honest; get_file_meta is not
    "other-page": None,  # honest bytes of another page of the same file
}


class GarblingIsp(IspServer):
    """Honest until armed with ``(path, mutation, seed)``; then every
    page of that file past ``FIRST_PAGE`` is served mutated (or its
    size understated) — bytes the engine parses before ``finalize``
    has verified anything."""

    armed = None
    FIRST_PAGE = {"/db/catalog": 0}  # tables: spare the header page

    def get_page(self, session_id, path, page_id):
        page = super().get_page(session_id, path, page_id)
        if self.armed is None or self.armed[1] == "short-meta":
            return page
        target, mutation, seed = self.armed
        first = self.FIRST_PAGE.get(path, 1)
        if path == target and page_id >= first:
            rng = random.Random(f"{seed}/{page_id}")
            if mutation == "other-page":
                # A well-formed node in the wrong place: a leaf for
                # the root, the root for a leaf, one leaf for another.
                _, _, count = super().get_file_meta(session_id, path)
                others = [p for p in range(first, count) if p != page_id]
                return super().get_page(
                    session_id, path, rng.choice(others)
                )
            return PAGE_MUTATIONS[mutation](page, rng)
        return page

    def get_file_meta(self, session_id, path):
        exists, size, page_count = super().get_file_meta(session_id, path)
        if self.armed is not None and self.armed[:2] == (path, "short-meta"):
            size -= random.Random(self.armed[2]).randrange(1, size)
        return exists, size, page_count


@pytest.fixture(scope="module")
def garbling_system():
    return swap_isp(build_system(6), GarblingIsp)


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
@pytest.mark.parametrize("target,mutation", [
    pytest.param(target, mutation, id=f"{name}-{mutation}")
    for name, target in (("catalog", "/db/catalog"),
                         ("table", "/db/tables/eth_transactions.tbl"))
    for mutation in PAGE_MUTATIONS
    if (mutation == "wrong-schema") <= (name == "catalog")
    if (mutation == "other-page") <= (name == "table")
])
class TestHostileBytesBeforeVerification:
    """The catalog and every row are decoded from pages the client has
    not verified yet.  Whatever those bytes are, ``query`` fails with a
    typed error and leaves the session table, the page cache and the
    node memo as it found them."""

    #: A full scan and an index range scan: the two row decoders.
    QUERIES = (
        "SELECT COUNT(*), SUM(gas_used) FROM eth_transactions",
        "SELECT hash FROM eth_transactions WHERE block_time > 0",
    )

    def test_query_fails_typed_and_leaves_nothing_behind(
        self, garbling_system, path, target, mutation
    ):
        system = garbling_system
        isp = system.isp
        expected = [
            system.plain_replica().execute(sql).rows for sql in self.QUERIES
        ]
        try:
            with client_of(system, path) as client:
                for seed in range(6):
                    isp.armed = (target, mutation, seed)
                    for sql in self.QUERIES:
                        with pytest.raises(ReproError):
                            client.query(sql)
                        assert len(isp.sessions) == 0
                        assert len(client.state.pages._pages) == 0
                        assert len(client.state.nodes) == 0
                isp.armed = None
                for sql, rows in zip(self.QUERIES, expected):
                    assert client.query(sql).rows == rows
        finally:
            isp.armed = None


class LyingMetaIsp(IspServer):
    """Honest until armed with a page delta; then the next time it is
    *asked* for ``TABLE``'s metadata it misstates the size by that many
    pages — once.  ``asked`` lists every path it was asked about."""

    TABLE = "/db/tables/eth_transactions.tbl"
    armed = None

    def __init__(self):
        super().__init__()
        self.asked = []

    def get_file_meta(self, session_id, path):
        self.asked.append(path)
        exists, size, page_count = super().get_file_meta(session_id, path)
        if self.armed is not None and path == self.TABLE:
            delta, self.armed = self.armed, None
            return exists, size + 4096 * delta, page_count + delta
        return exists, size, page_count


_oracle = TestNodeMemo.oracle


def _carried_state_is_empty(client):
    """Nothing a failed query may have touched is still held."""
    state = client.state
    return (len(state.metas) == 0 and len(state.nodes) == 0
            and len(state.catalog) == 0)


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
@pytest.mark.parametrize("mode", [QueryMode.INTER, QueryMode.INTER_VBF],
                         ids=["inter", "inter+vbf"])
class TestProvenMetas:
    """A cached-mode client asks for a file's metadata once per ADS
    root: what a finalized VO proved answers later sessions under that
    same root.  Pinned down here: a lie never enters the proven set, any
    failed query empties it, a new root empties it (so hidden appends
    cannot ride on an old size), and it is nobody else's."""

    SUM = "SELECT COUNT(*), SUM(gas_used) FROM eth_transactions"
    OTHER = "SELECT COUNT(*) FROM btc_transactions"
    TABLE = LyingMetaIsp.TABLE

    @pytest.mark.parametrize("delta", [-1, +1], ids=["under", "over"])
    def test_size_misstated_once_is_refused_and_leaves_nothing(
        self, path, mode, delta
    ):
        system = swap_isp(build_system(2), LyingMetaIsp)
        isp = system.isp
        expected = _oracle(system, self.SUM)
        with client_of(system, path, mode) as client:
            cache = client.state.pages
            isp.armed = delta
            with pytest.raises(ReproError):
                client.query(self.SUM)
            assert isp.armed is None  # it was asked, and it lied
            assert len(isp.sessions) == 0
            assert _carried_state_is_empty(client)
            assert len(cache._pages) == 0
            # The next, honest query asks for that size again.
            del isp.asked[:]
            assert client.query(self.SUM).rows == expected
            assert self.TABLE in isp.asked
            assert client.state.metas.value[self.TABLE][0] is True
            assert client.state.metas.key == system.isp.certificate.ads_root

    def test_later_lie_under_an_unchanged_certificate_is_never_asked(
        self, path, mode
    ):
        system = swap_isp(build_system(2), LyingMetaIsp)
        isp = system.isp
        with client_of(system, path, mode) as client:
            expected = client.query(self.SUM).rows
            assert expected == _oracle(system, self.SUM)
            del isp.asked[:]
            isp.armed = -1
            for _ in range(3):
                answer = client.query(self.SUM)
                assert answer.rows == expected
                assert answer.stats.meta_requests == 0
            assert isp.asked == [] and isp.armed == -1
            # Under the next root it is asked, lies, and is refused:
            # the proven sizes did not cross over.
            system.advance_block("eth")
            with pytest.raises(ReproError):
                client.query(self.SUM)
            assert isp.armed is None and self.TABLE in isp.asked
            assert _carried_state_is_empty(client)
            assert client.query(self.SUM).rows == _oracle(system, self.SUM)

    def test_table_growing_over_a_page_boundary_is_seen(self, path, mode):
        """Completeness: metadata proven before the append must not
        hide the rows after it."""
        system = swap_isp(build_system(2), LyingMetaIsp)
        isp = system.isp

        def pages_of_table():
            return isp.ads.file_node(isp.root, self.TABLE).page_count

        with client_of(system, path, mode) as client:
            cold = client.query(self.SUM)
            cold_asked = sorted(isp.asked)
            assert cold.stats.meta_requests == len(cold_asked) > 0
            pages = pages_of_table()
            for _ in range(30):
                # Warm under the current root, then move it.
                client.query(self.SUM)
                assert client.query(self.SUM).stats.meta_requests == 0
                system.advance_block("eth")
                if pages_of_table() > pages:
                    break
            else:
                pytest.fail("the table never grew by a page")
            del isp.asked[:]
            grown = client.query(self.SUM)
            assert grown.rows == _oracle(system, self.SUM)
            assert grown.rows[0][0] > cold.rows[0][0]
            assert sorted(isp.asked) == cold_asked  # every one, again
            assert (client.state.metas.value[self.TABLE][2]
                    == pages_of_table() > pages)

    def test_replayed_certificate_leaves_nothing_for_the_current_root(
        self, path, mode
    ):
        system = swap_isp(build_system(2), LyingMetaIsp)
        isp = system.isp
        with client_of(system, path, mode) as client:
            cold = client.query(self.SUM).stats.meta_requests
            old_certificate, old_root = isp.certificate, isp.root
            system.advance_block("eth")
            current_certificate, current_root = isp.certificate, isp.root
            isp.certificate, isp.root = old_certificate, old_root
            del isp.asked[:]
            with pytest.raises(CertificateError, match="stale"):
                client.query(self.SUM)
            assert isp.asked == [] and len(isp.sessions) == 0
            isp.certificate, isp.root = current_certificate, current_root
            answer = client.query(self.SUM)
            assert answer.rows == _oracle(system, self.SUM)
            assert answer.stats.meta_requests == cold
            assert client.state.metas.key == current_root

    @pytest.mark.parametrize("failure", ["garbled-page", "engine-error"])
    def test_any_failed_query_drops_the_proven_set(
        self, path, mode, failure
    ):
        system = swap_isp(build_system(2), FlippingIsp)
        isp = system.isp
        with client_of(system, path, mode) as client:
            first = client.query(self.SUM)
            assert client.state.metas.value
            if failure == "garbled-page":  # of a table not cached yet
                isp.flip = ("/db/tables/btc_transactions.tbl", 1)
                doomed = self.OTHER
            else:
                doomed = "SELECT * FROM no_such_table"
            cached = set(client.state.pages._pages)
            with pytest.raises(ReproError):
                client.query(doomed)
            isp.flip = None
            assert len(isp.sessions) == 0
            assert _carried_state_is_empty(client)
            assert set(client.state.pages._pages) <= cached
            again = client.query(self.SUM)
            assert again.rows == first.rows
            assert again.stats.meta_requests == first.stats.meta_requests

    def test_clients_share_nothing(self, path, mode):
        system = build_system(2)
        with client_of(system, path, mode) as client:
            other = system.make_client(mode)
            cold = client.query(self.SUM).stats.meta_requests
            assert client.state.metas.value
            assert len(other.state.metas) == 0
            assert len(other.state.catalog) == 0
            assert other.state.filter.value is None
            assert other.state.catalog is not client.state.catalog
            assert other.query(self.SUM).stats.meta_requests == cold
            if mode is QueryMode.INTER_VBF:
                assert (other.state.filter.value
                        is not client.state.filter.value)

    def test_no_nonexistence_is_ever_kept(self, path, mode):
        system = build_system(2)
        with client_of(system, path, mode) as client:
            client.query(self.SUM)
            session_metas = []
            real = CarriedState.learn_metas

            def recording(state, root, metas):
                session_metas.append(dict(metas))
                real(state, root, metas)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(CarriedState, "learn_metas", recording)
                system.advance_block("eth")
                client.query(self.SUM)
            assert session_metas and all(
                exists for metas in session_metas
                for exists, _, _ in metas.values()
            )
            assert all(m[0] for m in client.state.metas.value.values())


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
@pytest.mark.parametrize("mode", [QueryMode.BASELINE, QueryMode.INTRA],
                         ids=["baseline", "intra"])
def test_uncached_modes_ask_every_meta_every_query(path, mode):
    """Nothing outlives a query in ``BASELINE`` and ``INTRA``: each one
    makes the metadata requests it made before proven metadata existed
    (the catalog and the table, for this scan)."""
    system = build_system(2)
    with client_of(system, path, mode) as client:
        assert client.state.pages is None
        for _ in range(3):
            assert client.query(SQL).stats.meta_requests == 2


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
class TestDecodedFilter:
    """``V2fsCertificate.vbf()`` runs once per distinct validated
    certificate; the kept filter is only ever read."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        calls = []
        real = V2fsCertificate.vbf

        def counting(certificate):
            calls.append(certificate.version)
            return real(certificate)

        monkeypatch.setattr(V2fsCertificate, "vbf", counting)
        return calls

    def test_decoded_once_per_certificate_and_never_written(
        self, path, decodes
    ):
        system = build_system(2)
        with client_of(system, path) as client:
            for _ in range(3):
                client.query(SQL)
            first = system.isp.certificate
            assert decodes == [first.version]
            system.advance_block("eth")
            for _ in range(3):
                client.query(SQL)
            second = system.isp.certificate
            assert decodes == [first.version, second.version]
            kept = client.state.filter.value
            assert kept.encode() == second.vbf_encoded

    def test_rejected_certificate_is_not_decoded(self, path, decodes):
        system = build_system(2)
        honest = system.isp.certificate
        with client_of(system, path) as client:
            client.query(SQL)
            kept = client.state.filter.value
            system.isp.certificate = ONE_BYTE_FORGERIES["vbf_byte"](honest)
            with pytest.raises(CertificateError):
                client.query(SQL)
            system.isp.certificate = honest
            client.query(SQL)
            assert decodes == [honest.version]
            assert client.state.filter.value is kept

    def test_other_modes_decode_nothing(self, path, decodes):
        system = build_system(2)
        for mode in (QueryMode.BASELINE, QueryMode.INTRA, QueryMode.INTER):
            with client_of(system, path, mode) as client:
                client.query(SQL)
        assert decodes == []


class FreshLieIsp(IspServer):
    """Honest until armed; then, once, answers a freshness check whose
    honest answer is anything else with ``("fresh", …)`` for the
    client's own top digest."""

    armed = False

    def validate_path(self, session_id, path, page_id, digs_path):
        honest = super().validate_path(session_id, path, page_id, digs_path)
        if self.armed and digs_path:
            lie = ("fresh", *digs_path[0])
            if honest != lie:
                self.armed = False
                return lie
        return honest


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
def test_an_unproven_fresh_answer_raises_no_page_version(path):
    """A cached page's ``V_n`` (the version it was last known fresh
    at) rises only for freshness a verified VO proved.  Raised on the
    ISP's word, a failed query's lie outlived it: with the filter saying
    "unchanged since ``V_n``", the next query took the stale pages
    without asking anything, and its stale answer verified."""
    system = swap_isp(build_system(2), FreshLieIsp)
    isp = system.isp
    sql = TestNodeMemo.SUM
    with client_of(system, path, QueryMode.INTER_VBF) as client:
        client.query(sql)
        system.advance_block("eth")  # rewrites cached table pages
        isp.armed = True
        with pytest.raises(ReproError):
            client.query(sql)
        assert not isp.armed  # it was asked, and it lied
        assert len(isp.sessions) == 0
        assert client.query(sql).rows == _oracle(system, sql)


class SwappedCatalogIsp(IspServer):
    """Honest until armed; then serves a well-formed catalog in which
    two tables have traded files (same length, so every page boundary
    stays where it was)."""

    CATALOG = "/db/catalog"
    ONE = b"/db/tables/eth_transactions.tbl"
    OTHER = b"/db/tables/btc_transactions.tbl"
    armed = False

    def get_page(self, session_id, path, page_id):
        page = super().get_page(session_id, path, page_id)
        if not self.armed or path != self.CATALOG:
            return page
        _, _, count = super().get_file_meta(session_id, path)
        whole = b"".join(
            super(SwappedCatalogIsp, self).get_page(session_id, path, pid)
            for pid in range(count)
        )
        assert len(self.ONE) == len(self.OTHER)
        swapped = (whole.replace(self.ONE, b"\x00" * len(self.ONE))
                   .replace(self.OTHER, self.ONE)
                   .replace(b"\x00" * len(self.ONE), self.OTHER))
        return swapped[page_id * 4096:(page_id + 1) * 4096]


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
@pytest.mark.parametrize("mode", list(QueryMode), ids=lambda m: m.value)
class TestCatalogMemo:
    """The parsed catalog is kept per distinct catalog *bytes*, read
    through the verified VFS every query.  A forged catalog served once
    is refused by the VO check on its page and is not what any later
    query plans with."""

    def test_forged_catalog_served_once_does_not_survive(self, path, mode):
        system = build_system(2)
        system.advance_block("eth")  # so the two tables differ in size
        isp = swap_isp(system, SwappedCatalogIsp).isp
        expected = _oracle(system, SQL)
        assert expected != _oracle(
            system, "SELECT COUNT(*) FROM btc_transactions")
        with client_of(system, path, mode) as client:
            for warm in (False, True):
                if warm and client.state.pages is not None:
                    # Make the warm client read the catalog file again.
                    for key in [k for k in client.state.pages._pages
                                if k[0] == isp.CATALOG]:
                        client.state.pages.discard(key)
                isp.armed = True
                with pytest.raises(VerificationError):
                    client.query(SQL)
                isp.armed = False
                assert len(client.state.catalog) == 0
                assert len(client.state.nodes) == 0
                assert len(isp.sessions) == 0
                assert client.query(SQL).rows == expected
                assert len(client.state.catalog) == 1

    def test_unchanged_bytes_are_parsed_once_and_still_read(
        self, path, mode, monkeypatch
    ):
        from repro.db.catalog import Catalog

        parses = []
        real = Catalog.from_json.__func__
        monkeypatch.setattr(
            Catalog, "from_json",
            classmethod(lambda cls, text: parses.append(1) or real(cls, text)),
        )
        system = swap_isp(build_system(2), LyingMetaIsp)
        del parses[:]  # the CI's maintenance engine parses for itself
        with client_of(system, path, mode) as client:
            reads = []
            for _ in range(3):
                before = len(system.isp.asked)
                client.query(SQL)
                reads.append(len(system.isp.asked) - before)
            assert len(parses) == 1
            if not mode.uses_inter_cache:  # the file is opened each time
                assert reads == [2, 2, 2]
            # A block that leaves the schema alone changes no catalog
            # byte: the verified read finds the same key.
            system.advance_block("eth")
            del parses[:]
            client.query(SQL)
            assert parses == []
            # The oracle's plain engine is handed no memo.
            _oracle(system, SQL)
            assert len(parses) == 1


class TestMaliciousCiStorage:
    def test_lying_storage_metadata_detected(self):
        """The CI's outside-enclave storage lies about a file's size."""
        system = build_system(1)
        ci = system.ci
        original_handler = ci.enclave._handlers["open"]

        def lying_open(path):
            exists, size, page_count = original_handler(path)
            if exists and path.endswith(".tbl"):
                return exists, size + 4096, page_count + 1
            return exists, size, page_count

        ci.enclave.register_ocall("open", lying_open)
        with pytest.raises(ProofError):
            system.advance_block("eth")

    def test_tampered_storage_page_detected(self):
        """The CI's storage returns a modified page to the enclave."""
        system = build_system(1)
        ci = system.ci
        original_handler = ci.enclave._handlers["get_page"]
        state = {"fired": False}

        def tampering_get_page(root, path, page_id):
            page = original_handler(root, path, page_id)
            if path.endswith(".tbl") and not state["fired"]:
                state["fired"] = True
                return b"\xff" + page[1:]
            return page

        ci.enclave.register_ocall("get_page", tampering_get_page)
        with pytest.raises(ReproError):
            system.advance_block("eth")


@pytest.mark.parametrize("framing", ["plain", "ids"])
@pytest.mark.parametrize("transport", ["thread", "loop"])
class TestWireAdversaries:
    """Wire-level attacks on the RPC path: corrupt, truncated, and
    oversized frames must be rejected client-side with typed errors —
    never a crash, never an accepted result.

    Every attack overrides the server's one wire seam (``_wire``) and
    runs against both transports, with the verifying client sending
    plain frames and id-carrying ones (which the server echoes)."""

    FRAME_ID = 0xBEEF

    @pytest.fixture
    def frame_id(self, framing, monkeypatch):
        """The id requests carry in this run; the stock client is made
        to stamp it on every frame it sends."""
        from repro.rpc import codec

        if framing == "plain":
            return None

        def send_with_id(sock, payload, deadline_ms=None):
            sock.sendall(codec.frame(payload, deadline_ms, self.FRAME_ID))

        monkeypatch.setattr(codec, "send_frame", send_with_id)
        return self.FRAME_ID

    @staticmethod
    def server_class(transport):
        from repro.rpc import RpcIspServer
        from repro.serve import AsyncIspServer

        return {"thread": RpcIspServer, "loop": AsyncIspServer}[transport]

    def attack(self, transport, frame_id, wire, error, match=None):
        """Serve through ``wire(honest_seam, payload, frame_id)`` and
        expect the verifying client's query to raise ``error``."""
        from repro.client.query_client import QueryClient
        from repro.rpc import RemoteIsp
        from repro.rpc.server import serve_system

        seen_ids = set()

        class Adversary(self.server_class(transport)):
            def _wire(self, payload, frame_id):
                seen_ids.add(frame_id)
                return wire(super()._wire, payload, frame_id)

        system = build_system(2)
        with serve_system(system, server_class=Adversary) as server:
            host, port = server.address
            client = QueryClient(
                isp=RemoteIsp(host, port, max_retries=1, backoff_s=0.01),
                chains=system.chains,
                attestation_report=system.attestation_report,
                attestation_root=system.attestation.root_public_key,
                expected_measurement=system.ci.enclave.measurement,
                mode=QueryMode.BASELINE,
            )
            with pytest.raises(error, match=match):
                client.query(SQL)
            client.isp.close()
        assert seen_ids == {frame_id}  # the seam saw every reply's id

    def test_bit_flipped_page_frame_rejected(self, transport, frame_id):
        """A flipped bit in a page frame (stale CRC) is caught by the
        frame checksum and answered with a typed wire error."""
        from repro.errors import WireFormatError
        from repro.rpc import codec

        def wire(honest, payload, frame_id):
            data, sever = honest(payload, frame_id)
            if payload[0] == codec.RESP_PAGE:
                data = data[:-1] + bytes([data[-1] ^ 0x01])
            return data, sever

        self.attack(transport, frame_id, wire, WireFormatError, "checksum")

    def test_bit_flipped_page_with_fixed_crc_rejected(
        self, transport, frame_id
    ):
        """An adversary who recomputes the CRC gets past the framing —
        and is then caught by the cryptographic verification."""
        from repro.rpc import codec

        def wire(honest, payload, frame_id):
            if payload[0] == codec.RESP_PAGE:
                payload = payload[:-1] + bytes([payload[-1] ^ 0x01])
            return honest(payload, frame_id)

        self.attack(transport, frame_id, wire, ReproError)

    def test_truncated_vo_frame_rejected(self, transport, frame_id):
        from repro.errors import WireFormatError
        from repro.rpc import codec

        def wire(honest, payload, frame_id):
            data, sever = honest(payload, frame_id)
            if payload[0] == codec.RESP_VO:
                return data[:-9], True  # torn frame, then the drop
            return data, sever

        self.attack(transport, frame_id, wire, WireFormatError, "mid-frame")

    def test_oversized_length_prefix_rejected(self, transport, frame_id):
        """A hostile length prefix is rejected before any allocation."""
        from repro.errors import WireFormatError
        from repro.rpc import codec

        def wire(honest, payload, frame_id):
            data, sever = honest(payload, frame_id)
            if payload[0] == codec.RESP_VO:
                flags = data[2]
                return codec.FRAME_HEADER.pack(
                    codec.MAGIC, flags, codec.MAX_FRAME_BYTES + 1, 0
                ), True
            return data, sever

        self.attack(transport, frame_id, wire, WireFormatError, "exceeds")

    def test_garbage_magic_gets_typed_refusal(self, transport, frame_id):
        """Hostile bytes *to* the server: typed error frame, then the
        drop — and the server keeps serving."""
        import socket

        from repro.rpc import RemoteIsp, codec
        from repro.rpc.server import serve_system

        garbage = b"XX" + codec.frame(codec.encode_ping(), frame_id=frame_id)[2:]
        system = build_system(1)
        server_class = self.server_class(transport)
        with serve_system(system, server_class=server_class) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(garbage)
                kind, value = codec.decode_response(codec.recv_frame(sock))
                assert kind == codec.RESP_ERROR
                assert isinstance(value, ReproError)
                assert sock.recv(1 << 16) == b""  # then: dropped
            with RemoteIsp(host, port) as remote:
                assert remote.get_certificate() is not None


class TestProofTampering:
    def test_truncated_vo_rejected(self):
        ads = V2fsAds()
        root = ads.apply_writes(
            ads.root, {"/f": {i: b"p%d" % i for i in range(4)}},
            {"/f": 4 * 4096},
        )
        claims = {("/f", i): V2fsAds.page_digest(b"p%d" % i)
                  for i in range(4)}
        proof = ads.gen_read_proof(root, list(claims))
        encoded = proof.encode()
        from repro.merkle.proof import AdsProof

        with pytest.raises(ReproError):
            AdsProof.decode(encoded[:len(encoded) // 2])

    def test_proof_for_different_snapshot_rejected(self):
        ads = V2fsAds()
        r1 = ads.apply_writes(ads.root, {"/f": {0: b"v1"}}, {"/f": 4096})
        r2 = ads.apply_writes(r1, {"/f": {0: b"v2"}}, {"/f": 4096})
        claims_old = {("/f", 0): V2fsAds.page_digest(b"v1")}
        proof_old = ads.gen_read_proof(r1, list(claims_old))
        with pytest.raises(ProofError):
            V2fsAds.verify_read_proof(proof_old, r2, claims_old)
