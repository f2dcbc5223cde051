"""Adversarial tests: every attack the threat model covers must be caught.

The ISP and the V2FS CI are untrusted.  The ISP's lies are the rows of
``tests/adversary.py``'s table, armed on a :class:`LyingIsp`; the tests
here are the ones whose assertions ``tests/test_stateful.py``'s machine
does not make (or makes only on a small history).  The CI's are
hand-written below.
"""

import contextlib
import dataclasses
from unittest import mock

import pytest
from tests.adversary import (
    ALWAYS,
    CATALOG,
    FIRST_PER_SESSION,
    MOVES,
    TABLE,
    LyingIsp,
    assert_refused_cleanly,
    careless_reader,
    data_pages,
    flip,
    flip_byte,
)

from repro.chain.block import Block
from repro.client.state import CarriedState
from repro.client.vfs import QueryMode
from repro.core import certificate as certificate_module
from repro.core.certificate import V2fsCertificate
from repro.core.system import SystemConfig, V2FSSystem
from repro.crypto.signature import KeyPair, Signature, sign
from repro.errors import (
    CertificateError,
    ChainError,
    NetworkError,
    ProofError,
    ReproError,
    VerificationError,
)
from repro.merkle.ads import V2fsAds

SQL = "SELECT COUNT(*) FROM eth_transactions"
SUM = "SELECT COUNT(*), SUM(gas_used) FROM eth_transactions"
#: The Q2 shape: the join's inner side looks every transaction up by
#: rowid.  A leaf answers consecutive lookups from the tree's cursor; the
#: key still requested again and again is the table's root, once per
#: descent to another leaf.
JOIN = ("SELECT COUNT(*), SUM(x.value), SUM(t.gas_price) "
        "FROM eth_token_transfers x JOIN eth_transactions t "
        "ON x.tx_hash = t.hash")


def build_system(hours=3):
    system = V2FSSystem(SystemConfig(txs_per_block=4))
    system.advance_all(hours)
    return system


def lying_system(hours=2):
    system = build_system(hours)
    LyingIsp.install(system)
    return system


def oracle(system, sql):
    return system.plain_replica().execute(sql).rows


def forget(client, path):
    """Make a warm client fetch ``path``'s pages again."""
    pages = client.state.pages
    for key in [k for k in (pages._pages if pages else ()) if k[0] == path]:
        pages.discard(key)


@pytest.fixture(scope="module")
def _two_hours():
    system = lying_system(2)
    system.advance_block("eth")  # so the two chains' tables differ
    return system


@pytest.fixture(scope="module")
def _six_hours():
    return lying_system(6)


@pytest.fixture
def two_hours(_two_hours):
    """A shared system behind a :class:`LyingIsp`: a test may arm it,
    never advance it."""
    yield _two_hours
    _two_hours.isp.disarm()


@pytest.fixture
def six_hours(_six_hours):
    """As ``two_hours``, with tables of two leaves under a root."""
    yield _six_hours
    _six_hours.isp.disarm()


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
    """The first lying ISPs' rows, each refused on a cold client."""

    @staticmethod
    def refused(system, name, mode=QueryMode.BASELINE):
        client = system.make_client(mode)
        system.isp.arm(MOVES[name])
        assert_refused_cleanly(client, system.isp, SQL, oracle(system, SQL))

    def test_tampered_page_rejected(self, two_hours):
        self.refused(two_hours, "flip-end")

    def test_withheld_vo_rejected(self, two_hours):
        self.refused(two_hours, "empty-vo")

    def test_wrong_size_metadata_rejected(self, two_hours):
        self.refused(two_hours, "meta-16")

    def test_truncating_metadata_rejected(self, two_hours):
        self.refused(two_hours, "meta-1")

    def test_lying_freshness_rejected(self):
        system = lying_system(2)
        client = system.make_client(QueryMode.INTER)
        client.query(SQL)  # warm the cache (no checks yet)
        system.advance_block("eth")  # make cached pages stale
        # The ISP claims the stale path is fresh, and adds the node to
        # the VO: which proves the new certified root's digest there.
        system.isp.arm(MOVES["fresh-deepest"])
        assert_refused_cleanly(client, system.isp, SQL, oracle(system, SQL))

    def test_failed_query_rolls_back_cache_inserts(self, two_hours):
        self.refused(two_hours, "flip-end", QueryMode.INTER)


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
        system = lying_system(2)
        system.advance_block("eth")
        # A malicious ISP replays the old (validly signed) certificate:
        # the client's observed chain heads are newer, so it is stale.
        system.isp.arm(MOVES["replay"])
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


def _with_chain_digest_flipped(certificate):
    (chain_id, digest, height), *rest = certificate.chain_states
    return dataclasses.replace(
        certificate,
        chain_states=((chain_id, flip_byte(digest), height), *rest),
    )


#: One-byte forgeries of a certificate the client has already proven:
#: same version, everything else (including the signature, unless it is
#: the mutated field) carried over unchanged.
ONE_BYTE_FORGERIES = {
    "ads_root": lambda c: dataclasses.replace(
        c, ads_root=flip_byte(c.ads_root, 31)),
    "chain_digest": _with_chain_digest_flipped,
    "vbf_byte": lambda c: dataclasses.replace(
        c, vbf_encoded=flip_byte(c.vbf_encoded, len(c.vbf_encoded) // 2)),
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
        ``verify_signature``, in order (the client's: the CI does not
        verify the certificates it signs)."""
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
        del verify_calls[:]  # count from the first query on
        with client_of(system, path) as client:
            answers = {tuple(client.query(SQL).rows) for _ in range(5)}
        assert len(answers) == 1
        assert len(verify_calls) == 1

    @pytest.mark.parametrize("field", sorted(ONE_BYTE_FORGERIES))
    def test_one_byte_forgery_misses_and_is_rejected(
        self, path, field, verify_calls
    ):
        system = build_system(2)
        with client_of(system, path) as client:
            client.query(SQL)  # proves and holds the first certificate
            # A moved head makes the client fetch: it is served a
            # forgery of the new honest certificate.
            system.advance_block("btc")
            honest = system.isp.certificate
            forged = ONE_BYTE_FORGERIES[field](honest)
            assert forged.version == honest.version and forged != honest
            cached = dict(client.state.pages._pages)
            assert cached
            del verify_calls[:]  # count from here on

            system.isp.certificate = forged
            for _ in range(2):  # a failure never populates the memo
                with pytest.raises(CertificateError):
                    client.query(SQL)
            # Both presentations went through the full verify (out-of-
            # range ``s`` is refused by it, not skipped around it)...
            assert len(verify_calls) == 2
            # ...nothing the forgery touched outlived it, nor is it
            # held...
            assert dict(client.state.pages._pages) == cached
            assert client.state.held is None
            # ...and the honest certificate is proven once, then held.
            system.isp.certificate = honest
            for _ in range(2):
                assert client.query(SQL).rows == oracle(system, SQL)
            assert len(verify_calls) == 3
            assert client.state.held == honest

    def test_one_vbf_byte_off_is_another_message_and_refused(
        self, path, verify_calls
    ):
        """A certificate builds its signed message once, VBF hash
        included; one that differs in one VBF byte is another message,
        however warm the honest one's is."""
        system = build_system(2)
        honest = system.isp.certificate
        assert honest.message() is honest.message()
        forged = ONE_BYTE_FORGERIES["vbf_byte"](honest)
        assert forged.message() != honest.message()
        del verify_calls[:]
        system.isp.certificate = forged
        with client_of(system, path) as client:
            with pytest.raises(CertificateError):
                client.query(SQL)
            system.isp.certificate = honest
            assert client.query(SQL).rows == oracle(system, SQL)
        assert verify_calls == [forged.message(), honest.message()]

    def test_new_block_misses_then_hits_again(self, path, verify_calls):
        system = build_system(2)
        del verify_calls[:]
        with client_of(system, path) as client:
            client.query(SQL)
            client.query(SQL)
            assert len(verify_calls) == 1
            first = verify_calls[0]

            system.advance_block("eth")
            del verify_calls[:]  # count from here on
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
        system = lying_system(2)
        with client_of(system, path) as client:
            client.query(SQL)
            system.advance_block("eth")
            system.isp.arm(MOVES["replay"])
            del verify_calls[:]
            with pytest.raises(CertificateError, match="stale"):
                client.query(SQL)
        assert system.isp.told and verify_calls == []  # it *was* a hit

    def test_hits_and_misses_partition_the_certificate_requests(
        self, path
    ):
        """``hit + miss`` is the number of validations: every fetched
        or held certificate is counted as exactly one of the two,
        rejected ones included (a forgery is a miss that then fails).
        Only a moved head, or a failed query, makes a fetch."""
        from repro.obs import REGISTRY

        system = lying_system(2)
        before = REGISTRY.counters_snapshot()
        with client_of(system, path) as client:
            for _ in range(3):
                client.query(SQL)  # fetched miss, held hit, held hit
            system.advance_block("btc")
            honest = system.isp.certificate
            system.isp.certificate = ONE_BYTE_FORGERIES["ads_root"](honest)
            with pytest.raises(CertificateError):
                client.query(SQL)  # fetched miss
            system.isp.certificate = honest
            client.query(SQL)  # fetched miss
            client.query(SQL)  # held hit
            system.isp.arm(MOVES["flip-end"])
            forget(client, TABLE)  # so the lie is asked for, and told
            with pytest.raises(MOVES["flip-end"].error):
                client.query(SQL)  # held hit, then a tampered page
            assert system.isp.told
            system.isp.disarm()
            client.query(SQL)  # fetched hit: the failure dropped it
        delta = REGISTRY.counters_delta(before)
        assert delta["client.cert.memo.hit"] == 5
        assert delta["client.cert.memo.miss"] == 3
        assert delta["client.cert.requests"] == 4

    def test_clients_with_different_enclave_keys_share_nothing(
        self, path, verify_calls
    ):
        from repro.client.query_client import QueryClient
        from repro.sgx.enclave import Enclave

        system = build_system(2)
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
            client.query(SQL)  # the CI's is proven — to `client` only
            with pytest.raises(CertificateError):
                other.query(SQL)
            assert len(verify_calls) == 2
            # A moved head makes `client` fetch again.
            system.advance_block("btc")
            real = system.isp.certificate
            resigned = dataclasses.replace(
                real, signature=other_enclave.sign_inside(real.message())
            )
            del verify_calls[:]  # count from here on
            system.isp.certificate = resigned
            other.query(SQL)  # `resigned` is proven — to `other` only
            with pytest.raises(CertificateError):
                client.query(SQL)
        assert len(verify_calls) == 2


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
class TestNodeMemo:
    """The client decodes a B+Tree node once per distinct page *content*
    and keeps the decoded nodes across queries.  Content-keyed, an
    entry cannot be stale or belong to a forged page; that nothing
    decoded from unverified bytes outlives a failed query is the
    machine's rollback check.  Pinned down here: nothing else (page ids,
    other clients, the plain oracle engine) can stand in for the bytes."""

    def test_tampered_page_leaves_no_decoded_node_behind(self, path,
                                                          two_hours):
        system, isp = two_hours, two_hours.isp
        expected = oracle(system, SUM)
        with client_of(system, path, QueryMode.BASELINE) as client:
            assert client.query(SUM).rows == expected
            assert len(client.state.nodes) > 0
            # The same (path, page_id), one byte different.
            for _ in range(2):
                isp.arm(flip().at(TABLE, lambda page_id: page_id == 1),
                        ALWAYS)
                assert_refused_cleanly(client, isp, SUM, None)
            assert client.query(SUM).rows == expected
            assert len(client.state.nodes) > 0

    @pytest.mark.parametrize("mode", [QueryMode.BASELINE,
                                      QueryMode.INTER_VBF])
    def test_rewritten_leaf_is_seen_by_the_next_query(self, path, mode):
        system = build_system(2)
        with client_of(system, path, mode) as client:
            before = client.query(SUM).rows
            assert before == oracle(system, SUM)
            report = system.advance_block("eth")
            # The block rewrote pages of the table in place ...
            assert TABLE in report.writes
            after = client.query(SUM).rows
            # ... and the nodes memoized from their old bytes are not
            # what the next query computes on.
            assert after == oracle(system, SUM)
            assert after[0][0] > before[0][0]

    def test_clients_and_the_plain_engine_share_nothing(self, path,
                                                         two_hours):
        system = two_hours
        with client_of(system, path) as client:
            other = system.make_client()
            client.query(SQL)
            oracle(system, SQL)  # a plain engine, its own memo
            assert len(client.state.nodes) > 0
            assert len(other.state.nodes) == 0
            assert other.state.nodes is not client.state.nodes
            other.query(SQL)
            assert len(other.state.nodes) == len(client.state.nodes)

    def test_memoized_nodes_cannot_be_changed_through_results(self, path,
                                                              two_hours):
        with client_of(two_hours, path, QueryMode.BASELINE) as client:
            expected = client.query(SUM).rows
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
            assert client.query(SUM).rows == expected


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
    """One key, two contents, one session: the first response for each
    data page of the table is forged, every later one genuine, so the
    last response for a key always hashes to what the VO proves.  The
    claim the VO is checked against must be the bytes the engine
    consumed."""

    FORGERIES = [(flip(offset), 0) for offset in range(8, 120, 8)] + [
        (MOVES["other-page"], 1), (MOVES["other-page"], 2),
    ]
    #: The engine must ask for some page twice.  Here the lookups jump
    #: between the table's leaves: the held root admits each bound,
    #: but a leaf the path has left is read again.  (The token-transfer
    #: join asks for each page once since the cursor holds its path.)
    SELF_JOIN = ("SELECT COUNT(*), SUM(a.gas_price), SUM(b.value) "
                 "FROM eth_transactions a JOIN eth_transactions b "
                 "ON a.to_address = b.from_address")

    def test_first_forged_then_genuine_is_rejected(
        self, six_hours, path, mode, options
    ):
        system, isp, sql = six_hours, six_hours.isp, self.SELF_JOIN
        expected = oracle(system, sql)
        with client_of(system, path, mode, **options) as client:
            assert client.query(sql).rows == expected
            second_responses = 0
            for move, seed in self.FORGERIES:
                isp.arm(move, FIRST_PER_SESSION, seed)
                refused = assert_refused_cleanly(client, isp, sql, expected)
                second_responses += "two different contents" in str(refused)
            # Most forgeries parse, and are then caught by the genuine
            # second response — not only by the final VO check, which a
            # once-requested key would leave them to.
            assert second_responses > len(self.FORGERIES) // 2


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
@pytest.mark.parametrize("mode", [QueryMode.BASELINE, QueryMode.INTER_VBF],
                         ids=["baseline", "inter+vbf"])
class TestHeldLeaf:
    """A statement keeps one pager per file and each tree keeps the
    path it last went down, so one response now answers many lookups
    without a second request.  It is still one ``page_claims`` entry
    the VO must vouch for, and nothing held outlives the statement:
    a forged leaf, or an internal node whose separators would widen a
    held interval, is refused like any other forged page."""

    @pytest.mark.parametrize(
        "forgery", ["re-encoded-leaf", "other-leaf", "shifted-separators"],
        ids=["forged", "misplaced", "shifted"])
    def test_leaf_forged_once_never_verifies(self, six_hours, path, mode,
                                             forgery):
        system, isp = six_hours, six_hours.isp
        expected = oracle(system, JOIN)
        with client_of(system, path, mode) as client:
            for _ in range(2):  # on a cold client, then on a warm one
                forget(client, TABLE)
                isp.arm(MOVES[forgery])
                assert_refused_cleanly(client, isp, JOIN, expected,
                                       VerificationError)

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
            replica = system.plain_replica()
            rows = [client.query(sql).rows for sql in (JOIN, tail)]
            assert rows == [replica.execute(JOIN).rows,
                            replica.execute(tail).rows]
            return rows[1][0][0]

        with client_of(system, path, mode) as client:
            before = answers(client)
            report = system.advance_block("eth")
            assert TABLE in report.writes  # transactions appended
            assert answers(client) > before


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
@pytest.mark.parametrize("mode", [QueryMode.BASELINE, QueryMode.INTER_VBF],
                         ids=["baseline", "inter+vbf"])
class TestRowSlots:
    """A memoized table leaf keeps each row it decoded.  The slots are a
    function of the page bytes the engine was handed, so they are only
    as trustworthy as those bytes: gone with the memo when the query
    fails, and never shared with a reader that could change them."""

    #: Rows read through the cursor's point lookups, and through a scan.
    QUERIES = [JOIN, "SELECT COUNT(*), SUM(gas_price), MAX(hash) "
                     "FROM eth_transactions"]

    @pytest.mark.parametrize("garbling", ["tag", "text"])
    def test_garbled_rows_served_once_never_survive(
        self, six_hours, path, mode, garbling
    ):
        """Garbled record bytes with keys and lengths intact: the page
        parses, and either a row does not decode or it decodes to the
        wrong values, which only the VO can tell."""
        system, isp = six_hours, six_hours.isp
        replica = system.plain_replica()
        with client_of(system, path, mode) as client:
            for sql in self.QUERIES * 2:  # cold, then warm
                forget(client, TABLE)
                isp.arm(MOVES[f"garbled-{garbling}"])
                assert_refused_cleanly(client, isp, sql,
                                       replica.execute(sql).rows)

    def test_a_reader_that_keeps_and_mutates_rows_changes_nothing(
        self, six_hours, path, mode
    ):
        system = six_hours
        with client_of(system, path, mode) as client:
            for sql in self.QUERIES:
                expected = oracle(system, sql)
                with careless_reader() as handed:
                    assert client.query(sql).rows == expected
                assert handed
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

    def test_failed_queries_leave_no_session_behind(self, path, two_hours):
        system = two_hours
        with client_of(system, path) as client:
            for _ in range(3):
                with pytest.raises(ReproError):
                    client.query(self.BAD_SQL)
            assert len(system.isp.sessions) == 0
            assert client.query(SQL).rows  # and the client still works
        assert len(system.isp.sessions) == 0

    def test_rejected_answer_leaves_no_session_behind(self, path,
                                                      two_hours):
        """finalize() itself failed, so the session is already closed
        when the client tries to: that error is not the one raised."""
        system = two_hours
        system.isp.arm(MOVES["flip-end"])
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


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
@pytest.mark.parametrize("move", [
    pytest.param(MOVES[name].at(target, pages), id=f"{label}-{name}")
    for label, target, pages in (("catalog", CATALOG, None),
                                 ("table", TABLE, data_pages))
    for name in ("flip8", "random", "truncated", "wrong-schema",
                 "meta-short", "other-page")
    if (name == "wrong-schema") <= (label == "catalog")
    if (name == "other-page") <= (label == "table")
])
class TestHostileBytesBeforeVerification:
    """The catalog and every row are decoded from pages the client has
    not verified yet.  Whatever those bytes are (every page of the file
    past a table's header served mutated, or its size understated, six
    seeds each), ``query`` fails with a typed error and leaves the
    session table, the page cache and the node memo as it found them."""

    #: A full scan and an index range scan: the two row decoders.
    QUERIES = (SUM, "SELECT hash FROM eth_transactions WHERE block_time > 0")

    def test_query_fails_typed_and_leaves_nothing_behind(
        self, six_hours, path, move
    ):
        system, isp = six_hours, six_hours.isp
        expected = [oracle(system, sql) for sql in self.QUERIES]
        with client_of(system, path) as client:
            for seed in range(6):
                for sql in self.QUERIES:
                    isp.arm(move, ALWAYS, seed)
                    assert_refused_cleanly(client, isp, sql, None)
                    assert len(client.state.pages) == 0
            for sql, rows in zip(self.QUERIES, expected):
                assert client.query(sql).rows == rows


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
@pytest.mark.parametrize("mode", [QueryMode.INTER, QueryMode.INTER_VBF],
                         ids=["inter", "inter+vbf"])
class TestProvenMetas:
    """A cached-mode client asks for a file's metadata once per ADS
    root: what a finalized VO proved answers later sessions under that
    same root.  Pinned down here: a lie under an unchanged root is never
    asked, any failed query empties the proven set, a new root empties
    it (so hidden appends cannot ride on an old size), and it is nobody
    else's.  That a lie never enters it is the machine's fill rule."""

    OTHER = "SELECT COUNT(*) FROM btc_transactions"

    @pytest.mark.parametrize("delta", [-1, +1], ids=["under", "over"])
    def test_size_misstated_once_is_refused_and_leaves_nothing(
        self, path, mode, delta, two_hours
    ):
        system, isp = two_hours, two_hours.isp
        with client_of(system, path, mode) as client:
            isp.arm(MOVES[f"meta{delta:+d}"])
            assert_refused_cleanly(client, isp, SUM, None)
            assert len(client.state.pages) == 0
            # The next, honest query asks for that size again.
            asked = len(isp.asked_for("get_file_meta"))
            assert client.query(SUM).rows == oracle(system, SUM)
            assert TABLE in isp.asked_for("get_file_meta")[asked:]
            assert client.state.metas.value[TABLE][0] is True
            assert client.state.metas.key == isp.certificate.ads_root

    def test_later_lie_under_an_unchanged_certificate_is_never_asked(
        self, path, mode
    ):
        system = lying_system(2)
        isp = system.isp
        with client_of(system, path, mode) as client:
            expected = client.query(SUM).rows
            assert expected == oracle(system, SUM)
            del isp.asked[:]
            isp.arm(MOVES["meta-1"])
            for _ in range(3):
                answer = client.query(SUM)
                assert answer.rows == expected
                assert answer.stats.meta_requests == 0
            assert isp.asked_for("get_file_meta") == [] and isp.move
            # Under the next root it is asked, lies, and is refused:
            # the proven sizes did not cross over.
            system.advance_block("eth")
            assert_refused_cleanly(client, isp, SUM, oracle(system, SUM))
            assert TABLE in isp.asked_for("get_file_meta")

    def test_table_growing_over_a_page_boundary_is_seen(self, path, mode):
        """Completeness: metadata proven before the append must not
        hide the rows after it."""
        system = lying_system(2)
        isp = system.isp

        def pages_of_table():
            return isp.ads.file_node(isp.root, TABLE).page_count

        with client_of(system, path, mode) as client:
            cold = client.query(SUM)
            cold_asked = sorted(isp.asked_for("get_file_meta"))
            assert cold.stats.meta_requests == len(cold_asked) > 0
            pages = pages_of_table()
            for _ in range(30):
                # Warm under the current root, then move it.
                client.query(SUM)
                assert client.query(SUM).stats.meta_requests == 0
                system.advance_block("eth")
                if pages_of_table() > pages:
                    break
            else:
                pytest.fail("the table never grew by a page")
            del isp.asked[:]
            grown = client.query(SUM)
            assert grown.rows == oracle(system, SUM)
            assert grown.rows[0][0] > cold.rows[0][0]
            # every one, again
            assert sorted(isp.asked_for("get_file_meta")) == cold_asked
            assert (client.state.metas.value[TABLE][2]
                    == pages_of_table() > pages)

    def test_replayed_certificate_leaves_nothing_for_the_current_root(
        self, path, mode
    ):
        system = lying_system(2)
        isp = system.isp
        with client_of(system, path, mode) as client:
            cold = client.query(SUM).stats.meta_requests
            system.advance_block("eth")
            del isp.asked[:]
            isp.arm(MOVES["replay"])
            with pytest.raises(CertificateError, match="stale"):
                client.query(SUM)
            assert isp.told and isp.asked_for("get_file_meta") == []
            assert len(isp.sessions) == 0
            answer = client.query(SUM)
            assert answer.rows == oracle(system, SUM)
            assert answer.stats.meta_requests == cold
            assert client.state.metas.key == isp.root

    @pytest.mark.parametrize("failure", ["garbled-page", "engine-error"])
    def test_any_failed_query_drops_the_proven_set(
        self, path, mode, failure, two_hours
    ):
        system, isp = two_hours, two_hours.isp
        with client_of(system, path, mode) as client:
            first = client.query(SUM)
            assert client.state.metas.value
            if failure == "garbled-page":  # of a table not cached yet
                isp.arm(flip().at("/db/tables/btc_transactions.tbl",
                                  data_pages))
                assert_refused_cleanly(client, isp, self.OTHER, None)
            else:
                cached = set(client.state.pages._pages)
                with pytest.raises(ReproError):
                    client.query("SELECT * FROM no_such_table")
                state = client.state
                assert len(isp.sessions) == 0
                assert len(state.nodes) == len(state.catalog) == 0
                assert len(state.metas) == 0
                assert set(state.pages._pages) <= cached
            again = client.query(SUM)
            assert again.rows == first.rows
            assert again.stats.meta_requests == first.stats.meta_requests

    def test_clients_share_nothing(self, path, mode):
        system = build_system(2)
        with client_of(system, path, mode) as client:
            other = system.make_client(mode)
            cold = client.query(SUM).stats.meta_requests
            assert client.state.metas.value
            assert len(other.state.metas) == 0
            assert len(other.state.catalog) == 0
            assert other.state.filter.value is None
            assert other.state.catalog is not client.state.catalog
            assert other.query(SUM).stats.meta_requests == cold
            if mode is QueryMode.INTER_VBF:
                assert (other.state.filter.value
                        is not client.state.filter.value)

    def test_no_nonexistence_is_ever_kept(self, path, mode):
        system = build_system(2)
        with client_of(system, path, mode) as client:
            client.query(SUM)
            session_metas = []
            real = CarriedState.learn_metas

            def recording(state, root, metas):
                session_metas.append(dict(metas))
                real(state, root, metas)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(CarriedState, "learn_metas", recording)
                system.advance_block("eth")
                client.query(SUM)
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
        first = system.isp.certificate
        with client_of(system, path) as client:
            client.query(SQL)
            kept = client.state.filter.value
            # A moved head makes the client fetch: it is served a
            # forgery of the new honest certificate's filter.
            system.advance_block("btc")
            honest = system.isp.certificate
            system.isp.certificate = ONE_BYTE_FORGERIES["vbf_byte"](honest)
            with pytest.raises(CertificateError):
                client.query(SQL)
            assert client.state.filter.value is kept
            system.isp.certificate = honest
            client.query(SQL)
            assert decodes == [first.version, honest.version]
            assert client.state.filter.value.encode() == honest.vbf_encoded

    def test_other_modes_decode_nothing(self, path, decodes):
        system = build_system(2)
        for mode in (QueryMode.BASELINE, QueryMode.INTRA, QueryMode.INTER):
            with client_of(system, path, mode) as client:
                client.query(SQL)
        assert decodes == []


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
def test_an_unproven_fresh_answer_raises_no_page_version(path):
    """A cached page's ``V_n`` (the version it was last known fresh
    at) rises only for freshness a verified VO proved.  Raised on the
    ISP's word, a failed query's lie outlived it: with the filter saying
    "unchanged since ``V_n``", the next query took the stale pages
    without asking anything, and its stale answer verified."""
    system = lying_system(2)
    with client_of(system, path, QueryMode.INTER_VBF) as client:
        client.query(SUM)
        system.advance_block("eth")  # rewrites cached table pages
        system.isp.arm(MOVES["fresh-top"])
        assert_refused_cleanly(client, system.isp, SUM, oracle(system, SUM))


@pytest.mark.parametrize("path", ["inprocess", "rpc"])
@pytest.mark.parametrize("mode", list(QueryMode), ids=lambda m: m.value)
class TestCatalogMemo:
    """The parsed catalog is kept per distinct catalog *bytes*, read
    through the verified VFS every query.  A forged catalog served once
    is refused by the VO check on its page and is not what any later
    query plans with."""

    def test_forged_catalog_served_once_does_not_survive(
        self, two_hours, path, mode
    ):
        system, isp = two_hours, two_hours.isp
        expected = oracle(system, SQL)
        assert expected != oracle(system, "SELECT COUNT(*) FROM "
                                          "btc_transactions")
        with client_of(system, path, mode) as client:
            for _ in range(2):  # on a cold client, then on a warm one
                forget(client, CATALOG)
                isp.arm(MOVES["swapped-catalog"], ALWAYS)
                assert_refused_cleanly(client, isp, SQL, expected)
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
        system = lying_system(2)
        isp = system.isp
        del parses[:]  # the CI's maintenance engine parses for itself
        with client_of(system, path, mode) as client:
            reads = []
            for _ in range(3):
                before = len(isp.asked_for("get_file_meta"))
                client.query(SQL)
                reads.append(len(isp.asked_for("get_file_meta")) - before)
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
            oracle(system, SQL)
            assert len(parses) == 1


class TestOmittingIsp:
    """Completeness, an obligation apart from soundness (vChain): an ISP
    that hides rows that exist, rather than forging any, is refused."""

    def test_scan_linked_past_a_leaf_is_refused(self, six_hours):
        client = six_hours.make_client(QueryMode.BASELINE)
        six_hours.isp.arm(MOVES["skip-next-leaf"])
        assert_refused_cleanly(client, six_hours.isp, SUM,
                               oracle(six_hours, SUM))

    def test_metadata_from_before_the_appends_is_refused(self):
        system = lying_system(2)
        isp = system.isp
        pages = isp.ads.file_node(isp.root, TABLE).page_count
        for _ in range(30):
            system.advance_block("eth")
            if isp.ads.file_node(isp.root, TABLE).page_count > pages:
                break
        else:
            pytest.fail("the table never grew by a page")
        isp.arm(MOVES["stale-meta"].at(TABLE))
        assert_refused_cleanly(system.make_client(), isp, SUM,
                               oracle(system, SUM))

    def test_page_of_the_previous_root_is_refused(self):
        system = lying_system(2)
        system.advance_block("eth")  # rewrites the table's leaf
        system.isp.arm(MOVES["stale-page"].at(TABLE, data_pages))
        assert_refused_cleanly(system.make_client(QueryMode.BASELINE),
                               system.isp, SUM, oracle(system, SUM))


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

    def test_stale_but_well_formed_page_detected(self):
        """The storage hands the enclave a sealed page as it was one
        block ago: nothing but the read proof can tell it from the
        current one."""
        system = build_system(1)
        ci = system.ci
        pages = ci.storage.file_node(ci.storage_root, TABLE).page_count
        before = {
            page_id: ci.storage.get_page(ci.storage_root, TABLE, page_id)
            for page_id in range(pages)
        }
        system.advance_block("eth")
        original_handler = ci.enclave._handlers["get_page"]
        served = []

        def stale_get_page(root, path, page_id):
            page = original_handler(root, path, page_id)
            old = before.get(page_id) if path == TABLE else None
            if old is not None and old != page:
                served.append(page_id)
                return old
            return page

        ci.enclave.register_ocall("get_page", stale_get_page)
        with pytest.raises(VerificationError):
            system.advance_block("eth")
        assert served

    def test_stale_page_of_a_held_node_is_decoded_afresh(self):
        """The CI holds the node it last wrote to a page; the storage
        serves that page as it was a block earlier.  The held node is
        keyed on other bytes, so the stale page is decoded as read, and
        the read proof refuses it."""
        from repro.db import btree

        system = build_system(1)
        ci = system.ci
        system.advance_block("eth")
        before = {
            page_id: ci.storage.get_page(ci.storage_root, TABLE, page_id)
            for page_id in ci._kept_nodes.file(TABLE)
        }
        system.advance_block("eth")
        held = dict(ci._kept_nodes.file(TABLE))
        stale = {page_id: page for page_id, page in before.items()
                 if page_id in held and held[page_id][0] != page}
        assert stale
        original_handler = ci.enclave._handlers["get_page"]

        def stale_get_page(root, path, page_id):
            page = original_handler(root, path, page_id)
            return stale.get(page_id, page) if path == TABLE else page

        decoded = []
        real = btree._decode_node
        ci.enclave.register_ocall("get_page", stale_get_page)
        with mock.patch.object(btree, "_decode_node",
                               lambda raw: decoded.append(raw) or real(raw)):
            with pytest.raises(VerificationError):
                system.advance_block("eth")
        assert set(stale.values()) <= set(decoded)


class TestCertifiedBlocks:
    def test_block_failing_consensus_is_refused(self, monkeypatch):
        """The CI checks a block's consensus itself, not only DCert's
        signature over it: a certifier that signs an unmined header
        does not get that block ingested."""
        from repro.dcert import certifier

        system = build_system(1)
        generator = system.generators["eth"]
        issuer = system.dcert_issuers["eth"]
        chain = generator.chain
        previous = chain.block_at(chain.height)
        previous_cert = system._dcert_certs["eth"][-1]
        generator.advance_block()
        block = chain.block_at(chain.height)
        unmined = next(
            block.header.with_nonce(nonce)
            for nonce in range(block.header.nonce + 1, 1 << 20)
            if not issuer.pow_params.check(block.header.with_nonce(nonce))
        )
        forged = Block(unmined, block.transactions)
        monkeypatch.setattr(certifier, "check_header", lambda *args: None)
        cert = issuer.certify(previous, previous_cert, forged)
        root = system.ci.storage_root
        with pytest.raises(ChainError):
            system.ci.process_block(forged, cert, lambda engine: None)
        assert system.ci.storage_root == root


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
