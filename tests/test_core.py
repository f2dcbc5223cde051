"""Tests for the V2FS certificate, the CI, and the assembled system."""

import gc
import sys
import types

import pytest

from repro.client.query_client import QueryClient
from repro.client.vfs import QueryMode
from repro.core.certificate import V2fsCertificate
from repro.core.system import SystemConfig, V2FSSystem
from repro.crypto.signature import KeyPair, sign
from repro.errors import CertificateError, StorageError
from repro.isp.server import IspServer
from repro.kept import Kept


class TestCertificate:
    def _make(self):
        keys = KeyPair.generate(b"cert-test")
        states = (("btc", b"\x01" * 32, 5), ("eth", b"\x02" * 32, 9))
        message = V2fsCertificate.message_bytes(
            b"\x03" * 32, states, 4, None
        )
        return keys, V2fsCertificate(
            ads_root=b"\x03" * 32,
            chain_states=states,
            version=4,
            signature=sign(keys, message),
        )

    def test_signature_roundtrip(self):
        keys, certificate = self._make()
        certificate.verify_signature(keys.public)

    def test_wrong_key_rejected(self):
        _, certificate = self._make()
        with pytest.raises(CertificateError):
            certificate.verify_signature(
                KeyPair.generate(b"other").public
            )

    def test_proven_entry_keys_on_the_public_key_too(self):
        """No client shares its memo entry, but even a shared one would
        not carry a proof from one key to another."""
        keys, certificate = self._make()
        proven = Kept()
        assert certificate.verify_signature(keys.public, proven) is False
        assert certificate.verify_signature(keys.public, proven) is True
        with pytest.raises(CertificateError):
            certificate.verify_signature(
                KeyPair.generate(b"other").public, proven
            )

    def test_rejected_signature_leaves_the_proven_entry_alone(self):
        keys, certificate = self._make()
        proven = Kept()
        with pytest.raises(CertificateError):
            certificate.verify_signature(
                KeyPair.generate(b"other").public, proven
            )
        assert len(proven) == 0
        certificate.verify_signature(keys.public, proven)
        assert proven.key == (
            keys.public, certificate.message(), certificate.signature
        )

    def test_chain_state_lookup(self):
        _, certificate = self._make()
        digest, height = certificate.chain_state("eth")
        assert digest == b"\x02" * 32 and height == 9
        with pytest.raises(CertificateError):
            certificate.chain_state("doge")

    def test_vbf_absent(self):
        _, certificate = self._make()
        assert certificate.vbf() is None

    def test_message_covers_version(self):
        _, certificate = self._make()
        other = V2fsCertificate.message_bytes(
            certificate.ads_root, certificate.chain_states, 5, None
        )
        assert other != certificate.message()

    def test_byte_size_counts_vbf(self):
        _, certificate = self._make()
        base = certificate.byte_size()
        with_vbf = V2fsCertificate(
            ads_root=certificate.ads_root,
            chain_states=certificate.chain_states,
            version=certificate.version,
            signature=certificate.signature,
            vbf_encoded=b"\x00" * 100,
        )
        assert with_vbf.byte_size() == base + 100


class TestCi:
    def test_bootstrap_produces_certificate(self):
        system = V2FSSystem(SystemConfig(txs_per_block=3))
        certificate = system.ci.certificate
        assert certificate is not None
        assert certificate.version == 1
        certificate.verify_signature(system.ci.public_key)

    def test_versions_increase(self):
        system = V2FSSystem(SystemConfig(txs_per_block=3))
        v1 = system.ci.certificate.version
        system.advance_block("btc")
        v2 = system.ci.certificate.version
        system.advance_block("eth")
        v3 = system.ci.certificate.version
        assert v1 < v2 < v3

    def test_chain_states_track_both_chains(self):
        system = V2FSSystem(SystemConfig(txs_per_block=3))
        system.advance_block("btc")
        system.advance_block("eth")
        certificate = system.ci.certificate
        ids = [c for c, _, _ in certificate.chain_states]
        assert ids == ["btc", "eth"]
        for chain_id in ids:
            digest, height = certificate.chain_state(chain_id)
            header = system.chains[chain_id].latest_header()
            assert digest == header.digest()
            assert height == header.height

    def test_out_of_order_block_rejected(self):
        system = V2FSSystem(SystemConfig(txs_per_block=3))
        generator = system.generators["eth"]
        issuer = system.dcert_issuers["eth"]
        generator.advance_block()
        generator.advance_block()
        block1 = generator.chain.block_at(1)
        # DCert for block 1 without certifying block 0 first is already
        # impossible; simulate a CI receiving block 1 directly.
        cert0 = issuer.certify(None, None, generator.chain.block_at(0))
        cert1 = issuer.certify(generator.chain.block_at(0), cert0, block1)
        with pytest.raises(CertificateError):
            system.ci.process_block(block1, cert1, lambda engine: None)

    def test_report_metrics(self):
        system = V2FSSystem(SystemConfig(txs_per_block=3))
        report = system.advance_block("eth")
        assert report.pages_written > 0
        assert report.proof_bytes > 0
        assert report.wall_time_s > 0
        assert report.total_time_s >= report.wall_time_s
        assert report.sgx_overhead_s > 0  # SGX mode by default

    def test_no_sgx_mode_charges_nothing(self):
        system = V2FSSystem(
            SystemConfig(txs_per_block=3, use_sgx=False)
        )
        report = system.advance_block("eth")
        assert report.sgx_overhead_s == 0.0

    def test_batching_reduces_per_block_ocalls(self):
        one = V2FSSystem(SystemConfig(txs_per_block=3))
        per_single = [one.advance_block("eth").ocalls for _ in range(4)]
        batched = V2FSSystem(SystemConfig(txs_per_block=3))
        report = batched.advance_blocks("eth", 4)
        assert report.ocalls < sum(per_single)


class TestSystem:
    def test_isp_in_sync_with_ci(self, shared_system):
        assert shared_system.isp.root == shared_system.ci.storage_root
        assert shared_system.isp.certificate.ads_root == \
            shared_system.isp.root

    def test_latest_time_advances(self):
        system = V2FSSystem(SystemConfig(txs_per_block=3))
        system.advance_all(1)
        t1 = system.latest_time
        system.advance_all(1)
        assert system.latest_time > t1

    def test_plain_replica_equivalence(self, shared_system):
        plain = shared_system.plain_replica()
        client = shared_system.make_client(QueryMode.INTER_VBF)
        for sql in [
            "SELECT COUNT(*) FROM eth_transactions",
            "SELECT COUNT(*), SUM(fee) FROM btc_transactions",
            "SELECT marketplace, COUNT(*) FROM eth_nft_transfers "
            "GROUP BY marketplace ORDER BY marketplace",
        ]:
            assert client.query(sql).rows == plain.execute(sql).rows

    def test_queries_across_chains(self, shared_system):
        client = shared_system.make_client(QueryMode.INTER)
        result = client.query(
            "SELECT COUNT(*) FROM btc_nft_transfers "
            "UNION ALL SELECT COUNT(*) FROM eth_nft_transfers"
        )
        assert len(result.rows) == 2

    def test_unknown_chain_rejected(self):
        system = V2FSSystem(SystemConfig(txs_per_block=3))
        from repro.errors import ChainError

        with pytest.raises(ChainError):
            system.advance_block("doge")


def reachable_bytes(root) -> int:
    """``sys.getsizeof`` summed over every object reachable from
    ``root`` (code, classes and modules excluded)."""
    skip = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, types.MethodType, types.CodeType)
    seen, stack, total = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


class TestCertifiedState:
    """The system keeps certificates and metrics of every maintenance
    run, not the superseded page versions: the ADS is
    history-independent, so a late joiner needs the current state only.
    """

    def test_snapshot_lands_an_empty_isp_on_the_certified_root(
        self, shared_system
    ):
        writes, new_sizes, certificate = shared_system.certified_state()
        assert certificate is shared_system.isp.certificate
        fresh = IspServer()
        fresh.sync_update(writes, new_sizes, certificate)
        assert fresh.root == shared_system.isp.root
        assert sorted(writes) == fresh.ads.list_files(fresh.root)
        for path, pages in writes.items():
            node = fresh.ads.file_node(fresh.root, path)
            assert (node.size, node.page_count) == (
                new_sizes[path], len(pages))
        client = QueryClient(
            isp=fresh,
            chains=shared_system.chains,
            attestation_report=shared_system.attestation_report,
            attestation_root=shared_system.attestation.root_public_key,
            expected_measurement=shared_system.ci.enclave.measurement,
        )
        sql = "SELECT COUNT(*), SUM(fee) FROM btc_transactions"
        assert client.query(sql).rows == \
            shared_system.plain_replica().execute(sql).rows

    def test_returned_report_carries_its_batch_the_history_does_not(self):
        system = V2FSSystem(SystemConfig(txs_per_block=3))
        report = system.advance_block("eth")
        assert report.writes and set(report.new_sizes) == set(report.writes)
        kept = system.update_reports[-1]
        assert kept.certificate is report.certificate
        assert kept.pages_written == report.pages_written
        assert kept.total_time_s == report.total_time_s
        for stored in system.update_reports:
            # Fails loudly: an empty batch would "replay" to a root
            # mismatch far from the cause.
            with pytest.raises(StorageError, match="certified_state"):
                stored.writes
            with pytest.raises(StorageError, match="certified_state"):
                stored.new_sizes

    def test_history_does_not_pin_superseded_pages(self):
        system = V2FSSystem(SystemConfig(seed=1, txs_per_block=6))
        system.advance_all(5)
        before = reachable_bytes(system)
        system.advance_all(20)  # 40 blocks
        growth = (reachable_bytes(system) - before) / 40
        # Measured 0.053 MB/block (chain data, the database itself, and
        # one VBF per kept certificate); 0.205 with the batches pinned.
        assert growth < 0.1e6
