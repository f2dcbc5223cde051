"""Tests for the V2FS certificate, the CI, and the assembled system."""

import gc
import sys
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.query_client import QueryClient
from repro.client.vfs import QueryMode
from repro.core import certificate as certificate_module
from repro.core import ci as ci_module
from repro.core.certificate import V2fsCertificate
from repro.core.system import SystemConfig, V2FSSystem, ingest_block
from repro.crypto.signature import KeyPair, sign
from repro.db import btree
from repro.db.btree import KeptNodes
from repro.dcert import certifier
from repro.errors import CertificateError, ReproError, StorageError
from repro.isp.server import IspServer
from repro.kept import Kept
from repro.vfs.maintenance import MaintenanceSession


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


class _Recorded(MaintenanceSession):
    """A maintenance session that files itself in ``made``."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _Recorded.made.append(self)


class _NodesDroppedPerStatement(KeptNodes):
    """What a CI kept before it held nodes: each statement's trees
    start from an empty map, and nothing outlives the statement."""

    def file(self, path):
        return {}


def _lying(ci, lie, files=".tbl"):
    """Storage OCall handlers that tell ``lie`` (None: none) to
    ``ci``'s enclave about every file whose path ends in ``files``:
    ``meta`` claims it one page longer (refused by the proof checks
    after the engine ran: ``ProofError``), ``flip`` serves each of its
    tree pages with one bit flipped (an insert raises on the page's
    checksum)."""
    handlers = ci.enclave._handlers
    real_open, real_get_page = handlers["open"], handlers["get_page"]

    def open_(path):
        exists, size, page_count = real_open(path)
        if exists and path.endswith(files):
            return exists, size + 4096, page_count + 1
        return exists, size, page_count

    def get_page(root, path, page_id):
        page = real_get_page(root, path, page_id)
        if path.endswith(files) and page_id:
            return page[:100] + bytes([page[100] ^ 1]) + page[101:]
        return page

    return {"meta": {"open": open_}, "flip": {"get_page": get_page},
            None: {}}[lie]


def _advance(system, chain_id, lie):
    """One block through the CI; with ``lie``, its first run is told
    that lie, and the block is retried on honest storage if it failed.

    Returns what each run made: the error, if any, P_r and P_w with
    their bytes, OCalls, and the report's counts, batch and
    certificate."""
    ci, runs = system.ci, []

    def run(attempt):
        del _Recorded.made[:]
        try:
            report = attempt()
        except ReproError as error:
            report, outcome = None, (type(error), str(error))
        else:
            outcome = None
        (session,) = _Recorded.made
        runs.append((
            outcome, sorted(session.pages_read.items()),
            sorted(session.pages_written.items()), ci.enclave.stats.calls,
            report and (report.ocalls, report.proof_bytes,
                        report.pages_read, report.pages_written,
                        report.batch, report.certificate),
            ci.storage_root,
        ))
        return report

    with mock.patch.object(ci_module, "MaintenanceSession", _Recorded):
        real = dict(ci.enclave._handlers)
        ci.enclave._handlers.update(_lying(ci, lie))
        try:
            report = run(lambda: system.advance_block(chain_id))
        finally:
            ci.enclave._handlers.update(real)
        if report is None:
            chain = system.chains[chain_id]
            block = chain.block_at(chain.height)
            cert = system._dcert_certs[chain_id][-1]
            system._publish(run(lambda: ci.process_blocks(
                [(block, cert)], ingest_block)))
    return runs


#: Blocks of one chain or the other, each told no lie or one.
BLOCK_RUNS = st.lists(
    st.tuples(st.sampled_from(["eth", "btc"]),
              st.sampled_from([None, None, "meta", "flip"])),
    min_size=1, max_size=8,
)


class TestCiHeldState:
    """The CI proves nothing twice that its enclave already holds: its
    own certificate, DCert's last certificate, the nodes its last run
    decoded.  None of it may move a byte the paper counts."""

    @settings(max_examples=10, deadline=None)
    @given(BLOCK_RUNS)
    def test_held_nodes_change_no_byte_of_any_run(self, blocks):
        """One CI holds its kept nodes across statements and runs, one
        drops them at every statement end; over the same blocks, failed
        runs included, both read and write the same pages, make the
        same OCalls, fail alike, and sign the same certificates."""
        held, dropped = (V2FSSystem(SystemConfig(txs_per_block=24))
                         for _ in range(2))
        dropped.ci._kept_nodes = _NodesDroppedPerStatement()
        for chain_id, lie in blocks:
            assert (_advance(held, chain_id, lie)
                    == _advance(dropped, chain_id, lie))
        assert held.ci.certificate == dropped.ci.certificate
        assert len(held.ci._kept_nodes) > 0 == len(dropped.ci._kept_nodes)

    def test_a_failed_insert_still_drops_its_files_nodes(self):
        """A flipped tree page makes the table's insert raise: the file
        loses every kept node, though the run read the page whose node
        it held (so trimming alone would have kept that one); files
        the run did not fail on keep theirs."""
        system = V2FSSystem(SystemConfig(txs_per_block=24))
        for _ in range(3):
            system.advance_block("eth")
        kept = system.ci._kept_nodes
        table = "/db/tables/eth_transactions.tbl"
        assert kept.file(table)
        ci = system.ci
        real = dict(ci.enclave._handlers)
        ci.enclave._handlers.update(_lying(ci, "flip", table))
        try:
            with pytest.raises(StorageError, match="checksum"):
                system.advance_block("eth")
        finally:
            ci.enclave._handlers.update(real)
        assert kept.file(table) == {}
        assert len(kept) > 0  # other files' nodes stay

    def test_a_run_decodes_less_than_with_nodes_dropped(self):
        decoded = {}
        for name, store in [("held", KeptNodes()),
                            ("dropped", _NodesDroppedPerStatement())]:
            system = V2FSSystem(SystemConfig(txs_per_block=24))
            system.ci._kept_nodes = store
            for _ in range(4):
                system.advance_block("eth")
            real = btree._decode_node
            with mock.patch.object(
                    btree, "_decode_node",
                    lambda raw: decoded.setdefault(name, []).append(raw)
                    or real(raw)):
                system.advance_block("eth")
        assert len(decoded.get("held", ())) < len(decoded["dropped"])

    def test_nodes_held_are_bounded_by_each_files_last_run(self):
        system = V2FSSystem(SystemConfig(txs_per_block=24))
        last_run = {}
        for chain_id in ["eth", "btc", "eth", "eth", "btc"] * 3:
            with mock.patch.object(ci_module, "MaintenanceSession",
                                   _Recorded):
                del _Recorded.made[:]
                system.advance_block(chain_id)
            (session,) = _Recorded.made
            touched = {}
            for path, pid in [*session.pages_read, *session.pages_written]:
                touched.setdefault(path, set()).add(pid)
            last_run.update(touched)
        kept = system.ci._kept_nodes
        assert len(kept) > 0
        for path, pages in kept._files.items():
            assert set(pages) <= last_run[path], path
        assert len(kept) <= sum(map(len, last_run.values()))

    def test_one_block_makes_one_verify_the_new_dcert_certificate(
            self, monkeypatch):
        """The one signature a block's update proves is the new DCert
        certificate, in the CI: neither the CI's own certificate nor
        the one DCert issued a call earlier is proven again."""
        system = V2FSSystem(SystemConfig(txs_per_block=3))
        system.advance_block("eth")
        issuer = system.dcert_issuers["eth"]
        where, calls = ["test"], []
        for module in (certifier, certificate_module):
            def counting(public, message, signature, real=module.verify):
                calls.append((where[-1], message))
                return real(public, message, signature)

            monkeypatch.setattr(module, "verify", counting)

        def tagged(name, method):
            def run(*args):
                where.append(name)
                try:
                    return method(*args)
                finally:
                    where.pop()
            return run

        monkeypatch.setattr(issuer, "certify",
                            tagged("dcert", issuer.certify))
        monkeypatch.setattr(system.ci, "process_blocks",
                            tagged("ci", system.ci.process_blocks))
        system.advance_block("eth")
        new = system._dcert_certs["eth"][-1]
        assert calls == [("ci", new.message())]


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
