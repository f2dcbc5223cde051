"""Tests for the simulated SGX enclave, attestation, and DCert."""

import dataclasses

import pytest

from repro.chain.chain import Blockchain
from repro.crypto.signature import Signature
from repro.dcert import certifier
from repro.dcert.certifier import DCertIssuer, dcert_valid
from repro.errors import CertificateError, ChainError, EnclaveError
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import Enclave, OCallCostModel


class TestEnclave:
    def test_sealed_keys_derive_from_measurement(self):
        e1 = Enclave(b"code-a")
        e2 = Enclave(b"code-a")
        e3 = Enclave(b"code-b")
        assert e1.public_key == e2.public_key
        assert e1.public_key != e3.public_key

    def test_platform_seed_separates_keys(self):
        e1 = Enclave(b"code", platform_seed=b"p1")
        e2 = Enclave(b"code", platform_seed=b"p2")
        assert e1.public_key != e2.public_key

    def test_ocall_dispatch_and_accounting(self):
        enclave = Enclave(b"code", cost_model=OCallCostModel(0.001, 0.0))
        enclave.register_ocall("echo", lambda x: x)
        assert enclave.ocall("echo", b"data") == b"data"
        assert enclave.stats.calls == 1
        assert enclave.stats.by_name["echo"] == 1
        assert enclave.stats.simulated_overhead_s == pytest.approx(0.001)

    def test_unregistered_ocall_raises(self):
        enclave = Enclave(b"code")
        with pytest.raises(EnclaveError):
            enclave.ocall("ghost")

    def test_payload_bytes_counted(self):
        enclave = Enclave(b"code",
                          cost_model=OCallCostModel(0.0, 1.0))
        enclave.register_ocall("take", lambda data: None)
        enclave.ocall("take", b"x" * 100)
        assert enclave.stats.bytes_crossed == 100

    def test_sign_inside_verifies_with_public_key(self):
        from repro.crypto.signature import verify

        enclave = Enclave(b"code")
        signature = enclave.sign_inside(b"hello")
        assert verify(enclave.public_key, b"hello", signature)


class TestAttestation:
    def test_quote_roundtrip(self):
        service = AttestationService()
        enclave = Enclave(b"code-x")
        report = service.quote(enclave)
        pk = AttestationService.verify_report(
            report, service.root_public_key, enclave.measurement
        )
        assert pk == enclave.public_key

    def test_wrong_measurement_rejected(self):
        service = AttestationService()
        enclave = Enclave(b"code-x")
        report = service.quote(enclave)
        with pytest.raises(CertificateError):
            AttestationService.verify_report(
                report, service.root_public_key,
                Enclave(b"code-y").measurement,
            )

    def test_forged_quote_rejected(self):
        service = AttestationService()
        rogue = AttestationService(seed=b"rogue")
        enclave = Enclave(b"code-x")
        report = rogue.quote(enclave)
        with pytest.raises(CertificateError):
            AttestationService.verify_report(
                report, service.root_public_key, enclave.measurement
            )


class TestDCert:
    def make_chain(self, blocks=3):
        chain = Blockchain("c1")
        for i in range(blocks):
            chain.mine_and_append([{"n": i}], 1000 + i)
        return chain

    def test_recursive_certification(self):
        chain = self.make_chain()
        issuer = DCertIssuer("c1", pow_params=chain.pow_params)
        cert = issuer.certify(None, None, chain.block_at(0))
        for height in (1, 2):
            cert = issuer.certify(
                chain.block_at(height - 1), cert, chain.block_at(height)
            )
            dcert_valid(cert, chain.header_at(height), issuer.public_key)

    def test_genesis_requires_no_parent(self):
        chain = self.make_chain(1)
        issuer = DCertIssuer("c1", pow_params=chain.pow_params)
        cert = issuer.certify(None, None, chain.block_at(0))
        dcert_valid(cert, chain.header_at(0), issuer.public_key)

    def test_non_genesis_requires_previous(self):
        chain = self.make_chain(2)
        issuer = DCertIssuer("c1", pow_params=chain.pow_params)
        with pytest.raises(CertificateError):
            issuer.certify(None, None, chain.block_at(1))

    def test_broken_link_rejected(self):
        chain = self.make_chain(3)
        issuer = DCertIssuer("c1", pow_params=chain.pow_params)
        c0 = issuer.certify(None, None, chain.block_at(0))
        with pytest.raises(ChainError):
            # Block 2 does not link directly to block 0.
            issuer.certify(chain.block_at(0), c0, chain.block_at(2))

    def test_forged_prev_cert_rejected(self):
        chain = self.make_chain(2)
        issuer = DCertIssuer("c1", pow_params=chain.pow_params)
        rogue = DCertIssuer("c1", pow_params=chain.pow_params,
                            platform_seed=b"rogue")
        forged = rogue.certify(None, None, chain.block_at(0))
        with pytest.raises(CertificateError):
            issuer.certify(chain.block_at(0), forged, chain.block_at(1))

    def test_valid_checks_header_binding(self):
        chain = self.make_chain(2)
        issuer = DCertIssuer("c1", pow_params=chain.pow_params)
        cert = issuer.certify(None, None, chain.block_at(0))
        with pytest.raises(CertificateError):
            dcert_valid(cert, chain.header_at(1), issuer.public_key)


class TestDCertIssuedMemo:
    """An issuer skips the signature check of exactly the certificate it
    issued last, and of nothing else."""

    @pytest.fixture
    def verified(self, monkeypatch):
        """Messages the full ``verify`` was asked about, in order."""
        calls = []
        real = certifier.verify

        def counting(public, message, signature):
            calls.append(message)
            return real(public, message, signature)

        monkeypatch.setattr(certifier, "verify", counting)
        return calls

    @staticmethod
    def issued(blocks=3):
        chain = TestDCert().make_chain(blocks)
        issuer = DCertIssuer("c1", pow_params=chain.pow_params)
        return chain, issuer, issuer.certify(None, None, chain.block_at(0))

    def test_the_certificate_issued_last_is_not_verified_again(
            self, verified):
        chain, issuer, cert = self.issued()
        for height in (1, 2):
            cert = issuer.certify(chain.block_at(height - 1), cert,
                                  chain.block_at(height))
        assert verified == []
        dcert_valid(cert, chain.header_at(2), issuer.public_key)
        assert verified == [cert.message()]

    @pytest.mark.parametrize("forge", [
        lambda s: Signature(s.s + 1, s.e),
        lambda s: Signature(s.s, s.e ^ 1),
    ], ids=["s_plus_1", "e_bit"])
    def test_issued_message_under_a_forged_signature_is_refused(
            self, verified, forge):
        chain, issuer, cert = self.issued()
        forged = dataclasses.replace(cert, signature=forge(cert.signature))
        with pytest.raises(CertificateError, match="signature invalid"):
            issuer.certify(chain.block_at(0), forged, chain.block_at(1))
        assert verified == [cert.message()]

    def test_one_bit_off_digest_under_the_issued_signature_is_refused(
            self, verified):
        chain, issuer, cert = self.issued()
        digest = cert.header_digest
        forged = dataclasses.replace(
            cert, header_digest=bytes([digest[0] ^ 1]) + digest[1:])
        with pytest.raises(CertificateError, match="digest mismatch"):
            issuer.certify(chain.block_at(0), forged, chain.block_at(1))

    def test_a_fresh_issuer_verifies_the_honest_certificate_in_full(
            self, verified):
        chain, _issuer, cert = self.issued()
        fresh = DCertIssuer("c1", pow_params=chain.pow_params)
        next_cert = fresh.certify(chain.block_at(0), cert, chain.block_at(1))
        assert verified == [cert.message()]
        dcert_valid(next_cert, chain.header_at(1), fresh.public_key)
