"""Simulated remote attestation.

A stand-in for Intel's quoting infrastructure: the
:class:`AttestationService` holds a root keypair and issues
:class:`AttestationReport` quotes binding an enclave's measurement to its
sealed public key.  Relying parties (query clients, the ISP) verify the
quote against the service's root public key before trusting certificates
signed by that enclave — this is how ``pk_sgx`` is distributed in the
paper without clients ever contacting the CI directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest
from repro.crypto.signature import (
    KeyPair,
    PublicKey,
    Signature,
    sign,
    verify,
)
from repro.errors import CertificateError
from repro.sgx.enclave import Enclave


@dataclass(frozen=True)
class AttestationReport:
    """A quote binding (measurement, enclave public key)."""

    measurement: Digest
    enclave_public_key: PublicKey
    signature: Signature

    def message(self) -> bytes:
        return (
            b"quote|"
            + self.measurement
            + self.enclave_public_key.to_bytes()
        )


class AttestationService:
    """Issues and verifies enclave quotes (the "Intel" of the simulation)."""

    def __init__(self, seed: bytes = b"attestation-root") -> None:
        self._keys = KeyPair.generate(seed)

    @property
    def root_public_key(self) -> PublicKey:
        return self._keys.public

    def quote(self, enclave: Enclave) -> AttestationReport:
        """Issue a report for an enclave running on this platform."""
        report = AttestationReport(
            measurement=enclave.measurement,
            enclave_public_key=enclave.public_key,
            signature=sign(
                self._keys,
                b"quote|"
                + enclave.measurement
                + enclave.public_key.to_bytes(),
            ),
        )
        return report

    @staticmethod
    def verify_report(
        report: AttestationReport,
        root_public_key: PublicKey,
        expected_measurement: Digest,
    ) -> PublicKey:
        """Verify a quote; return the attested enclave public key.

        Raises :class:`~repro.errors.CertificateError` if the quote
        signature is invalid or the measurement is not the expected code
        identity.
        """
        if report.measurement != expected_measurement:
            raise CertificateError("attested measurement mismatch")
        if not verify(root_public_key, report.message(), report.signature):
            raise CertificateError("attestation quote signature invalid")
        return report.enclave_public_key
