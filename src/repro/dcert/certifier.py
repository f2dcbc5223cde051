"""DCert certificate issuer and validator.

A :class:`DCertIssuer` runs inside a simulated SGX enclave and certifies
blocks of exactly one source chain.  Certification is *recursive*: block
``i`` is certified only after validating (a) block ``i``'s consensus
validity and body integrity, (b) its hash link to block ``i-1``, and
(c) block ``i-1``'s certificate.  A certificate therefore attests that a
valid state-transition history exists back to genesis, which is what lets
lightweight clients verify the chain tip in constant time.

Check (c) is the one step that re-proves something the issuer already
knows: the previous certificate is, in the common case, the one it
issued a call earlier.  So the issuer keeps the ``(message, signature)``
of the certificate it issued last and skips the signature check only
for exactly that pair; the chain, height, digest and link checks always
run, and any other certificate is verified in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.chain.block import GENESIS_PREV, Block, BlockHeader
from repro.chain.consensus import SimulatedPoW, check_header
from repro.crypto.hashing import Digest
from repro.crypto.signature import PublicKey, Signature, verify
from repro.errors import CertificateError, ChainError
from repro.kept import Kept
from repro.sgx.enclave import Enclave


@dataclass(frozen=True)
class DCertCertificate:
    """Certificate for one block: ``C_blk`` in the paper."""

    chain_id: str
    height: int
    header_digest: Digest
    signature: Signature

    def message(self) -> bytes:
        return _signed_message(self.chain_id, self.height, self.header_digest)


def _signed_message(
    chain_id: str, height: int, header_digest: Digest,
) -> bytes:
    """The bytes a certificate's signature covers; spelled only here.

    Injective: the chain id is the one variable-length field, and the
    two after it have fixed widths (DESIGN §4c)."""
    return (
        b"dcert|"
        + chain_id.encode("utf-8")
        + height.to_bytes(8, "big")
        + header_digest
    )


class DCertIssuer:
    """The DCert CI for one source chain."""

    def __init__(
        self,
        chain_id: str,
        pow_params: Optional[SimulatedPoW] = None,
        platform_seed: bytes = b"platform-0",
    ) -> None:
        self.chain_id = chain_id
        self.pow_params = pow_params if pow_params is not None else SimulatedPoW()
        self.enclave = Enclave(
            code_identity=b"dcert-ci|" + chain_id.encode("utf-8"),
            platform_seed=platform_seed,
        )
        #: ``(message, signature)`` of the certificate issued last:
        #: enclave-resident, so a ``prev_cert`` equal to it was signed
        #: here and its signature needs no second proof.
        self._issued: Kept = Kept()

    @property
    def public_key(self) -> PublicKey:
        """``pk_DCert``: the verification key for this CI's certificates."""
        return self.enclave.public_key

    def certify(
        self,
        prev_block: Optional[Block],
        prev_cert: Optional[DCertCertificate],
        block: Block,
    ) -> DCertCertificate:
        """Certify ``block``; the paper's ``DCert.certify``.

        For the genesis block, ``prev_block`` and ``prev_cert`` are None.
        Raises :class:`~repro.errors.CertificateError` or
        :class:`~repro.errors.ChainError` when any recursive check fails.
        """
        header = block.header
        check_header(header, self.pow_params, self.chain_id)
        if not block.verify_body():
            raise ChainError("block body does not match its tx root")
        if header.height == 0:
            if header.prev_digest != GENESIS_PREV:
                raise ChainError("genesis block has a non-genesis parent")
        else:
            if prev_block is None or prev_cert is None:
                raise CertificateError(
                    "non-genesis certification requires the previous "
                    "block and certificate"
                )
            if prev_block.header.height != header.height - 1:
                raise ChainError("previous block height mismatch")
            if header.prev_digest != prev_block.header.digest():
                raise ChainError("block does not link to previous block")
            dcert_valid(prev_cert, prev_block.header, self.public_key,
                        issued=self._issued)
        digest = header.digest()
        message = _signed_message(self.chain_id, header.height, digest)
        signature = self.enclave.sign_inside(message)
        self._issued.keep((message, signature), True)
        return DCertCertificate(
            chain_id=self.chain_id,
            height=header.height,
            header_digest=digest,
            signature=signature,
        )


def dcert_valid(
    cert: DCertCertificate,
    header: BlockHeader,
    public_key: PublicKey,
    issued: Optional[Kept] = None,
) -> None:
    """The paper's ``DCert.valid``: raise unless ``cert`` certifies
    ``header`` under ``public_key``.

    ``issued`` is an issuer's own ``(message, signature)`` memo: the
    signature check is skipped only for that exact pair, every field
    check runs all the same."""
    if cert.chain_id != header.chain_id:
        raise CertificateError("certificate is for a different chain")
    if cert.height != header.height:
        raise CertificateError("certificate height mismatch")
    if cert.header_digest != header.digest():
        raise CertificateError("certificate digest mismatch")
    pair = (cert.message(), cert.signature)
    if issued is not None and pair in issued:
        return
    if not verify(public_key, *pair):
        raise CertificateError("certificate signature invalid")
