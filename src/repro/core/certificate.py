"""The V2FS certificate ``C_V2FS``.

Per Section IV-A the certificate binds the ADS root to the latest block
of every source chain, signed by the key sealed in the CI's enclave::

    <h_ADS, [(dig_1, hgt_1), ..., (dig_n, hgt_n)], sig>

The Section V-B extension adds a monotonically increasing version number
and the versioned bloom filter, both covered by the signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from repro.crypto.hashing import Digest, hash_bytes
from repro.crypto.signature import PublicKey, Signature, verify
from repro.errors import CertificateError
from repro.kept import Kept
from repro.vbf.versioned_bloom import VersionedBloomFilter

#: One per-chain state entry: (chain_id, latest header digest, height).
ChainState = Tuple[str, Digest, int]


@dataclass(frozen=True)
class V2fsCertificate:
    """A signed snapshot of the filesystem + multi-chain state."""

    ads_root: Digest
    chain_states: Tuple[ChainState, ...]
    version: int
    signature: Signature
    vbf_encoded: Optional[bytes] = None

    @staticmethod
    def message_bytes(
        ads_root: Digest,
        chain_states: Tuple[ChainState, ...],
        version: int,
        vbf_encoded: Optional[bytes],
    ) -> bytes:
        """Canonical signed payload (Algorithm 3, line 8).

        The encoding must be *injective*: every variable-length field
        (chain ids, digests) is length-prefixed and the chain-state list
        is count-prefixed, so no two distinct inputs can serialize to
        the same signed message.  (The v1 encoding joined raw fields
        with ``b"|"``, which let bytes migrate between adjacent fields —
        a malleability hole in the one object the enclave signs.)
        """
        out = bytearray(b"v2fs-cert-v2")
        out += len(ads_root).to_bytes(4, "big")
        out += ads_root
        out += version.to_bytes(8, "big")
        out += len(chain_states).to_bytes(4, "big")
        for chain_id, digest, height in chain_states:
            encoded_id = chain_id.encode("utf-8")
            out += len(encoded_id).to_bytes(4, "big")
            out += encoded_id
            out += len(digest).to_bytes(4, "big")
            out += digest
            out += height.to_bytes(8, "big")
        if vbf_encoded is None:
            out += b"\x00"
        else:
            out += b"\x01"
            out += hash_bytes(vbf_encoded)
        return bytes(out)

    def message(self) -> bytes:
        """The signed payload, built once per certificate object: the
        fields are frozen, and the build hashes the whole VBF."""
        return self._message

    @cached_property
    def _message(self) -> bytes:
        return self.message_bytes(
            self.ads_root, self.chain_states, self.version, self.vbf_encoded
        )

    def verify_signature(
        self,
        public_key: PublicKey,
        proven: Optional[Kept] = None,
    ) -> bool:
        """Raise :class:`~repro.errors.CertificateError` on a bad signature.

        ``proven`` holds the ``(public key, message, signature)`` triple
        last proven valid.  That a triple verifies is a fact about those
        bytes alone, so the identical triple returns without verifying
        again; one that differs in a bit is verified in full and kept
        only after ``verify`` returned True.  Returns whether ``proven``
        answered (True) or ``verify`` ran.
        """
        triple = (public_key, self.message(), self.signature)
        if proven is not None and triple in proven:
            return True
        if not verify(*triple):
            raise CertificateError("V2FS certificate signature invalid")
        if proven is not None:
            proven.keep(triple, True)
        return False

    def chain_state(self, chain_id: str) -> Tuple[Digest, int]:
        for name, digest, height in self.chain_states:
            if name == chain_id:
                return digest, height
        raise CertificateError(
            f"certificate has no state for chain {chain_id!r}"
        )

    def vbf(self) -> Optional[VersionedBloomFilter]:
        """Decode the embedded bloom filter, if present."""
        if self.vbf_encoded is None:
            return None
        return VersionedBloomFilter.decode(self.vbf_encoded)

    def byte_size(self) -> int:
        """Wire size of the certificate (for network accounting)."""
        size = 32 + 8 + 288  # root + version + signature
        size += sum(len(c) + 32 + 8 for c, _, _ in self.chain_states)
        if self.vbf_encoded is not None:
            size += len(self.vbf_encoded)
        return size
