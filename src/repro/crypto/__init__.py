"""Cryptographic primitives: BLAKE2b hashing and Schnorr signatures.

The paper uses BLAKE2b as its cryptographic hash and SGX-sealed keys for
signing certificates.  This package provides the same primitives in pure
Python: :mod:`repro.crypto.hashing` wraps :func:`hashlib.blake2b`, and
:mod:`repro.crypto.signature` implements Schnorr signatures in a 2048-bit
group of 256-bit prime order, so that certificates carry real public-key
signatures with scalars the size of the paper's ECDSA ones.
"""

from repro.crypto.hashing import (
    DIGEST_SIZE,
    Digest,
    hash_bytes,
    hash_concat,
    hash_pair,
    hash_str,
)
from repro.crypto.signature import KeyPair, PublicKey, sign, verify

__all__ = [
    "DIGEST_SIZE",
    "Digest",
    "hash_bytes",
    "hash_concat",
    "hash_pair",
    "hash_str",
    "KeyPair",
    "PublicKey",
    "sign",
    "verify",
]
