"""Schnorr signatures over a 2048-bit MODP group.

The paper signs V2FS and DCert certificates with keys sealed inside an SGX
enclave.  We reproduce the public-key semantics with a classic Schnorr
scheme in the prime-order subgroup of the RFC 3526 2048-bit MODP group:

* ``sk`` is a random exponent, ``pk = g^sk mod p``.
* A signature on message ``m`` is ``(s, e)`` with ``e = H(g^k || m)`` and
  ``s = k - sk * e (mod q)``; verification recomputes
  ``e' = H(g^s * pk^e || m)`` and checks ``e' == e``.

Nonces are derived deterministically from ``(sk, m)`` (RFC 6979 style), so
signing is reproducible and never reuses a nonce across distinct messages.

Every power of the generator (keygen, the signing commitment, ``g^s`` in
verification) goes through :func:`fixed_base`, a precomputed-table
exponentiation about 4x cheaper than ``pow``; only ``pk^e`` uses ``pow``.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Tuple

from repro.crypto.hashing import DIGEST_SIZE, hash_bytes

# RFC 3526 group 14: a 2048-bit safe prime p = 2q + 1 with generator 2.
_P_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF"
)

P = int(_P_HEX, 16)
Q = (P - 1) // 2  # prime order of the quadratic-residue subgroup
G = 4  # 2^2 generates the subgroup of quadratic residues

#: Window width of the fixed-base table for ``G``: exponents are read
#: as base-``2**6`` digits, one table entry per digit position (342
#: entries of 256 bytes, ~90 KB).  BGMW costs ``ceil(2047/w) + 2**w``
#: multiplications, which 6 minimizes for this group (403 vs 439 at 5
#: and 418 at 7).
_WINDOW = 6


@functools.cache
def _g_powers() -> Tuple[int, ...]:
    """``G^(2^(_WINDOW*i))`` for every digit position of an exponent
    below ``Q``; built on first use for about the price of one ``pow``."""
    powers = [G]
    for _ in range(1, -(-Q.bit_length() // _WINDOW)):
        powers.append(pow(powers[-1], 1 << _WINDOW, P))
    return tuple(powers)


def fixed_base(exponent: int) -> int:
    """``pow(G, exponent, P)`` for ``0 <= exponent < Q``, about 4x faster.

    Fixed-base windowed exponentiation (Brickell-Gordon-McCurley-Wilson):
    with ``exponent = sum(d_i * 2^(w*i))`` the result is
    ``prod_j (prod_{i: d_i == j} G^(2^(w*i)))^j``.  The inner products
    need one multiplication per nonzero digit; the outer powers fall out
    of a running product taken from the top digit value down, two
    multiplications per value.  No squarings, where ``pow`` does 2047.
    """
    if not 0 <= exponent < Q:
        raise ValueError("fixed-base exponent outside [0, Q)")
    mask = (1 << _WINDOW) - 1
    buckets = [1] * (mask + 1)
    for power in _g_powers():
        digit = exponent & mask
        if digit:
            buckets[digit] = buckets[digit] * power % P
        exponent >>= _WINDOW
    running = result = 1
    for digit in range(mask, 0, -1):
        if buckets[digit] != 1:
            running = running * buckets[digit] % P
        result = result * running % P
    return result


def _int_from_hash(data: bytes) -> int:
    """Map bytes to an exponent in ``[1, Q)`` via a 512-bit hash."""
    digest = hashlib.blake2b(data, digest_size=64).digest()
    return int.from_bytes(digest, "big") % Q or 1


@dataclass(frozen=True)
class PublicKey:
    """A Schnorr public key ``pk = g^sk mod p``."""

    value: int

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(256, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        return cls(int.from_bytes(data, "big"))


@dataclass(frozen=True)
class KeyPair:
    """A Schnorr keypair.  Create with :meth:`generate`."""

    secret: int
    public: PublicKey

    @classmethod
    def generate(cls, seed: bytes) -> "KeyPair":
        """Derive a keypair deterministically from ``seed``.

        Deterministic derivation keeps the whole system reproducible; the
        seed plays the role of the entropy the SGX enclave would gather.
        """
        secret = _int_from_hash(b"v2fs-keygen|" + seed)
        public = PublicKey(fixed_base(secret))
        return cls(secret=secret, public=public)


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature ``(s, e)``."""

    s: int
    e: int

    def to_bytes(self) -> bytes:
        return self.s.to_bytes(256, "big") + self.e.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) != 288:
            raise ValueError("malformed signature encoding")
        return cls(
            s=int.from_bytes(data[:256], "big"),
            e=int.from_bytes(data[256:], "big"),
        )


def _challenge(commitment: int, message: bytes) -> int:
    return int.from_bytes(
        hash_bytes(commitment.to_bytes(256, "big") + message), "big"
    )


def sign(keypair: KeyPair, message: bytes) -> Signature:
    """Sign ``message`` with ``keypair``'s secret exponent."""
    nonce = _int_from_hash(
        b"v2fs-nonce|" + keypair.secret.to_bytes(256, "big") + message
    )
    commitment = fixed_base(nonce)
    e = _challenge(commitment, message)
    s = (nonce - keypair.secret * e) % Q
    return Signature(s=s, e=e)


def verify(public: PublicKey, message: bytes, signature: Signature) -> bool:
    """Return True iff ``signature`` is valid on ``message`` under ``public``.

    Degenerate inputs are refused before any exponentiation: ``pk`` of
    0, 1 or ``P-1`` makes ``pk^e`` independent of the secret (so
    ``(s, H(g^s || m))`` would verify for every ``m``), and a challenge
    outside the hash's range was never produced by :func:`sign`.
    """
    if not 0 <= signature.s < Q:
        return False
    if not 2 <= public.value <= P - 2:
        return False
    if not 0 <= signature.e < 1 << (8 * DIGEST_SIZE):
        return False
    commitment = (
        fixed_base(signature.s) * pow(public.value, signature.e, P)
    ) % P
    return _challenge(commitment, message) == signature.e
