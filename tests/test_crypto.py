"""Unit and property tests for repro.crypto."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import (
    DIGEST_SIZE,
    hash_bytes,
    hash_concat,
    hash_pair,
    hash_str,
    keyed_hash,
)
from repro.crypto.signature import (
    G,
    P,
    Q,
    KeyPair,
    PublicKey,
    Signature,
    _challenge,
    fixed_base,
    sign,
    verify,
)


class TestHashing:
    def test_digest_size(self):
        assert len(hash_bytes(b"abc")) == DIGEST_SIZE

    def test_deterministic(self):
        assert hash_bytes(b"abc") == hash_bytes(b"abc")

    def test_different_inputs_differ(self):
        assert hash_bytes(b"abc") != hash_bytes(b"abd")

    def test_hash_str_matches_bytes(self):
        assert hash_str("héllo") == hash_bytes("héllo".encode("utf-8"))

    def test_hash_pair_is_ordered(self):
        a, b = hash_bytes(b"a"), hash_bytes(b"b")
        assert hash_pair(a, b) != hash_pair(b, a)

    def test_hash_concat_boundary_safety(self):
        # length prefixes prevent ["ab","c"] == ["a","bc"] collisions
        assert hash_concat([b"ab", b"c"]) != hash_concat([b"a", b"bc"])

    def test_keyed_hash_depends_on_key(self):
        assert keyed_hash(b"k1", b"data") != keyed_hash(b"k2", b"data")

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_concat_vs_parts(self, a, b):
        assert hash_concat([a, b]) == hash_concat([a, b])
        if a != b:
            assert hash_concat([a, b]) != hash_concat([b, a]) or a == b


class TestSignature:
    def test_sign_verify_roundtrip(self):
        keypair = KeyPair.generate(b"seed-1")
        signature = sign(keypair, b"message")
        assert verify(keypair.public, b"message", signature)

    def test_wrong_message_rejected(self):
        keypair = KeyPair.generate(b"seed-1")
        signature = sign(keypair, b"message")
        assert not verify(keypair.public, b"other", signature)

    def test_wrong_key_rejected(self):
        keypair = KeyPair.generate(b"seed-1")
        other = KeyPair.generate(b"seed-2")
        signature = sign(keypair, b"message")
        assert not verify(other.public, b"message", signature)

    def test_deterministic_keygen(self):
        assert (
            KeyPair.generate(b"same").public
            == KeyPair.generate(b"same").public
        )
        assert (
            KeyPair.generate(b"one").public
            != KeyPair.generate(b"two").public
        )

    def test_signature_encoding_roundtrip(self):
        keypair = KeyPair.generate(b"seed-e")
        signature = sign(keypair, b"msg")
        decoded = Signature.from_bytes(signature.to_bytes())
        assert decoded == signature
        assert verify(keypair.public, b"msg", decoded)

    def test_malformed_signature_encoding(self):
        with pytest.raises(ValueError):
            Signature.from_bytes(b"\x00" * 10)

    def test_public_key_encoding_roundtrip(self):
        keypair = KeyPair.generate(b"seed-pk")
        assert (
            PublicKey.from_bytes(keypair.public.to_bytes())
            == keypair.public
        )

    def test_tampered_signature_rejected(self):
        keypair = KeyPair.generate(b"seed-t")
        signature = sign(keypair, b"msg")
        tampered = Signature(s=signature.s + 1, e=signature.e)
        assert not verify(keypair.public, b"msg", tampered)

    def test_out_of_range_s_rejected(self):
        keypair = KeyPair.generate(b"seed-r")
        signature = sign(keypair, b"msg")
        tampered = Signature(s=-1, e=signature.e)
        assert not verify(keypair.public, b"msg", tampered)

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=1, max_size=128))
    def test_roundtrip_property(self, message):
        keypair = KeyPair.generate(b"prop-seed")
        assert verify(keypair.public, message, sign(keypair, message))


class TestFixedBase:
    """``fixed_base`` against its reference, ``pow(G, e, P)``."""

    #: 0, 1, 2, Q-1 and the neighbourhood of a digit boundary of the
    #: 6-bit window (all-ones below it, a lone one above it) at the
    #: bottom, middle and top of the table.  Random exponents already
    #: touch every table entry; these pin the digit arithmetic.
    EDGES = [0, 1, 2, Q - 1] + [
        (1 << (6 * k)) + delta
        for k in (1, 2, 171, 340, 341)
        for delta in (-1, 0, 1)
    ]

    def test_matches_pow_at_the_edges(self):
        assert max(self.EDGES) < Q
        for exponent in self.EDGES:
            assert fixed_base(exponent) == pow(G, exponent, P), exponent

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=Q - 1))
    def test_matches_pow(self, exponent):
        assert fixed_base(exponent) == pow(G, exponent, P)

    @pytest.mark.parametrize("exponent", [-1, Q, Q + 1, 1 << 4096])
    def test_exponent_outside_the_subgroup_order_refused(self, exponent):
        with pytest.raises(ValueError):
            fixed_base(exponent)


class TestGoldenVectors:
    """SHA-256 of the wire encodings, recorded from the ``pow``-based
    implementation before the fixed-base table replaced it: keys,
    signatures, and so certificates and ADS roots, did not move."""

    VECTORS = [
        (b"seed-1", b"message",
         "9fc4112a6cfb493df9227a1a28bc9ef4a0d6dc89c2201020b3cd9976cafca0d5",
         "9358ab888341ee80a275070e445454ca2776a599ea1bdb1c98b6960d4cd89c1e"),
        (b"v2fs", b"",
         "887456b8d98687cdd6349dfc7d70e260f3ef0be0b9540be5c54e8b9703e8e81a",
         "053f02627e22a773193180146751009a0a4004c3881f6a9922a5bdc3af1b72d4"),
        (b"\x00\xff" * 16, b"v2fs-cert-v2" + bytes(range(256)),
         "ec0715f9e7fd6e033973e9f456f126f4cf0d9b611a0d6370a20242849384030a",
         "3e292d2be6535c6d0f0fdaff810ffdfd19c2d9782acba09728f750da8cfc5557"),
    ]

    @pytest.mark.parametrize("seed, message, public_sha, signature_sha",
                             VECTORS)
    def test_keygen_and_sign_bytes_are_pinned(
        self, seed, message, public_sha, signature_sha
    ):
        keypair = KeyPair.generate(seed)
        signature = sign(keypair, message)
        assert hashlib.sha256(
            keypair.public.to_bytes()).hexdigest() == public_sha
        assert hashlib.sha256(
            signature.to_bytes()).hexdigest() == signature_sha
        assert verify(keypair.public, message, signature)


class TestDegenerateInputs:
    """``pk^e`` must depend on a secret: for ``pk`` in {0, 1, P-1} it
    does not, and anyone can then solve ``e = H(g^s * pk^e || m)``."""

    @staticmethod
    def _forge(commitment_of, message=b"any message at all"):
        """``(s, e)`` with ``e = H(commitment || m)`` for the
        commitment the degenerate key collapses verification to."""
        s = 12345
        return Signature(s, _challenge(commitment_of(s), message)), message

    def test_public_key_one_rejected(self):
        signature, message = self._forge(lambda s: pow(G, s, P))
        assert not verify(PublicKey(1), message, signature)

    def test_public_key_zero_rejected(self):
        signature, message = self._forge(lambda s: 0)
        assert not verify(PublicKey(0), message, signature)

    def test_public_key_minus_one_rejected(self):
        # (P-1)^e is 1 for even e: half of all trial values of s forge.
        for s in range(1, 64):
            commitment = pow(G, s, P)
            e = _challenge(commitment, b"m")
            if e % 2 == 0:
                break
        assert not verify(PublicKey(P - 1), b"m", Signature(s, e))

    @pytest.mark.parametrize("value", [-1, P, P + 5])
    def test_public_key_outside_the_group_rejected(self, value):
        keypair = KeyPair.generate(b"seed-d")
        signature = sign(keypair, b"msg")
        assert not verify(PublicKey(value), b"msg", signature)

    def test_negative_challenge_is_false_not_an_exception(self):
        # pow(0, negative, P) raises ValueError("base is not invertible")
        assert not verify(PublicKey(0), b"msg", Signature(1, -1))
        keypair = KeyPair.generate(b"seed-d")
        assert not verify(keypair.public, b"msg", Signature(1, -1))

    def test_oversized_challenge_rejected(self):
        keypair = KeyPair.generate(b"seed-d")
        signature = sign(keypair, b"msg")
        assert signature.e < 1 << 256
        for e in (1 << 256, signature.e + (1 << 256)):
            assert not verify(
                keypair.public, b"msg", Signature(signature.s, e)
            )
