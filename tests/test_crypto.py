"""Unit and property tests for repro.crypto."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import signature as signature_module
from repro.crypto.hashing import (
    DIGEST_SIZE,
    hash_bytes,
    hash_concat,
    hash_pair,
    hash_str,
    keyed_hash,
)
from repro.crypto.signature import (
    _EXPONENT_BITS,
    _G_POWERS,
    _KEY_TABLES,
    _WINDOW,
    G,
    P,
    Q,
    KeyPair,
    PublicKey,
    Signature,
    _challenge,
    _key_powers,
    _product,
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


class TestGroup:
    """The constants are the group the module docstring derives."""

    #: The 40 smallest primes.
    WITNESSES = [
        n for n in range(2, 174) if all(n % d for d in range(2, n))
    ]
    #: ``P = 2 * (k0 + OFFSET) * Q + 1``: the first prime of that form,
    #: recorded so that the test need not repeat the walk.
    OFFSET = 2669

    @classmethod
    def _is_probable_prime(cls, n):
        """Miller-Rabin; False is a proof that ``n`` is composite."""
        d, r = n - 1, 0
        while d % 2 == 0:
            d, r = d // 2, r + 1
        for a in cls.WITNESSES:
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(r - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True

    @staticmethod
    def _anchor(label, bits):
        data = b"".join(
            hashlib.blake2b(label + i.to_bytes(4, "big"),
                            digest_size=64).digest()
            for i in range(-(-bits // 512))
        )
        return int.from_bytes(data[: bits // 8], "big") | 1 << (bits - 1)

    def test_sizes(self):
        assert len(self.WITNESSES) == 40
        assert P.bit_length() == 2048
        assert Q.bit_length() == 256

    def test_p_and_q_are_prime(self):
        assert self._is_probable_prime(Q)
        assert self._is_probable_prime(P)

    def test_g_generates_the_order_q_subgroup(self):
        assert (P - 1) % Q == 0
        assert G == pow(2, (P - 1) // Q, P)
        assert G != 1
        assert pow(G, Q, P) == 1

    def test_q_is_the_first_prime_at_its_anchor(self):
        anchor = self._anchor(b"v2fs-schnorr-q|", 256)
        assert anchor <= Q
        for n in range(anchor, Q):
            assert not self._is_probable_prime(n), n

    def test_p_is_derived_from_its_anchor(self):
        anchor = self._anchor(b"v2fs-schnorr-p|", 2048)
        k0 = -(-anchor // (2 * Q))
        assert P == 2 * (k0 + self.OFFSET) * Q + 1


class TestFixedBase:
    """The table exponentiation against its reference, ``pow``."""

    #: 0, 1, 2, Q-1 and the neighbourhood of a digit boundary of the
    #: window (all-ones below it, a lone one above it) at the bottom,
    #: middle and top of the table.  Random exponents already touch
    #: every table entry; these pin the digit arithmetic.
    DIGITS = _EXPONENT_BITS // _WINDOW
    EDGES = [0, 1, 2, Q - 1] + [
        (1 << (_WINDOW * k)) + delta
        for k in (1, 2, DIGITS // 2, DIGITS - 1)
        for delta in (-1, 0, 1)
    ]
    #: A challenge may reach ``2**256 - 1``, past ``Q``.
    CHALLENGE_EDGES = EDGES + [(1 << _EXPONENT_BITS) - 2,
                               (1 << _EXPONENT_BITS) - 1]

    def test_the_bound_is_256_bits(self):
        assert _EXPONENT_BITS == 256
        assert len(_G_POWERS) == self.DIGITS

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

    def test_key_table_matches_pow_at_the_edges(self):
        pk = KeyPair.generate(b"seed-edges").public.value
        table = _key_powers(pk)
        for s in (0, 1, Q - 1):
            for e in self.CHALLENGE_EDGES:
                assert _product((_G_POWERS, s), (table, e)) == (
                    pow(G, s, P) * pow(pk, e, P) % P
                ), (s, e)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=Q - 1),
           st.integers(min_value=0, max_value=(1 << 256) - 1))
    def test_key_table_matches_pow(self, s, e):
        pk = KeyPair.generate(b"seed-edges").public.value
        assert _product((_G_POWERS, s), (_key_powers(pk), e)) == (
            pow(G, s, P) * pow(pk, e, P) % P
        )


class TestKeyTables:
    """The per-key table memo: built only for a key of order exactly Q,
    bounded, and never the reason a signature verifies."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The bases of every table built during the test."""
        bases = []
        real = signature_module._powers

        def counting(base):
            bases.append(base)
            return real(base)

        monkeypatch.setattr(signature_module, "_powers", counting)
        _key_powers.cache_clear()
        yield bases
        _key_powers.cache_clear()

    @staticmethod
    def _even_challenge(keypair):
        for i in range(256):
            message = b"m-%d" % i
            signature = sign(keypair, message)
            if signature.e % 2 == 0:
                return message, signature
        raise AssertionError("no even challenge in 256 messages")

    def test_order_two_key_refused_before_a_table(self, built):
        keypair = KeyPair.generate(b"seed-k")
        signature = sign(keypair, b"msg")
        assert not verify(PublicKey(P - 1), b"msg", signature)
        assert built == []

    def test_order_2q_key_refused_before_a_table(self, built):
        keypair = KeyPair.generate(b"seed-k")
        message, signature = self._even_challenge(keypair)
        negated = (P - 1) * keypair.public.value % P
        # Under plain pow the honest signature verifies for -pk too.
        commitment = (pow(G, signature.s, P)
                      * pow(negated, signature.e, P)) % P
        assert _challenge(commitment, message) == signature.e
        assert not verify(PublicKey(negated), message, signature)
        assert built == []
        assert verify(keypair.public, message, signature)
        assert built == [keypair.public.value]

    @pytest.mark.parametrize("bit", [0, 1, 255, 1024, 2046])
    def test_one_bit_off_key_refused(self, built, bit):
        keypair = KeyPair.generate(b"seed-k")
        signature = sign(keypair, b"msg")
        flipped = PublicKey(keypair.public.value ^ (1 << bit))
        assert not verify(flipped, b"msg", signature)
        assert built == []
        assert verify(keypair.public, b"msg", signature)

    def test_evicted_key_still_verifies_and_refuses(self, built):
        keypairs = [
            KeyPair.generate(b"lru-%d" % i) for i in range(_KEY_TABLES + 2)
        ]
        signatures = [sign(keypair, b"msg") for keypair in keypairs]
        for keypair, signature in zip(keypairs, signatures):
            assert verify(keypair.public, b"msg", signature)
        assert _key_powers.cache_info().currsize == _KEY_TABLES
        first, signature = keypairs[0], signatures[0]
        assert verify(first.public, b"msg", signature)
        assert built.count(first.public.value) == 2  # evicted, rebuilt
        assert not verify(first.public, b"other", signature)
        assert not verify(
            first.public, b"msg", Signature(signature.s + 1, signature.e)
        )
        assert not verify(first.public, b"msg", signatures[1])


class TestGoldenVectors:
    """SHA-256 of the wire encodings, recorded when the group became
    (2048, 256).  The reference below computes every power with ``pow``;
    the table implementation must match it byte for byte."""

    VECTORS = [
        (b"seed-1", b"message",
         "b8863d4d0348f1347ecf7a5da315f8b72b9fdf4e700f673ca4d4a9197cae5c70",
         "528b1d15e4dc52e6c65dded95558da5f20a2c71175c19cc7983e8a76d33f00f4"),
        (b"v2fs", b"",
         "1a39185e93dc183204f7df519500d661d750ea7b66c179ffeffac5d60fd3e0b9",
         "9d69e49865bd3cdff0c387cb2a2098b87002f8edef1ed4d9ab3f3ae02d112fab"),
        (b"\x00\xff" * 16, b"v2fs-cert-v2" + bytes(range(256)),
         "c9187180920bbf0d869e9f653ab4f1a32f9941c772db8e4adc85e0ce3d93c782",
         "b4019423cb42eed87698dd9369069cb451615df84fe7901f36c289c6ff97d252"),
    ]

    @staticmethod
    def _reference(seed, message):
        """Keygen and sign as the module docstring states them."""

        def exponent(data):
            digest = hashlib.blake2b(data, digest_size=64).digest()
            return int.from_bytes(digest, "big") % Q or 1

        secret = exponent(b"v2fs-keygen|" + seed)
        nonce = exponent(
            b"v2fs-nonce|" + secret.to_bytes(256, "big") + message
        )
        commitment = pow(G, nonce, P)
        e = int.from_bytes(
            hash_bytes(commitment.to_bytes(256, "big") + message), "big"
        )
        signature = Signature((nonce - secret * e) % Q, e)
        return PublicKey(pow(G, secret, P)), signature

    @pytest.mark.parametrize(
        "seed, message", [vector[:2] for vector in VECTORS]
    )
    def test_table_implementation_matches_the_pow_reference(
        self, seed, message
    ):
        keypair = KeyPair.generate(seed)
        public, signature = self._reference(seed, message)
        assert keypair.public.to_bytes() == public.to_bytes()
        assert sign(keypair, message).to_bytes() == signature.to_bytes()

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
