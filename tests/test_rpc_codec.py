"""Unit tests for the RPC wire codec: deterministic round trips for
every payload type, and typed rejection of every class of malformed
input (bad magic, oversized length prefixes, truncation, corruption,
unknown tags, bounds violations, trailing garbage)."""

import socket

import pytest

from repro.chain.block import GENESIS_PREV, BlockHeader
from repro.core.certificate import V2fsCertificate
from repro.crypto.hashing import hash_bytes
from repro.crypto.signature import KeyPair, sign
from repro.errors import (
    CertificateError,
    NetworkError,
    ProofError,
    ReproError,
    StorageError,
    WireFormatError,
)
from repro.merkle.ads import V2fsAds
from repro.rpc import codec
from repro.sgx.attestation import AttestationReport


def make_certificate(with_vbf=True):
    keys = KeyPair.generate(b"codec-test")
    ads_root = hash_bytes(b"root")
    chain_states = (
        ("btc", hash_bytes(b"btc-head"), 7),
        ("eth", hash_bytes(b"eth-head"), 9),
    )
    vbf = b"\x01\x02\x03\x04" * 8 if with_vbf else None
    message = V2fsCertificate.message_bytes(ads_root, chain_states, 3, vbf)
    return V2fsCertificate(
        ads_root=ads_root,
        chain_states=chain_states,
        version=3,
        signature=sign(keys, message),
        vbf_encoded=vbf,
    )


def socket_pair():
    return socket.socketpair()


class TestFraming:
    def test_round_trip(self):
        left, right = socket_pair()
        with left, right:
            codec.send_frame(left, b"hello world")
            assert codec.recv_frame(right) == b"hello world"

    def test_empty_payload(self):
        left, right = socket_pair()
        with left, right:
            codec.send_frame(left, b"")
            assert codec.recv_frame(right) == b""

    def test_clean_eof_returns_none(self):
        left, right = socket_pair()
        with right:
            left.close()
            assert codec.recv_frame(right) is None

    def test_bad_magic_rejected(self):
        left, right = socket_pair()
        with left, right:
            left.sendall(b"XX" + codec.frame(b"")[2:])
            with pytest.raises(WireFormatError, match="magic"):
                codec.recv_frame(right)

    def test_oversized_length_prefix_rejected(self):
        left, right = socket_pair()
        with left, right:
            header = codec.FRAME_HEADER.pack(
                codec.MAGIC, 0, codec.MAX_FRAME_BYTES + 1, 0
            )
            left.sendall(header)
            with pytest.raises(WireFormatError, match="exceeds"):
                codec.recv_frame(right)

    def test_hands_the_socket_over_at_a_frame_boundary(self):
        # recv_frame, then a long-lived decoder on the *same* socket
        # (what benchmarks/e2e/open_loop.py does after its blocking
        # open_session): with both frames already in the socket buffer,
        # recv_frame must not have eaten a byte of the second.
        left, right = socket_pair()
        with left, right:
            left.sendall(
                codec.frame(b"first", deadline_ms=5)
                + codec.frame(b"second", frame_id=2)
            )
            assert codec.recv_frame(right) == b"first"
            decoder = codec.FrameDecoder()
            decoder.feed(right.recv(1 << 16))
            assert decoder.frames() == [(b"second", None, 2)]
            assert decoder.buffered() == 0

    def test_truncated_frame_rejected(self):
        left, right = socket_pair()
        with right:
            frame = codec.frame(b"some payload")
            left.sendall(frame[:-5])
            left.close()
            with pytest.raises(WireFormatError, match="mid-frame"):
                codec.recv_frame(right)

    def test_corrupt_payload_rejected_by_checksum(self):
        left, right = socket_pair()
        with left, right:
            frame = bytearray(codec.frame(b"some payload"))
            frame[-3] ^= 0x10  # flip one bit in the payload
            left.sendall(bytes(frame))
            with pytest.raises(WireFormatError, match="checksum"):
                codec.recv_frame(right)

    def test_refuses_to_send_oversized_frame(self):
        with pytest.raises(WireFormatError):
            codec.frame(b"\x00" * (codec.MAX_FRAME_BYTES + 1))


class TestRequestRoundTrips:
    def test_no_body_requests(self):
        for encode, kind in [
            (codec.encode_get_certificate, codec.REQ_GET_CERTIFICATE),
            (codec.encode_bootstrap_request, codec.REQ_BOOTSTRAP),
            (codec.encode_chain_heads_request, codec.REQ_CHAIN_HEADS),
            (codec.encode_ping, codec.REQ_PING),
        ]:
            assert codec.decode_request(encode()) == (kind, ())

    def test_open_session(self):
        kind, args = codec.decode_request(codec.encode_open_session(42))
        assert (kind, args) == (codec.REQ_OPEN_SESSION, (42,))
        kind, args = codec.decode_request(codec.encode_open_session(None))
        assert args == (None,)

    def test_get_file_meta(self):
        payload = codec.encode_get_file_meta(5, "/data/btc_blocks.tbl")
        kind, args = codec.decode_request(payload)
        assert kind == codec.REQ_GET_FILE_META
        assert args == (5, "/data/btc_blocks.tbl")

    def test_get_page(self):
        payload = codec.encode_get_page(5, "/f.tbl", 17)
        assert codec.decode_request(payload) == (
            codec.REQ_GET_PAGE, (5, "/f.tbl", 17)
        )

    def test_validate_path(self):
        digs = [(3, 0, hash_bytes(b"a")), (0, 12, hash_bytes(b"b"))]
        payload = codec.encode_validate_path(9, "/f.tbl", 12, digs)
        kind, args = codec.decode_request(payload)
        assert kind == codec.REQ_VALIDATE_PATH
        assert args == (9, "/f.tbl", 12, digs)

    def test_finalize(self):
        assert codec.decode_request(codec.encode_finalize_session(8)) == (
            codec.REQ_FINALIZE_SESSION, (8,)
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireFormatError, match="unknown request"):
            codec.decode_request(b"\x7f")

    def test_empty_payload_rejected(self):
        with pytest.raises(WireFormatError, match="truncated"):
            codec.decode_request(b"")

    def test_trailing_bytes_rejected(self):
        with pytest.raises(WireFormatError, match="trailing"):
            codec.decode_request(codec.encode_finalize_session(8) + b"\x00")

    def test_hostile_digs_path_count_rejected(self):
        payload = (
            codec.Writer()
            .u8(codec.REQ_VALIDATE_PATH)
            .u64(1)
            .text("/f")
            .u64(0)
            .u32(codec.MAX_DIGS_PATH + 1)
            .payload()
        )
        with pytest.raises(WireFormatError, match="digs_path"):
            codec.decode_request(payload)

    def test_truncated_request_rejected(self):
        payload = codec.encode_get_page(5, "/f.tbl", 17)
        for cut in range(1, len(payload)):
            with pytest.raises(WireFormatError):
                codec.decode_request(payload[:cut])


class TestResponseRoundTrips:
    def test_certificate(self):
        for with_vbf in (True, False):
            certificate = make_certificate(with_vbf)
            kind, decoded = codec.decode_response(
                codec.encode_certificate(certificate)
            )
            assert kind == codec.RESP_CERTIFICATE
            assert decoded == certificate

    def test_session(self):
        assert codec.decode_response(codec.encode_session(77)) == (
            codec.RESP_SESSION, 77
        )

    def test_file_meta(self):
        kind, meta = codec.decode_response(
            codec.encode_file_meta(True, 8192, 2)
        )
        assert (kind, meta) == (codec.RESP_FILE_META, (True, 8192, 2))

    def test_page(self):
        page = bytes(range(256)) * 16
        assert codec.decode_response(codec.encode_page(page)) == (
            codec.RESP_PAGE, page
        )

    def test_validation_fresh(self):
        digest = hash_bytes(b"node")
        kind, value = codec.decode_response(
            codec.encode_validation(("fresh", 2, 5, digest))
        )
        assert (kind, value) == (
            codec.RESP_VALIDATION, ("fresh", 2, 5, digest)
        )

    def test_validation_page(self):
        kind, value = codec.decode_response(
            codec.encode_validation(("page", b"\x01" * 64))
        )
        assert value == ("page", b"\x01" * 64)

    def test_vo(self):
        ads = V2fsAds()
        root = ads.apply_writes(
            ads.root, {"/f": {0: b"page0", 1: b"page1"}}, {"/f": 8192}
        )
        proof = ads.gen_read_proof(root, [("/f", 0), ("/f", 1)])
        kind, decoded = codec.decode_response(codec.encode_vo(proof))
        assert kind == codec.RESP_VO
        assert decoded.encode() == proof.encode()

    def test_chain_heads(self):
        heads = {
            "btc": BlockHeader("btc", 3, GENESIS_PREV,
                               hash_bytes(b"t"), 1000, 4),
            "eth": BlockHeader("eth", 5, GENESIS_PREV,
                               hash_bytes(b"u"), 1001, 9),
        }
        kind, decoded = codec.decode_response(
            codec.encode_chain_heads(heads)
        )
        assert (kind, decoded) == (codec.RESP_CHAIN_HEADS, heads)

    def test_bootstrap(self):
        keys = KeyPair.generate(b"enclave")
        root_keys = KeyPair.generate(b"attestation")
        measurement = hash_bytes(b"code-identity")
        report = AttestationReport(
            measurement=measurement,
            enclave_public_key=keys.public,
            signature=sign(
                root_keys,
                b"quote|" + measurement + keys.public.to_bytes(),
            ),
        )
        kind, value = codec.decode_response(
            codec.encode_bootstrap(report, root_keys.public, measurement)
        )
        assert kind == codec.RESP_BOOTSTRAP
        decoded_report, decoded_root, decoded_measurement = value
        assert decoded_report == report
        assert decoded_root == root_keys.public
        assert decoded_measurement == measurement

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireFormatError, match="unknown response"):
            codec.decode_response(b"\x70")

    def test_truncated_certificate_rejected(self):
        payload = codec.encode_certificate(make_certificate())
        for cut in (1, 10, 40, len(payload) // 2, len(payload) - 1):
            with pytest.raises((WireFormatError, ProofError)):
                codec.decode_response(payload[:cut])

    def test_truncated_vo_rejected(self):
        ads = V2fsAds()
        root = ads.apply_writes(ads.root, {"/f": {0: b"x"}}, {"/f": 4096})
        proof = ads.gen_read_proof(root, [("/f", 0)])
        payload = codec.encode_vo(proof)
        # Truncating inside the embedded proof blob must surface as a
        # typed error, whichever layer catches it first.
        for cut in range(1, len(payload), 7):
            with pytest.raises((WireFormatError, ProofError)):
                codec.decode_response(payload[:cut])

    def test_bad_optional_flag_rejected(self):
        payload = bytearray(codec.encode_certificate(make_certificate()))
        assert payload[-37] == 1  # the has-vbf flag (before 32B + u32)
        payload[-37] = 9
        with pytest.raises(WireFormatError, match="flag"):
            codec.decode_response(bytes(payload))

    def test_page_length_bound_enforced(self):
        payload = (
            codec.Writer()
            .u8(codec.RESP_PAGE)
            .u32(codec.MAX_PAGE_BYTES + 1)
            .payload()
        )
        with pytest.raises(WireFormatError, match="bound"):
            codec.decode_response(payload)


def real_vo():
    """A VO with nested directories, several files and sibling lists."""
    ads = V2fsAds()
    writes = {
        f"/db/{folder}/{name}.tbl": {i: b"%d" % i * 9 for i in range(pages)}
        for folder, name, pages in (
            ("tables", "eth", 5), ("tables", "btc", 3), ("index", "é", 2),
        )
    }
    root = ads.apply_writes(
        ads.root, writes, {path: 4096 * len(p) for path, p in writes.items()}
    )
    return ads.gen_read_proof(
        root, [("/db/tables/eth.tbl", 1), ("/db/tables/eth.tbl", 4),
               ("/db/index/é.tbl", 0)],
    )


def decode_wrapped(blob):
    """Decode ``blob`` as the VO inside a well-formed RESP_VO message,
    so a mutation reaches the proof decoder instead of the length check."""
    message = codec.Writer().u8(codec.RESP_VO).blob(blob).payload()
    return codec.decode_response(message)[1]


class TestHostileVo:
    """``decode_response`` has no blanket ``except``: the VO decoder is
    itself typed, and this sweep is what holds it to that."""

    def test_mutation_sweep_raises_only_typed_errors(self):
        import random
        import tracemalloc

        proof = real_vo()
        encoded = proof.encode()
        assert decode_wrapped(encoded) == proof
        rng = random.Random(18)
        size = len(encoded)
        mutants = [encoded[:cut] for cut in range(size)]
        must_fail = len(mutants)  # every proper prefix is a truncation
        for offset in range(size - 3):  # a count inflated, wherever it is
            for value in (0xFFFFFFFF, 999_999):
                mutants.append(
                    encoded[:offset] + value.to_bytes(4, "big")
                    + encoded[offset + 4:]
                )
        for _ in range(600):
            at = rng.randrange(size)
            mutants.append(
                encoded[:at] + bytes([encoded[at] ^ (1 << rng.randrange(8))])
                + encoded[at + 1:]
            )
            a, b = sorted(rng.sample(range(size + 1), 2))
            mutants.append(encoded[:at] + encoded[a:b] + encoded[at:])
            mutants.append(encoded[:a] + encoded[b:])
        assert len(mutants) >= 2000
        outcomes = {"decoded": 0, "ProofError": 0, "WireFormatError": 0}
        tracemalloc.start()
        try:
            for index, mutant in enumerate(mutants):
                try:
                    decode_wrapped(mutant)
                except (ProofError, WireFormatError) as error:
                    outcomes[type(error).__name__] += 1
                else:
                    # e.g. a flip inside a digest: well-formed, and the
                    # client's verification refuses it later.
                    assert index >= must_fail
                    outcomes["decoded"] += 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outcomes["ProofError"] > 1000
        # No count, however large, made the decoder allocate for it.
        assert peak < 4 * 1024 * 1024

    @pytest.mark.parametrize("blob", [
        # A root directory claiming 10^6 children, then nothing.
        b"\x00\x00\x00" + (1_000_000).to_bytes(4, "big"),
        # An empty root, then 10^6 files.
        b"\x00\x00\x00" + bytes(4) + (1_000_000).to_bytes(4, "big"),
        # One file claiming 10^6 siblings.
        b"\x00\x00\x00" + bytes(4) + (1).to_bytes(4, "big")
        + b"\x00\x01f" + (1_000_000).to_bytes(4, "big"),
    ], ids=["children", "files", "siblings"])
    def test_count_beyond_the_input_is_refused_before_any_element(
        self, blob
    ):
        with pytest.raises(ProofError, match="count 1000000 exceeds"):
            decode_wrapped(blob)

    def test_nesting_past_the_depth_bound_is_refused(self):
        level = b"\x00\x00\x00" + (1).to_bytes(4, "big") + b"\x00\x00"
        opaque = b"\x02" + bytes(32)
        with pytest.raises(ProofError, match="depth"):
            decode_wrapped(level * 300 + opaque + bytes(4))
        # ... and inside the bound it is an ordinary, decodable proof.
        assert decode_wrapped(level * 200 + opaque + bytes(4)).files == {}


class TestErrorMapping:
    @pytest.mark.parametrize("error", [
        NetworkError("no certificate yet"),
        StorageError("missing file"),
        CertificateError("stale"),
        ProofError("bad proof"),
        ReproError("generic"),
    ])
    def test_round_trip_preserves_type_and_message(self, error):
        kind, decoded = codec.decode_response(codec.encode_error(error))
        assert kind == codec.RESP_ERROR
        assert type(decoded) is type(error)
        assert str(decoded) == str(error)

    def test_unknown_subtype_maps_to_nearest_ancestor(self):
        class CustomStorageError(StorageError):
            pass

        _, decoded = codec.decode_response(
            codec.encode_error(CustomStorageError("x"))
        )
        assert type(decoded) is StorageError

    def test_unknown_code_degrades_to_base_error(self):
        payload = (
            codec.Writer().u8(codec.RESP_ERROR).u16(999).text("?").payload()
        )
        _, decoded = codec.decode_response(payload)
        assert type(decoded) is ReproError


#: Every combination of the two optional header fields.
FLAG_SETS = {
    "none": {},
    "deadline": {"deadline_ms": 1500},
    "id": {"frame_id": 9},
    "both": {"deadline_ms": 250, "frame_id": 9},
}


def feed_whole(decoder, wire):
    decoder.feed(wire)
    return decoder.frames()


def feed_byte_at_a_time(decoder, wire):
    collected = []
    for index in range(len(wire)):
        decoder.feed(wire[index:index + 1])
        collected.extend(decoder.frames())
    return collected


def feed_split_header(decoder, wire):
    # Cut inside the fixed header; nothing may parse before the rest.
    decoder.feed(wire[:7])
    assert decoder.frames() == []
    decoder.feed(wire[7:])
    return decoder.frames()


class TestFrameDecoderIncremental:
    """The one frame parser against adversarial feed patterns.

    recv() on a non-blocking socket returns arbitrary chunk sizes, so
    the decoder must behave identically whether a frame arrives whole,
    byte-at-a-time, or split anywhere inside the header — for every
    flag set — and must reject hostile input (bad magic, unknown flag,
    oversized length) as soon as the fixed header bytes are present,
    even mid-stream.
    """

    @pytest.mark.parametrize(
        "feed", [feed_whole, feed_byte_at_a_time, feed_split_header],
        ids=["whole", "bytewise", "split-header"],
    )
    @pytest.mark.parametrize("flags", list(FLAG_SETS))
    def test_flag_sets_by_feed(self, flags, feed):
        fields = FLAG_SETS[flags]
        decoder = codec.FrameDecoder()
        wire = codec.frame(b"payload-" + flags.encode(), **fields)
        assert len(wire) == 11 + 4 * len(fields) + len(b"payload-") + len(flags)
        assert feed(decoder, wire) == [(
            b"payload-" + flags.encode(),
            fields.get("deadline_ms"),
            fields.get("frame_id"),
        )]
        assert decoder.buffered() == 0

    def test_mixed_variants_in_one_byte_stream(self):
        wire = (
            codec.frame(b"a")
            + codec.frame(b"b", deadline_ms=7)
            + codec.frame(b"c", deadline_ms=None, frame_id=1)
        )
        assert feed_byte_at_a_time(codec.FrameDecoder(), wire) == [
            (b"a", None, None), (b"b", 7, None), (b"c", None, 1),
        ]

    @pytest.mark.parametrize("split", [1, 2, 5, 9, 13])
    def test_header_split_across_recvs(self, split):
        # Splits inside the fixed 11-byte header and inside the
        # optional fields behind it must all reassemble.
        wire = codec.frame(b"split-me", deadline_ms=80, frame_id=4)
        decoder = codec.FrameDecoder()
        decoder.feed(wire[:split])
        assert decoder.frames() == []
        decoder.feed(wire[split:])
        assert decoder.frames() == [(b"split-me", 80, 4)]

    def test_payload_split_across_recvs(self):
        wire = codec.frame(b"A" * 1000)
        decoder = codec.FrameDecoder()
        decoder.feed(wire[:300])
        assert decoder.frames() == []
        decoder.feed(wire[300:999])
        assert decoder.frames() == []
        decoder.feed(wire[999:])
        assert decoder.frames() == [(b"A" * 1000, None, None)]

    def test_missing_names_exactly_the_rest_of_the_frame(self):
        # What the blocking reader asks before each recv: the fixed
        # header first, then optional fields + payload in one read.
        wire = codec.frame(b"p" * 40, deadline_ms=3, frame_id=4)
        decoder = codec.FrameDecoder()
        assert decoder.missing() == 11
        decoder.feed(wire[:4])
        assert decoder.missing() == 7
        decoder.feed(wire[4:11])
        assert decoder.missing() == 8 + 40
        decoder.feed(wire[11:])
        assert decoder.missing() == 0

    def test_oversized_frame_rejected_mid_stream(self):
        # A valid frame followed by an oversized length prefix: the
        # good frame drains, then the rejection fires as soon as the
        # fixed header bytes are present — before any payload buffers.
        decoder = codec.FrameDecoder()
        decoder.feed(codec.frame(b"good"))
        evil = codec.FRAME_HEADER.pack(
            codec.MAGIC, 0, codec.MAX_FRAME_BYTES + 1, 0
        )
        decoder.feed(evil[:10])
        assert decoder.frames() == [(b"good", None, None)]
        decoder.feed(evil[10:])
        with pytest.raises(WireFormatError, match="exceeds"):
            decoder.frames()

    @pytest.mark.parametrize("flags", list(FLAG_SETS))
    def test_oversized_length_rejected_early(self, flags):
        # The length sits in the fixed 11 bytes: the bound check must
        # not wait for the optional fields, let alone any payload —
        # on the draining path and on the one the blocking reader asks.
        bits = (
            codec.FLAG_DEADLINE * ("deadline_ms" in FLAG_SETS[flags])
            | codec.FLAG_FRAME_ID * ("frame_id" in FLAG_SETS[flags])
        )
        evil = codec.FRAME_HEADER.pack(
            codec.MAGIC, bits, codec.MAX_FRAME_BYTES + 1, 0
        )
        decoder = codec.FrameDecoder()
        decoder.feed(evil)
        with pytest.raises(WireFormatError, match="exceeds"):
            decoder.frames()
        with pytest.raises(WireFormatError, match="exceeds"):
            decoder.missing()

    @pytest.mark.parametrize("bit", [0x04, 0x08, 0x10, 0x20, 0x40, 0x80])
    def test_unknown_flag_bit_rejected(self, bit):
        wire = bytearray(codec.frame(b"x", frame_id=1))
        wire[2] |= bit
        decoder = codec.FrameDecoder()
        decoder.feed(bytes(wire))
        with pytest.raises(WireFormatError, match="flags"):
            decoder.frames()

    def test_bad_magic_mid_stream(self):
        decoder = codec.FrameDecoder()
        decoder.feed(codec.frame(b"fine"))
        decoder.feed(b"ZZ" + codec.frame(b"")[2:])
        out = []
        with pytest.raises(WireFormatError, match="magic"):
            out = decoder.frames()
            decoder.frames()
        assert out == []  # the raise happened on the first drain

    def test_bad_magic_waits_for_full_shared_header(self):
        # Two garbage bytes alone are not enough to condemn the stream:
        # every reader judges a header only once its fixed part is in.
        decoder = codec.FrameDecoder()
        decoder.feed(b"ZZ")
        assert decoder.frames() == []
        decoder.feed(b"\x00" * 9)
        with pytest.raises(WireFormatError, match="magic"):
            decoder.frames()

    def test_crc_mismatch_raises_after_payload_completes(self):
        wire = bytearray(codec.frame(b"corrupt-me"))
        wire[-1] ^= 0xFF
        decoder = codec.FrameDecoder()
        decoder.feed(bytes(wire[:-1]))
        assert decoder.frames() == []  # incomplete: no verdict yet
        decoder.feed(bytes(wire[-1:]))
        with pytest.raises(WireFormatError, match="checksum"):
            decoder.frames()

    def test_buffered_reflects_undrained_bytes(self):
        decoder = codec.FrameDecoder()
        wire = codec.frame(b"abc")
        decoder.feed(wire[:7])
        assert decoder.buffered() == 7
        decoder.feed(wire[7:])
        assert decoder.frames() == [(b"abc", None, None)]
        assert decoder.buffered() == 0
