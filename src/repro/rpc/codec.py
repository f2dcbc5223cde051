"""Wire codec for the client-ISP RPC protocol.

Every message travels in one *frame*, and there is exactly one frame
layout::

    +-------+-------+------------+-----------+ - - - - - - + - - - - - - +---------+
    | magic | flags | length u32 | crc32 u32 | deadline u32| frame id u32| payload |
    +-------+-------+------------+-----------+ - - - - - - + - - - - - - +---------+
       2 B     1 B                             if flags&1    if flags&2   length B

``magic`` is the two-byte protocol tag :data:`MAGIC`; ``length`` is the
payload size (bounded by :data:`MAX_FRAME_BYTES`, checked *before* any
payload is buffered); ``crc32`` detects accidental corruption in
transit.  The two optional fields follow the fixed 11 bytes in flag
order:

* :data:`FLAG_DEADLINE` — the sender's *remaining* deadline budget in
  milliseconds.  Relative, not absolute, so peers need no clock
  synchronization; the receiver rebases it onto its own monotonic clock.
* :data:`FLAG_FRAME_ID` — a connection-unique request id.  A pipelining
  client may send many id-carrying requests back-to-back; every server
  echoes the id on the matching response, so those responses may
  complete (and arrive) out of order.  Frames without an id are answered
  strictly in request order.

Any other flag bit is a :class:`~repro.errors.WireFormatError`.  The
CRC is not a security measure — a malicious ISP can recompute it — but
everything it lets through is still subject to the client's
cryptographic verification, so corruption is always answered with a
typed error or a failed VO check, never a crash or a silently wrong
result.

Headers are parsed in one place, :class:`FrameDecoder`; the blocking
:func:`recv_frame` merely drives a decoder from a socket.

The payload is one message: a one-byte kind tag followed by a
deterministic binary body.  All integers are big-endian and fixed-width;
all variable-length fields are length-prefixed and bounds-checked on
decode, so the same byte string always decodes to the same message and
malformed input is rejected with :class:`WireFormatError` at the exact
offending field.
"""

from __future__ import annotations

import socket
import struct
import zlib
from typing import Dict, List, Optional, Tuple, Union

from repro.chain.block import BlockHeader
from repro.core.certificate import V2fsCertificate
from repro.crypto.hashing import Digest
from repro.crypto.signature import PublicKey, Signature
from repro.errors import (
    CertificateError,
    ChainError,
    DeadlineExceededError,
    EnclaveError,
    EpochError,
    FileNotFoundInStoreError,
    NetworkError,
    OverloadedError,
    ProofError,
    ReproError,
    StorageError,
    VerificationError,
    WireFormatError,
)
from repro.isp.server import FreshMatch, PageReply
from repro.merkle.proof import AdsProof
from repro.obs import metrics as obs
from repro.sgx.attestation import AttestationReport
from repro.wire import Reader, Writer

# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

MAGIC = b"VF"
FRAME_HEADER = struct.Struct(">2sBII")  # magic, flags, payload length, crc32
FLAG_DEADLINE = 0x01  # a u32 deadline budget (ms) follows the fixed header
FLAG_FRAME_ID = 0x02  # a u32 frame id follows (after the deadline, if any)
_U32 = struct.Struct(">I")

#: Hard ceiling on one frame's payload.  Large enough for any realistic
#: consolidated VO at our scale, small enough that a hostile length
#: prefix cannot make the peer allocate unbounded memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_PUBKEY_BYTES = 256
_SIGNATURE_BYTES = 288

#: Field-level bounds.  All generous relative to legitimate traffic.
MAX_PAGE_BYTES = 1 << 20
MAX_DIGS_PATH = 4096
MAX_CHAIN_STATES = 256
MAX_VBF_BYTES = 16 * 1024 * 1024
MAX_ERROR_BYTES = 4096

#: One decoded frame: ``(payload, deadline_ms, frame_id)``, with ``None``
#: for an optional field the header did not carry.
Frame = Tuple[bytes, Optional[int], Optional[int]]


def frame(
    payload: bytes,
    deadline_ms: Optional[int] = None,
    frame_id: Optional[int] = None,
) -> bytes:
    """Wrap one message payload into a complete frame.

    ``deadline_ms`` and ``frame_id`` each set their header flag and ride
    the wire as a u32 when given; a frame with neither is the 11-byte
    fixed header plus the payload.
    """
    if len(payload) > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"refusing to send oversized frame ({len(payload)} bytes)"
        )
    if obs.ACTIVE:
        obs.inc("rpc.frame.encode")
        obs.add("rpc.frame.encode.bytes", len(payload))
    flags = 0
    optional = b""
    for flag, value, what in (
        (FLAG_DEADLINE, deadline_ms, "deadline (ms)"),
        (FLAG_FRAME_ID, frame_id, "frame id"),
    ):
        if value is None:
            continue
        if not 0 <= value <= 0xFFFFFFFF:
            raise WireFormatError(
                f"{what} {value} does not fit the u32 wire field"
            )
        flags |= flag
        optional += _U32.pack(value)
    return FRAME_HEADER.pack(
        MAGIC, flags, len(payload), zlib.crc32(payload)
    ) + optional + payload


def send_frame(
    sock: socket.socket,
    payload: bytes,
    deadline_ms: Optional[int] = None,
) -> None:
    """Send one framed message over a connected socket."""
    sock.sendall(frame(payload, deadline_ms))


class FrameDecoder:
    """The one frame parser: incremental, for any byte source.

    :meth:`feed` whatever arrived and drain complete frames with
    :meth:`frames`; a non-blocking reader feeds arbitrary ``recv``
    chunks, a blocking one asks :meth:`missing` how much the frame at
    the head of the buffer still needs and reads exactly that.  Hostile
    input fails the same way on every path: a bad magic, an unknown
    flag bit or an oversized length prefix raises
    :class:`~repro.errors.WireFormatError` as soon as the fixed header
    is complete — before any payload is buffered past the bound — and a
    CRC mismatch raises once the payload is complete.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def buffered(self) -> int:
        """Bytes fed but not yet drained as complete frames."""
        return len(self._buf)

    def feed(self, data: bytes) -> None:
        self._buf += data

    def _header(self) -> Optional[Tuple[int, int, int, int]]:
        """Parse the header at the head of the buffer.

        Returns ``(flags, header_size, length, crc)``, or ``None`` while
        fewer than the fixed header's bytes are buffered.
        """
        if len(self._buf) < FRAME_HEADER.size:
            return None
        magic, flags, length, crc = FRAME_HEADER.unpack_from(self._buf)
        if magic != MAGIC:
            raise WireFormatError(f"bad frame magic {magic!r}")
        if flags & ~(FLAG_DEADLINE | FLAG_FRAME_ID):
            raise WireFormatError(f"unknown frame flags 0x{flags:02x}")
        if length > MAX_FRAME_BYTES:
            raise WireFormatError(
                f"frame length {length} exceeds the "
                f"{MAX_FRAME_BYTES}-byte limit"
            )
        header_size = FRAME_HEADER.size
        if flags & FLAG_DEADLINE:
            header_size += _U32.size
        if flags & FLAG_FRAME_ID:
            header_size += _U32.size
        return flags, header_size, length, crc

    def missing(self) -> int:
        """Bytes the frame at the head of the buffer still needs (0 when
        it is complete): first up to the fixed header, then — once that
        names the optional fields and the length — the rest exactly."""
        header = self._header()
        if header is None:
            return FRAME_HEADER.size - len(self._buf)
        _flags, header_size, length, _crc = header
        return max(0, header_size + length - len(self._buf))

    def frames(self) -> List[Frame]:
        """Drain every complete frame buffered so far."""
        out: List[Frame] = []
        buf = self._buf
        while (header := self._header()) is not None:
            flags, header_size, length, crc = header
            if len(buf) < header_size + length:
                break
            deadline_ms: Optional[int] = None
            frame_id: Optional[int] = None
            offset = FRAME_HEADER.size
            if flags & FLAG_DEADLINE:
                deadline_ms = _U32.unpack_from(buf, offset)[0]
                offset += _U32.size
            if flags & FLAG_FRAME_ID:
                frame_id = _U32.unpack_from(buf, offset)[0]
            payload = bytes(buf[header_size:header_size + length])
            del buf[:header_size + length]
            if zlib.crc32(payload) != crc:
                raise WireFormatError(
                    "frame checksum mismatch (corrupt payload)"
                )
            if obs.ACTIVE:
                obs.inc("rpc.frame.decode")
                obs.add("rpc.frame.decode.bytes", len(payload))
            out.append((payload, deadline_ms, frame_id))
        return out


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    """Receive one frame's payload from a blocking socket.

    Drives a fresh :class:`FrameDecoder` with exact-size reads, so it
    never consumes a byte past the frame it returns — the next reader of
    ``sock`` (another ``recv_frame``, or a long-lived decoder) starts at
    a frame boundary.  Deadline and frame id are discarded: this is the
    one-request-one-reply client path.  Returns ``None`` on a clean EOF
    between frames; an EOF mid-frame is a :class:`WireFormatError`, like
    every other malformation the decoder rejects.
    """
    decoder = FrameDecoder()
    while (want := decoder.missing()):
        chunk = sock.recv(min(want, 1 << 16))
        if not chunk:
            if not decoder.buffered():
                return None
            raise WireFormatError(
                f"connection closed mid-frame ({want} more bytes expected)"
            )
        decoder.feed(chunk)
    return decoder.frames()[0][0]


# ----------------------------------------------------------------------
# Message kinds
# ----------------------------------------------------------------------

REQ_GET_CERTIFICATE = 0x01
REQ_OPEN_SESSION = 0x02
REQ_GET_FILE_META = 0x03
REQ_GET_PAGE = 0x04
REQ_VALIDATE_PATH = 0x05
REQ_FINALIZE_SESSION = 0x06
REQ_BOOTSTRAP = 0x07
REQ_CHAIN_HEADS = 0x08
REQ_PING = 0x09

RESP_CERTIFICATE = 0x81
RESP_SESSION = 0x82
RESP_FILE_META = 0x83
RESP_PAGE = 0x84
RESP_VALIDATION = 0x85
RESP_VO = 0x86
RESP_BOOTSTRAP = 0x87
RESP_CHAIN_HEADS = 0x88
RESP_PONG = 0x89
RESP_ERROR = 0xFF

_VALIDATION_FRESH = 0
_VALIDATION_PAGE = 1

#: Error taxonomy carried over the wire.  Codes are stable protocol
#: surface; the client re-raises the mapped local exception type.
_ERROR_CODE_TO_TYPE: Dict[int, type] = {
    1: ReproError,
    2: NetworkError,
    3: StorageError,
    4: FileNotFoundInStoreError,
    5: VerificationError,
    6: CertificateError,
    7: ProofError,
    8: ChainError,
    9: EnclaveError,
    10: DeadlineExceededError,
    11: OverloadedError,
    12: EpochError,
}
_ERROR_CODE_OVERLOADED = 11
_TYPE_TO_ERROR_CODE = {t: c for c, t in _ERROR_CODE_TO_TYPE.items()}


def error_code_for(error: BaseException) -> int:
    """Most specific wire code for a server-side exception."""
    for klass in type(error).__mro__:
        code = _TYPE_TO_ERROR_CODE.get(klass)
        if code is not None:
            return code
    return _TYPE_TO_ERROR_CODE[ReproError]


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------

DigsPath = List[Tuple[int, int, Digest]]


def encode_get_certificate() -> bytes:
    return Writer().u8(REQ_GET_CERTIFICATE).payload()


def encode_open_session(expected_version: Optional[int]) -> bytes:
    writer = Writer().u8(REQ_OPEN_SESSION)
    if expected_version is None:
        writer.u8(0)
    else:
        writer.u8(1).u64(expected_version)
    return writer.payload()


def encode_get_file_meta(session_id: int, path: str) -> bytes:
    return (
        Writer().u8(REQ_GET_FILE_META).u64(session_id).text(path).payload()
    )


def encode_get_page(session_id: int, path: str, page_id: int) -> bytes:
    return (
        Writer()
        .u8(REQ_GET_PAGE)
        .u64(session_id)
        .text(path)
        .u64(page_id)
        .payload()
    )


def encode_validate_path(
    session_id: int, path: str, page_id: int, digs_path: DigsPath
) -> bytes:
    writer = (
        Writer()
        .u8(REQ_VALIDATE_PATH)
        .u64(session_id)
        .text(path)
        .u64(page_id)
        .u32(len(digs_path))
    )
    for level, index, digest in digs_path:
        writer.u16(level).u64(index).digest(digest)
    return writer.payload()


def encode_finalize_session(session_id: int) -> bytes:
    return Writer().u8(REQ_FINALIZE_SESSION).u64(session_id).payload()


def encode_bootstrap_request() -> bytes:
    return Writer().u8(REQ_BOOTSTRAP).payload()


def encode_chain_heads_request() -> bytes:
    return Writer().u8(REQ_CHAIN_HEADS).payload()


def encode_ping() -> bytes:
    return Writer().u8(REQ_PING).payload()


#: Decoded request: (kind, args tuple).
DecodedRequest = Tuple[int, tuple]


def decode_request(payload: bytes) -> DecodedRequest:
    """Parse one request payload into ``(kind, args)``."""
    reader = Reader(payload)
    kind = reader.u8()
    if kind in (
        REQ_GET_CERTIFICATE, REQ_BOOTSTRAP, REQ_CHAIN_HEADS, REQ_PING
    ):
        args: tuple = ()
    elif kind == REQ_OPEN_SESSION:
        has_version = reader.u8()
        if has_version not in (0, 1):
            raise WireFormatError(
                f"bad optional-version flag {has_version}"
            )
        args = (reader.u64() if has_version else None,)
    elif kind == REQ_GET_FILE_META:
        args = (reader.u64(), reader.text())
    elif kind == REQ_GET_PAGE:
        args = (reader.u64(), reader.text(), reader.u64())
    elif kind == REQ_VALIDATE_PATH:
        session_id = reader.u64()
        path = reader.text()
        page_id = reader.u64()
        count = reader.u32()
        if count > MAX_DIGS_PATH:
            raise WireFormatError(
                f"digs_path length {count} exceeds {MAX_DIGS_PATH}"
            )
        digs_path: DigsPath = [
            (reader.u16(), reader.u64(), reader.digest())
            for _ in range(count)
        ]
        args = (session_id, path, page_id, digs_path)
    elif kind == REQ_FINALIZE_SESSION:
        args = (reader.u64(),)
    else:
        raise WireFormatError(f"unknown request kind 0x{kind:02x}")
    reader.expect_end()
    return kind, args


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


def _put_signature(writer: Writer, signature: Signature) -> None:
    raw = signature.to_bytes()
    if len(raw) != _SIGNATURE_BYTES:
        raise WireFormatError("malformed signature")
    writer.raw(raw)


def _take_signature(reader: Reader) -> Signature:
    try:
        return Signature.from_bytes(reader.read(_SIGNATURE_BYTES))
    except ValueError as error:
        raise WireFormatError(str(error))


def _put_header(writer: Writer, header: BlockHeader) -> None:
    writer.text(header.chain_id)
    writer.u64(header.height)
    writer.digest(header.prev_digest)
    writer.digest(header.tx_root)
    writer.u64(header.timestamp)
    writer.u64(header.nonce)


def _take_header(reader: Reader) -> BlockHeader:
    return BlockHeader(
        chain_id=reader.text(),
        height=reader.u64(),
        prev_digest=reader.digest(),
        tx_root=reader.digest(),
        timestamp=reader.u64(),
        nonce=reader.u64(),
    )


def encode_certificate(certificate: V2fsCertificate) -> bytes:
    writer = Writer().u8(RESP_CERTIFICATE)
    writer.digest(certificate.ads_root)
    writer.u64(certificate.version)
    writer.u32(len(certificate.chain_states))
    for chain_id, digest, height in certificate.chain_states:
        writer.text(chain_id)
        writer.digest(digest)
        writer.u64(height)
    _put_signature(writer, certificate.signature)
    if certificate.vbf_encoded is None:
        writer.u8(0)
    else:
        writer.u8(1).blob(certificate.vbf_encoded)
    return writer.payload()


def _decode_certificate(reader: Reader) -> V2fsCertificate:
    ads_root = reader.digest()
    version = reader.u64()
    count = reader.u32()
    if count > MAX_CHAIN_STATES:
        raise WireFormatError(
            f"certificate lists {count} chains (limit {MAX_CHAIN_STATES})"
        )
    chain_states = tuple(
        (reader.text(), reader.digest(), reader.u64())
        for _ in range(count)
    )
    signature = _take_signature(reader)
    has_vbf = reader.u8()
    if has_vbf not in (0, 1):
        raise WireFormatError(f"bad optional-vbf flag {has_vbf}")
    vbf_encoded = reader.blob(MAX_VBF_BYTES) if has_vbf else None
    return V2fsCertificate(
        ads_root=ads_root,
        chain_states=chain_states,
        version=version,
        signature=signature,
        vbf_encoded=vbf_encoded,
    )


def encode_session(session_id: int) -> bytes:
    return Writer().u8(RESP_SESSION).u64(session_id).payload()


def encode_file_meta(exists: bool, size: int, page_count: int) -> bytes:
    return (
        Writer()
        .u8(RESP_FILE_META)
        .u8(1 if exists else 0)
        .u64(size)
        .u64(page_count)
        .payload()
    )


def encode_page(page: bytes) -> bytes:
    if len(page) > MAX_PAGE_BYTES:
        raise WireFormatError(f"page of {len(page)} bytes exceeds bound")
    return Writer().u8(RESP_PAGE).blob(page).payload()


def encode_validation(reply: Union[FreshMatch, PageReply]) -> bytes:
    writer = Writer().u8(RESP_VALIDATION)
    if reply[0] == "fresh":
        _, level, index, digest = reply
        writer.u8(_VALIDATION_FRESH).u16(level).u64(index).digest(digest)
    elif reply[0] == "page":
        writer.u8(_VALIDATION_PAGE).blob(reply[1])
    else:
        raise WireFormatError(f"unknown validation reply {reply[0]!r}")
    return writer.payload()


def encode_vo(proof: AdsProof) -> bytes:
    return Writer().u8(RESP_VO).blob(proof.encode()).payload()


def encode_bootstrap(
    report: AttestationReport,
    attestation_root: PublicKey,
    expected_measurement: Digest,
) -> bytes:
    writer = Writer().u8(RESP_BOOTSTRAP)
    writer.digest(report.measurement)
    writer.raw(report.enclave_public_key.to_bytes())
    _put_signature(writer, report.signature)
    writer.raw(attestation_root.to_bytes())
    writer.digest(expected_measurement)
    return writer.payload()


def encode_chain_heads(heads: Dict[str, BlockHeader]) -> bytes:
    writer = Writer().u8(RESP_CHAIN_HEADS).u32(len(heads))
    for chain_id in sorted(heads):
        writer.text(chain_id)
        _put_header(writer, heads[chain_id])
    return writer.payload()


def encode_pong() -> bytes:
    return Writer().u8(RESP_PONG).payload()


def encode_error(error: BaseException) -> bytes:
    """Encode an error frame: code u16 + message text.

    An :class:`OverloadedError` carrying a retry-after hint appends one
    trailing u32 (milliseconds).  Old decoders that stop at the message
    never existed for code 11 — the code and the extension shipped
    together — so the optional tail stays backward compatible.
    """
    message = str(error)[:MAX_ERROR_BYTES]
    writer = (
        Writer()
        .u8(RESP_ERROR)
        .u16(error_code_for(error))
        .text(message)
    )
    retry_after_s = getattr(error, "retry_after_s", None)
    if retry_after_s is not None:
        writer.u32(min(0xFFFFFFFF, max(0, int(retry_after_s * 1000))))
    return writer.payload()


#: Decoded response: (kind, value).
DecodedResponse = Tuple[int, object]


def decode_response(payload: bytes) -> DecodedResponse:
    """Parse one response payload into ``(kind, value)``.

    A :data:`RESP_ERROR` decodes to the mapped *exception instance*
    (not raised here — the caller decides); everything malformed raises
    :class:`WireFormatError`, except a malformed VO inside a well-formed
    :data:`RESP_VO`, which raises the :class:`ProofError` of its own
    decoder.
    """
    reader = Reader(payload)
    kind = reader.u8()
    value: object
    if kind == RESP_CERTIFICATE:
        value = _decode_certificate(reader)
    elif kind == RESP_SESSION:
        value = reader.u64()
    elif kind == RESP_FILE_META:
        exists = reader.u8()
        if exists not in (0, 1):
            raise WireFormatError(f"bad exists flag {exists}")
        value = (bool(exists), reader.u64(), reader.u64())
    elif kind == RESP_PAGE:
        value = reader.blob(MAX_PAGE_BYTES)
    elif kind == RESP_VALIDATION:
        tag = reader.u8()
        if tag == _VALIDATION_FRESH:
            value = ("fresh", reader.u16(), reader.u64(), reader.digest())
        elif tag == _VALIDATION_PAGE:
            value = ("page", reader.blob(MAX_PAGE_BYTES))
        else:
            raise WireFormatError(f"unknown validation tag {tag}")
    elif kind == RESP_VO:
        value = AdsProof.decode(reader.blob(MAX_FRAME_BYTES))
    elif kind == RESP_BOOTSTRAP:
        report = AttestationReport(
            measurement=reader.digest(),
            enclave_public_key=PublicKey.from_bytes(
                reader.read(_PUBKEY_BYTES)
            ),
            signature=_take_signature(reader),
        )
        root = PublicKey.from_bytes(reader.read(_PUBKEY_BYTES))
        value = (report, root, reader.digest())
    elif kind == RESP_CHAIN_HEADS:
        count = reader.u32()
        if count > MAX_CHAIN_STATES:
            raise WireFormatError(
                f"{count} chain heads exceeds {MAX_CHAIN_STATES}"
            )
        value = {
            reader.text(): _take_header(reader) for _ in range(count)
        }
    elif kind == RESP_PONG:
        value = None
    elif kind == RESP_ERROR:
        code = reader.u16()
        message = reader.text(MAX_ERROR_BYTES)
        error_type = _ERROR_CODE_TO_TYPE.get(code, ReproError)
        if code == _ERROR_CODE_OVERLOADED and reader.remaining() >= 4:
            value = OverloadedError(
                message, retry_after_s=reader.u32() / 1000.0
            )
        else:
            value = error_type(message)
    else:
        raise WireFormatError(f"unknown response kind 0x{kind:02x}")
    reader.expect_end()
    return kind, value


__all__ = [
    "MAGIC",
    "FRAME_HEADER",
    "FLAG_DEADLINE",
    "FLAG_FRAME_ID",
    "MAX_FRAME_BYTES",
    "MAX_PAGE_BYTES",
    "MAX_DIGS_PATH",
    "Reader",
    "Writer",
    "frame",
    "send_frame",
    "recv_frame",
    "FrameDecoder",
    "decode_request",
    "decode_response",
    "encode_error",
    "error_code_for",
]
