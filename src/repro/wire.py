"""The one bounds-checked byte reader, and the writer that mirrors it.

Every byte a party did not write itself is untrusted: an RPC message,
the VO inside it, a node record read back from the persistent store's
log.  All of them are decoded through :class:`Reader`, so truncation, a
hostile length or count, invalid UTF-8 and trailing bytes are each
detected in exactly one place, and each surfaces as the *typed* error
the reader was built with — :class:`~repro.errors.WireFormatError` for
messages, :class:`~repro.errors.ProofError` for the VO,
:class:`~repro.errors.StorageError` for node records — never as a
``struct.error`` or an ``IndexError`` from half-way through a decode.

All integers are big-endian and fixed-width; variable-length fields are
length-prefixed.  This is a leaf module (``repro.merkle`` cannot import
``repro.rpc``, whose codec imports the proof types), and it holds no
format of its own: the formats live with the structures they encode.
"""

from __future__ import annotations

import io
import struct
from typing import Type

from repro.crypto.hashing import DIGEST_SIZE, Digest
from repro.errors import ReproError, WireFormatError

#: Default bound on a :meth:`Reader.text` field (paths, chain ids).
MAX_PATH_BYTES = 4096

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


class Reader:
    """Sequential bounds-checked reader over one untrusted byte string.

    ``error`` is the exception class every malformation raises.
    """

    __slots__ = ("_data", "_pos", "_error")

    def __init__(
        self, data: bytes, error: Type[ReproError] = WireFormatError
    ) -> None:
        self._data = data
        self._pos = 0
        self._error = error

    def _advance(self, count: int) -> int:
        """Consume ``count`` bytes; return the offset they start at."""
        start = self._pos
        if count < 0 or start + count > len(self._data):
            raise self._error(
                f"truncated input: wanted {count} bytes at offset "
                f"{start}, have {len(self._data) - start}"
            )
        self._pos = start + count
        return start

    def read(self, count: int) -> bytes:
        start = self._advance(count)
        return self._data[start:start + count]

    def u8(self) -> int:
        return self._data[self._advance(1)]

    def u16(self) -> int:
        return _U16.unpack_from(self._data, self._advance(2))[0]

    def u32(self) -> int:
        return _U32.unpack_from(self._data, self._advance(4))[0]

    def u64(self) -> int:
        return _U64.unpack_from(self._data, self._advance(8))[0]

    def digest(self) -> Digest:
        return self.read(DIGEST_SIZE)

    def count(self, item_bytes: int) -> int:
        """A u32 element count, refused unless the remaining input can
        hold that many elements of at least ``item_bytes`` each — so a
        decoder never loops or allocates for a count its input does not
        back."""
        count = self.u32()
        if count * item_bytes > self.remaining():
            raise self._error(
                f"count {count} exceeds what the remaining "
                f"{self.remaining()} bytes can hold"
            )
        return count

    def blob(self, max_bytes: int) -> bytes:
        length = self.u32()
        if length > max_bytes:
            raise self._error(
                f"length prefix {length} exceeds the {max_bytes}-byte bound"
            )
        return self.read(length)

    def _utf8(self, raw: bytes) -> str:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise self._error(f"invalid UTF-8: {error}") from error

    def text(self, max_bytes: int = MAX_PATH_BYTES) -> str:
        """A u32-length string (RPC messages)."""
        return self._utf8(self.blob(max_bytes))

    def short_text(self) -> str:
        """A u16-length string (the VO and node records)."""
        return self._utf8(self.read(self.u16()))

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise self._error(
                f"{len(self._data) - self._pos} trailing bytes after the "
                "encoding"
            )


class Writer:
    """Append-only builder for one encoding; the mirror of :class:`Reader`."""

    def __init__(self) -> None:
        self._buf = io.BytesIO()

    def raw(self, data: bytes) -> "Writer":
        self._buf.write(data)
        return self

    def u8(self, value: int) -> "Writer":
        return self.raw(bytes((value,)))

    def u16(self, value: int) -> "Writer":
        return self.raw(_U16.pack(value))

    def u32(self, value: int) -> "Writer":
        return self.raw(_U32.pack(value))

    def u64(self, value: int) -> "Writer":
        return self.raw(_U64.pack(value))

    def digest(self, value: Digest) -> "Writer":
        if len(value) != DIGEST_SIZE:
            raise WireFormatError(
                f"digest must be {DIGEST_SIZE} bytes, got {len(value)}"
            )
        return self.raw(value)

    def blob(self, data: bytes) -> "Writer":
        return self.u32(len(data)).raw(data)

    def text(self, value: str) -> "Writer":
        return self.blob(value.encode("utf-8"))

    def short_text(self, value: str) -> "Writer":
        raw = value.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise WireFormatError(
                f"string of {len(raw)} bytes does not fit a u16 length"
            )
        return self.u16(len(raw)).raw(raw)

    def payload(self) -> bytes:
        return self._buf.getvalue()


__all__ = ["MAX_PATH_BYTES", "Reader", "Writer"]
