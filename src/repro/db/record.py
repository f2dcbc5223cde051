"""On-page record codec.

Rows and B+Tree keys are serialized with a compact tagged encoding:

========  =======================================
tag byte  payload
========  =======================================
``0``     NULL (no payload)
``1``     INTEGER — 8-byte signed big-endian
``2``     REAL — 8-byte IEEE-754 double
``3``     TEXT — 4-byte length + UTF-8 bytes
========  =======================================

A record is the concatenation of its encoded values prefixed by a 2-byte
value count.  Decoding is self-delimiting, so records can be packed
back-to-back in B+Tree nodes.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.db.types import SqlValue
from repro.errors import SQLTypeError, StorageError

_TAG_NULL = 0
_TAG_INT = 1
_TAG_REAL = 2
_TAG_TEXT = 3

_COUNT = struct.Struct(">H")
_INT = struct.Struct(">q")
_REAL = struct.Struct(">d")
_LENGTH = struct.Struct(">I")

#: Upper bound on one encoded record; keeps every record well within a page.
MAX_RECORD_BYTES = 3500


def encode_value(value: SqlValue) -> bytes:
    if value is None:
        return bytes([_TAG_NULL])
    if isinstance(value, bool):
        return bytes([_TAG_INT]) + struct.pack(">q", int(value))
    if isinstance(value, int):
        return bytes([_TAG_INT]) + struct.pack(">q", value)
    if isinstance(value, float):
        return bytes([_TAG_REAL]) + struct.pack(">d", value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return bytes([_TAG_TEXT]) + struct.pack(">I", len(raw)) + raw
    raise SQLTypeError(f"cannot encode value {value!r}")


def encode_record(values: List[SqlValue]) -> bytes:
    """Encode a row (or composite key) as one record."""
    parts = [struct.pack(">H", len(values))]
    parts.extend(encode_value(v) for v in values)
    encoded = b"".join(parts)
    if len(encoded) > MAX_RECORD_BYTES:
        raise SQLTypeError(
            f"record of {len(encoded)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte limit"
        )
    return encoded


def decode_record(data: bytes, offset: int = 0) -> Tuple[List[SqlValue], int]:
    """Decode one record at ``offset``; return (values, next offset).

    Records reach this decoder *before* the client has verified the page
    they came from, so a malformed one raises :class:`StorageError`.
    One loop over precompiled ``Struct``s: this runs once per key of
    every node decode and once per distinct row the engine reads.
    """
    values: List[SqlValue] = []
    append = values.append
    try:
        (count,) = _COUNT.unpack_from(data, offset)
        offset += 2
        for _ in range(count):
            tag = data[offset]
            if tag == _TAG_INT:
                append(_INT.unpack_from(data, offset + 1)[0])
                offset += 9
            elif tag == _TAG_TEXT:
                (length,) = _LENGTH.unpack_from(data, offset + 1)
                offset += 5
                append(data[offset:offset + length].decode("utf-8"))
                offset += length
            elif tag == _TAG_REAL:
                append(_REAL.unpack_from(data, offset + 1)[0])
                offset += 9
            elif tag == _TAG_NULL:
                append(None)
                offset += 1
            else:
                raise StorageError(
                    f"corrupt record (unknown value tag {tag})")
    except (struct.error, IndexError, UnicodeDecodeError) as error:
        raise StorageError(f"corrupt record ({error})") from error
    return values, offset
