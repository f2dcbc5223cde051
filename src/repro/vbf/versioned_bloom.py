"""Versioned bloom filter (Section V-B of the paper).

A VBF is an ``m``-slot array of version numbers with ``k`` salted hash
functions.  When the page indexed by ``(file_path, page_id)`` is written
while producing certificate version ``v``, each of the key's ``k`` slots
is raised to ``v``.  A cached page last known fresh at version ``V_n`` is
provably still fresh if *none* of its slots exceeds ``V_n`` — with zero
false negatives (Theorem 2): any later write would have raised all of the
page's slots above ``V_n``.  False positives merely cause a fallback to
the Merkle freshness check, never an integrity violation.

The filter serializes into the V2FS certificate, so its content is
covered by the enclave signature.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.crypto.hashing import keyed_hash
from repro.errors import CertificateError

#: Defaults from the paper: 100,000 slots, five hash functions (<1% FPP
#: at the paper's update rates).  Experiments may scale these down.
DEFAULT_SLOTS = 100_000
DEFAULT_HASHES = 5

#: Decode-time caps.  The filter arrives inside an (as yet unverified)
#: certificate, so the header is attacker-controlled: without a cap a
#: hostile ``slots`` of 2^32-1 demands a 16 GiB allocation before the
#: signature is ever checked.  16M slots is ~170x the paper's default.
MAX_SLOTS = 1 << 24
MAX_HASHES = 64

_HEADER = struct.Struct(">II")


class VersionedBloomFilter:
    """An array of per-slot version numbers with salted BLAKE2b hashing."""

    def __init__(
        self, slots: int = DEFAULT_SLOTS, hashes: int = DEFAULT_HASHES
    ) -> None:
        if slots <= 0 or hashes <= 0:
            raise ValueError("slots and hashes must be positive")
        self.slots = slots
        self.hashes = hashes
        self._table: List[int] = [0] * slots

    @staticmethod
    def _key_bytes(file_path: str, page_id: int) -> bytes:
        return file_path.encode("utf-8") + b"|" + page_id.to_bytes(8, "big")

    def positions(self, file_path: str, page_id: int) -> Tuple[int, ...]:
        """The ``k`` slot indexes for a page key (the client's ``S_n``)."""
        key = self._key_bytes(file_path, page_id)
        out = []
        for i in range(self.hashes):
            digest = keyed_hash(b"vbf-%d" % i, key)
            out.append(int.from_bytes(digest[:8], "big") % self.slots)
        return tuple(out)

    def mark_written(self, file_path: str, page_id: int, version: int) -> None:
        """Record that the page was written at certificate ``version``."""
        for position in self.positions(file_path, page_id):
            if self._table[position] < version:
                self._table[position] = version

    def fresh_since(self, positions: Tuple[int, ...], version: int) -> bool:
        """True iff no slot in ``positions`` exceeds ``version``.

        A True result *guarantees* the page was not written after
        ``version`` (no false negatives); a False result is inconclusive.
        """
        return all(self._table[p] <= version for p in positions)

    def value_at(self, position: int) -> int:
        return self._table[position]

    # -- serialization (embedded in the certificate) ---------------------

    def encode(self) -> bytes:
        header = _HEADER.pack(self.slots, self.hashes)
        body = struct.pack(f">{self.slots}I", *self._table)
        return header + body

    @classmethod
    def decode(cls, data: bytes) -> "VersionedBloomFilter":
        """Decode an untrusted filter, validating before allocating.

        Every malformed input — truncated header, zero or oversized
        ``slots``/``hashes``, a body that disagrees with the declared
        slot count — raises :class:`~repro.errors.CertificateError`
        (the filter travels inside the certificate), never a leaked
        ``struct.error`` or ``MemoryError``.
        """
        if len(data) < _HEADER.size:
            raise CertificateError(
                f"VBF header truncated: {len(data)} bytes, "
                f"need {_HEADER.size}"
            )
        slots, hashes = _HEADER.unpack_from(data, 0)
        if not 1 <= slots <= MAX_SLOTS:
            raise CertificateError(
                f"VBF declares {slots} slots; valid range is "
                f"1..{MAX_SLOTS}"
            )
        if not 1 <= hashes <= MAX_HASHES:
            raise CertificateError(
                f"VBF declares {hashes} hash functions; valid range "
                f"is 1..{MAX_HASHES}"
            )
        expected = _HEADER.size + 4 * slots
        if len(data) != expected:
            raise CertificateError(
                f"VBF body is {len(data)} bytes; {slots} slots "
                f"require exactly {expected}"
            )
        vbf = cls(slots, hashes)
        vbf._table = list(
            struct.unpack_from(f">{slots}I", data, _HEADER.size)
        )
        return vbf

    def copy(self) -> "VersionedBloomFilter":
        clone = VersionedBloomFilter(self.slots, self.hashes)
        clone._table = list(self._table)
        return clone
