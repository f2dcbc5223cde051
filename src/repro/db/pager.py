"""Per-file page management.

Each table and each index lives in its own file.  Page 0 is the header
page holding the file's magic, allocated page count, B+Tree root page id,
the next rowid, and the entry count; data pages follow.  The pager
performs *no caching*: every page access reaches the virtual filesystem,
because page-access visibility at the VFS boundary is precisely what V2FS
instruments (caching is the job of the V2FS client layer, not the
engine — mirroring how the paper runs SQLite with a minimal page cache).

Durability and corruption detection
-----------------------------------

Every page the pager writes ends in an 8-byte **checksum epilogue**
(magic + CRC-32 of the page content), so a torn 4 KiB write — a crash
that persists only a prefix of the page — is *detected* on read-back as
a :class:`~repro.errors.TornPageError` instead of being silently decoded.
Page content is therefore capped at :data:`PAGE_CONTENT_SIZE` bytes; the
B+Tree sizes its nodes against that.  An all-zero page is a hole (never
written) and is exempt.  ``flush``/``close`` additionally ``sync()`` the
underlying file, so a :class:`~repro.faults.registry.SimulatedCrash`
after a flush cannot lose pages the engine already considers persistent.

Failpoints (see :mod:`repro.faults.registry`):

* ``pager.write_page.pre`` — fired before a data page reaches the file;
* ``pager.write_page.data`` — mangles the sealed bytes on their way to
  the file (models a misdirected/bit-rotted write; caught on read-back);
* ``pager.read_page`` — mangles raw bytes coming back from the file
  (models disk corruption; caught by the epilogue check);
* ``pager.flush.pre_sync`` — fired between writing the header and the
  ``sync()``, the window where a crash loses un-fsynced state.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional

from repro.errors import StorageError, TornPageError
from repro.faults import registry as faults
from repro.obs import metrics as obs
from repro.vfs.interface import PAGE_SIZE, VirtualFile, VirtualFilesystem

_MAGIC = b"V2FSDB01"
_HEADER_FMT = ">8sIIQQ"  # magic, page_count, root_pid, next_rowid, entries
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)

#: Page checksum epilogue: magic + CRC-32 over the page content.
_TRAILER = struct.Struct(">4sI")
_TRAILER_MAGIC = b"V2pC"
TRAILER_SIZE = _TRAILER.size

#: Usable bytes per page once the checksum epilogue is reserved.
PAGE_CONTENT_SIZE = PAGE_SIZE - TRAILER_SIZE

_ZERO_PAGE = b"\x00" * PAGE_SIZE
_ZERO_TRAILER = b"\x00" * TRAILER_SIZE


def seal_page(content: bytes) -> bytes:
    """Pad ``content`` to a full page and append the checksum epilogue."""
    if len(content) > PAGE_CONTENT_SIZE:
        raise StorageError(
            f"page content of {len(content)} bytes exceeds the "
            f"{PAGE_CONTENT_SIZE}-byte capacity"
        )
    body = content + b"\x00" * (PAGE_CONTENT_SIZE - len(content))
    return body + _TRAILER.pack(_TRAILER_MAGIC, zlib.crc32(body))


def check_page(raw: bytes, context: str) -> None:
    """Validate one page's checksum epilogue.

    An all-zero page is a hole and passes.  Anything else must carry a
    matching epilogue; a zeroed or mismatched trailer on a non-empty
    page is exactly the signature of a torn or corrupt write and raises
    :class:`~repro.errors.TornPageError`.
    """
    if raw == _ZERO_PAGE:
        return
    trailer = raw[PAGE_CONTENT_SIZE:]
    if trailer == _ZERO_TRAILER:
        raise TornPageError(
            f"{context}: non-empty page carries no checksum epilogue "
            "(torn write)"
        )
    magic, crc = _TRAILER.unpack(trailer)
    if magic != _TRAILER_MAGIC:
        raise TornPageError(
            f"{context}: bad page epilogue magic {magic!r} (torn write)"
        )
    if zlib.crc32(raw[:PAGE_CONTENT_SIZE]) != crc:
        raise TornPageError(
            f"{context}: page checksum mismatch (torn or corrupt write)"
        )


class PagerTally:
    """``pager.flush``, ``pager.read_page`` and ``vfs.read_page`` counts
    on their way to :mod:`repro.obs`.

    Plain ints: a pager is as single-threaded as its file cursor, so
    the counts need no lock until they reach the shared registry.  A
    pager opened on its own reports at every flush.  The engine hands
    the pagers of one statement (one per file it touches) one tally
    and reports it once, when the statement ends; the totals are the
    same either way.
    """

    __slots__ = ("flushes", "reads", "file_reads")

    def __init__(self) -> None:
        self.flushes = self.reads = self.file_reads = 0

    def report(self) -> None:
        """Hand the counts since the last report to ``repro.obs``."""
        flushes, reads, file_reads = self.flushes, self.reads, self.file_reads
        self.flushes = self.reads = self.file_reads = 0
        if obs.ACTIVE:
            if flushes:
                obs.add("pager.flush", flushes)
            if reads:
                obs.add("pager.read_page", reads)
            if file_reads:
                obs.add("vfs.read_page", file_reads)


class Pager:
    """Allocates pages and owns the header of one storage file."""

    def __init__(self, vfs: VirtualFilesystem, path: str,
                 create: bool = False,
                 tally: Optional[PagerTally] = None) -> None:
        self.path = path
        self._check_reads = not getattr(vfs, "authenticates_pages", False)
        self._file: VirtualFile = vfs.open(path, create=create)
        #: A shared ``tally`` is reported by whoever shares it.
        self._shared_tally = tally is not None
        self._tally = tally if tally is not None else PagerTally()
        try:
            if self._file.size() == 0:
                if not create:
                    raise StorageError(f"{path} is empty and create=False")
                self.page_count = 1  # header page
                self.root_pid = 0   # 0 = no root yet
                self.next_rowid = 1
                self.entry_count = 0
                self._write_header()
            else:
                self._read_header()
        except BaseException:
            # No pager, so nobody to close the handle (or to report the
            # header read it tallied) but this constructor.
            self._file.close()
            raise
        self._header_dirty = False

    def _read_header(self) -> None:
        raw = self._file.read_page(0)
        if faults.ACTIVE:
            raw = faults.mangle("pager.read_page", raw)
        if self._check_reads:
            check_page(raw, f"{self.path} header")
        magic, page_count, root_pid, next_rowid, entries = struct.unpack_from(
            _HEADER_FMT, raw, 0
        )
        if magic != _MAGIC:
            raise StorageError(f"{self.path} is not a database file")
        self.page_count = page_count
        self.root_pid = root_pid
        self.next_rowid = next_rowid
        self.entry_count = entries

    def _write_header(self) -> None:
        raw = struct.pack(
            _HEADER_FMT,
            _MAGIC,
            self.page_count,
            self.root_pid,
            self.next_rowid,
            self.entry_count,
        )
        self._file.write_page(0, seal_page(raw))

    def mark_header_dirty(self) -> None:
        self._header_dirty = True

    def flush(self) -> None:
        """Persist header changes and sync the file to durable storage."""
        if self._header_dirty:
            self._write_header()
            self._header_dirty = False
        if faults.ACTIVE:
            faults.fire("pager.flush.pre_sync", path=self.path)
        if obs.ACTIVE:
            self._tally.flushes += 1
            if not self._shared_tally:
                self._tally.report()
        self._file.sync()

    def allocate_page(self) -> int:
        """Reserve a fresh page id."""
        pid = self.page_count
        self.page_count += 1
        self._header_dirty = True
        return pid

    def take_rowid(self) -> int:
        rowid = self.next_rowid
        self.next_rowid += 1
        self._header_dirty = True
        return rowid

    def read_page(self, page_id: int) -> bytes:
        if page_id <= 0 or page_id >= self.page_count:
            raise StorageError(
                f"page {page_id} out of range in {self.path}"
            )
        if obs.ACTIVE:
            self._tally.reads += 1
        raw = self._file.read_page(page_id)
        if faults.ACTIVE:
            raw = faults.mangle("pager.read_page", raw)
        if self._check_reads:
            check_page(raw, f"{self.path} page {page_id}")
        return raw

    # repro: taint-sink
    def write_page(self, page_id: int, data: bytes) -> bytes:
        """Seal ``data`` (≤ :data:`PAGE_CONTENT_SIZE` bytes) and write it.

        Returns the sealed page it meant to write: what :meth:`read_page`
        returns until something else writes the page (a
        ``pager.write_page.data`` failpoint's mangling is not it)."""
        if page_id <= 0 or page_id >= self.page_count:
            raise StorageError(
                f"page {page_id} out of range in {self.path}"
            )
        if obs.ACTIVE:
            obs.inc("pager.write_page")
        sealed = written = seal_page(data)
        if faults.ACTIVE:
            faults.fire(
                "pager.write_page.pre", path=self.path, page_id=page_id
            )
            written = faults.mangle("pager.write_page.data", sealed)
        self._file.write_page(page_id, written)
        return sealed

    def close(self) -> None:
        self._tally.file_reads += self._file.take_page_reads()
        self.flush()
        self._file.close()
