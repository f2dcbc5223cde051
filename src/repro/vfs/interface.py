"""The extended POSIX I/O interface of V2FS.

The paper's key idea is that a database engine only needs ``open``,
``seek``, ``read``, ``write``, and ``close`` to run — so any storage that
speaks this interface can host an off-the-shelf engine.  The abstract
classes here define that contract; the database engine in :mod:`repro.db`
is written exclusively against them.

Files are sequences of fixed-size pages (:data:`PAGE_SIZE` = 4096 bytes,
SQLite's default, as in the paper); byte-granular reads and writes are
supported and are translated into page accesses by each implementation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

from repro.errors import StorageError
from repro.obs import metrics as obs

#: Fixed page size, matching SQLite's default as used in the paper.
PAGE_SIZE = 4096

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


class VirtualFile(ABC):
    """An open file handle with a cursor (the paper's ``fd``)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.offset = 0
        self.closed = False
        #: ``vfs.read_page`` tally, reported in one add by close() (the
        #: handle's cursor already confines it to one thread).
        self._page_reads = 0

    def _check_open(self) -> None:
        if self.closed:
            raise StorageError(f"I/O on closed file {self.path}")

    def seek(self, offset: int, whence: int = SEEK_SET) -> int:
        """Move the cursor; returns the new absolute offset."""
        self._check_open()
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = self.offset + offset
        elif whence == SEEK_END:
            new = self.size() + offset
        else:
            raise StorageError(f"bad whence {whence}")
        if new < 0:
            raise StorageError("negative seek offset")
        self.offset = new
        return new

    def tell(self) -> int:
        return self.offset

    @abstractmethod
    def size(self) -> int:
        """Current size of the file in bytes."""

    @abstractmethod
    def read(self, count: int) -> bytes:
        """Read up to ``count`` bytes at the cursor; advances the cursor.

        Returns fewer bytes only at end of file.
        """

    @abstractmethod
    def write(self, data: bytes) -> int:
        """Write ``data`` at the cursor; advances the cursor.

        Returns the number of bytes written (always ``len(data)``).
        """

    def sync(self) -> None:
        """Force written data to durable storage (``fsync``).

        The default is a no-op: purely in-memory backends have no
        dirty/durable distinction.  Backends that model or provide real
        durability (:class:`repro.faults.shadowfs.ShadowFile`, real-disk
        files) override this; the pager calls it from ``flush``/``close``
        so a simulated crash cannot abandon pages the engine believes
        are persistent.
        """
        self._check_open()

    def take_page_reads(self) -> int:
        """The ``vfs.read_page`` tally so far, handed to a caller that
        reports it (the pager, batching its statement's handles)."""
        reads, self._page_reads = self._page_reads, 0
        return reads

    def close(self) -> None:
        """Release the handle."""
        reads = self.take_page_reads()
        if reads and obs.ACTIVE:
            obs.add("vfs.read_page", reads)
        self.closed = True

    def __enter__(self) -> "VirtualFile":
        return self

    def __exit__(self, *exc) -> None:
        if not self.closed:
            self.close()

    # -- page-level convenience used by the pager --------------------

    def read_page(self, page_id: int) -> bytes:
        """Read one full page (zero-padded at EOF)."""
        if obs.ACTIVE:
            self._page_reads += 1
        self.seek(page_id * PAGE_SIZE)
        data = self.read(PAGE_SIZE)
        if len(data) < PAGE_SIZE:
            data = data + b"\x00" * (PAGE_SIZE - len(data))
        return data

    def write_page(self, page_id: int, data: bytes) -> None:
        """Write one full page."""
        if obs.ACTIVE:
            obs.inc("vfs.write_page")
        if len(data) != PAGE_SIZE:
            raise StorageError(
                f"write_page requires exactly {PAGE_SIZE} bytes"
            )
        self.seek(page_id * PAGE_SIZE)
        self.write(data)


class VirtualFilesystem(ABC):
    """Factory for file handles plus namespace operations."""

    #: True when pages read through this filesystem are already
    #: authenticated end-to-end by an external mechanism (e.g. Merkle
    #: proofs against a certified root).  The pager then skips its
    #: torn-write checksum on reads, so tampering surfaces through the
    #: authenticating layer's own error taxonomy rather than as a
    #: local storage fault.
    authenticates_pages = False

    @abstractmethod
    def open(self, path: str, create: bool = False) -> VirtualFile:
        """Open ``path``; with ``create`` the file is created if absent."""

    @abstractmethod
    def exists(self, path: str) -> bool:
        """Return True iff ``path`` names an existing file."""

    @abstractmethod
    def remove(self, path: str) -> None:
        """Delete the file at ``path``."""

    @abstractmethod
    def list_files(self) -> List[str]:
        """Return all file paths, sorted."""

    def read_all(self, path: str) -> bytes:
        """Convenience: the full contents of ``path``."""
        with self.open(path) as handle:
            return handle.read(handle.size())

    def write_all(self, path: str, data: bytes) -> None:
        """Convenience: replace the contents of ``path``."""
        with self.open(path, create=True) as handle:
            handle.write(data)
