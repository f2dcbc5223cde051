"""CI-side maintenance VFS — the enclave half of Algorithms 1-3.

A :class:`MaintenanceSession` is created per block update.  The database
engine runs "inside the enclave" against this filesystem; every page miss
crosses the enclave boundary through a metered OCall, and the two page
collections ``P_r`` / ``P_w`` (Section IV-B) absorb repeated accesses so
boundary crossings stay proportional to *distinct* pages, not to I/O
operations.  After the engine finishes, the CI:

1. asks the outside-enclave storage for ``pi_r`` and ``pi_w``;
2. verifies both against the previous ADS root *inside* the enclave;
3. recomputes the new ADS root from ``P_w`` and ``pi_w``; and
4. flushes ``P_w`` to storage (see :mod:`repro.core.ci`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.crypto.hashing import Digest
from repro.errors import StorageError
from repro.merkle.ads import V2fsAds
from repro.sgx.enclave import Enclave
from repro.vfs.interface import PAGE_SIZE, VirtualFile, VirtualFilesystem

PageKey = Tuple[str, int]


@dataclass
class FileMeta:
    """Claimed (OCall-provided) and evolving metadata for one open file."""

    existed: bool
    old_size: int
    old_page_count: int
    size: int  # running high-water mark as writes land


class MaintenanceSession(VirtualFilesystem):
    """The enclave-resident V2FS interface for one block update."""

    def __init__(
        self,
        enclave: Enclave,
        ads_root: Digest,
        use_read_collection: bool = True,
    ) -> None:
        self.enclave = enclave
        self.ads_root = ads_root
        #: Ablation knob: with False, P_r still records read pages (they
        #: must be authenticated in finalize) but never *serves* them, so
        #: every re-read crosses the enclave boundary again — the
        #: configuration the paper's P_r design exists to avoid.
        self.use_read_collection = use_read_collection
        self.pages_read: Dict[PageKey, bytes] = {}   # P_r
        self.pages_written: Dict[PageKey, bytes] = {}  # P_w
        self.metas: Dict[str, FileMeta] = {}
        #: Total page fetches requested by the engine — what the OCall
        #: count would be with no in-enclave page collections at all.
        self.page_accesses = 0

    # ------------------------------------------------------------------
    # VirtualFilesystem interface
    # ------------------------------------------------------------------

    def open(self, path: str, create: bool = False) -> "MaintenanceFile":
        meta = self._meta(path)
        if not meta.existed and meta.size == 0 and not create:
            raise StorageError(f"{path} does not exist")
        return MaintenanceFile(self, path)

    def exists(self, path: str) -> bool:
        meta = self._meta(path)
        return meta.existed or meta.size > 0

    def remove(self, path: str) -> None:
        raise StorageError(
            "the authenticated storage layer is append-only; "
            "files cannot be removed during maintenance"
        )

    def list_files(self) -> List[str]:
        raise StorageError(
            "directory listing is not part of the V2FS interface"
        )

    # ------------------------------------------------------------------
    # Page access (Algorithm 2)
    # ------------------------------------------------------------------

    def _meta(self, path: str) -> FileMeta:
        meta = self.metas.get(path)
        if meta is None:
            exists, size, page_count = self.enclave.ocall("open", path)
            meta = FileMeta(
                existed=bool(exists),
                old_size=size if exists else 0,
                old_page_count=page_count if exists else 0,
                size=size if exists else 0,
            )
            self.metas[path] = meta
        return meta

    def get_page(self, path: str, page_id: int) -> bytes:
        """Fetch one page through P_w, P_r, or an OCall (Alg. 2 read)."""
        self.page_accesses += 1
        key = (path, page_id)
        page = self.pages_written.get(key)
        if page is not None:
            return page
        if self.use_read_collection:
            page = self.pages_read.get(key)
            if page is not None:
                return page
        meta = self._meta(path)
        if not meta.existed or page_id >= meta.old_page_count:
            # Reading a hole (never-written page): all zeros, no OCall.
            return b"\x00" * PAGE_SIZE
        page = self.enclave.ocall(
            "get_page", self.ads_root, path, page_id
        )
        if len(page) != PAGE_SIZE:
            raise StorageError("storage returned a malformed page")
        self.pages_read[key] = page
        return page

    def put_page(self, path: str, page_id: int, page: bytes) -> None:
        if len(page) != PAGE_SIZE:
            raise StorageError("pages must be exactly PAGE_SIZE bytes")
        self.pages_written[(path, page_id)] = page

    # ------------------------------------------------------------------
    # Finalize-phase helpers (Algorithm 3 inputs)
    # ------------------------------------------------------------------

    def read_page_keys(self) -> List[PageKey]:
        """Pages that must be authenticated by ``pi_r``.

        Only pages fetched from pre-existing storage need proof; pages
        the enclave wrote first are self-generated.
        """
        return sorted(self.pages_read)

    def written_by_file(self) -> Dict[str, Dict[int, bytes]]:
        writes: Dict[str, Dict[int, bytes]] = {}
        for (path, page_id), page in self.pages_written.items():
            writes.setdefault(path, {})[page_id] = page
        return writes

    def new_meta(self) -> Dict[str, Tuple[int, int]]:
        """``path -> (new_size, new_page_count)`` for every written file."""
        result: Dict[str, Tuple[int, int]] = {}
        for path, pages in self.written_by_file().items():
            meta = self.metas[path]
            new_count = max(meta.old_page_count, max(pages) + 1)
            result[path] = (meta.size, new_count)
        return result


class MaintenanceFile(VirtualFile):
    """File handle translating byte I/O into P_r/P_w page operations."""

    def __init__(self, session: MaintenanceSession, path: str) -> None:
        super().__init__(path)
        self._session = session

    def size(self) -> int:
        self._check_open()
        return self._session._meta(self.path).size

    def read(self, count: int) -> bytes:
        self._check_open()
        meta = self._session._meta(self.path)
        available = max(0, meta.size - self.offset)
        count = min(count, available)
        out = bytearray()
        while count > 0:
            page_id = self.offset // PAGE_SIZE
            within = self.offset % PAGE_SIZE
            take = min(count, PAGE_SIZE - within)
            page = self._session.get_page(self.path, page_id)
            out += page[within:within + take]
            self.offset += take
            count -= take
        return bytes(out)

    def write(self, data: bytes) -> int:
        self._check_open()
        session = self._session
        meta = session._meta(self.path)
        remaining = memoryview(data)
        while remaining:
            page_id = self.offset // PAGE_SIZE
            within = self.offset % PAGE_SIZE
            take = min(len(remaining), PAGE_SIZE - within)
            if within == 0 and take == PAGE_SIZE:
                # Full-page write: no need to fetch the old content
                # (Algorithm 2, line 28).
                page = bytes(remaining[:take])
            else:
                base = bytearray(session.get_page(self.path, page_id))
                base[within:within + take] = remaining[:take]
                page = bytes(base)
            session.put_page(self.path, page_id, page)
            self.offset += take
            meta.size = max(meta.size, self.offset)
            remaining = remaining[take:]
        return len(data)

    def close(self) -> None:
        # File descriptors are pooled for the duration of a maintenance
        # run: the session keeps each file's claimed metadata, so closing
        # a handle needs no boundary crossing (a fresh `open` of the same
        # path reuses the cached descriptor).  The pool is released in
        # one OCall when the run finalizes.
        super().close()


def register_storage_ocalls(
    enclave: Enclave, ads: V2fsAds, root_of: Callable[[], Digest]
) -> None:
    """Register the untrusted storage-layer OCall handlers on an enclave.

    ``root_of`` is a zero-argument callable returning the storage layer's
    current ADS root — the root can move between maintenance runs while
    the enclave object persists.
    """

    def handle_open(path: str):
        root = root_of()
        if ads.file_exists(root, path):
            node = ads.file_node(root, path)
            return True, node.size, node.page_count
        return False, 0, 0

    def handle_get_page(root: Digest, path: str, page_id: int) -> bytes:
        return ads.get_page(root, path, page_id)

    def handle_close(path: str) -> None:
        return None

    enclave.register_ocall("open", handle_open)
    enclave.register_ocall("get_page", handle_get_page)
    enclave.register_ocall("close", handle_close)
