"""Direct, unverified filesystem over a :class:`PlainPageStore`.

This is the baseline storage backend: the database engine running on a
:class:`LocalFilesystem` behaves like ordinary SQLite on local disk, with
no verification and no network.  The ISP also keeps its working copy of
the database on one of these (its authenticated view lives in the ADS).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import FileNotFoundInStoreError
from repro.vfs.interface import VirtualFile, VirtualFilesystem
from repro.vfs.pagestore import PlainPageStore


class LocalFile(VirtualFile):
    """Handle over a byte buffer in a :class:`PlainPageStore`."""

    def __init__(self, store: PlainPageStore, path: str) -> None:
        super().__init__(path)
        self._store = store

    def size(self) -> int:
        self._check_open()
        return self._store.size(self.path)

    def read(self, count: int) -> bytes:
        self._check_open()
        data = self._store.read_at(self.path, self.offset, count)
        self.offset += len(data)
        return data

    def write(self, data: bytes) -> int:
        self._check_open()
        self._store.write_at(self.path, self.offset, data)
        self.offset += len(data)
        return len(data)


class LocalFilesystem(VirtualFilesystem):
    """Unverified filesystem; optionally shares a caller-provided store."""

    def __init__(self, store: Optional[PlainPageStore] = None) -> None:
        self.store = store if store is not None else PlainPageStore()

    def open(self, path: str, create: bool = False) -> LocalFile:
        if not self.store.exists(path):
            if not create:
                raise FileNotFoundInStoreError(path)
            self.store.create(path)
        return LocalFile(self.store, path)

    def exists(self, path: str) -> bool:
        return self.store.exists(path)

    def remove(self, path: str) -> None:
        self.store.remove(path)

    def list_files(self) -> List[str]:
        return self.store.list_files()
