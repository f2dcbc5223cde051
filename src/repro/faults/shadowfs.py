"""Shadow dirty-vs-durable filesystem for crash simulation.

:class:`ShadowFilesystem` is a drop-in
:class:`~repro.vfs.interface.VirtualFilesystem` that keeps **two**
images of every file:

* the **dirty** image — what the application has written (what ordinary
  reads observe), and
* the **durable** image — what has been explicitly made persistent via
  :meth:`~ShadowFile.sync` (the ``fsync`` of this model).

:meth:`ShadowFilesystem.crash` models power loss: the dirty image is
discarded and replaced by the durable one, except that — exactly like a
real disk losing power mid-write — each un-synced dirty *page* is
independently resolved by a seeded RNG into one of three outcomes:

* **persisted** — the page made it to disk despite the missing fsync;
* **lost** — the durable content survives unchanged;
* **torn** — a prefix of the new 4 KiB write landed, the rest is old
  (the torn-page case the pager's per-page checksum exists to detect).

The model is what lets :class:`SimulatedCrash` scenarios abandon
un-fsynced writes deterministically, and what the pager's crash tests
reopen files against.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import FileNotFoundInStoreError
from repro.vfs.interface import PAGE_SIZE, VirtualFile, VirtualFilesystem

#: Crash outcomes for one un-synced dirty page.
_PERSISTED = "persisted"
_LOST = "lost"
_TORN = "torn"


class _ShadowEntry:
    """Dirty + durable buffers and the dirty-page set for one file."""

    __slots__ = ("dirty", "durable", "dirty_pages")

    def __init__(self) -> None:
        self.dirty = bytearray()
        self.durable = bytearray()
        self.dirty_pages: Set[int] = set()


class ShadowFile(VirtualFile):
    """Handle over the dirty image of one shadow file."""

    def __init__(self, fs: "ShadowFilesystem", path: str) -> None:
        super().__init__(path)
        self._fs = fs

    def size(self) -> int:
        self._check_open()
        return len(self._fs._entry(self.path).dirty)

    def read(self, count: int) -> bytes:
        self._check_open()
        buf = self._fs._entry(self.path).dirty
        data = bytes(buf[self.offset:self.offset + count])
        self.offset += len(data)
        return data

    def write(self, data: bytes) -> int:
        self._check_open()
        entry = self._fs._entry(self.path)
        end = self.offset + len(data)
        if end > len(entry.dirty):
            entry.dirty.extend(b"\x00" * (end - len(entry.dirty)))
        entry.dirty[self.offset:end] = data
        first = self.offset // PAGE_SIZE
        last = max(first, (end - 1) // PAGE_SIZE) if data else first
        entry.dirty_pages.update(range(first, last + 1))
        self.offset = end
        return len(data)

    def sync(self) -> None:
        """Publish this file's dirty image as durable (the model fsync)."""
        self._check_open()
        self._fs.sync_file(self.path)


class ShadowFilesystem(VirtualFilesystem):
    """Dirty-vs-durable filesystem; survives :meth:`crash` like a disk."""

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._files: Dict[str, _ShadowEntry] = {}
        self._rng = rng if rng is not None else random.Random()
        #: (path, page_id, outcome) log of the most recent crash, for
        #: assertions.
        self.last_crash_outcomes: List[Tuple[str, int, str]] = []

    # -- VirtualFilesystem interface ------------------------------------

    def open(self, path: str, create: bool = False) -> ShadowFile:
        if path not in self._files:
            if not create:
                raise FileNotFoundInStoreError(path)
            self._files[path] = _ShadowEntry()
        return ShadowFile(self, path)

    def exists(self, path: str) -> bool:
        return path in self._files

    def remove(self, path: str) -> None:
        try:
            del self._files[path]
        except KeyError:
            raise FileNotFoundInStoreError(path) from None

    def list_files(self) -> List[str]:
        return sorted(self._files)

    def _entry(self, path: str) -> _ShadowEntry:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundInStoreError(path) from None

    # -- durability model ------------------------------------------------

    def sync_file(self, path: str) -> None:
        entry = self._entry(path)
        entry.durable = bytearray(entry.dirty)
        entry.dirty_pages.clear()

    def dirty_pages(self, path: str) -> Set[int]:
        return set(self._entry(path).dirty_pages)

    def crash(self) -> List[Tuple[str, int, str]]:
        """Simulate power loss; returns the per-page crash outcomes.

        Every un-synced dirty page independently persists fully, is lost
        (durable content wins), or tears — the first ``k`` bytes of the
        new write land, ``k`` drawn from the RNG.  File *length* follows
        the furthest surviving write, mirroring how a crashed filesystem
        may have extended the file before losing data blocks.
        """
        outcomes: List[Tuple[str, int, str]] = []
        for path, entry in self._files.items():
            survivor = bytearray(entry.durable)
            dirty_len = len(entry.dirty)
            if dirty_len > len(survivor):
                survivor.extend(b"\x00" * (dirty_len - len(survivor)))
            for page_id in sorted(entry.dirty_pages):
                start = page_id * PAGE_SIZE
                end = min(start + PAGE_SIZE, dirty_len)
                if end <= start:
                    continue
                outcome = self._rng.choice((_PERSISTED, _LOST, _TORN))
                if outcome == _PERSISTED:
                    survivor[start:end] = entry.dirty[start:end]
                elif outcome == _TORN:
                    cut = start + self._rng.randrange(1, end - start) \
                        if end - start > 1 else start
                    survivor[start:cut] = entry.dirty[start:cut]
                outcomes.append((path, page_id, outcome))
            entry.dirty = survivor
            entry.durable = bytearray(survivor)
            entry.dirty_pages.clear()
        self.last_crash_outcomes = outcomes
        return outcomes
