"""Disk-backed node store — the reproduction's RocksDB.

The paper persists ADS nodes in RocksDB; this module provides the
equivalent durability with a dependency-free design: an append-only log
file plus an in-memory digest → offset index rebuilt on open.  Because
nodes are content-addressed and immutable, the log needs no update-in-
place, and ``prune`` compacts it by rewriting only live records.

Record format::

    [digest:32][kind:1][payload_len:4][payload]

Payload encodings per node kind mirror the in-memory dataclasses.
"""

from __future__ import annotations

import logging
import os
import random
import struct
from typing import Dict, Iterable, Optional, Set

from repro.crypto.hashing import DIGEST_SIZE, Digest
from repro.errors import StorageError
from repro.faults import registry as faults
from repro.faults.registry import InjectedFault, SimulatedCrash
from repro.merkle.node_store import (
    DirNode,
    FileNode,
    Node,
    NodeStore,
    PageData,
    PairNode,
)
from repro.obs import metrics as obs
from repro.sanitize.runtime import SanLock
from repro.wire import Reader, Writer

_KIND_PAIR = 1
_KIND_PAGE = 2
_KIND_DIR = 3
_KIND_FILE = 4

_HEADER = struct.Struct(">32sBI")

logger = logging.getLogger("repro.faults")


def _fsync_directory(path: str) -> None:
    """fsync the directory containing ``path`` (durability of a rename).

    ``os.replace`` is atomic, but the *rename itself* is not durable
    until the directory's metadata reaches disk; without this, a power
    loss after compaction can resurrect the pre-compaction log.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        # Directory fsync during
        # compaction must stay inside store.pages: the rename and its
        # durability barrier are one atomic step of the group commit.
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir-fsync
        pass
    finally:
        os.close(fd)


def _encode_node(node: Node) -> "tuple[int, bytes]":
    if isinstance(node, PairNode):
        return _KIND_PAIR, node.left + node.right
    if isinstance(node, PageData):
        return _KIND_PAGE, node.data
    if isinstance(node, DirNode):
        writer = Writer().short_text(node.segment).u32(len(node.children))
        for name, digest in node.children:
            writer.short_text(name).digest(digest)
        return _KIND_DIR, writer.payload()
    if isinstance(node, FileNode):
        return _KIND_FILE, (
            Writer().short_text(node.segment).digest(node.tree_root)
            .u64(node.size).u64(node.page_count).payload()
        )
    raise StorageError(f"unknown node type {type(node).__name__}")


def _decode_node(kind: int, payload: bytes) -> Node:
    """Decode one record payload read back from disk.

    The log is untrusted after a crash (or a bad disk): every
    malformation raises :class:`StorageError`, so the caller's "content
    hashes to its key" check is reached or pre-empted by a typed error.
    """
    if kind == _KIND_PAGE:
        return PageData(payload)
    reader = Reader(payload, StorageError)
    node: Node
    if kind == _KIND_PAIR:
        node = PairNode(reader.digest(), reader.digest())
    elif kind == _KIND_DIR:
        segment = reader.short_text()
        node = DirNode(segment, tuple(
            (reader.short_text(), reader.digest())
            for _ in range(reader.count(2 + DIGEST_SIZE))
        ))
    elif kind == _KIND_FILE:
        node = FileNode(
            reader.short_text(), reader.digest(), reader.u64(), reader.u64()
        )
    else:
        raise StorageError(f"unknown node kind {kind}")
    reader.expect_end()
    return node


class PersistentNodeStore(NodeStore):
    """A :class:`NodeStore` whose nodes live in an append-only log file.

    Safe to reopen: the constructor scans the log to rebuild the index,
    truncating a torn tail record (crash during append) rather than
    failing, and removes a stale ``.compact`` temp file left by a crash
    mid-compaction (``os.replace`` makes the swap itself atomic).
    Reads go to disk (with a small decoded-node cache), so the working
    set is not memory-bound; on a cache miss the decoded node's digest
    is recomputed and checked against its key, so a corrupted record is
    a typed error rather than silently wrong ADS state.

    Durability follows the classic group-commit split: :meth:`put` only
    buffers (plus ``flush`` to the OS), while :meth:`sync` issues a real
    ``os.fsync`` and advances the **durable boundary** — the byte offset
    up to which content is guaranteed to survive power loss.  The ISP
    syncs before publishing a root (write-ahead ordering), and
    :meth:`simulate_crash` abandons everything past the boundary, minus
    an optionally-kept torn prefix, to model the crash itself.

    Failpoints: ``store.append.pre`` / ``store.append.mid`` (between
    header and payload — a crash there leaves a torn tail record),
    ``store.append.payload`` (corrupts the record on its way to disk),
    ``store.sync.pre``, ``store.compact.pre_replace``,
    ``store.compact.post_replace``.
    """

    def __init__(self, path: str, cache_nodes: int = 4096) -> None:
        self._path = path
        # One reentrant lock serializes every log/index operation: the
        # shared file handle is seek-then-read, and prune() swaps both
        # the handle and the offset map out from under concurrent
        # readers, so RPC handler threads reading pages while
        # sync_update compacts would otherwise read from a closed or
        # repositioned file.  Reentrant because reachable()/prune()
        # call get() back under the same lock.
        self._lock = SanLock(
            "store.pages", reentrant=True, may_block=("fsync",)
        )
        self._offsets: Dict[Digest, int] = {}  # repro: guarded-by(_lock)
        self._cache: Dict[Digest, Node] = {}  # repro: guarded-by(_lock)
        self._cache_limit = cache_nodes
        stale_temp = path + ".compact"
        if os.path.exists(stale_temp):
            logger.warning(
                "removing stale compaction temp %s (crash mid-compaction)",
                stale_temp,
            )
            os.remove(stale_temp)
        mode = "r+b" if os.path.exists(path) else "w+b"
        with self._lock:
            self._log = open(path, mode)  # repro: guarded-by(_lock)
            self._scan()
            # Everything that survived the scan is on disk already.
            self._durable_size = self._end_offset()  # repro: guarded-by(_lock)

    # -- log management ---------------------------------------------------

    def _scan(self) -> None:
        self._log.seek(0, os.SEEK_END)
        end = self._log.tell()
        self._log.seek(0)
        position = 0
        while position + _HEADER.size <= end:
            header = self._log.read(_HEADER.size)
            digest, kind, length = _HEADER.unpack(header)
            if position + _HEADER.size + length > end:
                break  # torn tail record
            self._offsets[digest] = position
            self._log.seek(length, os.SEEK_CUR)
            position += _HEADER.size + length
        if position < end:
            logger.warning(
                "%s: truncating torn tail record (%d of %d bytes kept)",
                self._path, position, end,
            )
            self._log.truncate(position)
        self._log.seek(0, os.SEEK_END)

    def _end_offset(self) -> int:
        self._log.seek(0, os.SEEK_END)
        return self._log.tell()

    @property
    def durable_size(self) -> int:
        """Bytes guaranteed to survive power loss (advanced by ``sync``).

        Read under the lock, so it waits out a ``sync`` or ``prune`` in
        flight rather than report a boundary that either is moving."""
        with self._lock:
            return self._durable_size

    def sync(self) -> None:
        """Flush and ``fsync`` the log; advances the durable boundary."""
        if faults.ACTIVE:
            faults.fire("store.sync.pre", path=self._path)
        if obs.ACTIVE:
            obs.inc("store.sync")
        with self._lock:
            self._log.flush()
            # The fsync under
            # store.pages IS the durable group-commit boundary: no
            # writer may append between flush and the durable-size
            # advance, or crash recovery would replay a torn suffix.
            os.fsync(self._log.fileno())
            self._durable_size = self._end_offset()

    def close(self) -> None:
        with self._lock:
            if not self._log.closed:
                if self._log.writable():
                    self.sync()
                self._log.close()

    def simulate_crash(self, rng: Optional[random.Random] = None) -> int:
        """Model power loss: abandon every byte past the durable boundary.

        A real crash may still have flushed *part* of the dirty tail, so
        when ``rng`` is given a random prefix of the tail is kept — which
        routinely leaves a torn record for the reopen scan to truncate.
        The store is closed afterwards (the process is "dead"); reopen
        with a fresh :class:`PersistentNodeStore` to model the restart.
        Returns the surviving file size.
        """
        with self._lock:
            if self._log.closed:
                # Crashed mid-compaction after the handle was swapped:
                # the on-disk file is whatever the compaction left.
                return os.path.getsize(self._path)
            self._log.flush()
            end = self._end_offset()
            keep = self._durable_size
            dirty = end - keep
            if rng is not None and dirty > 0:
                keep += rng.randrange(dirty + 1)
            self._log.truncate(keep)
            self._log.flush()
            # Crash-simulation test
            # hook: the truncated state must hit disk while the lock
            # excludes concurrent appends, mirroring sync().
            os.fsync(self._log.fileno())
            self._log.close()
            return keep

    def __enter__(self) -> "PersistentNodeStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- NodeStore interface ------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._offsets)

    def __contains__(self, digest: Digest) -> bool:
        with self._lock:
            return digest in self._offsets

    def put(self, node: Node) -> Digest:
        digest = node.digest()
        with self._lock:
            if digest in self._offsets:
                return digest
            if obs.ACTIVE:
                obs.inc("store.put")
            kind, payload = _encode_node(node)
            if faults.ACTIVE:
                faults.fire("store.append.pre", digest=digest)
                payload = faults.mangle("store.append.payload", payload)
            position = self._end_offset()
            try:
                self._log.write(_HEADER.pack(digest, kind, len(payload)))
                if faults.ACTIVE:
                    faults.fire("store.append.mid", digest=digest)
                self._log.write(payload)
                self._log.flush()
            except SimulatedCrash:
                raise  # the "process" died mid-append: torn tail stays
            except (OSError, ValueError, InjectedFault):
                # The failures this block can actually produce: an I/O
                # error, a write on a closed handle, or an injected
                # stand-in for either (the store.append.* failpoints).
                # Keep the log well-formed for the still-running
                # process: drop the partial record before surfacing.
                try:
                    self._log.truncate(position)
                    self._log.flush()
                except OSError:  # pragma: no cover - double fault
                    pass
                raise
            self._offsets[digest] = position
            self._remember(digest, node)
            return digest

    def get(self, digest: Digest) -> Node:
        if obs.ACTIVE:
            obs.inc("store.get")
        with self._lock:
            node = self._cache.get(digest)
            if node is not None:
                return node
            offset = self._offsets.get(digest)
            if offset is None:
                raise StorageError(
                    f"unknown node digest {digest.hex()[:16]}…"
                )
            self._log.seek(offset)
            header = self._log.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise StorageError(
                    f"truncated node record for digest {digest.hex()[:16]}…"
                )
            _, kind, length = _HEADER.unpack(header)
            node = _decode_node(kind, self._log.read(length))
            if node.digest() != digest:
                raise StorageError(
                    f"corrupt node record for digest {digest.hex()[:16]}… "
                    "(content does not hash to its key)"
                )
            self._remember(digest, node)
            return node

    def _remember(self, digest: Digest, node: Node) -> None:
        if len(self._cache) >= self._cache_limit:
            self._cache.clear()
        self._cache[digest] = node

    def reachable(self, roots: Iterable[Digest]) -> Set[Digest]:
        with self._lock:
            return self._reachable(roots)

    def _reachable(self, roots: Iterable[Digest]) -> Set[Digest]:
        seen: Set[Digest] = set()
        stack = [r for r in roots if r in self._offsets]
        while stack:
            digest = stack.pop()
            if digest in seen:
                continue
            seen.add(digest)
            if digest not in self._offsets:
                continue
            node = self.get(digest)
            if isinstance(node, PairNode):
                stack.extend((node.left, node.right))
            elif isinstance(node, DirNode):
                stack.extend(d for _, d in node.children)
            elif isinstance(node, FileNode):
                stack.append(node.tree_root)
        return seen

    def prune(self, live_roots: Iterable[Digest]) -> int:
        """Compact the log, keeping only nodes reachable from the roots.

        Runs entirely under the store lock: handler threads serving
        ``get`` block for the duration instead of reading through a
        handle that is about to be closed and swapped.
        """
        with self._lock:
            # reachable() may include structural EMPTY-padding digests
            # never stored; compaction keeps only stored live nodes.
            live = self._reachable(live_roots) & set(self._offsets)
            dead = len(self._offsets) - len(live)
            if dead == 0:
                return 0
            if obs.ACTIVE:
                obs.inc("store.compact")
            temp_path = self._path + ".compact"
            with open(temp_path, "wb") as out:
                offsets: Dict[Digest, int] = {}
                for digest in live:
                    node = self.get(digest)
                    kind, payload = _encode_node(node)
                    offsets[digest] = out.tell()
                    out.write(_HEADER.pack(digest, kind, len(payload)))
                    out.write(payload)
                out.flush()
                # Prune rewrites the
                # log under store.pages; the temp file must be durable
                # before os.replace or a crash could lose every node.
                os.fsync(out.fileno())
            if faults.ACTIVE:
                faults.fire("store.compact.pre_replace", path=self._path)
            self._log.close()
            os.replace(temp_path, self._path)
            if faults.ACTIVE:
                faults.fire("store.compact.post_replace", path=self._path)
            _fsync_directory(self._path)
            self._log = open(self._path, "r+b")
            self._offsets = offsets
            self._cache.clear()
            self._durable_size = self._end_offset()
            return dead
