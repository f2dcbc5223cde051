"""Content-addressed node store backing the V2FS ADS.

The paper stores ADS nodes in RocksDB; here they live in a content-addressed
key-value map: every node is immutable and keyed by its own digest.  Storing
nodes this way makes each root digest a self-contained snapshot (the paper's
multiversion concurrency control) and makes deduplication automatic — two
versions of a file share every unchanged subtree.

Node kinds:

* :class:`PairNode` — internal node of a lower-layer page tree,
  ``digest = H(left || right)``.
* :class:`PageData` — a raw page, ``digest = H(page_bytes)``.
* :class:`DirNode` — upper-layer trie directory: a path segment plus a sorted
  list of ``(child_segment, child_digest)`` pairs.
* :class:`FileNode` — upper-layer trie leaf: a path segment, the root of the
  file's page tree, and the file size in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Set, Tuple, Union

from repro.crypto.hashing import Digest, hash_bytes, hash_concat, hash_pair
from repro.errors import StorageError


@dataclass(frozen=True)
class PairNode:
    """Internal node of a lower-layer page Merkle tree."""

    left: Digest
    right: Digest

    def digest(self) -> Digest:
        return hash_pair(self.left, self.right)


@dataclass(frozen=True)
class PageData:
    """A raw file page; the page-tree leaf stores ``H(data)``."""

    data: bytes

    def digest(self) -> Digest:
        return hash_bytes(self.data)


@dataclass(frozen=True)
class DirNode:
    """Upper-layer trie directory node.

    ``children`` maps child path segments to child node digests and is kept
    sorted by segment so the digest is canonical.  The digest binds the
    node's own segment to its children, mirroring the paper's
    ``h2 = H(var || H(h4 || h5))`` construction.
    """

    segment: str
    children: Tuple[Tuple[str, Digest], ...]

    def digest(self) -> Digest:
        parts = [b"dir", self.segment.encode("utf-8")]
        for name, child_digest in self.children:
            parts.append(name.encode("utf-8"))
            parts.append(child_digest)
        return hash_concat(parts)

    def child_digest(self, name: str) -> Digest:
        for child_name, child_digest in self.children:
            if child_name == name:
                return child_digest
        raise KeyError(name)

    def with_child(self, name: str, digest: Digest) -> "DirNode":
        """Return a copy with child ``name`` set/replaced to ``digest``."""
        children = [c for c in self.children if c[0] != name]
        children.append((name, digest))
        children.sort(key=lambda item: item[0])
        return DirNode(self.segment, tuple(children))

    def without_child(self, name: str) -> "DirNode":
        """Return a copy with child ``name`` removed."""
        children = tuple(c for c in self.children if c[0] != name)
        return DirNode(self.segment, children)


@dataclass(frozen=True)
class FileNode:
    """Upper-layer trie leaf for one file.

    Binds the file's page-tree root, its byte size, and its page count.
    ``page_count`` is hashed so the verifier learns the authentic tree
    shape; ``size`` lets the VFS answer byte-granular reads at EOF.
    """

    segment: str
    tree_root: Digest
    size: int
    page_count: int

    def digest(self) -> Digest:
        return hash_concat(
            [
                b"file",
                self.segment.encode("utf-8"),
                self.tree_root,
                self.size.to_bytes(8, "big"),
                self.page_count.to_bytes(8, "big"),
            ]
        )


Node = Union[PairNode, PageData, DirNode, FileNode]


class NodeStore:
    """A content-addressed map from digest to immutable ADS node.

    ``put`` computes and returns the node's digest; ``get`` raises
    :class:`~repro.errors.StorageError` for unknown digests.  ``prune``
    performs a mark-and-sweep keeping only nodes reachable from the given
    roots — this implements the paper's removal of superseded page versions
    once no query can reference them.
    """

    def __init__(self) -> None:
        self._nodes: Dict[Digest, Node] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, digest: Digest) -> bool:
        return digest in self._nodes

    def put(self, node: Node) -> Digest:
        digest = node.digest()
        self._nodes[digest] = node
        return digest

    def sync(self) -> None:
        """Force buffered writes to durable storage.

        A no-op for the in-memory store; the disk-backed
        :class:`~repro.merkle.persistent_store.PersistentNodeStore`
        overrides this with a real ``fsync``.  The ISP calls it before
        publishing a new root, so every node a certified root can reach
        is durable first (write-ahead ordering).
        """

    def get(self, digest: Digest) -> Node:
        try:
            return self._nodes[digest]
        except KeyError:
            raise StorageError(
                f"unknown node digest {digest.hex()[:16]}…"
            ) from None

    def get_pair(self, digest: Digest) -> PairNode:
        node = self.get(digest)
        if not isinstance(node, PairNode):
            raise StorageError("expected a PairNode")
        return node

    def get_page(self, digest: Digest) -> PageData:
        node = self.get(digest)
        if not isinstance(node, PageData):
            raise StorageError("expected a PageData node")
        return node

    def get_dir(self, digest: Digest) -> DirNode:
        node = self.get(digest)
        if not isinstance(node, DirNode):
            raise StorageError("expected a DirNode")
        return node

    def get_file(self, digest: Digest) -> FileNode:
        node = self.get(digest)
        if not isinstance(node, FileNode):
            raise StorageError("expected a FileNode")
        return node

    def reachable(self, roots: Iterable[Digest]) -> Set[Digest]:
        """Return all digests reachable from ``roots`` (mark phase)."""
        seen: Set[Digest] = set()
        stack = [r for r in roots if r in self._nodes]
        while stack:
            digest = stack.pop()
            if digest in seen:
                continue
            seen.add(digest)
            node = self._nodes.get(digest)
            if node is None:
                # EMPTY-subtree padding digests are structural constants
                # that are never stored; nothing to traverse beneath them.
                continue
            if isinstance(node, PairNode):
                stack.extend((node.left, node.right))
            elif isinstance(node, DirNode):
                stack.extend(d for _, d in node.children)
            elif isinstance(node, FileNode):
                stack.append(node.tree_root)
        return seen

    def prune(self, live_roots: Iterable[Digest]) -> int:
        """Drop every node unreachable from ``live_roots``; return count."""
        live = self.reachable(live_roots)
        dead = [d for d in self._nodes if d not in live]
        for digest in dead:
            del self._nodes[digest]
        return len(dead)
