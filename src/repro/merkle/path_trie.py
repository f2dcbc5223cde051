"""Upper-layer Merkle trie over file-path segments.

Every file path is split into ``/``-separated segments; directories are
:class:`~repro.merkle.node_store.DirNode` entries whose digests bind their
segment and their (sorted) children, and files are
:class:`~repro.merkle.node_store.FileNode` leaves binding the file's
page-tree root and byte size.  The trie root digest authenticates the whole
filesystem, matching the paper's Figure 6.

All update operations are persistent: they return a *new* root digest and
never mutate existing nodes, so old roots remain valid snapshots.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.crypto.hashing import Digest
from repro.errors import FileNotFoundInStoreError, StorageError
from repro.merkle.node_store import DirNode, FileNode, NodeStore

#: Segment name of the trie root directory.
ROOT_SEGMENT = "/"


def split_path(path: str) -> Tuple[str, ...]:
    """Split ``/var/main.sqlite`` into ``("var", "main.sqlite")``.

    Paths must be absolute; empty segments (``//``) are rejected.
    """
    if not path.startswith("/"):
        raise StorageError(f"path must be absolute: {path!r}")
    segments = tuple(seg for seg in path.split("/") if seg)
    if not segments:
        raise StorageError("path must name a file, not the root")
    return segments


def join_path(segments: Tuple[str, ...]) -> str:
    return "/" + "/".join(segments)


def empty_root(store: NodeStore) -> Digest:
    """Create (and store) the root of an empty filesystem."""
    return store.put(DirNode(ROOT_SEGMENT, ()))


def get_file(store: NodeStore, root: Digest, path: str) -> FileNode:
    """Return the :class:`FileNode` at ``path`` under ``root``."""
    segments = split_path(path)
    digest = root
    node = store.get_dir(digest)
    for i, segment in enumerate(segments):
        try:
            digest = node.child_digest(segment)
        except KeyError:
            raise FileNotFoundInStoreError(path) from None
        child = store.get(digest)
        is_last = i == len(segments) - 1
        if is_last:
            if not isinstance(child, FileNode):
                raise FileNotFoundInStoreError(
                    f"{path} is a directory, not a file"
                )
            return child
        if not isinstance(child, DirNode):
            raise FileNotFoundInStoreError(
                f"{join_path(segments[: i + 1])} is a file, not a directory"
            )
        node = child
    # Unreachable: the last segment always returns or raises above.
    raise AssertionError("unreachable")


def file_exists(store: NodeStore, root: Digest, path: str) -> bool:
    try:
        get_file(store, root, path)
        return True
    except FileNotFoundInStoreError:
        return False


def set_file(
    store: NodeStore,
    root: Digest,
    path: str,
    tree_root: Digest,
    size: int,
    page_count: int,
) -> Digest:
    """Insert or replace the file at ``path``; return the new trie root.

    Intermediate directories are created as needed.  The operation is
    persistent: every node along the path is rewritten, everything else is
    shared with the previous version.
    """
    segments = split_path(path)
    return _set_recursive(store, root, segments, tree_root, size, page_count)


def _set_recursive(
    store: NodeStore,
    dir_digest: Optional[Digest],
    segments: Tuple[str, ...],
    tree_root: Digest,
    size: int,
    page_count: int,
    segment_name: str = ROOT_SEGMENT,
) -> Digest:
    if dir_digest is None:
        node = DirNode(segment_name, ())
    else:
        existing = store.get(dir_digest)
        if not isinstance(existing, DirNode):
            raise StorageError(
                f"path component {segment_name!r} is a file, not a directory"
            )
        node = existing
    head, rest = segments[0], segments[1:]
    if not rest:
        child_digest = store.put(FileNode(head, tree_root, size, page_count))
    else:
        try:
            current = node.child_digest(head)
        except KeyError:
            current = None
        else:
            if not isinstance(store.get(current), DirNode):
                raise StorageError(
                    f"path component {head!r} is a file, not a directory"
                )
        child_digest = _set_recursive(
            store, current, rest, tree_root, size, page_count,
            segment_name=head,
        )
    return store.put(node.with_child(head, child_digest))


def delete_file(store: NodeStore, root: Digest, path: str) -> Digest:
    """Remove the file at ``path``; return the new trie root.

    Directories left empty are removed as well.  Raises
    :class:`~repro.errors.FileNotFoundInStoreError` if the path is absent.
    """
    segments = split_path(path)
    new_root = _delete_recursive(store, root, segments)
    if new_root is None:
        return store.put(DirNode(ROOT_SEGMENT, ()))
    return new_root


def _delete_recursive(
    store: NodeStore, dir_digest: Digest, segments: Tuple[str, ...]
) -> Optional[Digest]:
    node = store.get(dir_digest)
    if not isinstance(node, DirNode):
        raise FileNotFoundInStoreError(join_path(segments))
    head, rest = segments[0], segments[1:]
    try:
        child_digest = node.child_digest(head)
    except KeyError:
        raise FileNotFoundInStoreError(join_path(segments)) from None
    if not rest:
        if not isinstance(store.get(child_digest), FileNode):
            raise FileNotFoundInStoreError(join_path(segments))
        updated = node.without_child(head)
    else:
        new_child = _delete_recursive(store, child_digest, rest)
        if new_child is None:
            updated = node.without_child(head)
        else:
            updated = node.with_child(head, new_child)
    if not updated.children and updated.segment != ROOT_SEGMENT:
        return None
    return store.put(updated)


def list_files(store: NodeStore, root: Digest) -> List[str]:
    """Return all file paths under ``root``, sorted."""
    return sorted(path for path, _ in iter_files(store, root))


def iter_files(
    store: NodeStore, root: Digest
) -> Iterator[Tuple[str, FileNode]]:
    """Yield ``(path, FileNode)`` for every file in the snapshot."""

    def walk(digest: Digest, prefix: Tuple[str, ...]) -> Iterator:
        node = store.get(digest)
        if isinstance(node, FileNode):
            yield join_path(prefix), node
        elif isinstance(node, DirNode):
            for name, child in node.children:
                yield from walk(child, prefix + (name,))

    node = store.get_dir(root)
    for name, child in node.children:
        yield from walk(child, (name,))
