"""High-level facade over the two-layer V2FS ADS.

:class:`V2fsAds` bundles a :class:`~repro.merkle.node_store.NodeStore` with
the page-tree and path-trie algorithms and exposes the operations the rest
of the system needs:

* **snapshot reads** — fetch a page or file metadata under any root ever
  produced (multiversion);
* **storage-side updates** — apply a batch of page writes and produce the
  next root (used by the ISP and by the CI's outside-enclave storage);
* **proof generation** — consolidated read proofs (``pi_r`` / the query VO)
  and write proofs (``pi_w``);
* **stateless verification** — check read proofs against a root, and
  recompute the post-update root from a write proof without access to the
  store (the enclave-side computation of Algorithm 3).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.crypto.hashing import Digest, hash_bytes
from repro.errors import (
    FileNotFoundInStoreError,
    ProofError,
    StorageError,
)
from repro.merkle import page_tree, path_trie
from repro.merkle.node_store import (
    FileNode,
    NodeStore,
    PageData,
)
from repro.merkle.proof import (
    AdsProof,
    FileProof,
    WriteProof,
    collect_proof_files,
    gen_trie_proof,
    skeleton_root_with_updates,
)
from repro.obs import metrics as obs


class AdsError(ProofError):
    """Raised when an ADS operation or verification fails."""


#: A page claim key: (file path, page id).
PageKey = Tuple[str, int]
#: An internal-node claim key: (file path, level, index).
NodeKey = Tuple[str, int, int]


class V2fsAds:
    """The authenticated two-layer filesystem index."""

    def __init__(self, store: Optional[NodeStore] = None) -> None:
        self.store = store if store is not None else NodeStore()
        self.root = path_trie.empty_root(self.store)

    # ------------------------------------------------------------------
    # Snapshot reads
    # ------------------------------------------------------------------

    def file_node(self, root: Digest, path: str) -> FileNode:
        """Return the authenticated file metadata under ``root``."""
        return path_trie.get_file(self.store, root, path)

    def file_exists(self, root: Digest, path: str) -> bool:
        return path_trie.file_exists(self.store, root, path)

    def list_files(self, root: Digest) -> List[str]:
        return path_trie.list_files(self.store, root)

    def get_page(self, root: Digest, path: str, page_id: int,
                 node: Optional[FileNode] = None) -> bytes:
        """Return the bytes of page ``page_id`` of ``path`` under ``root``;
        ``node`` is the file's node under ``root`` if the caller already
        walked the path trie to it."""
        if node is None:
            node = self.file_node(root, path)
        if page_id >= node.page_count:
            raise StorageError(
                f"page {page_id} beyond EOF of {path} "
                f"({node.page_count} pages)"
            )
        leaf = page_tree.leaf_digest(
            self.store, node.tree_root, node.page_count, page_id
        )
        return self.store.get_page(leaf).data

    def node_digest(
        self, root: Digest, path: str, level: int, index: int
    ) -> Digest:
        """Return the digest at ``(level, index)`` of ``path``'s page tree."""
        node = self.file_node(root, path)
        return page_tree.node_digest(
            self.store, node.tree_root, node.page_count, level, index
        )

    # ------------------------------------------------------------------
    # Storage-side updates
    # ------------------------------------------------------------------

    def apply_writes(
        self,
        root: Digest,
        writes: Mapping[str, Mapping[int, bytes]],
        new_sizes: Mapping[str, int],
        own: Optional[Callable[[str, int], bool]] = None,
    ) -> Digest:
        """Apply page writes and return the new ADS root.

        ``writes`` maps paths to ``{page_id: page_bytes}``; ``new_sizes``
        gives the post-write byte size of every written file.  Files are
        created on first write.  The previous root remains a readable
        snapshot until pruned.

        ``own`` enables the sharded-storage mode: for ``(path,
        page_id)`` pairs it rejects, the page *digest* is folded into
        the tree without storing the :class:`PageData` itself.  The
        resulting root is byte-identical to a full apply — digests
        commit to content, not to presence — so a shard holding only
        its partition's pages still anchors at the fleet-wide
        certified root; reads of non-owned pages fail with a typed
        :class:`~repro.errors.StorageError`.
        """
        if obs.ACTIVE:
            obs.inc("ads.apply_writes")
        new_root = root
        for path in sorted(writes):
            page_writes = writes[path]
            if path not in new_sizes:
                raise StorageError(f"missing new size for {path}")
            try:
                node = path_trie.get_file(self.store, new_root, path)
                old_tree, old_count = node.tree_root, node.page_count
            except FileNotFoundInStoreError:
                # First write to this path: start from an empty page
                # tree.  Anything else (corrupt trie, unknown digest)
                # must propagate — it is not a missing file.
                old_tree, old_count = page_tree.EMPTY[0], 0
            if own is None:
                leaf_writes = {
                    pid: self.store.put(PageData(bytes(data)))
                    for pid, data in page_writes.items()
                }
            else:
                leaf_writes = {
                    pid: (
                        self.store.put(PageData(bytes(data)))
                        if own(path, pid)
                        else hash_bytes(bytes(data))
                    )
                    for pid, data in page_writes.items()
                }
            new_count = max(
                old_count, max(leaf_writes, default=-1) + 1
            )
            new_tree = page_tree.write_pages(
                self.store, old_tree, old_count, leaf_writes, new_count
            )
            new_root = path_trie.set_file(
                self.store, new_root, path, new_tree,
                new_sizes[path], new_count,
            )
        return new_root

    def delete_file(self, root: Digest, path: str) -> Digest:
        return path_trie.delete_file(self.store, root, path)

    def prune(self, live_roots: Iterable[Digest]) -> int:
        """Garbage-collect all versions except those in ``live_roots``."""
        if obs.ACTIVE:
            obs.inc("ads.prune")
        return self.store.prune(live_roots)

    # ------------------------------------------------------------------
    # Proof generation (prover side: ISP / storage layer)
    # ------------------------------------------------------------------

    def gen_read_proof(
        self,
        root: Digest,
        page_keys: Iterable[PageKey],
        node_keys: Iterable[NodeKey] = (),
        files: Iterable[str] = (),
    ) -> AdsProof:
        """Build the consolidated proof for a set of page/node claims.

        ``files`` are covered by the trie skeleton too, with no page or
        node claim: their authenticated (size, page_count) ride along.
        """
        if obs.ACTIVE:
            obs.inc("ads.proof.read")
        by_file: Dict[str, Set[page_tree.Position]] = {}
        for path, pid in page_keys:
            by_file.setdefault(path, set()).add((0, pid))
        for path, level, index in node_keys:
            by_file.setdefault(path, set()).add((level, index))
        trie = gen_trie_proof(
            self.store, root, sorted(set(by_file).union(files))
        )
        file_proofs: Dict[str, FileProof] = {}
        for path, targets in by_file.items():
            node = self.file_node(root, path)
            file_proofs[path] = FileProof(page_tree.gen_multiproof(
                self.store, node.tree_root, node.page_count, targets
            ))
        return AdsProof(trie=trie, files=file_proofs)

    def gen_write_proof(
        self, root: Digest, writes: Mapping[str, Iterable[int]]
    ) -> WriteProof:
        """Build ``pi_w`` for the pages about to be (over)written.

        For files that already exist, the proof carries the page-tree
        siblings and the *old* digests of overwritten pages so the enclave
        can authenticate the prior state.  Brand-new files only need their
        parent directory expanded, which :func:`gen_trie_proof` provides
        implicitly through existing sibling paths; if no ancestor carries
        a file yet, the skeleton still authenticates non-membership via
        the expanded root directory.
        """
        if obs.ACTIVE:
            obs.inc("ads.proof.write")
        existing = [
            path for path in sorted(writes)
            if path_trie.file_exists(self.store, root, path)
        ]
        new_paths = [path for path in sorted(writes) if path not in existing]
        trie = gen_trie_proof(
            self.store, root, existing, expand_dirs=new_paths
        )
        files: Dict[str, FileProof] = {}
        old_leaves: Dict[str, Dict[int, Digest]] = {}
        for path in existing:
            node = self.file_node(root, path)
            pids = sorted(writes[path])
            in_range = [p for p in pids
                        if p < page_tree.capacity_for(node.page_count)]
            targets = {(0, pid) for pid in in_range}
            siblings = page_tree.gen_multiproof(
                self.store, node.tree_root, node.page_count, targets
            ) if targets else {}
            files[path] = FileProof(siblings)
            old_leaves[path] = {
                pid: page_tree.node_digest(
                    self.store, node.tree_root, node.page_count, 0, pid
                )
                for pid in in_range
            }
        return WriteProof(
            ads=AdsProof(trie=trie, files=files), old_leaves=old_leaves
        )

    # ------------------------------------------------------------------
    # Stateless verification (client / enclave side)
    # ------------------------------------------------------------------

    @staticmethod
    def verify_read_proof(
        proof: AdsProof,
        expected_root: Digest,
        page_claims: Mapping[PageKey, Digest],
        node_claims: Mapping[NodeKey, Digest] = {},
    ) -> Dict[str, Dict[page_tree.Position, Digest]]:
        """Check that claimed page/node digests belong to ``expected_root``.

        Raises :class:`AdsError` on any inconsistency.  A successful return
        means every claimed digest is the authentic content of its position
        in the snapshot identified by ``expected_root``.  Returns, per
        file, every node digest established during verification (claims,
        proof siblings, derived internals) — all of them authenticated,
        which lets the inter-query cache grow its known ancestor set.
        """
        if proof.trie.digest() != expected_root:
            raise AdsError("trie skeleton does not match the ADS root")
        proof_files = collect_proof_files(proof.trie)
        by_file: Dict[str, Dict[page_tree.Position, Digest]] = {}
        for (path, pid), digest in page_claims.items():
            by_file.setdefault(path, {})[(0, pid)] = digest
        for (path, level, index), digest in node_claims.items():
            by_file.setdefault(path, {})[(level, index)] = digest
        established: Dict[str, Dict[page_tree.Position, Digest]] = {}
        for path, targets in by_file.items():
            meta = proof_files.get(path)
            if meta is None:
                raise AdsError(f"proof does not cover {path}")
            height = page_tree.height_for(meta.page_count)
            for (level, index), digest in targets.items():
                if level == height and index == 0:
                    if digest != meta.tree_root:
                        raise AdsError(f"root claim mismatch for {path}")
            file_proof = proof.files.get(path, FileProof())
            derived, values = page_tree.reconstruct_with_values(
                targets, file_proof.siblings, meta.page_count
            )
            if derived != meta.tree_root:
                raise AdsError(f"page-tree mismatch for {path}")
            established[path] = values
        return established

    @staticmethod
    def compute_updated_root(
        write_proof: WriteProof,
        old_root: Digest,
        new_leaves: Mapping[str, Mapping[int, Digest]],
        new_meta: Mapping[str, Tuple[int, int]],
    ) -> Digest:
        """Recompute the post-update ADS root from ``pi_w`` (enclave side).

        ``new_leaves`` maps paths to ``{page_id: new_page_digest}``;
        ``new_meta`` maps paths to ``(new_size, new_page_count)``.  The
        proof is first authenticated against ``old_root``; tampering with
        any component raises :class:`AdsError`.
        """
        skeleton = write_proof.ads.trie
        if skeleton.digest() != old_root:
            raise AdsError("write proof does not match the previous root")
        proof_files = collect_proof_files(skeleton)
        updates: Dict[str, Tuple[Digest, int, int]] = {}
        for path in sorted(new_leaves):
            leaves = dict(new_leaves[path])
            if path not in new_meta:
                raise AdsError(f"missing new metadata for {path}")
            new_size, new_count = new_meta[path]
            meta = proof_files.get(path)
            if meta is not None:
                file_proof = write_proof.ads.files.get(path, FileProof())
                old_digests = write_proof.old_leaves.get(path, {})
                new_tree = page_tree.updated_root_from_proof(
                    meta.tree_root,
                    meta.page_count,
                    old_digests,
                    file_proof.siblings,
                    leaves,
                    new_count,
                )
            else:
                new_tree = page_tree.reconstruct_root(
                    {(0, pid): digest for pid, digest in leaves.items()},
                    {},
                    new_count,
                    assume_empty_from=0,
                )
            updates[path] = (new_tree, new_size, new_count)
        return skeleton_root_with_updates(skeleton, updates)

    @staticmethod
    def page_digest(data: bytes) -> Digest:
        """Digest of a raw page, as stored in page-tree leaves."""
        return hash_bytes(data)
