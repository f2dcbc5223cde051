"""Proof objects exchanged between the ISP, the client, and the enclave.

Two proof families exist:

* :class:`AdsProof` — a **consolidated** read proof (the paper's VO /
  ``pi_q`` and the maintenance ``pi_r``): an expanded trie skeleton plus one
  page-tree multiproof per touched file.  Verifying it (see
  :meth:`repro.merkle.ads.V2fsAds.verify_read_proof`) authenticates a set of
  claimed page digests and internal-node digests against a single ADS root.

* :class:`WriteProof` — the maintenance ``pi_w``: an :class:`AdsProof`
  extended with the *old* digests of every overwritten page, which lets the
  enclave authenticate the old state and then recompute the new root from
  the substituted page digests (Algorithm 3).

All proofs have a compact binary encoding; ``len(proof.encode())`` is the VO
size reported in the paper's Figures 11 and 16.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.crypto.hashing import DIGEST_SIZE, Digest, hash_concat
from repro.errors import ProofError
from repro.merkle.node_store import DirNode, FileNode, NodeStore
from repro.merkle.page_tree import Position
from repro.merkle.path_trie import join_path, split_path
from repro.wire import Reader, Writer


@dataclass
class ProofFile:
    """An expanded file leaf in a trie proof skeleton."""

    segment: str
    tree_root: Digest
    size: int
    page_count: int

    def digest(self) -> Digest:
        return FileNode(
            self.segment, self.tree_root, self.size, self.page_count
        ).digest()


@dataclass
class ProofDir:
    """An expanded directory in a trie proof skeleton.

    ``children`` pairs each child segment with either a nested expanded
    node (on some proven path) or an opaque child digest.
    """

    segment: str
    children: List[Tuple[str, Union["ProofDir", ProofFile, Digest]]]

    def digest(self) -> Digest:
        parts = [b"dir", self.segment.encode("utf-8")]
        for name, child in self.children:
            parts.append(name.encode("utf-8"))
            if isinstance(child, (ProofDir, ProofFile)):
                parts.append(child.digest())
            else:
                parts.append(child)
        return hash_concat(parts)


TrieProofNode = Union[ProofDir, ProofFile]


def gen_trie_proof(
    store: NodeStore,
    root: Digest,
    paths: List[str],
    expand_dirs: List[str] = (),
) -> ProofDir:
    """Expand the trie skeleton covering ``paths`` under ``root``.

    Every path in ``paths`` must exist in the snapshot and is expanded down
    to its :class:`ProofFile`.  ``expand_dirs`` lists paths (typically of
    files about to be *created*) whose existing directory prefix should be
    expanded, so a verifier can authenticate non-membership and compute the
    post-insertion root.  Children off all proven paths appear as opaque
    digests; shared prefixes are expanded once.
    """
    target_sets = [split_path(p) for p in sorted(set(paths))]
    prefix_sets = [split_path(p) for p in sorted(set(expand_dirs))]

    def expand(
        digest: Digest,
        targets: List[Tuple[str, ...]],
        prefixes: List[Tuple[str, ...]],
    ) -> TrieProofNode:
        node = store.get(digest)
        if isinstance(node, FileNode):
            return ProofFile(
                node.segment, node.tree_root, node.size, node.page_count
            )
        if not isinstance(node, DirNode):
            raise ProofError("unexpected node kind in trie")
        children: List[Tuple[str, Union[ProofDir, ProofFile, Digest]]] = []
        for name, child_digest in node.children:
            sub_t = [s[1:] for s in targets if s and s[0] == name]
            sub_p = [s[1:] for s in prefixes if s and s[0] == name]
            if not sub_t and not sub_p:
                children.append((name, child_digest))
                continue
            hit_here = any(len(s) == 0 for s in sub_t)
            deeper = [s for s in sub_t if s]
            if hit_here and deeper:
                raise ProofError(f"path prefix conflict at {name!r}")
            children.append(
                (name, expand(child_digest, sub_t, [s for s in sub_p if s]))
            )
        return ProofDir(node.segment, children)

    for segs in target_sets:
        _assert_present(store, root, segs)
    result = expand(root, target_sets, prefix_sets)
    if not isinstance(result, ProofDir):
        raise ProofError("trie root must be a directory")
    return result


def _assert_present(store, root, segments) -> None:
    from repro.merkle import path_trie

    path_trie.get_file(store, root, join_path(segments))


def collect_proof_files(skeleton: ProofDir) -> Dict[str, ProofFile]:
    """Return ``path -> ProofFile`` for every expanded file in a skeleton."""
    found: Dict[str, ProofFile] = {}

    def walk(node: TrieProofNode, prefix: Tuple[str, ...]) -> None:
        if isinstance(node, ProofFile):
            found[join_path(prefix)] = node
            return
        for name, child in node.children:
            if isinstance(child, (ProofDir, ProofFile)):
                walk(child, prefix + (name,))

    walk(skeleton, ())
    return found


def skeleton_root_with_updates(
    skeleton: ProofDir,
    updates: Dict[str, Tuple[Digest, int, int]],
) -> Digest:
    """Recompute the trie root after substituting/inserting files.

    ``updates`` maps paths to ``(tree_root, size, page_count)``.  Existing
    files on the skeleton are replaced; new files are inserted into their
    parent directory, which must be expanded in the skeleton (so the
    enclave has an authenticated view of the parent's children and can
    check the file did not exist).  Directories missing along a new path
    are created, provided the longest existing prefix is expanded.
    """
    pending = {split_path(p): v for p, v in updates.items()}

    def rebuild(node: TrieProofNode, prefix: Tuple[str, ...]) -> Digest:
        if isinstance(node, ProofFile):
            segs = prefix
            if segs in pending:
                tree_root, size, page_count = pending.pop(segs)
                return ProofFile(
                    node.segment, tree_root, size, page_count
                ).digest()
            return node.digest()
        parts = [b"dir", node.segment.encode("utf-8")]
        child_items: List[Tuple[str, Digest]] = []
        names_here = {name for name, _ in node.children}
        for name, child in node.children:
            child_prefix = prefix + (name,)
            if isinstance(child, (ProofDir, ProofFile)):
                child_items.append((name, rebuild(child, child_prefix)))
            else:
                for segs in list(pending):
                    if segs[: len(child_prefix)] == child_prefix:
                        raise ProofError(
                            "write proof does not expand "
                            f"{join_path(child_prefix)}"
                        )
                child_items.append((name, child))
        # Insert brand-new children rooted at this directory.  All pending
        # paths sharing a first new segment become one fresh subtree.
        groups: dict = {}
        for segs in list(pending):
            if segs[: len(prefix)] != prefix or len(segs) <= len(prefix):
                continue
            head = segs[len(prefix)]
            if head in names_here:
                continue  # handled by a deeper recursion, or unplaceable
            groups.setdefault(head, {})[segs[len(prefix) + 1:]] = (
                pending.pop(segs)
            )
        for head, entries in groups.items():
            child_items.append((head, _build_fresh(head, entries)))
            names_here.add(head)
        child_items.sort(key=lambda item: item[0])
        for name, digest in child_items:
            parts.append(name.encode("utf-8"))
            parts.append(digest)
        return hash_concat(parts)

    root = rebuild(skeleton, ())
    if pending:
        missing = join_path(next(iter(pending)))
        raise ProofError(f"could not place update for {missing}")
    return root


def _build_fresh(
    name: str, entries: Dict[Tuple[str, ...], Tuple[Digest, int, int]]
) -> Digest:
    """Digest of a brand-new trie subtree rooted at segment ``name``.

    ``entries`` maps path suffixes (relative to this node) to their file
    values; the empty suffix means this node itself is the file.
    """
    if () in entries:
        if len(entries) > 1:
            raise ProofError(f"path conflict under new segment {name!r}")
        tree_root, size, page_count = entries[()]
        return ProofFile(name, tree_root, size, page_count).digest()
    groups: Dict[str, Dict[Tuple[str, ...], Tuple[Digest, int, int]]] = {}
    for segs, value in entries.items():
        groups.setdefault(segs[0], {})[segs[1:]] = value
    parts = [b"dir", name.encode("utf-8")]
    for child_name in sorted(groups):
        parts.append(child_name.encode("utf-8"))
        parts.append(_build_fresh(child_name, groups[child_name]))
    return hash_concat(parts)


@dataclass
class FileProof:
    """Page-tree multiproof for one file: sibling digests by position."""

    siblings: Dict[Position, Digest] = field(default_factory=dict)


@dataclass
class AdsProof:
    """Consolidated proof: trie skeleton + per-file page multiproofs."""

    trie: ProofDir
    files: Dict[str, FileProof] = field(default_factory=dict)
    #: encode() memo: the ISP sizes a VO for its metrics and the RPC
    #: codec then sends it, and in-process the client sizes the same
    #: object.  Nothing mutates a proof after it is built.
    _encoded: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    def encode(self) -> bytes:
        """The compact binary encoding, built once per proof."""
        if self._encoded is not None:
            return self._encoded
        writer = Writer()
        _encode_trie(writer, self.trie)
        writer.u32(len(self.files))
        for path in sorted(self.files):
            siblings = self.files[path].siblings
            writer.short_text(path).u32(len(siblings))
            for level, index in sorted(siblings):
                writer.u16(level).u64(index).digest(siblings[(level, index)])
        self._encoded = writer.payload()
        return self._encoded

    @classmethod
    # repro: taint-source
    def decode(cls, data: bytes) -> "AdsProof":
        """Decode an untrusted proof encoding.

        Every read goes through a bounds-checked :class:`Reader`:
        truncation, hostile counts, absurd nesting, and trailing garbage
        all raise :class:`ProofError` rather than crashing — this is the
        payload an RPC client decodes straight off the wire from an
        untrusted ISP.
        """
        reader = Reader(data, ProofError)
        trie = _decode_trie(reader, 0)
        if not isinstance(trie, ProofDir):
            raise ProofError("malformed proof: root is not a directory")
        files: Dict[str, FileProof] = {}
        for _ in range(reader.count(_MIN_FILE_BYTES)):
            path = reader.short_text()
            files[path] = FileProof({
                (reader.u16(), reader.u64()): reader.digest()
                for _ in range(reader.count(_SIBLING_BYTES))
            })
        reader.expect_end()
        return cls(trie=trie, files=files)

    def byte_size(self) -> int:
        """Size of the encoded proof — the paper's VO-size metric."""
        return len(self.encode())


@dataclass
class WriteProof:
    """Maintenance proof ``pi_w``: read proof + old digests of written pages."""

    ads: AdsProof
    old_leaves: Dict[str, Dict[int, Digest]] = field(default_factory=dict)

    def byte_size(self) -> int:
        size = self.ads.byte_size()
        for pages in self.old_leaves.values():
            size += len(pages) * (8 + DIGEST_SIZE)
        return size


_TAG_DIR = 0
_TAG_FILE = 1
_TAG_OPAQUE = 2

#: Smallest encoding of one counted element; a count the remaining bytes
#: could not hold even at these sizes is refused before the first read.
_MIN_CHILD_BYTES = 2 + 1 + 2 + 4  # name length, tag, an empty directory
_MIN_FILE_BYTES = 2 + 4  # path length, sibling count
_SIBLING_BYTES = 2 + 8 + DIGEST_SIZE  # level, index, digest

#: Far deeper than any real path, low enough that hostile nesting
#: cannot exhaust the Python stack.
_MAX_TRIE_DEPTH = 256


def _encode_trie(writer: Writer, node: TrieProofNode) -> None:
    if isinstance(node, ProofFile):
        writer.u8(_TAG_FILE).short_text(node.segment).digest(node.tree_root)
        writer.u64(node.size).u64(node.page_count)
        return
    writer.u8(_TAG_DIR).short_text(node.segment).u32(len(node.children))
    for name, child in node.children:
        writer.short_text(name)
        if isinstance(child, (ProofDir, ProofFile)):
            _encode_trie(writer, child)
        else:
            writer.u8(_TAG_OPAQUE).digest(child)


def _decode_trie(
    reader: Reader, depth: int
) -> Union[TrieProofNode, Digest]:
    if depth > _MAX_TRIE_DEPTH:
        raise ProofError("proof trie nesting exceeds the depth bound")
    tag = reader.u8()
    if tag == _TAG_OPAQUE:
        return reader.digest()
    if tag == _TAG_FILE:
        return ProofFile(
            reader.short_text(), reader.digest(), reader.u64(), reader.u64()
        )
    if tag == _TAG_DIR:
        segment = reader.short_text()
        return ProofDir(segment, [
            (reader.short_text(), _decode_trie(reader, depth + 1))
            for _ in range(reader.count(_MIN_CHILD_BYTES))
        ])
    raise ProofError(f"unknown proof tag {tag}")
