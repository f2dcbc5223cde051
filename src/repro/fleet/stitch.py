"""Merging per-shard consolidated VOs into one client-verifiable proof.

Every shard pins the same certified root (the shard ADS stores the full
digest skeleton — see :mod:`repro.fleet.shard`), so the per-shard
:class:`~repro.merkle.proof.AdsProof` objects a fleet session collects
are *views of one tree*: identical everywhere they overlap, expanded
along different paths.  Stitching is therefore a structural union —
expanded nodes win over opaque digests, sibling maps merge — and the
result is indistinguishable from a proof a single ISP would have built,
which is exactly why the unmodified client verifier accepts it.

The honest router stitches with ``verify=True``: any overlap
disagreement (two shards claiming different content for the same
position) is a fleet-integrity failure and raises a typed
:class:`~repro.errors.FleetError` — a *liveness* check that catches a
corrupt or misconfigured shard early.  It is not a trust anchor: the
adversarial test suite stitches with ``verify=False`` to model a
colluding router that forwards inconsistent shard output, and the
client's certificate check still rejects the result.  Soundness lives
in the client, full stop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple, Union

from repro.crypto.hashing import Digest
from repro.errors import FleetError
from repro.merkle.page_tree import Position
from repro.merkle.proof import AdsProof, FileProof, ProofDir, ProofFile

TrieChild = Union[ProofDir, ProofFile, Digest]


def stitch_proofs(
    proofs: Iterable[AdsProof], verify: bool = True
) -> AdsProof:
    """Union a sequence of same-root proofs into one.

    With ``verify`` (the honest router), overlapping positions must
    agree — an expanded node must hash to the opaque digest it
    replaces, and twice-expanded nodes must be identical — else
    :class:`FleetError`.  Without it, the first proof's content wins on
    conflict (the collusive-router mode used by adversarial tests).
    """
    items = list(proofs)
    if not items:
        raise FleetError("no per-shard proofs to stitch")
    trie: TrieChild = items[0].trie
    files: Dict[str, FileProof] = {
        path: FileProof(dict(proof.siblings))
        for path, proof in items[0].files.items()
    }
    for other in items[1:]:
        trie = _merge_node(trie, other.trie, verify)
        for path, proof in other.files.items():
            _merge_file(files, path, proof, verify)
    if not isinstance(trie, ProofDir):
        raise FleetError("stitched proof root is not a directory")
    return AdsProof(trie=trie, files=files)


def _conflict(message: str) -> "FleetError":
    return FleetError(f"per-shard proofs disagree: {message}")


def _merge_node(a: TrieChild, b: TrieChild, verify: bool) -> TrieChild:
    a_expanded = isinstance(a, (ProofDir, ProofFile))
    b_expanded = isinstance(b, (ProofDir, ProofFile))
    if not a_expanded and not b_expanded:
        if verify and a != b:
            raise _conflict("opaque digest mismatch")
        return a
    if not a_expanded:
        if verify and b.digest() != a:
            raise _conflict("expanded node does not hash to its digest")
        return b
    if not b_expanded:
        if verify and a.digest() != b:
            raise _conflict("expanded node does not hash to its digest")
        return a
    if isinstance(a, ProofFile) or isinstance(b, ProofFile):
        if type(a) is not type(b):
            if verify:
                raise _conflict("file expanded as directory elsewhere")
            return a
        if verify and (
            a.segment != b.segment
            or a.tree_root != b.tree_root
            or a.size != b.size
            or a.page_count != b.page_count
        ):
            raise _conflict(f"file metadata mismatch for {a.segment!r}")
        return a
    # Both directories.  Same root => same underlying DirNode => the
    # child name sequences match exactly; anything else is a conflict.
    if a.segment != b.segment:
        if verify:
            raise _conflict(
                f"directory segment {a.segment!r} != {b.segment!r}"
            )
        return a
    a_names = [name for name, _ in a.children]
    b_names = [name for name, _ in b.children]
    if a_names != b_names:
        if verify:
            raise _conflict(
                f"directory {a.segment!r} child sets differ"
            )
        return a
    children: List[Tuple[str, TrieChild]] = [
        (name, _merge_node(a_child, b_child, verify))
        for (name, a_child), (_, b_child)
        in zip(a.children, b.children)
    ]
    return ProofDir(a.segment, children)


def _merge_file(
    files: Dict[str, FileProof],
    path: str,
    proof: FileProof,
    verify: bool,
) -> None:
    existing = files.get(path)
    if existing is None:
        files[path] = FileProof(dict(proof.siblings))
        return
    merged: Dict[Position, Digest] = existing.siblings
    for position, digest in proof.siblings.items():
        held = merged.get(position)
        if held is None:
            merged[position] = digest
        elif verify and held != digest:
            raise _conflict(
                f"sibling digest mismatch at {position} of {path}"
            )


__all__ = ["stitch_proofs"]
