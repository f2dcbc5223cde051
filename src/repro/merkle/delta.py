"""Node deltas: the unit shipped over the fleet replication log.

A shard primary applying one ``sync_update`` stores some set of *new*
content-addressed nodes (changed pages, rebuilt page-tree internals,
rewritten trie spine).  Because nodes are immutable and keyed by their
own digest, that set — plus the new root — is a complete, replayable
description of the version transition: a replica that already holds
version ``v`` reaches version ``v+1`` by inserting the nodes and
adopting the root.  No operation log, no ordering constraints within a
delta, and dedup is free (re-inserting an existing node is a no-op).

:class:`RecordingNodeStore` captures the "new nodes" set as a side
effect of the primary's normal apply; :class:`NodeDelta` is the frozen
result.  It is an in-process object: the replication log hands it to
replicas that live in the primary's process, so it has no byte encoding
(a replica in another process would need one, decoded through
:class:`repro.wire.Reader` like every other untrusted input).
Authenticity is *not* checked here: replicas serve clients that verify
everything against the certificate, so a corrupt delta yields an
unresolvable or unverifiable root, not wrong data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.crypto.hashing import Digest
from repro.merkle.node_store import Node, NodeStore


@dataclass(frozen=True)
class NodeDelta:
    """One version transition: the new nodes plus the new root."""

    version: int
    root: Digest
    nodes: Tuple[Node, ...]


class RecordingNodeStore(NodeStore):
    """A node store that remembers which nodes each batch introduced.

    ``put`` records a node only when its digest was not already present,
    so a recorded batch is exactly the *new* content of the version
    transition — shared subtrees and re-puts of identical content add
    nothing.  :meth:`take_delta` drains the recording into a
    :class:`NodeDelta` and resets it for the next batch.
    """

    def __init__(self) -> None:
        super().__init__()
        self._recorded: Dict[Digest, Node] = {}

    def put(self, node: Node) -> Digest:
        digest = node.digest()
        if digest not in self._nodes:
            self._recorded[digest] = node
        self._nodes[digest] = node
        return digest

    def take_delta(self, version: int, root: Digest) -> NodeDelta:
        """Drain the recorded nodes into the delta for ``version``."""
        nodes = tuple(self._recorded.values())
        self._recorded.clear()
        return NodeDelta(version=version, root=root, nodes=nodes)

    @classmethod
    def adopt(cls, store: NodeStore) -> "RecordingNodeStore":
        """Wrap an existing store's contents in a recording store.

        Used at replica *promotion*: a replica keeps a plain
        :class:`NodeStore` (it replays deltas, it does not produce
        them), but the moment it becomes a primary it must start
        recording each sync's new nodes for the replicas now following
        *it*.  Adoption starts with an empty recording — history was
        already shipped through the old primary's log.
        """
        adopted = cls()
        adopted._nodes = dict(store._nodes)
        return adopted


__all__ = ["NodeDelta", "RecordingNodeStore"]
