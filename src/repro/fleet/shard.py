"""A shard primary: one partition's pages, the whole tree's digests.

The trick that makes sharding invisible to the verifier: a shard
applies every ``sync_update`` batch over the *full* path space, but for
pages outside its partition it folds in page **digests** only
(:meth:`~repro.merkle.ads.V2fsAds.apply_writes` with an ``own``
predicate).  Digests commit to content, so the shard's root after every
batch is byte-identical to the fleet-wide certified root — the shard
can pin sessions to it, build consolidated VOs against it, and answer
freshness checks for any path, while storing page bytes for roughly
``1/N`` of the data.

Ownership is decided per ``(path, page_id)`` via
:func:`~repro.fleet.partition.page_key`: under the hash strategy a hot
table file spreads its pages across the whole fleet; under the range
strategy a file's pages stay together because page keys sort right
after their path.

Reads of pages the shard does not own fail with a typed
:class:`~repro.errors.FleetError` (a routing mistake, surfaced
immediately), never wrong data.  The lifecycle appends each batch the
shard applied to its replication log, and the shard's replicas replay
it through the same ``sync_update``.
"""

from __future__ import annotations

from typing import Mapping

from repro.crypto.hashing import Digest
from repro.errors import FleetError
from repro.fleet.partition import Partitioner, page_key
from repro.isp.server import IspServer


class ShardIsp(IspServer):
    """An :class:`IspServer` owning one partition of the path space."""

    def __init__(self, shard_id: int, partitioner: Partitioner) -> None:
        super().__init__()
        self.shard_id = shard_id
        self.partitioner = partitioner

    def owns(self, path: str, page_id: int) -> bool:
        return self.partitioner(page_key(path, page_id)) == self.shard_id

    def _apply_writes(
        self,
        writes: Mapping[str, Mapping[int, bytes]],
        new_sizes: Mapping[str, int],
    ) -> Digest:
        return self.ads.apply_writes(
            self.root, writes, new_sizes, own=self.owns
        )

    # ------------------------------------------------------------------
    # Ownership guards: misroutes fail typed and fast
    # ------------------------------------------------------------------
    # ``get_file_meta``, ``validate_path`` freshness answers, and VO
    # construction only touch the digest skeleton, which every shard
    # holds in full — no guard needed there.  Page *content* service is
    # partition-local.

    def get_page(self, session_id: int, path: str, page_id: int) -> bytes:
        if not self.owns(path, page_id):
            raise FleetError(
                f"shard {self.shard_id} does not own "
                f"{path} page {page_id}"
            )
        return super().get_page(session_id, path, page_id)

    def validate_path(self, session_id, path, page_id, digs_path):
        # The fresh-ancestor answer is skeleton-only, but the fallback
        # returns page bytes; guard up front so a misrouted check never
        # half-runs.
        if not self.owns(path, page_id):
            raise FleetError(
                f"shard {self.shard_id} does not own "
                f"{path} page {page_id}"
            )
        return super().validate_path(session_id, path, page_id, digs_path)


__all__ = ["ShardIsp"]
