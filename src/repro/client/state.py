"""What a verifying client carries from one query to the next.

:class:`CarriedState` owns every entry that outlives a query.  An
entry's kind fixes when it is filled and when it is dropped (DESIGN §4d):

* *content* (node memo and row slots, catalog, compiled statements,
  decoded filter) — a pure function of its key; what was derived from
  bytes no VO has proven is dropped when the query that read them
  fails;
* *root* (inter-query pages, learned digests and ``V_n``, proven
  metadata) — filled only by :meth:`CarriedState.learn`, after the VO
  verified, except the pages a query fetches (inserted at once: Fig.
  13's in-query evictions count them) which a failed query's
  :meth:`CarriedState.rollback` removes;
* *certificate* (the signature triple last proven under ``pk_sgx``) — a
  fact about bytes, kept once ``verify`` returned True, never dropped;
  and, in the cached modes, the certificate the last query verified
  under, held while the chain heads stand still and dropped by any
  failed query.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.client.caches import FileMeta, InterQueryCache, PageKey
from repro.core.certificate import V2fsCertificate
from repro.crypto.hashing import Digest
from repro.db.btree import NodeMemo
from repro.db.engine import StatementCache
from repro.kept import Kept
from repro.obs import metrics as obs
from repro.vbf.versioned_bloom import VersionedBloomFilter


class QueryMode(enum.Enum):
    """The four configurations compared in the paper's Figures 9-16."""

    BASELINE = "baseline"
    INTRA = "intra"
    INTER = "inter"
    INTER_VBF = "inter+vbf"

    @property
    def uses_inter_cache(self) -> bool:
        return self in (QueryMode.INTER, QueryMode.INTER_VBF)


class CarriedState:
    """Everything one :class:`~repro.client.QueryClient` keeps across
    queries; two clients share nothing."""

    def __init__(self, mode: QueryMode, cache_bytes: int) -> None:
        self.mode = mode
        #: The per-query intra cache's budget (it is not carried).
        self.cache_bytes = cache_bytes
        # -- content ------------------------------------------------------
        #: Decoded B+Tree nodes (and their row slots), keyed on page bytes.
        self.nodes = NodeMemo()
        #: Catalog bytes -> the parsed catalog, for this client's engines
        #: only (they never write it).
        self.catalog: Kept = Kept()
        #: (SQL text, parsed catalog) -> the compiled SELECT, planned
        #: once and bound to each query's engine (DESIGN §4k).
        self.statements = StatementCache()
        #: Certificate -> its decoded filter (``INTER_VBF`` only).
        self.filter: Kept = Kept()
        # -- root -------------------------------------------------------
        #: Pages, learned node digests and ``V_n`` (cached modes only).
        self.pages: Optional[InterQueryCache] = (
            InterQueryCache(cache_bytes) if mode.uses_inter_cache else None
        )
        #: ADS root -> metadata of existing files proven under it.
        self.metas: Kept = Kept()
        # -- certificate --------------------------------------------------
        #: ``(pk_sgx, message, signature)`` last proven valid -> True.
        self.signature: Kept = Kept()
        #: The certificate the last query's VO verified under (cached
        #: modes only): validated again, not fetched, while every chain
        #: head equals its chain state.
        self.held: Optional[V2fsCertificate] = None

    # -- what a session reads -------------------------------------------

    def filter_of(
        self, certificate: V2fsCertificate
    ) -> Optional[VersionedBloomFilter]:
        """The validated certificate's filter, decoded once per distinct
        certificate; None outside ``INTER_VBF``."""
        if self.mode is not QueryMode.INTER_VBF:
            return None
        return self.filter.get(certificate, V2fsCertificate.vbf)

    def proven_metas(self, ads_root: Digest) -> Dict[str, FileMeta]:
        """What earlier queries proved under ``ads_root``, for reading;
        what was proven under another root is dropped.  Nothing outside
        the cached modes, where no state may outlive a query."""
        if self.pages is None:
            return {}
        return self.metas.get(ads_root, lambda root: {})

    # -- the one fill rule and the one drop rule --------------------------

    def learn(
        self,
        certificate: V2fsCertificate,
        established: Dict[str, Dict[tuple, Digest]],
        used_metas: Dict[str, FileMeta],
    ) -> None:
        """A query's VO has verified under ``certificate``: hold it, keep
        the node digests it established, raise ``V_n`` of the pages its
        fresh marks cover, and keep the metadata it matched."""
        pages = self.pages
        if pages is None:
            return
        self.held = certificate
        for path, values in established.items():
            for (level, index), digest in values.items():
                pages.learn_node(path, level, index, digest)
        pages.confirm_fresh(certificate.version)
        self.learn_metas(certificate.ads_root, used_metas)

    def learn_metas(self, ads_root: Digest,
                    metas: Dict[str, FileMeta]) -> None:
        """Keep metadata a VO under ``ads_root`` has just proven."""
        self.proven_metas(ads_root).update(metas)

    def rollback(self, inserted: List[PageKey]) -> None:
        """A query failed, for whatever reason: drop the pages it
        inserted, what was decoded from bytes no VO proved (nodes,
        catalog, and the statements planned under that catalog), the
        proven metadata (what it was told may be why it failed) and the
        held certificate (the next query fetches one)."""
        self.held = None
        self.nodes.clear()
        self.catalog.clear()
        self.statements.clear()
        self.metas.clear()
        pages = self.pages
        if pages is None:
            return
        if inserted and obs.ACTIVE:
            obs.inc("client.rollback")
        for key in inserted:
            pages.discard(key)
