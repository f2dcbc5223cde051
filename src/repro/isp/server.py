"""The ISP server.

Maintains a replica of the authenticated database (synchronized
deterministically from the V2FS CI's write batches, per the paper's
footnote on non-deterministic engines) and serves query clients:

* ``get_certificate`` — the latest ``C_V2FS`` (step 7);
* ``open_session`` — pins a query to the certificate's snapshot root, so
  concurrent updates never break an in-flight query (the ADS keeps the
  previous version readable — the paper's MVCC);
* ``get_file_meta`` / ``get_page`` — metadata and page service (steps
  8-9);
* ``validate_path`` — the ISP side of Algorithm 5's freshness check;
* ``finalize_session`` — the consolidated VO (step 10).

The ISP is *untrusted*: nothing here is assumed correct by the client,
which verifies every response against the certificate.  Subclasses in the
test suite override methods to model malicious behaviour.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.core.certificate import V2fsCertificate
from repro.crypto.hashing import Digest
from repro.errors import (
    FileNotFoundInStoreError,
    NetworkError,
    ReproError,
    StorageError,
)
from repro.faults import registry as faults
from repro.isp.sessions import registry_for_isp
from repro.isp.vo import VOBuilder
from repro.merkle import page_tree
from repro.merkle.ads import V2fsAds
from repro.merkle.node_store import FileNode, NodeStore
from repro.merkle.persistent_store import PersistentNodeStore
from repro.merkle.proof import AdsProof
from repro.obs import metrics as obs

logger = logging.getLogger("repro.isp")


class IspSession:
    """Server-side state of one query: pinned root + claim accumulator.

    A session also remembers what it has already resolved under its
    root — ``path -> FileNode`` and ``(path, page_id) -> page bytes`` —
    so a repeated request costs a dict probe instead of a trie walk and
    a page-tree descent.  Content under a pinned root cannot change, so
    the memo is never stale; it dies with the session, and a lookup
    that raises memoises nothing.
    """

    def __init__(self, session_id: int, ads: V2fsAds, root: Digest,
                 certificate: V2fsCertificate) -> None:
        self.session_id = session_id
        self.root = root
        self.certificate = certificate
        self.vo = VOBuilder(ads, root)
        self.files: Dict[str, FileNode] = {}
        self.pages: Dict[Tuple[str, int], bytes] = {}

    def file_node(self, ads: V2fsAds, path: str) -> FileNode:
        node = self.files.get(path)
        if node is None:
            node = self.files[path] = ads.file_node(self.root, path)
        return node

    def page(self, ads: V2fsAds, path: str, page_id: int) -> bytes:
        """The page's bytes; its VO claim is recorded when first served."""
        key = (path, page_id)
        page = self.pages.get(key)
        if page is None:
            page = self.pages[key] = ads.get_page(
                self.root, path, page_id, self.file_node(ads, path))
            self.vo.add_page(path, page_id)
        return page


#: validate_path responses: a confirmed-fresh node, or the updated page.
FreshMatch = Tuple[str, int, int, Digest]   # ("fresh", level, index, digest)
PageReply = Tuple[str, bytes]               # ("page", data)


class IspServer:
    """The indexing service provider."""

    def __init__(self, store: Optional[NodeStore] = None) -> None:
        #: ``store`` backs the ADS (default: in memory); a durable ISP
        #: passes a ``PersistentNodeStore``.
        self.ads = V2fsAds(store)
        self.root = self.ads.root
        self.certificate: Optional[V2fsCertificate] = None
        # The session table (lock discipline, prune sweep, and the
        # open/finalize metrics) lives in a SessionRegistry shared with
        # the fleet router.  See DESIGN.md "Concurrency model".
        self.sessions = registry_for_isp()
        self._previous_root: Optional[Digest] = None

    @classmethod
    def reopen(cls, store_path: str,
               certificate: V2fsCertificate) -> "IspServer":
        """Recover a durable ISP after a restart or a crash.

        Reopens the on-disk store at ``store_path`` (its scan truncates
        a torn tail) and serves ``certificate``, the last one the ISP
        published.  ``sync_update`` syncs the store before it publishes,
        so every node under that certificate's root is on disk.
        """
        isp = cls(PersistentNodeStore(store_path))
        isp.ads.root = isp.root = certificate.ads_root
        isp.certificate = certificate
        return isp

    @property
    def _sessions(self) -> Dict[int, "IspSession"]:
        """Raw session table (kept as a seam for adversarial subclasses
        in the test suite; production code goes through ``sessions``)."""
        return self.sessions.table  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Synchronization from the CI (step 3 / footnote 1)
    # ------------------------------------------------------------------

    def sync_update(
        self,
        writes: Dict[str, Dict[int, bytes]],
        new_sizes: Dict[str, int],
        certificate: V2fsCertificate,
    ) -> None:
        """Apply the CI's write batch and adopt the new certificate.

        Transactional: *stage → verify → sync → publish → prune*.  The
        staged nodes are content-addressed, so a failure before the
        publish point leaves only unreferenced garbage and the served
        root/certificate untouched — the caller may simply retry the
        same batch.  The node store is synced *before* the root becomes
        visible (write-ahead ordering): a crash right after publish must
        never expose a root whose nodes did not reach disk.

        Failpoints: ``isp.sync_update.pre`` (before staging),
        ``isp.sync_update.pre_publish`` (staged and verified, not yet
        durable or visible).
        """
        if faults.ACTIVE:
            faults.fire("isp.sync_update.pre", version=certificate.version)
        if writes:
            new_root = self._apply_writes(writes, new_sizes)
        else:
            new_root = self.root
        if new_root != certificate.ads_root:
            raise StorageError(
                "synchronized update does not match the certified root"
            )
        if faults.ACTIVE:
            faults.fire(
                "isp.sync_update.pre_publish", version=certificate.version
            )
        self.ads.store.sync()
        # Publish point — plain attribute writes, nothing fallible left.
        self._previous_root = self.root
        self.root = new_root
        self.certificate = certificate
        if obs.ACTIVE:
            obs.inc("isp.sync_update")
            obs.event("isp.sync_update", version=certificate.version,
                      files=len(writes))
        # Old pages stay readable for in-flight sessions on the previous
        # root; everything older is pruned (the paper's snapshot cleanup).
        # Best-effort: the update is already published, so a pruning
        # failure only retains superseded nodes.
        live = [self.root]
        if self._previous_root is not None:
            live.append(self._previous_root)
        live.extend(self.sessions.live_roots())
        try:
            self.ads.prune(live)
        except (StorageError, OSError):
            # Only the expected operational failures are absorbed; a
            # VerificationError (or anything unforeseen) propagates.
            logger.exception(
                "post-publish prune failed; superseded nodes retained"
            )

    def _apply_writes(
        self,
        writes: Mapping[str, Mapping[int, bytes]],
        new_sizes: Mapping[str, int],
    ) -> Digest:
        """Fold one write batch into the ADS (overridden by fleet shards
        to store page data for owned paths only)."""
        return self.ads.apply_writes(self.root, writes, new_sizes)

    # ------------------------------------------------------------------
    # Client-facing service
    # ------------------------------------------------------------------

    # repro: taint-source
    def get_certificate(self) -> V2fsCertificate:
        if self.certificate is None:
            raise NetworkError("ISP has no certificate yet")
        return self.certificate

    def open_session(self, expected_version: Optional[int] = None) -> int:
        """Open a query session pinned to the current snapshot root.

        ``expected_version`` lets a client demand the certificate version
        it just validated: if an update landed in between (a real race
        once the ISP serves concurrent clients over RPC), the mismatch is
        reported *before* the session pins a root the client cannot
        verify against, and the client refetches the certificate instead
        of failing the final VO check.
        """
        certificate = self.get_certificate()
        if (
            expected_version is not None
            and certificate.version != expected_version
        ):
            raise NetworkError(
                f"certificate superseded (now version "
                f"{certificate.version}, client validated "
                f"{expected_version}); refetch and retry"
            )
        session = IspSession(
            self.sessions.next_id(), self.ads, self.root, certificate
        )
        self.sessions.insert(session)
        return session.session_id

    def _session(self, session_id: int) -> IspSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise NetworkError(f"unknown session {session_id}") from None

    # repro: taint-source
    def get_file_meta(
        self, session_id: int, path: str
    ) -> Tuple[bool, int, int]:
        """Return (exists, size, page_count) under the session snapshot."""
        return self._get_file_meta(self.ads, session_id, path)

    # The three ``_op(ads, session_id, ...)`` seams below keep their
    # names and argument positions: benchmarks/e2e/tracing.py wraps them.
    def _get_file_meta(
        self, ads: V2fsAds, session_id: int, path: str
    ) -> Tuple[bool, int, int]:
        session = self._session(session_id)
        if obs.ACTIVE:
            obs.inc("isp.get_file_meta")
        try:
            node = session.file_node(ads, path)
        except FileNotFoundInStoreError:
            return False, 0, 0
        session.vo.add_file(path)
        return True, node.size, node.page_count

    # repro: taint-source
    def get_page(self, session_id: int, path: str, page_id: int) -> bytes:
        return self._get_page(self.ads, session_id, path, page_id)

    def _get_page(
        self, ads: V2fsAds, session_id: int, path: str, page_id: int
    ) -> bytes:
        session = self._session(session_id)
        if obs.ACTIVE:
            obs.inc("isp.get_page")
        return session.page(ads, path, page_id)

    # repro: taint-source
    def validate_path(
        self,
        session_id: int,
        path: str,
        page_id: int,
        digs_path: List[Tuple[int, int, Digest]],
    ) -> Union[FreshMatch, PageReply]:
        """Algorithm 5, ISP side.

        ``digs_path`` lists (level, index, digest) top-down for the
        requested page's cached ancestors.  The first digest matching the
        current ADS confirms freshness of its whole subtree; otherwise the
        current page is returned.
        """
        return self._validate_path(
            self.ads, session_id, path, page_id, digs_path
        )

    def _validate_path(
        self,
        ads: V2fsAds,
        session_id: int,
        path: str,
        page_id: int,
        digs_path: List[Tuple[int, int, Digest]],
    ) -> Union[FreshMatch, PageReply]:
        session = self._session(session_id)
        node = session.file_node(ads, path)
        height = page_tree.height_for(node.page_count)
        for level, index, digest in digs_path:
            if level > height:
                continue
            current = page_tree.node_digest(
                ads.store, node.tree_root, node.page_count,
                level, index,
            )
            if current == digest:
                session.vo.add_node(path, level, index)
                if obs.ACTIVE:
                    obs.inc("isp.validate_path.fresh")
                return ("fresh", level, index, digest)
        page = session.page(ads, path, page_id)
        if obs.ACTIVE:
            obs.inc("isp.validate_path.page")
        return ("page", page)

    # repro: taint-source
    def finalize_session(self, session_id: int) -> AdsProof:
        """Build and return the consolidated VO; closes the session."""
        session = self.sessions.remove(session_id)
        if session is None:
            # E.g. a client retrying a finalize whose first reply was
            # lost in transit: the session is already closed.
            raise NetworkError(f"unknown session {session_id}")
        vo = session.vo.build()
        if obs.ACTIVE:
            obs.observe("isp.vo.bytes", vo.byte_size())
            obs.add("isp.page.resolved", len(session.pages))
        return vo

    # ------------------------------------------------------------------
    # Batched service
    # ------------------------------------------------------------------

    #: Operations :meth:`serve_batch` accepts, by the public method they
    #: name.  All are data-plane snapshot reads (plus finalize, which
    #: only *renders* reads); control-plane operations (open_session,
    #: get_certificate) never batch.
    BATCH_OPS = frozenset({
        "get_file_meta", "get_page", "validate_path", "finalize_session",
    })

    # repro: taint-source
    def serve_batch(self, items: List[Tuple[str, tuple]]) -> List[object]:
        """Serve many decoded data-plane requests in one call.

        ``items`` is a list of ``(op, args)`` pairs with ``op`` in
        :data:`BATCH_OPS` and ``args`` exactly the public method's
        arguments.  Each item *is* a call of that public method, so a
        subclass's override (an ownership guard, a test adversary) holds
        inside a batch exactly as outside it.

        Returns one result per item *in order*; an item that failed
        holds its :class:`~repro.errors.ReproError` instance instead, so
        one bad request never poisons its batchmates.
        """
        results: List[object] = []
        for op, args in items:
            try:
                if op not in self.BATCH_OPS:
                    raise NetworkError(f"unbatchable operation {op!r}")
                results.append(getattr(self, op)(*args))
            except ReproError as error:
                results.append(error)
        if obs.ACTIVE:
            obs.add("isp.batch.requests", len(items))
        return results
