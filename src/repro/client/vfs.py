"""Client-side V2FS: remote page access with deferred verification.

:class:`ClientSession` is the client half of one query (Algorithm 4, plus
Algorithm 5 and the VBF fast path depending on the query mode).  It talks
to the ISP, maintains the caches, and records every digest the engine's
computation depended on in ``digsToVerify`` — to be checked against the
consolidated VO in the finalize phase.

:class:`ClientVfs` adapts a session to the
:class:`~repro.vfs.interface.VirtualFilesystem` contract so the unmodified
database engine can run on top of it.  The main filesystem is strictly
read-only on the client; temporary files (external-sort spills) live in a
separate local filesystem per Appendix A.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.client.caches import FileMeta, InterQueryCache, IntraQueryCache
from repro.client.state import CarriedState, QueryMode
from repro.core.certificate import V2fsCertificate
from repro.crypto.hashing import Digest, hash_bytes
from repro.errors import StorageError, VerificationError
from repro.isp.server import IspServer
from repro.merkle import page_tree
from repro.merkle.ads import V2fsAds
from repro.merkle.proof import collect_proof_files
from repro.network.transport import (
    CATEGORY_CHECK,
    CATEGORY_META,
    CATEGORY_PAGE,
    CATEGORY_VO,
    Transport,
)
from repro.obs import metrics as obs
from repro.vbf.versioned_bloom import VersionedBloomFilter
from repro.vfs.interface import PAGE_SIZE, VirtualFile, VirtualFilesystem

PageKey = Tuple[str, int]


class ClientSession:
    """Client state for one verifiable query."""

    def __init__(
        self,
        isp: IspServer,
        transport: Transport,
        certificate: V2fsCertificate,
        state: CarriedState,
    ) -> None:
        self.isp = isp
        self.transport = transport
        self.certificate = certificate
        #: What the client carries across queries: read here, filled
        #: only by :meth:`finalize` (and the eager page inserts).
        self.state = state
        self.mode = state.mode
        self.intra_cache = IntraQueryCache(state.cache_bytes)
        self.inter_cache: Optional[InterQueryCache] = state.pages
        self.vbf: Optional[VersionedBloomFilter] = state.filter_of(
            certificate)
        #: Metadata earlier sessions proved under this certificate's
        #: root (nothing outside the cached modes).
        self._proven_metas: Dict[str, FileMeta] = state.proven_metas(
            certificate.ads_root)
        # Pin the session to the certificate version validated in the
        # initialize phase; an ISP that advanced in between must say so
        # now, not fail the VO check later (matters under real RPC
        # concurrency, where updates race with session setup).  Nothing
        # below this line can fail, so an opened session always reaches
        # the caller, who closes it.
        self.session_id = isp.open_session(certificate.version)
        if self.inter_cache is not None:
            self.inter_cache.begin_query()
        # digsToVerify (Algorithm 4, line 9), split by claim kind.
        self.page_claims: Dict[PageKey, Digest] = {}
        self.node_claims: Dict[Tuple[str, int, int], Digest] = {}
        self.used_metas: Dict[str, FileMeta] = {}
        #: Paths answered from ``_proven_metas`` (tally, reported once
        #: by :meth:`finalize`): nothing of theirs is left to prove, so
        #: they are not claims.
        self._proven_paths: Set[str] = set()
        #: The bytes *first served* for each page key.  Only they are
        #: hashed into ``page_claims``; every later response for the key
        #: must be those same bytes (see :meth:`_claim`).  References,
        #: not copies; the map dies with the session.
        self._served: Dict[PageKey, bytes] = {}
        #: Responses answered by ``_served`` (tally, reported once by
        #: :meth:`finalize` next to ``len(page_claims)``, the hashed ones).
        self._repeated = 0
        #: Pages inserted into the inter-query cache during this query;
        #: ``CarriedState.rollback`` removes them if the query fails.
        self.inserted: List[PageKey] = []

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------

    def file_meta(self, path: str) -> FileMeta:
        """(exists, size, page_count): what this session was told, else
        what earlier sessions proved under this root, else the ISP's
        answer — asked once per query per file, and a claim."""
        meta = self.used_metas.get(path)
        if meta is None:
            meta = self._proven_metas.get(path)
            if meta is not None:
                self._proven_paths.add(path)
                return meta
            meta = self.isp.get_file_meta(self.session_id, path)
            request_bytes = len(path.encode())
            self.transport.account(CATEGORY_META, request_bytes, 17)
            self.used_metas[path] = meta
        return meta

    # ------------------------------------------------------------------
    # Page access — the heart of Algorithms 4 and 5
    # ------------------------------------------------------------------

    def access_page(self, path: str, page_id: int) -> bytes:
        key = (path, page_id)
        if self.mode is QueryMode.BASELINE:
            return self._fetch_page(key)
        if self.mode is QueryMode.INTRA:
            cached = self.intra_cache.get(key)
            if cached is not None:
                return cached
            page = self._fetch_page(key)
            # repro: allow(verify-before-use) -- Algorithm 4 deferred
            # verification: the page is cached unverified by design and
            # finalize() verifies every claim via verify_read_proof; the
            # intra cache dies with the session, so nothing escapes.
            self.intra_cache.put(key, page)
            return page
        return self._access_with_inter_cache(key)

    def _fetch_page(self, key: PageKey) -> bytes:
        """Unconditional page request (Algorithm 4 read path)."""
        path, page_id = key
        page = self.isp.get_page(self.session_id, path, page_id)
        request_bytes = len(path.encode()) + 8
        self.transport.account(CATEGORY_PAGE, request_bytes, PAGE_SIZE)
        return self._claim(key, page)

    def _claim(self, key: PageKey, page: bytes) -> bytes:
        """Bind what the engine is about to consume to ``page_claims``.

        The first response for a key is hashed into its claim.  A later
        one is consumed only if it is byte-equal to the first — a
        stronger check than the digest equality it stands in for, at the
        price of a memcmp — so one key never has two contents in one
        session, whichever of them the VO would have vouched for.
        Returns the retained object, so equal pages share one identity.
        """
        first = self._served.get(key)
        if first is None:
            self._served[key] = page
            self.page_claims[key] = hash_bytes(page)
            return page
        if first != page:  # identity short-circuits inside bytes.__ne__
            raise VerificationError(
                f"ISP served two different contents for page "
                f"{key[1]} of {key[0]} in one session"
            )
        self._repeated += 1
        return first

    def _access_with_inter_cache(self, key: PageKey) -> bytes:
        cache = self.inter_cache
        assert cache is not None
        path, page_id = key
        entry = cache.get(key)
        if entry is None:
            page = self._fetch_page(key)
            # repro: allow(verify-before-use) -- Algorithm 4 deferred
            # verification: unverified pages enter the inter-query cache
            # and are verified in bulk by finalize(); CarriedState.rollback
            # removes them if the query fails.
            cache.insert(key, page, self.certificate.version)
            self.inserted.append(key)
            return page
        if cache.is_fresh(key):
            return entry.page
        # VBF fast path (Section V-B): zero-network freshness proof.
        if self.vbf is not None:
            if entry.slots is None:
                entry.slots = self.vbf.positions(path, page_id)
            if self.vbf.fresh_since(entry.slots, entry.version):
                cache.mark_fresh_leaf(key)
                if obs.ACTIVE:
                    obs.inc("vbf.fast_path.hit")
                return entry.page
            if obs.ACTIVE:
                obs.inc("vbf.fast_path.miss")
        # Merkle freshness check (Algorithm 5).
        _, _, page_count = self.file_meta(path)
        height = page_tree.height_for(page_count)
        digs_path = cache.digs_path(key, height, page_count)
        request_bytes = len(path.encode()) + 8 + 44 * len(digs_path)
        response = self.isp.validate_path(
            self.session_id, path, page_id, digs_path
        )
        if response[0] == "fresh":
            _, level, index, digest = response
            self.transport.account(CATEGORY_CHECK, request_bytes, 44)
            expected = cache.known_digest(path, level, index, page_count)
            if expected != digest:
                raise VerificationError(
                    "ISP confirmed freshness of a digest we did not send"
                )
            cache.mark_fresh_node(path, level, index)
            self.node_claims[(path, level, index)] = digest
            return entry.page
        _, page = response
        self.transport.account(CATEGORY_CHECK, request_bytes, PAGE_SIZE)
        page = self._claim(key, page)
        # repro: allow(verify-before-use) -- Algorithm 4 deferred
        # verification: the stale-path replacement page is recorded in
        # page_claims and verified by finalize(); CarriedState.rollback
        # evicts the entry if the query fails.
        cache.update(key, page, self.certificate.version)
        self.inserted.append(key)
        return page

    # ------------------------------------------------------------------
    # Finalize (Algorithm 4, lines 19-21)
    # ------------------------------------------------------------------

    def finalize(self) -> int:
        """Fetch and verify the consolidated VO; returns its byte size.

        Only a VO that verified fills what the client carries
        (``CarriedState.learn``); on failure
        :class:`~repro.errors.VerificationError` propagates and the
        caller rolls back.
        """
        vo = self.isp.finalize_session(self.session_id)
        vo_bytes = vo.byte_size()
        self.transport.account(CATEGORY_VO, 8, vo_bytes)
        if obs.ACTIVE:
            obs.add("client.page.hashed", len(self.page_claims))
            obs.add("client.page.repeated", self._repeated)
            obs.add("client.meta.proven", len(self._proven_paths))
        established = V2fsAds.verify_read_proof(
            vo, self.certificate.ads_root,
            self.page_claims, self.node_claims,
        )
        self._verify_metas(vo)
        self.state.learn(self.certificate, established, self.used_metas)
        return vo_bytes

    def _verify_metas(self, vo) -> None:
        """Every file metadata the engine used must match the skeleton."""
        proof_files = collect_proof_files(vo.trie)
        for path, (exists, size, page_count) in self.used_metas.items():
            if not exists:
                raise VerificationError(
                    f"cannot authenticate non-existence of {path}"
                )
            meta = proof_files.get(path)
            if meta is None:
                raise VerificationError(
                    f"VO does not cover metadata of {path}"
                )
            if meta.size != size or meta.page_count != page_count:
                raise VerificationError(
                    f"ISP reported stale metadata for {path}"
                )


class ClientVfs(VirtualFilesystem):
    """Filesystem view over a :class:`ClientSession` with local temps.

    Remote (ISP-backed) files are strictly read-only.  Files *created*
    through this filesystem become **local temporary files** per the
    paper's Appendix A (Algorithm 6): the query engine's external-sort
    spills are written locally, read back without verification (the
    engine computed them itself), and removed when the query finishes.
    """

    # Every remote page is verified against the certified Merkle root,
    # so the pager's local torn-write checksum is redundant here — and
    # would misreport ISP tampering as a local storage fault.
    authenticates_pages = True

    def __init__(self, session: ClientSession) -> None:
        self.session = session
        # Local temp area (Algorithm 6); torn down by drop_temp_files().
        from repro.vfs.local import LocalFilesystem

        self._temp = LocalFilesystem()

    def open(self, path: str, create: bool = False):
        if self._temp.exists(path):
            return self._temp.open(path)
        if create:
            # Algorithm 6, write path: the target does not exist at the
            # ISP's storage — create a corresponding local temp file.
            return self._temp.open(path, create=True)
        exists, size, _ = self.session.file_meta(path)
        if not exists:
            raise StorageError(f"{path} does not exist at the ISP")
        return ClientFile(self.session, path, size)

    def exists(self, path: str) -> bool:
        if self._temp.exists(path):
            return True
        exists, _, _ = self.session.file_meta(path)
        return exists

    def remove(self, path: str) -> None:
        if self._temp.exists(path):
            self._temp.remove(path)
            return
        raise StorageError("remote files are read-only on the client")

    def list_files(self) -> List[str]:
        return self._temp.list_files()

    def drop_temp_files(self) -> None:
        """Algorithm 6 finalize: remove every local temporary file."""
        for path in self._temp.list_files():
            self._temp.remove(path)


class ClientFile(VirtualFile):
    """Read-only remote file handle.

    ``size`` is the one the session recorded in ``used_metas`` when
    the file was opened; the session fixes it for its whole life (and
    ``finalize`` verifies it), so the handle does not ask again.
    """

    def __init__(self, session: ClientSession, path: str, size: int) -> None:
        super().__init__(path)
        self._session = session
        self._size = size

    def size(self) -> int:
        self._check_open()
        return self._size

    def read(self, count: int) -> bytes:
        self._check_open()
        available = max(0, self._size - self.offset)
        count = min(count, available)
        out = bytearray()
        while count > 0:
            page_id = self.offset // PAGE_SIZE
            within = self.offset % PAGE_SIZE
            take = min(count, PAGE_SIZE - within)
            page = self._session.access_page(self.path, page_id)
            self.offset += take
            count -= take
            if (take == PAGE_SIZE == len(page) and not count and not out
                    and isinstance(page, bytes)):
                # The read is one whole aligned page (every pager read):
                # hand over the object the session returned.  Besides
                # the copies, equal pages then reach the B+Tree node
                # memo as one object, whose hash is computed once.
                return page
            out += page[within:within + take]
        return bytes(out)

    def write(self, data: bytes) -> int:
        raise StorageError("the client filesystem is read-only")
