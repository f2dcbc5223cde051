"""Client-side page caches (Section V of the paper).

Two caches are provided:

* :class:`IntraQueryCache` — a per-query page map, discarded at query end;
* :class:`InterQueryCache` — the persistent structure of Algorithm 5: it
  keeps pages *and* ADS node digests learned from past verifications, so
  the client can send a Merkle path of its cached ancestors to the ISP
  and have a single matching digest confirm the freshness of a whole
  subtree.  Every node carries a fresh/unknown flag that resets at each
  query; eviction is LRU over pages, dropping the evicted page's cached
  ancestors with it.

For the VBF extension (Section V-B) each cached page also stores ``V_n``
(the certificate version at which it was last known fresh) and ``S_n``
(its slot positions in the filter).

Beside the pages and node digests the inter-query cache keeps the two
other things a past query leaves that the next can use as they are:
the file metadata finalized VOs proved under one ADS root (reused only
under that same root), and the certificate's decoded filter (reused
only for an equal certificate).

Per-``path`` side indexes (cached page ids, learned-node levels, fresh
levels) keep every operation local to the file it touches: marking a
subtree fresh walks only that file's cached pages, invalidating a page's
ancestors pops exactly its ancestor chain, and eviction does no full
scans — under the paper's heavy-traffic target the cache holds many
files, and O(cache)-per-access scans would dominate the hit path.
Hit/miss accounting flows through :mod:`repro.obs`
(``cache.intra.*`` / ``cache.inter.*`` scopes).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.crypto.hashing import Digest, hash_bytes, hash_pair
from repro.merkle.page_tree import EMPTY
from repro.obs import metrics as obs
from repro.vfs.interface import PAGE_SIZE

if TYPE_CHECKING:
    from repro.core.certificate import V2fsCertificate
    from repro.vbf.versioned_bloom import VersionedBloomFilter

PageKey = Tuple[str, int]
NodeKey = Tuple[str, int, int]
#: ``(exists, size, page_count)`` of one file.
FileMeta = Tuple[bool, int, int]


class IntraQueryCache:
    """Pages fetched during the current query (Section V-A, intra).

    Bounded by the same capacity budget as the inter-query cache with
    LRU eviction — this is what makes the paper's Figure 13(a) shape
    (Intra improves with cache size until one query's working set fits,
    then plateaus) reproducible.
    """

    def __init__(self, capacity_bytes: int = 1 << 30) -> None:
        self.capacity_bytes = capacity_bytes
        self._pages: "OrderedDict[PageKey, bytes]" = OrderedDict()

    def get(self, key: PageKey) -> Optional[bytes]:
        page = self._pages.get(key)
        if page is not None:
            self._pages.move_to_end(key)
            if obs.ACTIVE:
                obs.inc("cache.intra.hit")
        elif obs.ACTIVE:
            obs.inc("cache.intra.miss")
        return page

    # repro: taint-sink
    def put(self, key: PageKey, page: bytes) -> None:
        self._pages[key] = page
        self._pages.move_to_end(key)
        while len(self._pages) * PAGE_SIZE > self.capacity_bytes:
            self._pages.popitem(last=False)
            if obs.ACTIVE:
                obs.inc("cache.intra.evict")

    def clear(self) -> None:
        self._pages.clear()

    def __len__(self) -> int:
        return len(self._pages)


class CachedPage:
    """One inter-query cache entry."""

    __slots__ = ("page", "digest", "version", "slots")

    def __init__(self, page: bytes, version: int) -> None:
        self.page = page
        self.digest: Digest = hash_bytes(page)
        #: V_n — certificate version at which the page was last fresh.
        self.version = version
        #: S_n — VBF slot positions (computed lazily by the client).
        self.slots: Optional[Tuple[int, ...]] = None


class InterQueryCache:
    """Persistent page + ancestor-digest cache with freshness tracking."""

    def __init__(self, capacity_bytes: int = 1 << 30) -> None:
        self.capacity_bytes = capacity_bytes
        self._pages: "OrderedDict[PageKey, CachedPage]" = OrderedDict()
        #: Internal-node digests learned from past VO verifications.
        self._nodes: Dict[NodeKey, Digest] = {}
        #: Nodes confirmed fresh during the *current* query.
        self._fresh: Set[NodeKey] = set()
        # -- per-path indexes (each operation stays local to its file) --
        #: Cached page ids per file.
        self._page_ids: Dict[str, Set[int]] = {}
        #: Highest learned-node level per file (ancestor-chain bound).
        self._node_top: Dict[str, int] = {}
        #: Highest level marked fresh per file during the current query;
        #: this is the file's *actual* tree height ceiling, replacing the
        #: old probe over a hardcoded 48-level range.
        self._fresh_top: Dict[str, int] = {}
        #: Lookups not yet reported as ``cache.inter.hit`` / ``.miss``.
        #: Between begin_query() and end_query() they are tallied here
        #: (a query looks up ~250 pages; one add each at its end instead
        #: of one locked increment per lookup); outside a query every
        #: lookup is reported at once.
        self._hits = 0
        self._misses = 0
        self._in_query = False
        #: Metadata of existing files that finalized VOs proved under
        #: ``_metas_root``.  A size is a fact about the root that proved
        #: it, so it answers lookups under that root and no other.
        self._metas: Dict[str, FileMeta] = {}
        self._metas_root: Optional[Digest] = None
        #: The certificate whose filter was decoded last, and the filter.
        self._vbf_certificate: Optional["V2fsCertificate"] = None
        self._vbf: Optional["VersionedBloomFilter"] = None

    # -- query lifecycle -------------------------------------------------

    def begin_query(self) -> None:
        """Mark every cached node unknown (Algorithm 5 preamble)."""
        self._fresh.clear()
        self._fresh_top.clear()
        self._in_query = True

    def end_query(self) -> None:
        """The query is over, however it ended: report its lookups."""
        self._in_query = False
        if obs.ACTIVE:
            self._report_lookups()

    def _report_lookups(self) -> None:
        if self._hits:
            obs.add("cache.inter.hit", self._hits)
            self._hits = 0
        if self._misses:
            obs.add("cache.inter.miss", self._misses)
            self._misses = 0

    # -- what a certificate fixes ------------------------------------------

    def proven_metas(self, ads_root: Digest) -> Dict[str, FileMeta]:
        """The metadata proven under ``ads_root``, for reading; proofs
        under any other root are dropped."""
        if ads_root != self._metas_root:
            self._metas_root = ads_root
            self._metas = {}
        return self._metas

    # repro: taint-sink
    def learn_metas(self, ads_root: Digest,
                    metas: Dict[str, FileMeta]) -> None:
        """Keep metadata a VO under ``ads_root`` has just proven."""
        self.proven_metas(ads_root).update(metas)

    def forget_metas(self) -> None:
        """A query failed: what it was told may be why."""
        self._metas_root = None
        self._metas = {}

    def vbf_of(
        self, certificate: "V2fsCertificate"
    ) -> Optional["VersionedBloomFilter"]:
        """``certificate.vbf()``, decoded once per distinct certificate.

        Keyed on equality of the whole certificate, not identity: over
        RPC every fetch is a new object.  Callers only read the filter
        (``positions`` / ``fresh_since``).
        """
        if certificate != self._vbf_certificate:
            self._vbf = certificate.vbf()
            self._vbf_certificate = certificate
        return self._vbf

    # -- page access -------------------------------------------------------

    def get(self, key: PageKey) -> Optional[CachedPage]:
        entry = self._pages.get(key)
        if entry is not None:
            self._pages.move_to_end(key)
        if obs.ACTIVE:
            if entry is not None:
                self._hits += 1
            else:
                self._misses += 1
            if not self._in_query:
                self._report_lookups()
        return entry

    # repro: taint-sink
    def insert(self, key: PageKey, page: bytes, version: int) -> None:
        """Insert a freshly fetched page (fresh by definition)."""
        self._pages[key] = CachedPage(page, version)
        self._pages.move_to_end(key)
        path, page_id = key
        self._page_ids.setdefault(path, set()).add(page_id)
        self.mark_fresh_leaf(key, version)
        if obs.ACTIVE:
            obs.inc("cache.inter.insert")
        self._evict_if_needed()

    # repro: taint-sink
    def update(self, key: PageKey, page: bytes, version: int) -> None:
        """Replace a stale page; its cached ancestors are now invalid."""
        self.invalidate_ancestors(key)
        self.insert(key, page, version)
        if obs.ACTIVE:
            obs.inc("cache.inter.update")

    def discard(self, key: PageKey) -> None:
        """Drop one page (and its now-unsupported ancestors) entirely."""
        entry = self._pages.pop(key, None)
        if entry is None:
            return
        self._drop_from_index(key)
        self.invalidate_ancestors(key)

    def _drop_from_index(self, key: PageKey) -> None:
        path, page_id = key
        ids = self._page_ids.get(path)
        if ids is not None:
            ids.discard(page_id)
            if not ids:
                del self._page_ids[path]

    # -- freshness -----------------------------------------------------------

    def mark_fresh_leaf(self, key: PageKey, version: int) -> None:
        path, page_id = key
        self._fresh.add((path, 0, page_id))
        self._fresh_top.setdefault(path, 0)
        entry = self._pages.get(key)
        if entry is not None:
            entry.version = max(entry.version, version)

    def mark_fresh_node(self, path: str, level: int, index: int,
                        version: int) -> None:
        """An ancestor matched at the ISP: its whole subtree is fresh."""
        self._fresh.add((path, level, index))
        if level > self._fresh_top.get(path, -1):
            self._fresh_top[path] = level
        first = index << level
        last = ((index + 1) << level) - 1
        for page_id in self._page_ids.get(path, ()):
            if first <= page_id <= last:
                self._pages[(path, page_id)].version = max(
                    self._pages[(path, page_id)].version, version
                )
        if obs.ACTIVE:
            obs.inc("cache.inter.fresh_node")

    def is_fresh(self, key: PageKey) -> bool:
        """Is some marked-fresh ancestor (or the leaf itself) covering?

        The probe height is the highest level actually marked fresh for
        this file during the current query — a bound derived from the
        file's real tree, not a fixed maximum.
        """
        path, page_id = key
        top = self._fresh_top.get(path)
        if top is None:
            return False
        return any(
            (path, level, page_id >> level) in self._fresh
            for level in range(top + 1)
        )

    # -- ancestor digests ----------------------------------------------------

    def learn_node(self, path: str, level: int, index: int,
                   digest: Digest) -> None:
        """Remember an internal-node digest proven by a VO."""
        if level > 0:
            self._nodes[(path, level, index)] = digest
            if level > self._node_top.get(path, 0):
                self._node_top[path] = level

    def known_digest(
        self, path: str, level: int, index: int, page_count: int
    ) -> Optional[Digest]:
        """Digest at a node, from the leaf page, stored nodes, or children.

        Positions entirely beyond ``page_count`` are structural EMPTY
        padding whose digests are public constants.  Digests memoized
        while the file was shorter can go stale when the file grows into
        its padding; stale entries simply never match at the ISP and the
        check falls through to a deeper (still correct) level.
        """
        if (index << level) >= page_count:
            return EMPTY[level]
        if level == 0:
            entry = self._pages.get((path, index))
            return entry.digest if entry is not None else None
        stored = self._nodes.get((path, level, index))
        if stored is not None:
            return stored
        left = self.known_digest(path, level - 1, index * 2, page_count)
        if left is None:
            return None
        right = self.known_digest(path, level - 1, index * 2 + 1, page_count)
        if right is None:
            return None
        digest = hash_pair(left, right)
        self.learn_node(path, level, index, digest)
        return digest

    def digs_path(
        self, key: PageKey, height: int, page_count: int
    ) -> List[Tuple[int, int, Digest]]:
        """The top-down Merkle path of known ancestor digests for a page.

        This is what the client sends to the ISP for freshness
        validation (Algorithm 5, line 8).
        """
        path, page_id = key
        entries: List[Tuple[int, int, Digest]] = []
        for level in range(height, -1, -1):
            index = page_id >> level
            digest = self.known_digest(path, level, index, page_count)
            if digest is not None:
                entries.append((level, index, digest))
        return entries

    def invalidate_ancestors(self, key: PageKey) -> None:
        """Drop stored ancestor digests after a page changed.

        Pops exactly the page's ancestor chain — (level, page_id >>
        level) up to the highest level ever learned for the file —
        instead of scanning every stored node.
        """
        path, page_id = key
        top = self._node_top.get(path)
        if top is None:
            return
        for level in range(1, top + 1):
            self._nodes.pop((path, level, page_id >> level), None)

    # -- eviction ----------------------------------------------------------

    def _evict_if_needed(self) -> None:
        while len(self._pages) * PAGE_SIZE > self.capacity_bytes:
            key, _ = self._pages.popitem(last=False)
            self._drop_from_index(key)
            self.invalidate_ancestors(key)
            if obs.ACTIVE:
                obs.inc("cache.inter.evict")

    # -- stats ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pages)

    def size_bytes(self) -> int:
        return len(self._pages) * PAGE_SIZE
