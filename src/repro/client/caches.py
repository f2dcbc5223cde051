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
(its slot positions in the filter).  A query's freshness marks raise
``V_n`` only once its VO has verified (:meth:`InterQueryCache.confirm_fresh`).

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
from typing import Dict, List, Optional, Set, Tuple

from repro.crypto.hashing import Digest, hash_bytes, hash_pair
from repro.merkle.page_tree import EMPTY
from repro.obs import metrics as obs
from repro.vfs.interface import PAGE_SIZE

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

    def insert(self, key: PageKey, page: bytes, version: int) -> None:
        """Insert a freshly fetched page (fresh by definition)."""
        self._pages[key] = CachedPage(page, version)
        self._pages.move_to_end(key)
        path, page_id = key
        self._page_ids.setdefault(path, set()).add(page_id)
        self.mark_fresh_leaf(key)
        if obs.ACTIVE:
            obs.inc("cache.inter.insert")
        self._evict_if_needed()

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

    def mark_fresh_leaf(self, key: PageKey) -> None:
        path, page_id = key
        self._fresh.add((path, 0, page_id))
        self._fresh_top.setdefault(path, 0)

    def mark_fresh_node(self, path: str, level: int, index: int) -> None:
        """An ancestor matched at the ISP: its whole subtree is fresh for
        the rest of this query.  No ``V_n`` moves until
        :meth:`confirm_fresh`: the match is only the ISP's word."""
        self._fresh.add((path, level, index))
        if level > self._fresh_top.get(path, -1):
            self._fresh_top[path] = level
        if obs.ACTIVE:
            obs.inc("cache.inter.fresh_node")

    def confirm_fresh(self, version: int) -> None:
        """This query's VO has verified: every cached page its fresh
        marks cover was fresh at ``version``."""
        for path, level, index in self._fresh:
            self._raise_version(path, level, index, version)

    def _raise_version(self, path: str, level: int, index: int,
                       version: int) -> None:
        """Raise ``V_n`` of every cached page under one node.  Only a
        mark a verified VO vouched for may get here: the node's
        coordinates must not come from an unproven ISP reply."""
        ids = (index,) if level == 0 else self._page_ids.get(path, ())
        for page_id in ids:
            entry = self._pages.get((path, page_id))
            if entry is not None and page_id >> level == index:
                entry.version = max(entry.version, version)

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
