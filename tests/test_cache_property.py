"""Property test: the indexed InterQueryCache vs a brute-force oracle.

The production cache keeps per-path side indexes (cached page ids,
learned-node levels, per-query fresh levels) so that marking a subtree
fresh, confirming a query's fresh marks once its VO has verified,
invalidating ancestors, and eviction never scan the whole cache,
and so the freshness probe height comes from the file's actual tree
instead of a hardcoded 48-level range.  The oracle here is the old
semantics, implemented with the full scans it replaced: random operation
sequences must leave both structures observably identical.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.caches import InterQueryCache
from repro.crypto.hashing import hash_bytes, hash_pair
from repro.merkle.page_tree import EMPTY
from repro.vfs.interface import PAGE_SIZE

PATHS = ("/a.tbl", "/b.idx")
MAX_PAGES = 16          # page ids 0..15, tree height 4
HEIGHT = 4
CAPACITY_PAGES = 6      # small enough that eviction actually happens


class OracleCache:
    """The pre-index semantics: O(cache) scans, fixed 48-level probe."""

    def __init__(self, capacity_bytes):
        self.capacity_bytes = capacity_bytes
        self.pages = OrderedDict()   # key -> [page, digest, version]
        self.nodes = {}              # (path, level, index) -> digest
        self.fresh = set()

    def begin_query(self):
        self.fresh.clear()

    def get(self, key):
        entry = self.pages.get(key)
        if entry is not None:
            self.pages.move_to_end(key)
        return entry

    def insert(self, key, page, version):
        self.pages[key] = [page, hash_bytes(page), version]
        self.pages.move_to_end(key)
        self.mark_fresh_leaf(key)
        while len(self.pages) * PAGE_SIZE > self.capacity_bytes:
            victim, _ = self.pages.popitem(last=False)
            self.invalidate_ancestors(victim)

    def update(self, key, page, version):
        self.invalidate_ancestors(key)
        self.insert(key, page, version)

    def discard(self, key):
        if self.pages.pop(key, None) is not None:
            self.invalidate_ancestors(key)

    def mark_fresh_leaf(self, key):
        path, page_id = key
        self.fresh.add((path, 0, page_id))

    def mark_fresh_node(self, path, level, index):
        self.fresh.add((path, level, index))

    def confirm_fresh(self, version):
        """The post-proof step: every cached page a fresh mark covers
        was fresh at ``version``."""
        for key, entry in self.pages.items():        # the full scan
            if self.is_fresh(key):
                entry[2] = max(entry[2], version)

    def is_fresh(self, key, max_height=48):
        path, page_id = key
        return any(
            (path, level, page_id >> level) in self.fresh
            for level in range(max_height + 1)
        )

    def invalidate_ancestors(self, key):
        path, page_id = key
        for node in [n for n in self.nodes                 # the full scan
                     if n[0] == path and n[1] >= 1
                     and n[2] == page_id >> n[1]]:
            del self.nodes[node]

    def learn_node(self, path, level, index, digest):
        if level > 0:
            self.nodes[(path, level, index)] = digest

    def known_digest(self, path, level, index, page_count):
        if (index << level) >= page_count:
            return EMPTY[level]
        if level == 0:
            entry = self.pages.get((path, index))
            return entry[1] if entry is not None else None
        stored = self.nodes.get((path, level, index))
        if stored is not None:
            return stored
        left = self.known_digest(path, level - 1, index * 2, page_count)
        if left is None:
            return None
        right = self.known_digest(path, level - 1, index * 2 + 1,
                                  page_count)
        if right is None:
            return None
        digest = hash_pair(left, right)
        self.learn_node(path, level, index, digest)
        return digest

    def digs_path(self, key, height, page_count):
        path, page_id = key
        entries = []
        for level in range(height, -1, -1):
            digest = self.known_digest(
                path, level, page_id >> level, page_count
            )
            if digest is not None:
                entries.append((level, page_id >> level, digest))
        return entries


def _keys():
    return st.tuples(st.sampled_from(PATHS),
                     st.integers(0, MAX_PAGES - 1))


def _operations():
    version = st.integers(1, 12)
    page = st.binary(min_size=1, max_size=8)
    node = st.integers(1, HEIGHT).flatmap(
        lambda level: st.tuples(
            st.sampled_from(PATHS), st.just(level),
            st.integers(0, (MAX_PAGES >> level) - 1),
        )
    )
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), _keys(), page, version),
            st.tuples(st.just("update"), _keys(), page, version),
            st.tuples(st.just("get"), _keys()),
            st.tuples(st.just("discard"), _keys()),
            st.tuples(st.just("fresh_leaf"), _keys()),
            st.tuples(st.just("fresh_node"), node),
            st.tuples(st.just("confirm_fresh"), version),
            st.tuples(st.just("learn"), node, page),
            st.tuples(st.just("begin_query"),),
        ),
        min_size=1, max_size=60,
    )


def _apply(target, op):
    kind = op[0]
    if kind == "insert":
        target.insert(op[1], op[2], op[3])
    elif kind == "update":
        target.update(op[1], op[2], op[3])
    elif kind == "get":
        target.get(op[1])
    elif kind == "discard":
        target.discard(op[1])
    elif kind == "fresh_leaf":
        target.mark_fresh_leaf(op[1])
    elif kind == "fresh_node":
        path, level, index = op[1]
        target.mark_fresh_node(path, level, index)
    elif kind == "confirm_fresh":
        target.confirm_fresh(op[1])
    elif kind == "learn":
        path, level, index = op[1]
        target.learn_node(path, level, index, hash_bytes(op[2]))
    else:
        target.begin_query()


def _assert_equivalent(cache, oracle):
    assert list(cache._pages) == list(oracle.pages)  # contents + LRU order
    for key in list(oracle.pages):
        real, expected = cache._pages[key], oracle.pages[key]
        assert real.page == expected[0]
        assert real.version == expected[2]
    for path in PATHS:
        for page_id in range(MAX_PAGES):
            key = (path, page_id)
            assert cache.is_fresh(key) == oracle.is_fresh(key), key
    for path in PATHS:
        for level in range(HEIGHT + 1):
            for index in range(MAX_PAGES >> level):
                assert cache.known_digest(
                    path, level, index, MAX_PAGES
                ) == oracle.known_digest(path, level, index, MAX_PAGES)
    for path in PATHS:
        for page_id in range(MAX_PAGES):
            key = (path, page_id)
            assert cache.digs_path(key, HEIGHT, MAX_PAGES) == \
                oracle.digs_path(key, HEIGHT, MAX_PAGES)


@settings(max_examples=120, deadline=None)
@given(_operations())
def test_indexed_cache_matches_bruteforce_oracle(operations):
    capacity = CAPACITY_PAGES * PAGE_SIZE
    cache = InterQueryCache(capacity_bytes=capacity)
    oracle = OracleCache(capacity_bytes=capacity)
    for op in operations:
        _apply(cache, op)
        _apply(oracle, op)
    _assert_equivalent(cache, oracle)


@settings(max_examples=40, deadline=None)
@given(_operations())
def test_equivalence_holds_at_every_step(operations):
    capacity = CAPACITY_PAGES * PAGE_SIZE
    cache = InterQueryCache(capacity_bytes=capacity)
    oracle = OracleCache(capacity_bytes=capacity)
    for op in operations:
        _apply(cache, op)
        _apply(oracle, op)
        assert list(cache._pages) == list(oracle.pages)
