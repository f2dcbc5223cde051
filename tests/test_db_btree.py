"""Unit and model-based property tests for the B+Tree."""

import random
import struct
from bisect import bisect_left, bisect_right
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tests.adversary import leaf_page
from tests.fault_machine import scaled_examples

from repro.db import btree
from repro.db.btree import BTree, NodeMemo
from repro.db.pager import Pager, seal_page
from repro.db.record import MAX_RECORD_BYTES, decode_record, encode_record
from repro.db.types import sort_key
from repro.errors import (
    SQLExecutionError,
    SQLTypeError,
    StorageError,
    TornPageError,
)
from repro.faults import registry
from repro.faults.registry import InjectedFault
from repro.vfs.local import LocalFilesystem


def fresh_tree(path="/t"):
    vfs = LocalFilesystem()
    pager = Pager(vfs, path, create=True)
    return vfs, pager, BTree(pager)


# ----------------------------------------------------------------------
# Reference: the linear scan the read path used before it searched
# memoized nodes by bisection.  Test-only; `scan` must agree with it on
# rows always, and on the pages it reads whenever the seek descends.
# ----------------------------------------------------------------------


def compare_to_bound(key, bound, pad):
    """Compare ``key`` to a possibly-shorter ``bound``.

    ``pad`` is -1 when the bound acts as a low bound (missing components
    read as minus infinity) and +1 for a high bound (plus infinity).
    """
    for key_part, bound_part in zip(key, bound):
        a, b = sort_key(key_part), sort_key(bound_part)
        if a < b:
            return -1
        if a > b:
            return 1
    if len(key) == len(bound):
        return 0
    return -pad


def reference_scan(tree, low=None, high=None,
                   low_inclusive=True, high_inclusive=True):
    """Decode every visited node in full and walk it entry by entry."""
    if tree.pager.root_pid == 0:
        return
    node = tree._load(tree.pager.root_pid)
    while isinstance(node, btree._Internal):
        pos = 0
        if low is not None:
            for i, node_key in enumerate(node.keys):
                if compare_to_bound(node_key, low, pad=-1) < 0:
                    pos = i + 1
                else:
                    break
        node = tree._load(node.children[pos])
    while True:
        for key, value in node.entries:
            if low is not None:
                cmp = compare_to_bound(key, low, pad=-1)
                if cmp < 0 or (cmp == 0 and not low_inclusive):
                    continue
            if high is not None:
                cmp = compare_to_bound(key, high, pad=1)
                if cmp > 0 or (cmp == 0 and not high_inclusive):
                    return
            yield tuple(key), value
        if node.next_leaf == 0:
            return
        node = tree._load(node.next_leaf)


class TestBounds:
    def test_exact_comparison(self):
        assert compare_to_bound([5], [5], pad=-1) == 0
        assert compare_to_bound([4], [5], pad=-1) < 0
        assert compare_to_bound([6], [5], pad=-1) > 0

    def test_prefix_low_bound(self):
        # [5, rowid] vs low bound [5]: key counts as greater.
        assert compare_to_bound([5, 10], [5], pad=-1) > 0

    def test_prefix_high_bound(self):
        # [5, rowid] vs high bound [5]: key counts as smaller.
        assert compare_to_bound([5, 10], [5], pad=1) < 0


class TestBasicOps:
    def test_insert_get(self):
        _, pager, tree = fresh_tree()
        tree.insert([1], b"one")
        tree.insert([2], b"two")
        assert tree.get([1]) == b"one"
        assert tree.get([3]) is None
        assert len(tree) == 2

    def test_duplicate_rejected_by_default(self):
        _, _, tree = fresh_tree()
        tree.insert([1], b"one")
        with pytest.raises(SQLExecutionError):
            tree.insert([1], b"again")

    def test_duplicates_allowed_when_requested(self):
        _, _, tree = fresh_tree()
        for rowid in range(10):
            tree.insert(["k", rowid], b"", allow_duplicate=True)
        hits = list(tree.scan(low=["k"], high=["k"]))
        assert len(hits) == 10

    def test_delete(self):
        _, _, tree = fresh_tree()
        for i in range(20):
            tree.insert([i], str(i).encode())
        assert tree.delete([7])
        assert tree.get([7]) is None
        assert not tree.delete([7])
        assert len(tree) == 19

    def test_scan_bounds(self):
        _, _, tree = fresh_tree()
        for i in range(0, 100, 2):
            tree.insert([i], b"")
        keys = [k[0] for k, _ in tree.scan(low=[10], high=[20])]
        assert keys == [10, 12, 14, 16, 18, 20]
        keys = [k[0] for k, _ in tree.scan(
            low=[10], high=[20], low_inclusive=False, high_inclusive=False
        )]
        assert keys == [12, 14, 16, 18]

    def test_scan_open_ended(self):
        _, _, tree = fresh_tree()
        for i in range(10):
            tree.insert([i], b"")
        assert [k[0] for k, _ in tree.scan(low=[7])] == [7, 8, 9]
        assert [k[0] for k, _ in tree.scan(high=[2])] == [0, 1, 2]

    def test_empty_tree_scan(self):
        _, _, tree = fresh_tree()
        assert list(tree.items()) == []
        assert tree.get([1]) is None
        assert not tree.delete([1])

    def test_persistence_across_reopen(self):
        vfs, pager, tree = fresh_tree("/persist")
        for i in range(500):
            tree.insert([i], b"v%d" % i)
        pager.close()
        reopened = BTree(Pager(vfs, "/persist"))
        assert reopened.get([250]) == b"v250"
        assert len(reopened) == 500

    def test_mixed_type_keys(self):
        _, _, tree = fresh_tree()
        tree.insert([None, 0], b"null", allow_duplicate=True)
        tree.insert([5, 0], b"int", allow_duplicate=True)
        tree.insert(["txt", 0], b"str", allow_duplicate=True)
        tree.insert([2.5, 0], b"real", allow_duplicate=True)
        order = [k[0] for k, _ in tree.items()]
        assert order == [None, 2.5, 5, "txt"]

    def test_large_sequential_inserts_split(self):
        _, pager, tree = fresh_tree()
        for i in range(2000):
            tree.insert([i], b"x" * 50)
        assert pager.page_count > 10  # splits happened
        assert [k[0] for k, _ in tree.items()] == list(range(2000))

    def test_corrupt_page_detected(self):
        vfs, pager, tree = fresh_tree("/c")
        tree.insert([1], b"one")
        pager.flush()
        with vfs.open("/c") as handle:
            handle.write_page(pager.root_pid, b"\xff" * 4096)
        with pytest.raises(StorageError):
            tree.get([1])


class TestAgainstDictModel:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_operations(self, data):
        _, _, tree = fresh_tree()
        model = {}
        operations = data.draw(st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "get"]),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=60,
        ))
        for op, key in operations:
            if op == "insert":
                if key in model:
                    with pytest.raises(SQLExecutionError):
                        tree.insert([key], b"v%d" % key)
                else:
                    tree.insert([key], b"v%d" % key)
                    model[key] = b"v%d" % key
            elif op == "delete":
                assert tree.delete([key]) == (key in model)
                model.pop(key, None)
            else:
                expected = model.get(key)
                assert tree.get([key]) == expected
        assert [k[0] for k, _ in tree.items()] == sorted(model)
        assert len(tree) == len(model)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 300), min_size=1, max_size=150,
                 unique=True),
        st.integers(0, 300), st.integers(0, 300),
    )
    def test_range_scans_match_model(self, keys, a, b):
        low, high = min(a, b), max(a, b)
        _, _, tree = fresh_tree()
        rng = random.Random(17)
        shuffled = list(keys)
        rng.shuffle(shuffled)
        for key in shuffled:
            tree.insert([key], b"")
        expected = sorted(k for k in keys if low <= k <= high)
        got = [k[0] for k, _ in tree.scan(low=[low], high=[high])]
        assert got == expected


# ----------------------------------------------------------------------
# The bisecting read path against the linear reference
# ----------------------------------------------------------------------

#: A small domain, so duplicates and exact bound hits are common; 2 and
#: 2.0 are *equal* under ``sort_key``, NULL < numbers < text.
VALUES = st.sampled_from(
    [None, -1, 0, 2, 3, -1.5, 0.0, 2.0, 2.5, "", "a", "b", "zz"]
)
ROWIDS = st.integers(0, 400)


def logged_reads(tree, scan, **bounds):
    """``(rows, page ids read)`` of one full ``scan(tree, **bounds)``."""
    reads = []
    real = tree.pager.read_page

    def read_page(pid):
        reads.append(pid)
        return real(pid)

    tree.pager.read_page = read_page
    try:
        return list(scan(tree, **bounds)), reads
    finally:
        del tree.pager.read_page


def assert_scan_matches_reference(tree, **bounds):
    """A tree holding no leaf reads the reference's pages exactly.
    ``tree`` itself, whatever leaf its earlier scans left it holding,
    returns the same rows and at most skips the descent: its reads are
    a suffix of the reference's."""
    rows, reads = logged_reads(tree, reference_scan, **bounds)
    assert logged_reads(BTree(tree.pager), BTree.scan, **bounds) == (
        rows, reads)
    held_rows, held_reads = logged_reads(tree, BTree.scan, **bounds)
    assert held_rows == rows
    assert held_reads == reads[len(reads) - len(held_reads):]


class TestAgainstLinearReference:
    """``scan`` searches memoized nodes by bisection; the linear walk it
    replaced decides what it must return and which pages it must read.

    Nodes are capped at 200 bytes so that a few dozen entries already
    make a three-level tree.  Every bound is at most as long as the
    keys: ``compare_to_bound`` and tuple order disagree when a key is
    *shorter* than its bound, which the engine never produces
    (``TestCountNeutrality`` asserts it on Q1-Q8).
    """

    @settings(max_examples=120, deadline=None)
    @given(
        entries=st.lists(st.tuples(VALUES, ROWIDS), max_size=90,
                         unique_by=lambda entry: entry[1]),
        doomed=st.sets(VALUES, max_size=4),
        low=st.one_of(st.none(), st.tuples(VALUES),
                      st.tuples(VALUES, ROWIDS)),
        high=st.one_of(st.none(), st.tuples(VALUES),
                       st.tuples(VALUES, ROWIDS)),
        low_inclusive=st.booleans(),
        high_inclusive=st.booleans(),
    )
    def test_index_tree_with_prefix_bounds(
        self, entries, doomed, low, high, low_inclusive, high_inclusive
    ):
        """``[value, rowid]`` keys: duplicate values straddle splits,
        bounds are ``[v]`` prefixes or full keys, and deleting every
        entry of some values leaves sparse and empty leaves behind."""
        with mock.patch.object(btree, "PAGE_CONTENT_SIZE", 200):
            _, _, tree = fresh_tree()
            for value, rowid in entries:
                tree.insert([value, rowid], b"", allow_duplicate=True)
            for value, rowid in entries:
                if value in doomed:
                    assert tree.delete([value, rowid])
            assert_scan_matches_reference(
                tree,
                low=None if low is None else list(low),
                high=None if high is None else list(high),
                low_inclusive=low_inclusive,
                high_inclusive=high_inclusive,
            )

    @settings(max_examples=60, deadline=None)
    @given(
        rowids=st.sets(st.integers(0, 120), max_size=80),
        deleted=st.sets(st.integers(0, 120), max_size=60),
        low=st.one_of(st.none(), st.integers(-5, 125)),
        high=st.one_of(st.none(), st.integers(-5, 125)),
        low_inclusive=st.booleans(),
        high_inclusive=st.booleans(),
    )
    def test_table_tree_with_full_bounds(
        self, rowids, deleted, low, high, low_inclusive, high_inclusive
    ):
        """``[rowid]`` keys with row payloads, bounds as long as the
        keys (so exclusive ends bite), ``low > high`` included."""
        with mock.patch.object(btree, "PAGE_CONTENT_SIZE", 200):
            _, _, tree = fresh_tree()
            for rowid in sorted(rowids, key=lambda r: (r * 37) % 101):
                tree.insert([rowid], b"row-%d" % rowid)
            for rowid in deleted & rowids:
                assert tree.delete([rowid])
            assert_scan_matches_reference(
                tree,
                low=None if low is None else [low],
                high=None if high is None else [high],
                low_inclusive=low_inclusive,
                high_inclusive=high_inclusive,
            )
            for rowid in rowids:
                expected = None if rowid in deleted else b"row-%d" % rowid
                assert tree.get([rowid]) == expected

    def test_every_bound_of_a_small_table_tree(self):
        """Exhaustive where random draws are thin: a bound equal to a
        separator key, a bound in the gap after a leaf's last key, an
        emptied leaf in the middle, ``low > high`` — each with all four
        inclusive/exclusive combinations."""
        with mock.patch.object(btree, "PAGE_CONTENT_SIZE", 200):
            _, pager, tree = fresh_tree()
            for rowid in range(60):
                tree.insert([rowid], b"r")
            assert pager.page_count > 8
            for rowid in [*range(0, 60, 4), *range(20, 31)]:
                tree.delete([rowid])
            for low in [None, *range(-1, 62)]:
                highs = {None} if low is None else {
                    None, low - 2, low, low + 7}
                for high in highs:
                    for low_inclusive in (True, False):
                        for high_inclusive in (True, False):
                            assert_scan_matches_reference(
                                tree,
                                low=None if low is None else [low],
                                high=None if high is None else [high],
                                low_inclusive=low_inclusive,
                                high_inclusive=high_inclusive,
                            )

    def test_every_bound_of_a_small_index_tree(self):
        """The same for ``[value, rowid]`` keys: every prefix and every
        full key (present or not) as either bound."""
        with mock.patch.object(btree, "PAGE_CONTENT_SIZE", 200):
            _, pager, tree = fresh_tree()
            for rowid in range(54):  # interleaved, so leaves split
                for value in ("a", "b", "c"):
                    if rowid % 3 != 1:
                        tree.insert([value, rowid], b"",
                                    allow_duplicate=True)
            assert pager.page_count > 8
            bounds = [None, *(
                [value] for value in ("", "a", "aa", "b", "c", "d")
            ), *(
                [value, rowid]
                for value in ("a", "b", "c") for rowid in range(-1, 56, 2)
            )]
            for low in bounds:
                for high in bounds[::3]:
                    for low_inclusive in (True, False):
                        for high_inclusive in (True, False):
                            assert_scan_matches_reference(
                                tree, low=low, high=high,
                                low_inclusive=low_inclusive,
                                high_inclusive=high_inclusive,
                            )

    def test_duplicates_straddling_a_split_are_all_found(self):
        with mock.patch.object(btree, "PAGE_CONTENT_SIZE", 200):
            _, pager, tree = fresh_tree()
            for rowid in range(40):
                tree.insert(["dup", rowid], b"", allow_duplicate=True)
            assert pager.page_count > 4  # one value, several leaves
            for inclusive in (True, False):  # a prefix is never "equal"
                hits = tree.scan(low=["dup"], high=["dup"],
                                 low_inclusive=inclusive,
                                 high_inclusive=inclusive)
                assert [key[1] for key, _ in hits] == list(range(40))
            assert_scan_matches_reference(tree, low=["dup"], high=["dup"])


# ----------------------------------------------------------------------
# The held path: one long-lived tree against a fresh tree per operation
# ----------------------------------------------------------------------

KEYS = st.tuples(VALUES, st.integers(0, 40))
BOUNDS = st.one_of(st.none(), st.tuples(VALUES), KEYS)
OPERATIONS = st.one_of(
    st.tuples(st.sampled_from(["insert", "delete", "get"]), KEYS),
    st.tuples(st.just("scan"), BOUNDS, BOUNDS, st.booleans(),
              st.booleans()),
    # Point lookups of the next ``count`` keys from a low bound on, in
    # key order (every ``stride``-th) or reversed (stride -1): an index
    # scan handing the table tree ascending keys, across leaf and
    # parent boundaries.
    st.tuples(st.just("walk"), BOUNDS, st.integers(1, 40),
              st.sampled_from([1, 3, -1])),
)


def depth(tree):
    """Levels from the root to the leftmost leaf."""
    levels, node = 1, tree._view(tree.pager.root_pid)
    while isinstance(node, btree.InternalNode):
        levels += 1
        node = tree._view(node.children[0])
    return levels


class SortedListModel:
    """What the tree holds, as a list in key order; equal keys keep
    their insertion order, and a delete takes the first of them."""

    def __init__(self):
        self.tuples = []
        self.entries = []

    def insert(self, key, value):
        pos = bisect_right(self.tuples, btree.key_tuple(key))
        self.tuples.insert(pos, btree.key_tuple(key))
        self.entries.insert(pos, (tuple(key), value))

    def delete(self, key):
        target = btree.key_tuple(key)
        pos = bisect_left(self.tuples, target)
        if pos == len(self.tuples) or self.tuples[pos] != target:
            return False
        del self.tuples[pos], self.entries[pos]
        return True

    def scan(self, low, high, low_inclusive, high_inclusive):
        rows = []
        for key, value in self.entries:
            if low is not None:
                cmp = compare_to_bound(key, low, pad=-1)
                if cmp < 0 or (cmp == 0 and not low_inclusive):
                    continue
            if high is not None:
                cmp = compare_to_bound(key, high, pad=1)
                if cmp > 0 or (cmp == 0 and not high_inclusive):
                    break
            rows.append((key, value))
        return rows


class TestHeldLeaf:
    """A tree keeps the path its read path last went down and starts a
    seek at the lowest held node whose bounds admit it.  Whatever one
    long-lived tree holds, it answers as a tree opened for that one
    operation would, and never reads a page that tree would not."""

    @staticmethod
    def assert_reads_like_a_fresh_tree(tree, expected, read, **arguments):
        fresh_rows, fresh_reads = logged_reads(
            BTree(tree.pager), read, **arguments)
        held_rows, held_reads = logged_reads(tree, read, **arguments)
        assert held_rows == fresh_rows == expected
        assert held_reads == fresh_reads[len(fresh_reads) - len(held_reads):]

    def run_against_a_fresh_tree(self, tree, model, operations, serial=0):
        def get(key):
            found = model.scan(key, key, True, True)
            self.assert_reads_like_a_fresh_tree(
                tree, [found[0][1] if found else None],
                lambda t, key: [t.get(key)], key=list(key),
            )

        for op, *arguments in operations:
            if op == "insert":
                (key,) = arguments
                serial += 1
                tree.insert(list(key), b"%d" % serial, allow_duplicate=True)
                model.insert(key, b"%d" % serial)
            elif op == "delete":
                (key,) = arguments
                assert tree.delete(list(key)) == model.delete(key)
            elif op == "get":
                get(*arguments)
            elif op == "walk":
                low, count, stride = arguments
                walked = model.scan(low, None, True, True)[:count]
                for key, _ in walked[::stride]:
                    get(key)
            else:
                low, high, low_inclusive, high_inclusive = arguments
                self.assert_reads_like_a_fresh_tree(
                    tree, model.scan(*arguments), BTree.scan,
                    low=None if low is None else list(low),
                    high=None if high is None else list(high),
                    low_inclusive=low_inclusive,
                    high_inclusive=high_inclusive,
                )
        assert list(tree.items()) == model.entries
        assert len(tree) == len(model.entries)

    @settings(max_examples=scaled_examples(150), deadline=None)
    @given(
        initial=st.lists(KEYS, max_size=90),
        operations=st.lists(OPERATIONS, max_size=60),
    )
    def test_random_operations_match_a_fresh_tree_and_a_sorted_list(
        self, initial, operations
    ):
        """``[value, rowid]`` keys from a small domain — duplicate
        values (and whole keys) across splits — under inserts, deletes,
        point lookups, walks of lookups up and down the keys, and scans
        with prefix bounds, exclusive ends and ``low > high``."""
        with mock.patch.object(btree, "PAGE_CONTENT_SIZE", 200):
            _, _, tree = fresh_tree()
            self.run_against_a_fresh_tree(
                tree, SortedListModel(),
                [("insert", key) for key in initial] + operations)

    @settings(max_examples=scaled_examples(40), deadline=None)
    @given(
        initial=st.lists(st.tuples(VALUES, st.integers(0, 5)),
                         min_size=90, max_size=150),
        operations=st.lists(OPERATIONS, max_size=30),
    )
    def test_three_level_trees_and_hops_across_a_parent_match(
        self, initial, operations
    ):
        """The same property on trees three levels deep, where whole
        keys repeat across splits, closed by walks of lookups over
        every key: a hop from a parent's last child holds that leaf
        alone, a lookup past a leaf it does not hop to starts at its
        held parent, and walking down asks each leaf for the
        separator at its left edge, which the descent sends left."""
        with mock.patch.object(btree, "PAGE_CONTENT_SIZE", 200):
            _, _, tree = fresh_tree()
            model = SortedListModel()
            self.run_against_a_fresh_tree(
                tree, model, [("insert", key) for key in initial])
            assert depth(tree) == 3
            self.run_against_a_fresh_tree(
                tree, model, operations + [
                    ("walk", None, len(initial) + len(operations), stride)
                    for stride in (1, 3, -1)
                ], serial=len(initial))

    def test_lookups_along_a_leaf_read_it_once(self):
        """The access pattern the cursor is for: an index scan hands
        the table tree ascending rowids, every one or every seventh."""
        _, pager, writer = fresh_tree()
        for rowid in range(1, 601):
            writer.insert([rowid], b"r%d" % rowid)
        for stride in (1, 7):
            tree, leaves, reads = BTree(pager), set(), []
            rowids = range(1, 601, stride)
            for rowid in rowids:
                value, read = logged_reads(
                    tree, lambda t, key: [t.get(key)], key=[rowid])
                assert value == [b"r%d" % rowid]
                reads += read
                leaves.add(tree._path[-1].pid)
            # After the first descent each leaf is read once.  A leaf's
            # first key equals its separator, so the held left sibling
            # admits it: the seek starts there and hops right.  A key
            # further into a leaf not yet read is admitted by the held
            # root: the seek reads that leaf alone.
            assert depth(tree) == 2 and len(leaves) > 3
            assert len(reads) == 2 + (len(leaves) - 1)
            assert tree.held_seeks + tree.held_internal_seeks == (
                len(rowids) - 1)
            assert (tree.held_internal_seeks > 0) == (stride > 1)

    def test_a_write_drops_the_held_leaf(self):
        _, _, tree = fresh_tree()
        for rowid in range(1, 41):
            tree.insert([rowid], b"old")
        assert tree.get([7]) == b"old" and tree._path
        assert tree.delete([7]) and tree._path == []
        assert tree.get([7]) is None
        assert tree.get([8]) == b"old" and tree._path
        tree.insert([7], b"new")
        assert tree._path == []
        assert tree.get([7]) == b"new"

    def test_an_emptied_leaf_answers_as_the_descent_does(self):
        with mock.patch.object(btree, "PAGE_CONTENT_SIZE", 200):
            _, _, tree = fresh_tree()
            for rowid in range(60):
                tree.insert([rowid], b"r")
            assert [key[0] for key, _ in tree.scan(low=[59])] == [59]
            last_leaf = tree._path[-1].node
            assert last_leaf.next_leaf == 0
            for key, _ in last_leaf.entries:
                assert tree.delete(list(key))
            # Only the last leaf can be landed on empty and kept: any
            # other hands the scan over to its successor.  Held with
            # its parent's bounds, it is where the descent lands.
            assert list(tree.scan(low=[59])) == []
            assert tree._path[-1].node.tuples == ()
            survivors = 60 - len(last_leaf.entries)
            for rowid, expected in [(59, None), (survivors - 1, b"r")]:
                self.assert_reads_like_a_fresh_tree(
                    tree, [expected], lambda t, key: [t.get(key)],
                    key=[rowid])
            assert [key[0] for key, _ in tree.scan(low=[survivors - 3])] == (
                list(range(survivors - 3, survivors)))


# ----------------------------------------------------------------------
# The node memo
# ----------------------------------------------------------------------


class TestNodeMemo:
    def test_write_path_changes_are_seen_through_a_shared_memo(self):
        """Keyed on content: a page rewritten in place is a new key."""
        vfs, pager, writer = fresh_tree()
        memo = NodeMemo()
        for i in range(300):
            writer.insert([i], b"v%d" % i)
            assert BTree(pager, memo).get([i]) == b"v%d" % i
        assert writer.delete([7])
        assert BTree(pager, memo).get([7]) is None
        assert 0 < len(memo) <= btree.NODE_MEMO_SIZE

    def test_bounded_lru(self):
        memo = NodeMemo()
        pages = [leaf_page([([i], b"")]) for i in range(
            btree.NODE_MEMO_SIZE + 5)]
        first = memo.node(pages[0])
        for page in pages[1:btree.NODE_MEMO_SIZE]:
            memo.node(page)
        assert memo.node(pages[0]) is first  # refreshed: now the newest
        for page in pages[btree.NODE_MEMO_SIZE:]:
            memo.node(page)
        assert len(memo) == btree.NODE_MEMO_SIZE
        assert memo.node(pages[0]) is first
        assert pages[1] not in memo._nodes  # the oldest went first
        memo.clear()
        assert len(memo) == 0
        assert memo.node(pages[0]) is not first  # decoded afresh

    def test_nodes_and_yielded_entries_are_immutable(self):
        _, pager, tree = fresh_tree()
        memo = NodeMemo()
        for i in range(5):
            tree.insert([i, "x"], b"v", allow_duplicate=True)
        entry = next(iter(BTree(pager, memo).items()))
        key, _ = entry
        assert isinstance(key, tuple) and isinstance(entry, tuple)
        with pytest.raises(TypeError):
            key[0] = 99
        (node,) = memo._nodes.values()
        with pytest.raises(AttributeError):
            node.entries = ()
        with pytest.raises(TypeError):
            node.entries[0] = entry
        with pytest.raises(TypeError):
            node.tuples[0] = ()
        # What a reader is handed is the memo's own object — safe only
        # because none of it can be changed.
        assert node.entries[0] is entry

    def test_trees_without_a_memo_share_nothing(self):
        _, pager, tree = fresh_tree()
        tree.insert([1], b"one")
        other = BTree(pager)
        assert other.get([1]) == b"one"
        assert len(tree._memo) == 0 and len(other._memo) == 1


def table_tree(rows):
    """A tree of ``[rowid] -> encode_record(row)`` and its pager."""
    _, pager, tree = fresh_tree()
    for rowid, row in enumerate(rows, 1):
        tree.insert([rowid], encode_record(row))
    return pager, tree


class TestRowSlots:
    """A table leaf's rows are decoded once per entry per page content,
    into slots the memo owns; readers get copies."""

    ROWS = [[i, "name-%d" % i, i / 4, None] for i in range(200)]

    def test_rows_and_get_row_decode_each_entry_once(self):
        pager, _ = table_tree(self.ROWS)
        memo = NodeMemo()
        reader = BTree(pager, memo)
        assert [row for _, row in reader.rows()] == self.ROWS
        assert memo._rows_decoded == len(self.ROWS)
        assert [reader.get_row([i + 1]) for i in range(200)] == self.ROWS
        assert [row for _, row in BTree(pager, memo).rows()] == self.ROWS
        assert memo._rows_decoded == len(self.ROWS)  # nothing decoded again
        assert reader.get_row([999]) is None
        for node in memo._nodes.values():
            if isinstance(node, btree.LeafNode):
                for (_, value), row in zip(node.entries, node.rows):
                    assert list(row) == decode_record(value)[0]

    def test_a_mutated_row_never_reaches_the_next_reader(self):
        pager, _ = table_tree(self.ROWS)
        memo = NodeMemo()
        first = BTree(pager, memo)
        for _, row in first.rows():
            row[1] = "scribbled"
            row.append("extra")
        looked_up = first.get_row([3])
        looked_up.clear()
        again = BTree(pager, memo)
        assert [row for _, row in again.rows()] == self.ROWS
        assert again.get_row([3]) == self.ROWS[2]
        assert again.get_row([3]) is not again.get_row([3])
        # The slots themselves cannot be written through.
        (leaf, index) = again._find([3])
        with pytest.raises(TypeError):
            leaf.rows[index][0] = None

    def test_a_garbled_row_raises_and_fills_nothing(self):
        """The page parses (keys and lengths are intact); the row's
        first value tag is not a tag.  Every read raises the typed error
        — the entry's slot stays empty, its neighbours' are unaffected."""
        entries = [([i], encode_record(row))
                   for i, row in enumerate(self.ROWS[:5])]
        bad = bytearray(entries[2][1])
        bad[2] = 0x7F
        entries[2] = (entries[2][0], bytes(bad))
        memo = NodeMemo()
        node = memo.node(leaf_page(entries))
        assert memo.row(node, 1) == tuple(self.ROWS[1])
        for _ in range(2):
            with pytest.raises(StorageError,
                               match="unknown value tag 127"):
                memo.row(node, 2)
            assert node.rows[2] is None
        assert memo._rows_decoded == 1
        assert memo.row(node, 3) == tuple(self.ROWS[3])

    def test_decoded_rows_are_reported_once_per_statement(self):
        from repro.obs import REGISTRY

        pager, _ = table_tree(self.ROWS)
        memo = NodeMemo()
        list(BTree(pager, memo).rows())
        before = REGISTRY.counters_snapshot()
        memo.report()
        delta = REGISTRY.counters_delta(before)
        assert delta["db.row.decoded"] == len(self.ROWS)
        before = REGISTRY.counters_snapshot()
        list(BTree(pager, memo).rows())
        memo.report()
        assert "db.row.decoded" not in REGISTRY.counters_delta(before)


def first_of_scan(tree, key):
    for _, value in tree.scan(low=key, high=key):
        return [value]
    return [None]


class TestGetReadsWhatScanReads:
    """``get`` is a seek and a bisection, not a one-row scan generator;
    the pages it reads, and the leaf it leaves the tree holding, are
    those of ``scan(key, key)`` stopped at its first entry."""

    @settings(max_examples=80, deadline=None)
    @given(
        entries=st.lists(st.tuples(VALUES, ROWIDS), max_size=90,
                         unique_by=lambda entry: entry[1]),
        doomed=st.sets(VALUES, max_size=4),
        probes=st.lists(st.one_of(st.tuples(VALUES),
                                  st.tuples(VALUES, ROWIDS)), max_size=25),
    )
    def test_index_tree_with_prefix_and_full_keys(self, entries, doomed,
                                                 probes):
        with mock.patch.object(btree, "PAGE_CONTENT_SIZE", 200):
            _, pager, tree = fresh_tree()
            for value, rowid in entries:
                tree.insert([value, rowid], b"v%d" % rowid,
                            allow_duplicate=True)
            for value, rowid in entries:
                if value in doomed:
                    assert tree.delete([value, rowid])
            # Two long-lived trees: the held leaf evolves in each.
            by_get, by_scan = BTree(pager), BTree(pager)
            for probe in probes:
                key = list(probe)
                got = logged_reads(by_get, lambda t, key: [t.get(key)],
                                   key=key)
                assert got == logged_reads(by_scan, first_of_scan, key=key)
                assert by_get.held_seeks == by_scan.held_seeks
                # And from nothing held: the descent.
                assert logged_reads(
                    BTree(pager), lambda t, key: [t.get(key)], key=key
                ) == logged_reads(BTree(pager), first_of_scan, key=key)

    def test_every_rowid_of_a_table_tree_with_holes(self):
        with mock.patch.object(btree, "PAGE_CONTENT_SIZE", 200):
            pager, tree = table_tree([[i] for i in range(80)])
            for rowid in [*range(1, 80, 5), *range(30, 45)]:
                tree.delete([rowid])
            by_get, by_scan = BTree(pager), BTree(pager)
            for rowid in [*range(-2, 84), *range(83, -3, -7)]:
                got = logged_reads(
                    by_get, lambda t, key: [t.get_row(key)], key=[rowid])
                rows, reads = logged_reads(by_scan, first_of_scan,
                                           key=[rowid])
                expected = [None if rows[0] is None
                            else decode_record(rows[0])[0]]
                assert got == (expected, reads)
                assert (by_get.held_seeks, by_get.held_internal_seeks) == (
                    by_scan.held_seeks, by_scan.held_internal_seeks)


    def test_number_probes_land_where_the_scan_does(self):
        """An int, float or bool probe of a tree of int and float keys
        finds what ``scan(key, key)`` yields first."""
        for keys in ([1, 2, 4], [1, 2.5, 4]):
            _, pager, tree = fresh_tree()
            for key in keys:
                tree.insert([key], b"%r" % key)
            for probe in (0, 1, 1.0, True, 2, 2.5, 3, 4, 4.0, 5):
                assert ([tree.get([probe])]
                        == first_of_scan(BTree(pager), [probe]))


class TestHostileNodeBytes:
    """BASELINE/intra queries parse pages *before* the VO verifies them:
    whatever the bytes, the parser returns a node or raises
    ``StorageError`` — and a raising parse leaves no memo entry."""

    @staticmethod
    def check(raw):
        memo = NodeMemo()
        try:
            node = memo.node(raw)
        except StorageError as error:
            # "corrupt B+Tree node …" or, from a key, "corrupt record …"
            assert str(error).startswith("corrupt ")
            assert len(memo) == 0
            with pytest.raises(StorageError):
                btree._decode_node(raw)  # the write path's parse agrees
        else:
            assert memo.node(raw) is node
            assert len(node.tuples) == len(
                node.entries if isinstance(node, btree.LeafNode)
                else node.children[1:]
            )
            btree._decode_node(raw)

    @settings(max_examples=400, deadline=None)
    @given(
        head=st.binary(max_size=120),
        force_kind=st.sampled_from([None, 1, 2]),
        tail=st.sampled_from(["zeros", "ones", "random"]),
        seed=st.integers(0, 2 ** 32),
    )
    def test_arbitrary_4k_page(self, head, force_kind, tail, seed):
        """A drawn head (where the structure is) and a tail of zeros,
        0xff or seeded random bytes; two pages in three get a valid
        node kind, or almost all would stop at the first byte."""
        filler = {
            "zeros": b"\x00" * 4096,
            "ones": b"\xff" * 4096,
            "random": random.Random(seed).randbytes(4096),
        }[tail]
        raw = (head + filler)[:4096]
        if force_kind is not None:
            raw = bytes([force_kind]) + raw[1:]
        self.check(raw)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["leaf", "internal"]),
        st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)),
                 min_size=1, max_size=6),
    )
    def test_valid_node_with_a_few_bytes_overwritten(self, kind, edits):
        keys = [[None, i] for i in range(4)] + [
            [1.5, "text-%d" % i] for i in range(30)]
        if kind == "leaf":
            node = btree._Leaf([(key, b"payload") for key in keys], 9)
        else:
            node = btree._Internal(keys, list(range(len(keys) + 1)))
        raw = bytearray(seal_page(node.encode()))
        for offset, byte in edits:
            raw[offset] = byte
        self.check(bytes(raw))

    @pytest.mark.parametrize("raw", [
        pytest.param(b"", id="empty"),
        pytest.param(b"\x01", id="header-cut-short"),
        pytest.param(b"\x01\xff\xff" + b"\x00" * 4093,
                     id="count-beyond-any-page"),
        pytest.param(
            b"\x01\x00\x01\x00\x00\x00\x00" + b"\x00\x00"
            + b"\xff\xff\xff\xff" + b"\x00" * 4083,
            id="value-length-past-the-page"),
        pytest.param(
            b"\x02\x00\x01\x00\x00\x00\x01"
            + b"\x00\x01\x03\x00\x00\xff\xff" + b"\x00" * 4082,
            id="text-key-past-the-page"),
        pytest.param(
            b"\x01\x00\x01\x00\x00\x00\x00"
            + b"\x00\x01\x03\x00\x00\x00\x02" + b"\xff\xfe"
            + b"\x00" * 4080,
            id="invalid-utf8-key"),
        pytest.param(
            b"\x01\x00\x01\x00\x00\x00\x00" + b"\x00\x01\x09"
            + b"\x00" * 4086,
            id="unknown-value-tag"),
    ])
    def test_known_bad_shapes_raise_storage_error(self, raw):
        # A bad key is reported by the record decoder, the rest by the
        # node parser.
        message = "corrupt (B\\+Tree node|record)"
        with pytest.raises(StorageError, match=message):
            NodeMemo().node(raw)
        with pytest.raises(StorageError, match=message):
            btree._decode_node(raw)

    def test_engine_surfaces_the_typed_error(self):
        vfs, pager, tree = fresh_tree("/c2")
        tree.insert([1], b"one")
        pager.close()
        with vfs.open("/c2") as handle:
            handle.write_page(1, seal_page(b"\x01\xff\xff" + b"\x00" * 64))
        with pytest.raises(StorageError, match="corrupt B\\+Tree node"):
            BTree(Pager(vfs, "/c2")).get([1])

    @staticmethod
    def two_leaf_tree(path):
        """(vfs, root pid, (first leaf pid, second leaf pid)) of a tree
        with an internal root over chained leaves."""
        vfs, pager, tree = fresh_tree(path)
        for key in range(400):
            tree.insert([key], b"v" * 16)
        root = pager.root_pid
        pager.close()
        node = btree._decode_node(Pager(vfs, path).read_page(root))
        assert isinstance(node, btree._Internal)
        return vfs, root, node.children[:2]

    @staticmethod
    def overwrite(vfs, path, pid, source_pid):
        with vfs.open(path) as handle:
            page = handle.read_page(source_pid)
            handle.write_page(pid, page)

    def test_well_formed_node_in_the_wrong_place(self):
        """Each page parses; the links between them are what is wrong.
        A leaf chained to an internal node, and links that form a cycle
        (which used to spin forever), are typed errors."""
        # The left leaf's successor holds the root's bytes.
        vfs, root, (left, right) = self.two_leaf_tree("/w1")
        self.overwrite(vfs, "/w1", right, root)
        with pytest.raises(StorageError, match="successor is not a leaf"):
            list(BTree(Pager(vfs, "/w1")).scan())
        # The right leaf holds the left one's bytes: it chains to itself.
        vfs, root, (left, right) = self.two_leaf_tree("/w2")
        self.overwrite(vfs, "/w2", right, left)
        with pytest.raises(StorageError, match="leaf chain cycle"):
            list(BTree(Pager(vfs, "/w2")).scan())
        # The left child holds the root's bytes: the descent never ends.
        vfs, root, (left, right) = self.two_leaf_tree("/w3")
        self.overwrite(vfs, "/w3", left, root)
        with pytest.raises(StorageError, match="child link cycle"):
            BTree(Pager(vfs, "/w3")).get([1])

    @pytest.mark.parametrize("probe", [
        lambda tree, key: tree.get(key),
        lambda tree, key: list(tree.scan(low=key)),
    ], ids=["get", "scan"])
    def test_a_cycle_met_from_the_held_leaf(self, probe):
        """The second probe starts on the leaf the first left held and
        hops to its successor, which links back to it: the cycle runs
        through a page only the held path read, and is refused without
        reading that page again."""
        vfs, root, (left, right) = self.two_leaf_tree("/w4")
        with vfs.open("/w4") as handle:
            handle.write_page(right, leaf_page([], next_leaf=left))
        pager = Pager(vfs, "/w4")
        (separator, *_) = btree._decode_node(pager.read_page(root)).keys
        tree = BTree(pager)
        assert tree.get([0]) == b"v" * 16
        assert [step.pid for step in tree._path] == [root, left]
        reads = []
        real = pager.read_page

        def read_page(pid):
            reads.append(pid)
            return real(pid)

        pager.read_page = read_page
        # The held leaf admits its parent's separator, which sorts past
        # every key it has.
        with pytest.raises(StorageError, match="leaf chain cycle"):
            probe(tree, separator)
        assert reads == [right]
        assert tree.held_seeks == 1


# ----------------------------------------------------------------------
# The write path against a copy of the whole-node one it replaced
# ----------------------------------------------------------------------
#
# Test-only: the write path as it was before nodes kept per-entry bytes
# and trees kept one node per page.  Every insert decoded its path
# afresh, rebuilt every key's sort tuple to bisect, and re-encoded the
# whole node twice (size check, save).  The page bytes it wrote are the
# format; the new path must write the very same ones.


class WholeLeaf:
    def __init__(self, entries=None, next_leaf=0):
        self.entries = entries if entries is not None else []
        self.next_leaf = next_leaf

    def encoded_size(self):
        size = 1 + 2 + 4
        for key, value in self.entries:
            size += len(encode_record(key)) + 4 + len(value)
        return size

    def encode(self):
        parts = [bytes([btree._LEAF]),
                 struct.pack(">HI", len(self.entries), self.next_leaf)]
        for key, value in self.entries:
            parts.append(encode_record(key))
            parts.append(struct.pack(">I", len(value)))
            parts.append(value)
        raw = b"".join(parts)
        if len(raw) > btree.PAGE_CONTENT_SIZE:
            raise StorageError("leaf node exceeds page capacity")
        return raw


class WholeInternal:
    def __init__(self, keys, children):
        self.keys = keys
        self.children = children

    def encoded_size(self):
        size = 1 + 2 + 4
        for key in self.keys:
            size += len(encode_record(key)) + 4
        return size

    def encode(self):
        parts = [bytes([btree._INTERNAL]),
                 struct.pack(">HI", len(self.keys), self.children[0])]
        for key, child in zip(self.keys, self.children[1:]):
            parts.append(encode_record(key))
            parts.append(struct.pack(">I", child))
        raw = b"".join(parts)
        if len(raw) > btree.PAGE_CONTENT_SIZE:
            raise StorageError("internal node exceeds page capacity")
        return raw


def whole_cut(sizes, gap, name):
    """Entries ``[:cut]`` stay, ``[cut + gap:]`` move: the middle, or
    the cut nearest it where both halves fit a page."""
    room = btree.PAGE_CONTENT_SIZE - 7
    for cut in sorted(range(1, len(sizes)),
                      key=lambda cut: abs(cut - len(sizes) // 2)):
        if sum(sizes[:cut]) <= room and sum(sizes[cut + gap:]) <= room:
            return cut
    raise StorageError(f"{name} node exceeds page capacity")


class WholeNodeWriter:
    """``insert``/``delete`` of the whole-node write path."""

    def __init__(self, pager):
        self.pager = pager

    def _load(self, pid):
        kind, first, keys, payloads, _ = btree._parse_node(
            self.pager.read_page(pid))
        if kind == btree._LEAF:
            return WholeLeaf(list(zip(keys, payloads)), first)
        return WholeInternal(keys, [first] + payloads)

    def _save(self, pid, node):
        self.pager.write_page(pid, node.encode())

    def insert(self, key, value, allow_duplicate=False):
        if self.pager.root_pid == 0:
            pid = self.pager.allocate_page()
            self._save(pid, WholeLeaf([(key, value)]))
            self.pager.root_pid = pid
            self.pager.entry_count = 1
            self.pager.mark_header_dirty()
            return
        split = self._insert_into(self.pager.root_pid, key, value,
                                  allow_duplicate)
        if split is not None:
            sep_key, right_pid = split
            new_root = WholeInternal([sep_key],
                                     [self.pager.root_pid, right_pid])
            pid = self.pager.allocate_page()
            self._save(pid, new_root)
            self.pager.root_pid = pid
        self.pager.entry_count += 1
        self.pager.mark_header_dirty()

    def _insert_into(self, pid, key, value, allow_duplicate):
        node = self._load(pid)
        if isinstance(node, WholeLeaf):
            tuples = [btree.key_tuple(k) for k, _ in node.entries]
            target = btree.key_tuple(key)
            pos = bisect_right(tuples, target)
            if not allow_duplicate and pos > 0 and tuples[pos - 1] == target:
                raise SQLExecutionError(f"duplicate key {key!r}")
            node.entries.insert(pos, (key, value))
            if node.encoded_size() <= btree.PAGE_CONTENT_SIZE:
                self._save(pid, node)
                return None
            return self._split_leaf(pid, node)
        pos = bisect_right([btree.key_tuple(k) for k in node.keys],
                           btree.key_tuple(key))
        split = self._insert_into(node.children[pos], key, value,
                                  allow_duplicate)
        if split is None:
            return None
        sep_key, right_pid = split
        node.keys.insert(pos, sep_key)
        node.children.insert(pos + 1, right_pid)
        if node.encoded_size() <= btree.PAGE_CONTENT_SIZE:
            self._save(pid, node)
            return None
        return self._split_internal(pid, node)

    def _split_leaf(self, pid, node):
        mid = whole_cut([len(encode_record(k)) + 4 + len(v)
                         for k, v in node.entries], 0, "leaf")
        right = WholeLeaf(node.entries[mid:], node.next_leaf)
        right_pid = self.pager.allocate_page()
        node.entries = node.entries[:mid]
        node.next_leaf = right_pid
        self._save(right_pid, right)
        self._save(pid, node)
        return list(right.entries[0][0]), right_pid

    def _split_internal(self, pid, node):
        mid = whole_cut([len(encode_record(k)) + 4 for k in node.keys], 1,
                        "internal")
        sep_key = node.keys[mid]
        right = WholeInternal(node.keys[mid + 1:], node.children[mid + 1:])
        right_pid = self.pager.allocate_page()
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        self._save(right_pid, right)
        self._save(pid, node)
        return sep_key, right_pid

    def delete(self, key):
        if self.pager.root_pid == 0:
            return False
        pid = self.pager.root_pid
        node = self._load(pid)
        while isinstance(node, WholeInternal):
            pid = node.children[bisect_left(
                [btree.key_tuple(k) for k in node.keys],
                btree.key_tuple(key))]
            node = self._load(pid)
        target = btree.key_tuple(key)
        while True:
            tuples = [btree.key_tuple(k) for k, _ in node.entries]
            pos = bisect_left(tuples, target)
            if pos < len(tuples) and tuples[pos] == target:
                del node.entries[pos]
                self._save(pid, node)
                self.pager.entry_count -= 1
                self.pager.mark_header_dirty()
                return True
            if pos < len(tuples) or node.next_leaf == 0:
                return False
            pid = node.next_leaf
            node = self._load(pid)


def logged_pager(path):
    """A fresh pager whose ``read_page``/``write_page`` calls are
    logged, in order, to its ``calls`` list."""
    pager = Pager(LocalFilesystem(), path, create=True)
    pager.calls = []
    read, write = pager.read_page, pager.write_page

    def read_page(pid):
        pager.calls.append(("read", pid))
        return read(pid)

    def write_page(pid, data):
        pager.calls.append(("write", pid))
        return write(pid, data)

    pager.read_page, pager.write_page = read_page, write_page
    return pager


def outcome(operation):
    try:
        return ("ok", operation())
    except (SQLExecutionError, SQLTypeError, StorageError) as error:
        return (type(error).__name__, str(error))


#: Text of one index key ``[text, rowid]`` (record: 2 + 5 + n + 9
#: bytes) from empty to the longest ``MAX_RECORD_BYTES`` allows, and one
#: byte over; long keys split leaves and internal nodes within a few
#: dozen rows at the real page size.
LONGEST_TEXT = MAX_RECORD_BYTES - 16
TEXTS = st.one_of(
    st.text(alphabet="abé中", max_size=6),
    st.sampled_from([300, 1200, 2000, LONGEST_TEXT,
                     LONGEST_TEXT + 1]).map(lambda n: "k" * n),
)
WRITES = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), TEXTS, st.integers(0, 6),
                  st.sampled_from([0, 9, 120, 500]), st.booleans()),
        st.tuples(st.just("delete"), st.integers(0, 10 ** 6)),
        st.tuples(st.just("delete-absent"), TEXTS),
    ),
    min_size=30, max_size=80,
)
#: Always run as well: three levels, so internal nodes split, then
#: deletes across them (about one drawn sequence in ten gets there).
DEEP_WRITES = [("insert", "k" * 1200, rowid % 7, 9, False)
               for rowid in range(40)] + [("delete", 3 * i) for i in range(12)]
#: Always run as well: the second near-limit key splits the root off
#: its middle, since two such separators never share a page.
OFF_MIDDLE_WRITES = [
    ("insert", "k" * LONGEST_TEXT, 0, 500, True),
    ("insert", "a", 0, 2000, True),
    ("insert", "é", 0, 2100, True),
    ("insert", "中", 0, 2100, True),
    ("insert", "k" * LONGEST_TEXT, 1, 0, True),
    ("delete", 2),
    ("delete-absent", "k" * LONGEST_TEXT),
]


class TestWritePathDifferential:
    """After every insert and delete, a long-lived tree and the
    whole-node writer have sealed byte-identical pages, made the same
    ``read_page``/``write_page`` calls, and raised the same errors."""

    @settings(max_examples=80, deadline=None)
    @given(WRITES)
    @example(DEEP_WRITES)
    @example(OFF_MIDDLE_WRITES)
    def test_same_pages_and_page_io_after_every_operation(self, writes):
        ours, theirs = logged_pager("/ours"), logged_pager("/theirs")
        tree, reference = BTree(ours), WholeNodeWriter(theirs)
        inserted = []
        for write in writes:
            if write[0] == "insert":
                _, text, rowid, length, unique = write
                key, value = [text, rowid], b"v" * length
                got = outcome(lambda: tree.insert(
                    key, value, allow_duplicate=not unique))
                want = outcome(lambda: reference.insert(
                    list(key), value, allow_duplicate=not unique))
                if got[0] == "ok":
                    inserted.append(key)
            else:
                if write[0] == "delete" and inserted:
                    key = inserted.pop(write[1] % len(inserted))
                else:  # absent: every inserted rowid is >= 0
                    key = [write[1] if write[0] == "delete-absent" else "",
                           -1]
                got = outcome(lambda: tree.delete(key))
                want = outcome(lambda: reference.delete(list(key)))
            assert got == want
            assert ours.calls == theirs.calls
            assert (ours.page_count, ours.root_pid, ours.entry_count) == (
                theirs.page_count, theirs.root_pid, theirs.entry_count)
            for pid in range(1, ours.page_count):
                assert (ours._file.read_page(pid)
                        == theirs._file.read_page(pid)), pid
        assert [list(key) for key, _ in tree.items()] == sorted(
            inserted, key=btree.key_tuple)


class TestSplitCut:
    """A split cuts where both halves fit a page, and an insert no cut
    can place fails having written nothing."""

    def test_an_internal_split_keeps_two_large_separators_apart(self):
        """The root's middle cut would put both near-limit separators on
        one page; the split moves one entry left instead, and every key
        is found by a descent."""
        big = "k" * LONGEST_TEXT
        pager = logged_pager("/t")
        tree = BTree(pager)
        rows = [([big, 0], 500), (["a", 0], 2000), (["é", 0], 2100),
                (["中", 0], 2100), ([big, 1], 0)]
        for key, length in rows:
            tree.insert(key, b"v" * length)
        root = btree._decode_node(pager._file.read_page(pager.root_pid))
        assert [len(key[0]) for key in root.keys] == [LONGEST_TEXT]
        assert [tree.get(key) for key, _ in rows] == [
            b"v" * length for _, length in rows]
        assert len(tree) == len(list(tree.items())) == len(rows)

    def test_a_leaf_no_cut_can_place_fails_before_any_write(self):
        """A large entry between two others: each two-way cut overflows
        one half.  The insert raises, and the pages, page count and
        entries are those before it."""
        pager = logged_pager("/t")
        tree = BTree(pager)
        tree.insert(["k" * 1200, 0], b"v" * 500)
        tree.insert(["k" * 2000, 0], b"v" * 120)
        before = ([pager._file.read_page(pid)
                   for pid in range(1, pager.page_count)], pager.page_count)
        pager.calls.clear()
        with pytest.raises(StorageError, match="leaf node exceeds"):
            tree.insert(["k" * 2000, -1], b"v" * 500)
        assert ("write", 1) not in pager.calls
        assert ([pager._file.read_page(pid)
                 for pid in range(1, pager.page_count)],
                pager.page_count) == before
        assert [key for key, _ in tree.items()] == [
            ("k" * 1200, 0), ("k" * 2000, 0)]


# ----------------------------------------------------------------------
# The kept node: each way it could go wrong
# ----------------------------------------------------------------------


class TestKeptNode:
    """A tree's kept node of a page is reused only for the exact bytes
    the page reads back as; three ways those bytes could differ from the
    node, and the check that catches each."""

    def test_a_mangled_write_is_caught_on_the_next_load(self):
        """The kept key is the sealed page the tree meant to write, never
        what a ``pager.write_page.data`` failpoint put in the file; the
        next write-path load reads the file and fails its checksum, as
        it did when every load decoded."""
        _, pager, tree = fresh_tree()
        for key in range(5):
            tree.insert([key], b"v")
        registry.seed(6)
        registry.arm("pager.write_page.data", "corrupt", times=1)
        tree.insert([5], b"v")  # corrupted on its way to the file
        registry.reset()
        pid = pager.root_pid
        meant, node = tree._kept[pid]
        assert meant == seal_page(node.encode()) != pager._file.read_page(pid)
        with pytest.raises(TornPageError):
            tree.insert([6], b"v")
        with pytest.raises(TornPageError):
            tree.delete([0])

    @staticmethod
    def rows_one_leaf_holds(value):
        _, pager, tree = fresh_tree()
        count = 0
        while pager.page_count <= 2:  # header + one leaf: no split yet
            tree.insert([count], value)
            count += 1
        return count - 1

    @pytest.mark.parametrize("writes_before_the_crash", [0, 1])
    def test_a_crash_mid_split_drops_every_kept_node(
            self, writes_before_the_crash):
        """``pager.write_page.pre`` raises while a leaf splits (at the
        right half's write, or at the left's after the right's): the
        node was changed and not saved, so the next insert decodes what
        the file holds, and the tree still equals a dict model."""
        value = b"v" * 100
        _, pager, tree = fresh_tree()
        model = {}
        for key in range(self.rows_one_leaf_holds(value)):
            tree.insert([key], value)
            model[key] = value
        registry.arm("pager.write_page.pre", "raise", times=1,
                     after=writes_before_the_crash)
        with pytest.raises(InjectedFault):
            tree.insert([10 ** 6], value)  # splits the one leaf
        registry.reset()
        assert tree._kept == {}
        on_file = pager._file.read_page(1)
        decoded = []
        real = btree._decode_node
        with mock.patch.object(
                btree, "_decode_node",
                lambda raw: decoded.append(raw) or real(raw)):
            tree.insert([-1], b"w")
        assert decoded == [on_file]
        model[-1] = b"w"
        for key in range(10 ** 6 + 1, 10 ** 6 + 60):
            tree.insert([key], b"x")
            model[key] = b"x"
        assert {key[0]: value for key, value in tree.items()} == model

    def test_a_page_another_tree_rewrote_is_decoded_afresh(self):
        _, pager, first = fresh_tree()
        for key in range(0, 40, 2):
            first.insert([key], b"first")
        second = BTree(pager)
        second.insert([7], b"second")  # the same leaf, rewritten
        first.insert([9], b"first")
        assert first.get([7]) == b"second"
        assert {key[0] for key, _ in BTree(pager).items()} == {
            *range(0, 40, 2), 7, 9}
        assert second.delete([2])
        assert first.delete([4])
        assert first.get([2]) is None and second.get([4]) is None
        assert len(list(BTree(pager).items())) == 20


# ----------------------------------------------------------------------
# Count neutrality: the memo changes no page access the paper counts
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def query_system():
    from repro.core.system import SystemConfig, V2FSSystem
    from repro.workloads.generator import WorkloadGenerator

    system = V2FSSystem(SystemConfig(seed=11, txs_per_block=4))
    system.advance_all(8)
    generator = WorkloadGenerator(
        system.universe, system.config.start_time, system.latest_time
    )
    return system, generator.mixed(window_hours=6, per_type=1).queries


class TestCountNeutrality:
    @staticmethod
    def run(system, queries, mode):
        from repro.obs import REGISTRY

        client = system.make_client(mode, cache_bytes=256 * 1024)
        before = REGISTRY.counters_snapshot()
        profile = []
        for sql in queries:
            result = client.query(sql)
            stats = result.stats
            profile.append((result.rows, stats.page_requests,
                            stats.check_requests, stats.vo_bytes))
        delta = REGISTRY.counters_delta(before)
        return profile, delta

    @pytest.mark.parametrize("mode", ["baseline", "intra", "inter",
                                      "inter+vbf"])
    def test_q1_to_q8_counts_equal_with_the_memo_bypassed(
        self, query_system, mode, monkeypatch
    ):
        from repro.client.vfs import QueryMode

        system, queries = query_system
        assert len(queries) == 8
        mode = QueryMode(mode)
        node_loads = []
        real_view = BTree._view
        real_scan = BTree.scan

        def counting_view(tree, pid):
            node_loads.append(pid)
            return real_view(tree, pid)

        def checked_scan(tree, low=None, high=None, **inclusive):
            longest = max(len(low or ()), len(high or ()))
            for key, value in real_scan(tree, low, high, **inclusive):
                # A key shorter than its bound never reaches scan.
                assert len(key) >= longest
                yield key, value

        monkeypatch.setattr(BTree, "_view", counting_view)
        monkeypatch.setattr(BTree, "scan", checked_scan)
        with_memo, counters = self.run(system, queries, mode)
        loads = len(node_loads)
        hits = counters.get("db.node.memo.hit", 0)
        misses = counters.get("db.node.memo.miss", 0)
        assert hits > misses > 0
        assert hits + misses == loads  # every read-path load is one

        monkeypatch.setattr(btree, "NODE_MEMO_SIZE", 0)
        bypassed, bypassed_counters = self.run(system, queries, mode)
        assert bypassed_counters.get("db.node.memo.hit", 0) == 0
        assert bypassed_counters["db.node.memo.miss"] == loads
        assert len(node_loads) == 2 * loads

        assert with_memo == bypassed
        assert (counters["pager.read_page"]
                == bypassed_counters["pager.read_page"])
        assert [row for row, *_ in with_memo] == [
            system.plain_replica().execute(sql).rows for sql in queries
        ]


# ----------------------------------------------------------------------
# Sizing: the memo holds the working set of a cycling query mix
# ----------------------------------------------------------------------


class TestWorkingSet:
    """``NODE_MEMO_SIZE`` is fitted to what the eight query types touch
    together, at the end-to-end benchmark's scale (30 blocks per chain,
    6 transactions per block, Q1-Q8 x 4 over 12 h windows).  The queries
    cycle, and an LRU smaller than a cyclic working set misses on nearly
    every pass, so a warm pass must decode no node and no row again."""

    def test_a_warm_pass_of_q1_to_q8_decodes_nothing_again(
        self, monkeypatch
    ):
        from repro.client.vfs import QueryMode
        from repro.core.system import SystemConfig, V2FSSystem
        from repro.obs import REGISTRY
        from repro.workloads.generator import WorkloadGenerator
        from repro.workloads.queries import QUERY_TEMPLATES

        system = V2FSSystem(SystemConfig(seed=1, txs_per_block=6))
        system.advance_all(30)
        # Rendered from a seeded RNG: ``WorkloadGenerator.workload``
        # mixes ``hash(str)`` into its seed, so only its window rule is
        # reused.
        windows = WorkloadGenerator(
            system.universe, system.config.start_time, system.latest_time
        )
        rng = random.Random(1)
        queries = [
            QUERY_TEMPLATES[name].render(
                *windows._window(rng, 12 * 3600), rng, system.universe)
            for name in sorted(QUERY_TEMPLATES) for _ in range(4)
        ]
        rng.shuffle(queries)
        assert len(queries) == 32
        client = system.make_client(QueryMode.BASELINE)
        touched = set()
        real_node = NodeMemo.node

        def recording_node(memo, raw):
            touched.add(raw)
            return real_node(memo, raw)

        monkeypatch.setattr(NodeMemo, "node", recording_node)
        first = [client.query(sql).rows for sql in queries]
        # The sizing rule: a pass's distinct node pages, with headroom.
        working_set = len(touched)
        assert 0 < working_set <= btree.NODE_MEMO_SIZE / 1.25
        before = REGISTRY.counters_snapshot()
        second = [client.query(sql).rows for sql in queries]
        delta = REGISTRY.counters_delta(before)
        assert second == first
        assert delta["db.node.memo.hit"] > 0
        assert delta.get("db.node.memo.miss", 0) == 0
        assert delta.get("db.row.decoded", 0) == 0
