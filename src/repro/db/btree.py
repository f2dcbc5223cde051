"""Page-based B+Tree.

One B+Tree per table (keyed by ``[rowid]``) and per secondary index
(keyed by ``[column_value, rowid]``).  Keys are lists of SQL values with
SQLite-style cross-type ordering; values are opaque byte strings (encoded
rows for tables, empty for indexes).

Node layout (one node per 4 KiB page):

* leaf: ``[1][count:2][next_leaf:4]`` then ``count`` entries of
  ``key-record || value-len:4 || value``;
* internal: ``[2][count:2][child0:4]`` then ``count`` entries of
  ``key-record || child:4`` — subtree ``i`` holds keys in
  ``[key[i-1], key[i])``.

Inserts split on byte overflow and propagate upward; deletes remove the
entry without rebalancing (the workloads are append-dominated; a sparse
node remains a valid node).  Leaves are chained for range scans.

Entries are back-to-back self-delimiting records — there is no slot
directory — so finding the i-th key means decoding the i-1 before it.
The read path (``scan``/``rows``/``get``/``get_row``/``items``)
therefore decodes a node *once per distinct page content*: every visit
issues its ``pager.read_page`` (the page-access pattern the paper
counts), then looks the returned bytes up in a :class:`NodeMemo` of
immutable decoded nodes and searches their precomputed
:func:`key_tuple` values by bisection.  A table leaf's rows are decoded
the same way, once per entry per page content, into the leaf's row
slots (:meth:`NodeMemo.row`); a reader always gets a fresh list.  The
write path (``insert``/``delete``) keeps its own mutable decode and
never reads the memo.

A tree also keeps the last leaf its read path landed on, as SQLite's
b-tree cursor keeps its page pinned: a seek whose low bound falls
inside that leaf starts there instead of walking root -> leaf again
(see :meth:`BTree._seek`).  A visit the cursor saves is a page access
the engine no longer makes, so it is a request ``BASELINE`` no longer
sends; the distinct pages a query touches — what its VO covers — are
the same.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import (
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.db.pager import PAGE_CONTENT_SIZE, Pager
from repro.db.record import decode_record, encode_record
from repro.db.types import SqlValue, sort_key
from repro.errors import SQLExecutionError, StorageError
from repro.obs import metrics as obs

Key = Sequence[SqlValue]

_LEAF = 1
_INTERNAL = 2
_NODE_HEADER = struct.Struct(">BHI")  # kind, count, next_leaf | child0
_U32 = struct.Struct(">I")
#: An entry is at least an empty key record (2) and a length/child (4).
_MAX_ENTRIES = (PAGE_CONTENT_SIZE - _NODE_HEADER.size) // 6

#: Decoded nodes one :class:`NodeMemo` keeps.  The memo is an LRU and
#: the queries cycle, so it must hold the whole working set of a query
#: mix, not of one query: one pass of Q1-Q8 touches 109-118 distinct
#: node pages of the 30-block benchmark database, and an LRU smaller
#: than a cyclic working set misses on nearly every pass.  160 is >=
#: 1.35x that (SQLite's default cache holds ~500 pages).  A count, not
#: a byte budget: pages are a fixed 4 KiB.
NODE_MEMO_SIZE = 160

#: Ranks above every :func:`~repro.db.types.sort_key`, so
#: ``bound + (_PLUS_INF,)`` sorts after every key extending ``bound``.
_PLUS_INF = (3,)


#: :func:`~repro.db.types.sort_key` rank of the types keys hold, so
#: :func:`key_tuple` skips its checks for them.
_RANK = {int: 1, float: 1, str: 2}.get


def key_tuple(key: Key) -> tuple:
    """Total-order comparison key for a composite B+Tree key: the
    :func:`~repro.db.types.sort_key` of each component."""
    out = []
    for value in key:
        rank = _RANK(type(value))
        out.append((rank, value) if rank else sort_key(value))
    return tuple(out)


class _Leaf:
    __slots__ = ("entries", "next_leaf")

    def __init__(
        self,
        entries: Optional[List[Tuple[Key, bytes]]] = None,
        next_leaf: int = 0,
    ) -> None:
        self.entries = entries if entries is not None else []
        self.next_leaf = next_leaf

    def encoded_size(self) -> int:
        size = 1 + 2 + 4
        for key, value in self.entries:
            size += len(encode_record(key)) + 4 + len(value)
        return size

    def encode(self) -> bytes:
        parts = [
            bytes([_LEAF]),
            struct.pack(">HI", len(self.entries), self.next_leaf),
        ]
        for key, value in self.entries:
            parts.append(encode_record(key))
            parts.append(struct.pack(">I", len(value)))
            parts.append(value)
        raw = b"".join(parts)
        if len(raw) > PAGE_CONTENT_SIZE:
            raise StorageError("leaf node exceeds page capacity")
        return raw


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self, keys: List[Key], children: List[int]) -> None:
        self.keys = keys
        self.children = children

    def encoded_size(self) -> int:
        size = 1 + 2 + 4
        for key in self.keys:
            size += len(encode_record(key)) + 4
        return size

    def encode(self) -> bytes:
        parts = [
            bytes([_INTERNAL]),
            struct.pack(">HI", len(self.keys), self.children[0]),
        ]
        for key, child in zip(self.keys, self.children[1:]):
            parts.append(encode_record(key))
            parts.append(struct.pack(">I", child))
        raw = b"".join(parts)
        if len(raw) > PAGE_CONTENT_SIZE:
            raise StorageError("internal node exceeds page capacity")
        return raw


def _parse_node(raw: bytes) -> Tuple[int, int, List[List[SqlValue]], list]:
    """``(kind, next_leaf | child0, keys, values | children)`` of a page.

    Pages may reach this parser *before* the client has verified them
    (the VO is checked at the end of the query), so it trusts nothing:
    the entry count and every offset are bounded by the page content
    size, and any malformed input raises :class:`StorageError`.
    """
    try:
        kind, count, first = _NODE_HEADER.unpack_from(raw, 0)
        if kind not in (_LEAF, _INTERNAL):
            raise StorageError(f"corrupt B+Tree node (kind {kind})")
        if count > _MAX_ENTRIES:
            raise StorageError(f"corrupt B+Tree node ({count} entries)")
        offset = _NODE_HEADER.size
        keys: List[List[SqlValue]] = []
        payloads: list = []
        for _ in range(count):
            key, offset = decode_record(raw, offset)
            (word,) = _U32.unpack_from(raw, offset)
            offset += 4
            if kind == _LEAF:
                payloads.append(raw[offset:offset + word])
                offset += word
            else:
                payloads.append(word)
            if offset > PAGE_CONTENT_SIZE:
                raise StorageError(
                    "corrupt B+Tree node (entry runs past the page content)"
                )
            keys.append(key)
    except struct.error as error:
        raise StorageError(f"corrupt B+Tree node ({error})") from error
    return kind, first, keys, payloads


def _decode_node(raw: bytes) -> Union[_Leaf, _Internal]:
    """A private mutable node for the write path."""
    kind, first, keys, payloads = _parse_node(raw)
    if kind == _LEAF:
        return _Leaf(list(zip(keys, payloads)), first)
    return _Internal(keys, [first] + payloads)


class LeafNode(NamedTuple):
    """An immutable decoded leaf; ``tuples[i]`` orders ``entries[i]``.

    ``rows[i]`` is ``entries[i]``'s value decoded as a record, None
    until :meth:`NodeMemo.row` first decodes it: a pure function of the
    page bytes, like the rest of the node, so it lives and dies with the
    node's memo entry.  Only the memo writes it; readers copy.
    """

    tuples: Tuple[tuple, ...]
    entries: Tuple[Tuple[Tuple[SqlValue, ...], bytes], ...]
    next_leaf: int
    rows: List[Optional[Tuple[SqlValue, ...]]]


class InternalNode(NamedTuple):
    """An immutable decoded internal node (one more child than keys)."""

    tuples: Tuple[tuple, ...]
    children: Tuple[int, ...]


def _freeze_node(raw: bytes) -> Union[LeafNode, InternalNode]:
    kind, first, keys, payloads = _parse_node(raw)
    tuples = tuple(key_tuple(key) for key in keys)
    if kind == _LEAF:
        return LeafNode(tuples, tuple(zip(map(tuple, keys), payloads)), first,
                        [None] * len(keys))
    return InternalNode(tuples, (first, *payloads))


class NodeMemo:
    """Bounded LRU of immutable decoded nodes, keyed on the page *bytes*.

    An entry is a pure function of its key, so it can never be stale: a
    tampered, superseded or rewritten page is a different key, and no
    write needs to invalidate anything.  What the memo must not do is
    outlive the trust in the bytes that filled it — its owner clears it
    when a query fails verification (see ``QueryClient.query``).

    One owner, no lock: a memo belongs to one ``QueryClient`` (or one
    ``Engine`` built without a client) and is used by one query at a
    time, like the session it is handed to.  Hits, misses and rows
    decoded are plain tallies; the engine reports them once per
    statement (:meth:`report`), never once per visit.
    """

    __slots__ = ("_nodes", "_hits", "_misses", "_rows_decoded")

    def __init__(self) -> None:
        self._nodes: "OrderedDict[bytes, Union[LeafNode, InternalNode]]" = (
            OrderedDict()
        )
        self._hits = 0
        self._misses = 0
        self._rows_decoded = 0

    def __len__(self) -> int:
        return len(self._nodes)

    def clear(self) -> None:
        self._nodes.clear()

    def node(self, raw: bytes) -> Union[LeafNode, InternalNode]:
        """The decoded node of page bytes ``raw``, decoding at most once
        while it is kept; a raising parse keeps nothing."""
        nodes = self._nodes
        node = nodes.get(raw)
        if node is not None:
            nodes.move_to_end(raw)
            self._hits += 1
            return node
        self._misses += 1
        node = nodes[raw] = _freeze_node(raw)
        while len(nodes) > NODE_MEMO_SIZE:
            nodes.popitem(last=False)
        return node

    def row(self, leaf: LeafNode, index: int) -> Tuple[SqlValue, ...]:
        """Entry ``index`` of ``leaf`` decoded as a row, decoding at most
        once per leaf content; a raising decode fills nothing."""
        row = leaf.rows[index]
        if row is None:
            values, _ = decode_record(leaf.entries[index][1], 0)
            row = leaf.rows[index] = tuple(values)
            self._rows_decoded += 1
        return row

    def report(self) -> None:
        """Hand the tallies since the last report to ``repro.obs``."""
        hits, misses, decoded = self._hits, self._misses, self._rows_decoded
        self._hits = self._misses = self._rows_decoded = 0
        if obs.ACTIVE:
            if hits:
                obs.add("db.node.memo.hit", hits)
            if misses:
                obs.add("db.node.memo.miss", misses)
            if decoded:
                obs.add("db.row.decoded", decoded)


class BTree:
    """A B+Tree bound to one :class:`~repro.db.pager.Pager`."""

    def __init__(self, pager: Pager,
                 memo: Optional[NodeMemo] = None) -> None:
        self.pager = pager
        self._memo = memo if memo is not None else NodeMemo()
        #: ``(page id, leaf)`` the read path last landed on; dropped by
        #: every write to the tree, and gone with the tree (the engine
        #: keeps one per file per statement), so it never outlives the
        #: session whose claims cover the page.
        self._held: Optional[Tuple[int, LeafNode]] = None
        #: Seeks answered from ``_held`` (plain tally; the engine
        #: reports it once per statement as ``db.cursor.held``).
        self.held_seeks = 0

    # -- node I/O ------------------------------------------------------

    def _load(self, pid: int) -> Union[_Leaf, _Internal]:
        """Write path: a fresh mutable node, never the memo's."""
        return _decode_node(self.pager.read_page(pid))

    def _view(self, pid: int) -> Union[LeafNode, InternalNode]:
        """Read path: the page is always read, and decoded at most once."""
        return self._memo.node(self.pager.read_page(pid))

    def _save(self, pid: int, node) -> None:
        self._held = None
        self.pager.write_page(pid, node.encode())

    # -- public operations ---------------------------------------------

    def insert(self, key: Key, value: bytes,
               allow_duplicate: bool = False) -> None:
        """Insert ``key -> value``.

        Duplicate keys raise unless ``allow_duplicate``; with duplicates
        allowed the new entry lands adjacent to its equals.
        """
        if self.pager.root_pid == 0:
            pid = self.pager.allocate_page()
            self._save(pid, _Leaf([(key, value)]))
            self.pager.root_pid = pid
            self.pager.entry_count = 1
            self.pager.mark_header_dirty()
            return
        split = self._insert_into(self.pager.root_pid, key, value,
                                  allow_duplicate)
        if split is not None:
            sep_key, right_pid = split
            new_root = _Internal([sep_key], [self.pager.root_pid, right_pid])
            pid = self.pager.allocate_page()
            self._save(pid, new_root)
            self.pager.root_pid = pid
        self.pager.entry_count += 1
        self.pager.mark_header_dirty()

    def _insert_into(
        self, pid: int, key: Key, value: bytes, allow_duplicate: bool
    ) -> Optional[Tuple[Key, int]]:
        node = self._load(pid)
        if isinstance(node, _Leaf):
            tuples = [key_tuple(k) for k, _ in node.entries]
            target = key_tuple(key)
            pos = bisect_right(tuples, target)
            if not allow_duplicate and pos > 0 and tuples[pos - 1] == target:
                raise SQLExecutionError(f"duplicate key {key!r}")
            node.entries.insert(pos, (key, value))
            if node.encoded_size() <= PAGE_CONTENT_SIZE:
                self._save(pid, node)
                return None
            return self._split_leaf(pid, node)
        pos = self._child_index(node, key)
        split = self._insert_into(node.children[pos], key, value,
                                  allow_duplicate)
        if split is None:
            return None
        sep_key, right_pid = split
        node.keys.insert(pos, sep_key)
        node.children.insert(pos + 1, right_pid)
        if node.encoded_size() <= PAGE_CONTENT_SIZE:
            self._save(pid, node)
            return None
        return self._split_internal(pid, node)

    def _split_leaf(self, pid: int, node: _Leaf) -> Tuple[Key, int]:
        mid = len(node.entries) // 2
        right = _Leaf(node.entries[mid:], node.next_leaf)
        right_pid = self.pager.allocate_page()
        node.entries = node.entries[:mid]
        node.next_leaf = right_pid
        self._save(right_pid, right)
        self._save(pid, node)
        return list(right.entries[0][0]), right_pid

    def _split_internal(self, pid: int, node: _Internal) -> Tuple[Key, int]:
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = _Internal(node.keys[mid + 1:], node.children[mid + 1:])
        right_pid = self.pager.allocate_page()
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        self._save(right_pid, right)
        self._save(pid, node)
        return sep_key, right_pid

    @staticmethod
    def _child_index(node: _Internal, key: Key) -> int:
        tuples = [key_tuple(k) for k in node.keys]
        return bisect_right(tuples, key_tuple(key))

    def get(self, key: Key) -> Optional[bytes]:
        """Point lookup; returns the value or None."""
        found = self._find(key)
        if found is None:
            return None
        leaf, index = found
        return leaf.entries[index][1]

    def get_row(self, key: Key) -> Optional[List[SqlValue]]:
        """Point lookup of a table row: the value decoded as a record (a
        fresh list), or None."""
        found = self._find(key)
        if found is None:
            return None
        leaf, index = found
        return list(leaf.rows[index] or self._memo.row(leaf, index))

    def _find(self, key: Key) -> Optional[Tuple[LeafNode, int]]:
        """Where the first entry ``scan(key, key)`` would yield is, read
        through exactly the pages that scan reads up to it."""
        if self.pager.root_pid == 0:
            return None
        target = key_tuple(key)
        end = target + (_PLUS_INF,)
        leaf, seen = self._seek(target)
        while True:
            tuples = leaf.tuples
            index = bisect_left(tuples, target)
            if index < len(tuples):
                # Keys extending ``key`` sort before ``end``.
                return (leaf, index) if tuples[index] < end else None
            if leaf.next_leaf == 0:
                return None
            leaf = self._successor(leaf, seen)

    def delete(self, key: Key) -> bool:
        """Remove the first entry with exactly ``key``; True if found."""
        if self.pager.root_pid == 0:
            return False
        pid = self.pager.root_pid
        node = self._load(pid)
        while isinstance(node, _Internal):
            pid = node.children[self._child_index_low(node, key)]
            node = self._load(pid)
        target = key_tuple(key)
        while True:
            tuples = [key_tuple(k) for k, _ in node.entries]
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

    @staticmethod
    def _child_index_low(node: _Internal, key: Key) -> int:
        tuples = [key_tuple(k) for k in node.keys]
        return bisect_left(tuples, key_tuple(key))

    def scan(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Tuple[Tuple[SqlValue, ...], bytes]]:
        """Yield ``(key, value)`` with ``low <= key <= high`` in key order.

        Bounds may be key *prefixes* (e.g. ``[value]`` against
        ``[value, rowid]`` keys); missing components read as minus/plus
        infinity for the low/high bound respectively.  A bound is never
        longer than the keys it is compared with.  Yielded keys are
        tuples shared with the node memo.

        The seek starts from the held leaf iff ``first key < low <=
        last key`` there (see :meth:`_seek`).
        """
        for leaf, start, end in self._slices(low, high, low_inclusive,
                                             high_inclusive):
            yield from leaf.entries[start:end]

    def rows(self) -> Iterator[Tuple[Tuple[SqlValue, ...], List[SqlValue]]]:
        """:meth:`items` of a table tree with each value decoded as a
        record: ``(key, row)``, the row a fresh list each time."""
        decode = self._memo.row
        for leaf, start, end in self._slices(None, None, True, True):
            entries, slots = leaf.entries, leaf.rows
            for i in range(start, end):
                yield entries[i][0], list(slots[i] or decode(leaf, i))

    def _seek(self, low_t: Optional[tuple]) -> Tuple[LeafNode, Set[int]]:
        """The leaf a walk over keys ``>= low_t`` starts on, and the page
        ids read to reach it.

        The held leaf iff ``first key < low_t <= last key`` there: the
        descent would land on that very leaf.  Strict on the left,
        because a low bound at or before a leaf's first key (a prefix
        bound ``[v]`` sorts before every ``[v, rowid]``) may have
        matching keys at the end of the left sibling — duplicates can
        straddle a split — and only the descent finds those.
        """
        # Pages reach this walk before they are verified, so nothing
        # says the links form a tree: a page id seen twice is a cycle.
        held = self._held
        inside = held[1].tuples if held and low_t is not None else ()
        if inside and inside[0] < low_t <= inside[-1]:
            self.held_seeks += 1
            return held[1], {held[0]}
        pid = self.pager.root_pid
        seen = {pid}
        node = self._view(pid)
        while isinstance(node, InternalNode):
            # Descend to the leftmost child that can hold keys >= low.
            # bisect_left, not _right: a separator equal to the bound
            # may still have equal keys in the left sibling (duplicates
            # can straddle a split boundary).
            pos = 0 if low_t is None else bisect_left(node.tuples, low_t)
            pid = node.children[pos]
            if pid in seen:
                raise StorageError("corrupt B+Tree (child link cycle)")
            seen.add(pid)
            node = self._view(pid)
        self._held = (pid, node)
        return node, seen

    def _successor(self, leaf: LeafNode, seen: Set[int]) -> LeafNode:
        """The leaf ``leaf`` links to, refusing a cycle or a non-leaf."""
        pid = leaf.next_leaf
        if pid in seen:
            raise StorageError("corrupt B+Tree (leaf chain cycle)")
        seen.add(pid)
        node = self._view(pid)
        if not isinstance(node, LeafNode):
            raise StorageError(
                "corrupt B+Tree (a leaf's successor is not a leaf)"
            )
        self._held = (pid, node)
        return node

    def _slices(
        self,
        low: Optional[Key],
        high: Optional[Key],
        low_inclusive: bool,
        high_inclusive: bool,
    ) -> Iterator[Tuple[LeafNode, int, int]]:
        """``(leaf, start, end)`` per leaf the range walk reads:
        ``leaf.entries[start:end]`` are its keys inside the bounds."""
        if self.pager.root_pid == 0:
            return
        low_t = None if low is None else key_tuple(low)
        high_t = None if high is None else key_tuple(high)
        high_end = None if high_t is None else high_t + (_PLUS_INF,)
        node, seen = self._seek(low_t)
        while True:
            tuples = node.tuples
            count = len(tuples)
            if low_t is None:
                start = 0
            elif low_inclusive:
                start = bisect_left(tuples, low_t)
            else:
                start = bisect_right(tuples, low_t)
            if high_t is None:
                end = count
            else:
                end = bisect_right(tuples, high_end)
                if not high_inclusive:
                    # A key equal to the bound ends an exclusive scan;
                    # longer keys the bound is a prefix of do not.
                    exact = bisect_left(tuples, high_t, 0, end)
                    if exact < end and tuples[exact] == high_t:
                        end = exact
            yield node, start, end
            # The scan ends at the first key inside the low bound and
            # beyond the high one; a leaf without such a key hands over
            # to its successor (also when low > high: every leaf up to
            # the low bound is still read, as page counts expect).
            if max(start, end) < count or node.next_leaf == 0:
                return
            node = self._successor(node, seen)

    def items(self) -> Iterator[Tuple[Tuple[SqlValue, ...], bytes]]:
        """Full in-order scan."""
        return self.scan()

    def __len__(self) -> int:
        return self.pager.entry_count
