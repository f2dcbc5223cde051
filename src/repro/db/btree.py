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
slots (:meth:`NodeMemo.row`); a reader always gets a fresh list.

The write path (``insert``/``delete``) never reads the memo; it keeps
its own mutable nodes, per entry: each entry's encoded bytes (sliced
from the page, or encoded once when inserted), its key tuple, and the
node's running size, so an insert costs one entry's encoding and a save
one join, not a re-encode of every key.  A tree keeps one such node per
page, keyed on the page id and the exact sealed bytes it last wrote
there (or read there).  Every visit still issues its ``read_page`` and
every save its ``write_page``, so the page I/O the CI counts does not
change; the kept node is reused only when the read returns those very
bytes.  Like a memo entry it is a pure function of the page bytes, so
it cannot go stale: a page rewritten by another tree, or mangled on its
way to the file, reads back as other bytes and is decoded afresh.  An
insert or delete that raises drops every kept node (one may have been
changed and not saved).  A tree's kept nodes die with it at statement
end, unless its engine was handed a :class:`KeptNodes` store, as the CI
hands its own: then every tree of a file keeps them in that file's map,
across statements and maintenance runs.

A tree also keeps the path its read path last went down, as SQLite's
b-tree cursor keeps its page stack: each node with the bounds a root
descent sends to it, and a seek starts at the lowest held node whose
bounds admit its own instead of walking root -> leaf again (see
:meth:`BTree._seek`).  A visit the cursor saves is a page access the
engine no longer makes, so it is a request ``BASELINE`` no longer
sends; the distinct pages a query touches — what its VO covers — are
the same.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import (
    Dict,
    Iterable,
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


class _Node:
    """A mutable decoded node of the write path, kept per entry.

    Entry ``i`` is ``keys[i]`` with its :func:`key_tuple` ``tuples[i]``
    and its encoded bytes ``blobs[i]`` (the key record and the 4-byte
    word after it, plus a leaf's value), sliced from the page when the
    node is decoded and encoded once when the entry is inserted;
    ``size`` is the encoded node's running length.  So an insert costs
    one entry's encoding, :meth:`encode` is one join and a bisection
    reads the kept tuples.  Change a node only through its methods: the
    parallel lists are what it encodes.
    """

    __slots__ = ("keys", "tuples", "blobs", "size")
    KIND = 0
    NAME = ""

    def _fill(self, keys: List[List[SqlValue]], blobs: List[bytes]) -> None:
        self.keys = keys
        self.tuples = list(map(key_tuple, keys))
        self.blobs = blobs
        self.size = _NODE_HEADER.size + sum(map(len, blobs))

    def _first(self) -> int:
        raise NotImplementedError

    def _place(self, pos: int, key: Key, tail: bytes) -> None:
        """Insert entry ``key || tail`` at ``pos``."""
        key = list(key)
        blob = encode_record(key) + tail
        self.keys.insert(pos, key)
        self.tuples.insert(pos, key_tuple(key))
        self.blobs.insert(pos, blob)
        self.size += len(blob)

    def _split(self, right: "_Node", cut: int, start: int) -> None:
        """Move entries ``[start:]`` to the empty ``right`` and keep
        ``[:cut]``."""
        right.keys = self.keys[start:]
        right.tuples = self.tuples[start:]
        right.blobs = self.blobs[start:]
        right.size = _NODE_HEADER.size + sum(map(len, right.blobs))
        del self.keys[cut:], self.tuples[cut:], self.blobs[cut:]
        self.size = _NODE_HEADER.size + sum(map(len, self.blobs))

    def _cut(self, gap: int) -> int:
        """Where to split this overfull node: entries ``[:cut]`` stay and
        ``[cut + gap:]`` move right (an internal node's separator at
        ``cut`` goes up, so its ``gap`` is 1).  The middle entry, unless
        a half would overflow; then the cut nearest it where both fit.
        An internal node always has one: it fit before one separator
        of at most a record and a child arrived.  A leaf may not (a large
        entry between two others); it raises before anything is saved,
        so a failed insert leaves the tree as it was."""
        sizes = list(map(len, self.blobs))
        room = PAGE_CONTENT_SIZE - _NODE_HEADER.size
        cut = len(sizes) // 2
        while cut > 1 and sum(sizes[:cut]) > room:
            cut -= 1
        while cut < len(sizes) - 1 and sum(sizes[cut + gap:]) > room:
            cut += 1
        if sum(sizes[:cut]) > room or sum(sizes[cut + gap:]) > room:
            raise StorageError(f"{self.NAME} node exceeds page capacity")
        return cut

    def encode(self) -> bytes:
        if self.size > PAGE_CONTENT_SIZE:
            raise StorageError(f"{self.NAME} node exceeds page capacity")
        return b"".join([
            _NODE_HEADER.pack(self.KIND, len(self.blobs), self._first()),
            *self.blobs,
        ])


class _Leaf(_Node):
    __slots__ = ("next_leaf",)
    KIND = _LEAF
    NAME = "leaf"

    def __init__(self, entries: Sequence[Tuple[Key, bytes]] = (),
                 next_leaf: int = 0) -> None:
        """A leaf of ``entries`` in the order given — sorted or not, so
        tests forge pages with it."""
        self._fill([], [])
        self.next_leaf = next_leaf
        for key, value in entries:
            self.put(len(self.keys), key, value)

    def _first(self) -> int:
        return self.next_leaf

    @property
    def entries(self) -> Tuple[Tuple[List[SqlValue], bytes], ...]:
        """``(key, value)`` per entry, read-only."""
        return tuple((key, blob[decode_record(blob)[1] + 4:])
                     for key, blob in zip(self.keys, self.blobs))

    def put(self, pos: int, key: Key, value: bytes) -> None:
        self._place(pos, key, _U32.pack(len(value)) + value)

    def remove(self, pos: int) -> None:
        del self.keys[pos], self.tuples[pos]
        self.size -= len(self.blobs.pop(pos))


class _Internal(_Node):
    __slots__ = ("children",)
    KIND = _INTERNAL
    NAME = "internal"

    def __init__(self, keys: Sequence[Key], children: List[int]) -> None:
        """Subtree ``i`` holds keys in ``[keys[i-1], keys[i])``."""
        self._fill([], [])
        self.children = children[:1]
        for key, child in zip(keys, children[1:]):
            self.put(len(self.keys), key, child)

    def _first(self) -> int:
        return self.children[0]

    def put(self, pos: int, key: Key, child: int) -> None:
        """Insert separator ``key`` at ``pos`` with ``child`` right of it."""
        self._place(pos, key, _U32.pack(child))
        self.children.insert(pos + 1, child)


def _parse_node(
    raw: bytes,
) -> Tuple[int, int, List[List[SqlValue]], list, List[int]]:
    """``(kind, next_leaf | child0, keys, values | children, ends)`` of
    a page, where ``ends[i]`` is the offset just past entry ``i``.

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
        ends: List[int] = []
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
            ends.append(offset)
    except struct.error as error:
        raise StorageError(f"corrupt B+Tree node ({error})") from error
    return kind, first, keys, payloads, ends


def _decode_node(raw: bytes) -> Union[_Leaf, _Internal]:
    """A private mutable node for the write path; each entry's bytes are
    sliced from ``raw``, not encoded again."""
    kind, first, keys, payloads, ends = _parse_node(raw)
    blobs = [raw[start:end]
             for start, end in zip([_NODE_HEADER.size, *ends], ends)]
    node: Union[_Leaf, _Internal]
    if kind == _LEAF:
        node = _Leaf.__new__(_Leaf)
        node.next_leaf = first
    else:
        node = _Internal.__new__(_Internal)
        node.children = [first, *payloads]
    node._fill(keys, blobs)
    return node


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
    kind, first, keys, payloads, _ = _parse_node(raw)
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


#: A write-path kept node: the sealed page bytes and their decode.
KeptNode = Tuple[bytes, Union[_Leaf, _Internal]]


class KeptNodes:
    """The write path's kept nodes of many files, held past the
    statement: the CI's enclave-resident store.

    :meth:`file` is the ``page id -> (page bytes, node)`` map every
    :class:`BTree` of that file keeps its nodes in.  Entries stay keyed
    on the exact bytes, so holding them longer makes none stale; an
    insert or delete that raises still empties its file's map.
    :meth:`keep_only` drops, per file a run touched, the pages that run
    neither read nor wrote, so each file holds at most what its last run
    touched.
    """

    __slots__ = ("_files",)

    def __init__(self) -> None:
        self._files: Dict[str, Dict[int, KeptNode]] = {}

    def __len__(self) -> int:
        return sum(map(len, self._files.values()))

    def file(self, path: str) -> Dict[int, KeptNode]:
        return self._files.setdefault(path, {})

    def keep_only(self, touched: Iterable[Tuple[str, int]]) -> None:
        """Trim every file in ``touched`` (``(path, page id)`` pairs) to
        its pages there; files not in it keep theirs."""
        pages: Dict[str, Set[int]] = {}
        for path, pid in touched:
            pages.setdefault(path, set()).add(pid)
        for path, pids in pages.items():
            kept = self._files.get(path, {})
            for pid in kept.keys() - pids:
                del kept[pid]


class _Step(NamedTuple):
    """One node of the held path and the low bounds ``(lo, hi]`` that a
    root descent's ``bisect_left`` steps send to it (None: unbounded on
    that side; a None *bound* goes to child 0, so only ``lo`` None
    admits it)."""

    pid: int
    node: Union[LeafNode, InternalNode]
    lo: Optional[tuple]
    hi: Optional[tuple]
    #: Child position in the step above (0 at the root or a lone leaf).
    pos: int

    def admits(self, bound: Optional[tuple]) -> bool:
        if bound is None:
            return self.lo is None
        return ((self.lo is None or self.lo < bound)
                and (self.hi is None or bound <= self.hi))

    def child(self, pos: int, pid: int,
              node: Union[LeafNode, InternalNode]) -> "_Step":
        """Child ``pos`` of this internal node: bounds between its two
        separators (``bisect_left`` sends a bound equal to a separator
        left), this node's own at either end.  A node's separators are
        keys of its subtree, so they lie within its bounds."""
        tuples = self.node.tuples
        return _Step(pid, node,
                     tuples[pos - 1] if pos else self.lo,
                     tuples[pos] if pos < len(tuples) else self.hi, pos)


class BTree:
    """A B+Tree bound to one :class:`~repro.db.pager.Pager`."""

    def __init__(self, pager: Pager,
                 memo: Optional[NodeMemo] = None,
                 kept: Optional[Dict[int, KeptNode]] = None) -> None:
        self.pager = pager
        self._memo = memo if memo is not None else NodeMemo()
        #: Root -> leaf, the nodes the read path last went down (or one
        #: leaf it hopped to alone); dropped by every write to the tree,
        #: and gone with the tree (the engine keeps one per file per
        #: statement), so it never outlives the session whose claims
        #: cover its pages.
        self._path: List[_Step] = []
        #: Seeks that started at a held leaf, and at a held internal
        #: node (plain tallies; the engine reports them once per
        #: statement as ``db.cursor.held`` and ``db.cursor.held.internal``).
        self.held_seeks = 0
        self.held_internal_seeks = 0
        #: ``page id -> (page bytes, node)``: the write path's decode of
        #: the sealed bytes it last wrote to (or read from) each page.
        #: :meth:`_load` reuses a node only if ``read_page`` returns
        #: those very bytes, so, like a memo entry, it is a pure
        #: function of the page and never stale; an insert or delete
        #: that raises drops every node, since one may have been changed
        #: and not saved.  Gone with the tree at statement end, unless
        #: handed in (:meth:`KeptNodes.file`).
        self._kept: Dict[int, KeptNode] = kept if kept is not None else {}

    # -- node I/O ------------------------------------------------------

    def _load(self, pid: int) -> Union[_Leaf, _Internal]:
        """Write path: a mutable node, never the memo's; the page is
        always read, and decoded only if it is not what was kept."""
        raw = self.pager.read_page(pid)
        kept = self._kept.get(pid)
        if kept is not None and kept[0] == raw:
            return kept[1]
        node = _decode_node(raw)
        self._kept[pid] = (raw, node)
        return node

    def _view(self, pid: int) -> Union[LeafNode, InternalNode]:
        """Read path: the page is always read, and decoded at most once."""
        return self._memo.node(self.pager.read_page(pid))

    def _save(self, pid: int, node: Union[_Leaf, _Internal]) -> None:
        self._path = []
        self._kept[pid] = (self.pager.write_page(pid, node.encode()), node)

    # -- public operations ---------------------------------------------

    def insert(self, key: Key, value: bytes,
               allow_duplicate: bool = False) -> None:
        """Insert ``key -> value``.

        Duplicate keys raise unless ``allow_duplicate``; with duplicates
        allowed the new entry lands adjacent to its equals.
        """
        try:
            self._insert(key, value, allow_duplicate)
        except BaseException:
            self._kept.clear()
            raise

    def _insert(self, key: Key, value: bytes, allow_duplicate: bool) -> None:
        if self.pager.root_pid == 0:
            pid = self.pager.allocate_page()
            self._save(pid, _Leaf([(key, value)]))
            self.pager.root_pid = pid
            self.pager.entry_count = 1
            self.pager.mark_header_dirty()
            return
        split = self._insert_into(self.pager.root_pid, key, key_tuple(key),
                                  value, allow_duplicate)
        if split is not None:
            sep_key, right_pid = split
            new_root = _Internal([sep_key], [self.pager.root_pid, right_pid])
            pid = self.pager.allocate_page()
            self._save(pid, new_root)
            self.pager.root_pid = pid
        self.pager.entry_count += 1
        self.pager.mark_header_dirty()

    def _insert_into(
        self, pid: int, key: Key, target: tuple, value: bytes,
        allow_duplicate: bool,
    ) -> Optional[Tuple[Key, int]]:
        node = self._load(pid)
        pos = bisect_right(node.tuples, target)
        if isinstance(node, _Leaf):
            if (not allow_duplicate and pos > 0
                    and node.tuples[pos - 1] == target):
                raise SQLExecutionError(f"duplicate key {key!r}")
            node.put(pos, key, value)
            if node.size <= PAGE_CONTENT_SIZE:
                self._save(pid, node)
                return None
            return self._split_leaf(pid, node)
        split = self._insert_into(node.children[pos], key, target, value,
                                  allow_duplicate)
        if split is None:
            return None
        node.put(pos, *split)
        if node.size <= PAGE_CONTENT_SIZE:
            self._save(pid, node)
            return None
        return self._split_internal(pid, node)

    def _split_leaf(self, pid: int, node: _Leaf) -> Tuple[Key, int]:
        mid = node._cut(0)
        right = _Leaf((), node.next_leaf)
        node._split(right, mid, mid)
        right_pid = self.pager.allocate_page()
        node.next_leaf = right_pid
        self._save(right_pid, right)
        self._save(pid, node)
        return list(right.keys[0]), right_pid

    def _split_internal(self, pid: int, node: _Internal) -> Tuple[Key, int]:
        mid = node._cut(1)
        sep_key = node.keys[mid]
        right = _Internal((), [])
        node._split(right, mid, mid + 1)
        right.children = node.children[mid + 1:]
        del node.children[mid + 1:]
        right_pid = self.pager.allocate_page()
        self._save(right_pid, right)
        self._save(pid, node)
        return sep_key, right_pid

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
            if seen is None:
                # Nothing has moved the held path since the seek.
                seen = self._held_pids()
            leaf = self._successor(leaf, seen)

    def delete(self, key: Key) -> bool:
        """Remove the first entry with exactly ``key``; True if found."""
        try:
            return self._delete(key)
        except BaseException:
            self._kept.clear()
            raise

    def _delete(self, key: Key) -> bool:
        if self.pager.root_pid == 0:
            return False
        target = key_tuple(key)
        pid = self.pager.root_pid
        node = self._load(pid)
        while isinstance(node, _Internal):
            pid = node.children[bisect_left(node.tuples, target)]
            node = self._load(pid)
        while True:
            tuples = node.tuples
            pos = bisect_left(tuples, target)
            if pos < len(tuples) and tuples[pos] == target:
                node.remove(pos)
                self._save(pid, node)
                self.pager.entry_count -= 1
                self.pager.mark_header_dirty()
                return True
            if pos < len(tuples) or node.next_leaf == 0:
                return False
            pid = node.next_leaf
            node = self._load(pid)

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

        The seek starts from the lowest held node that admits ``low``
        (see :meth:`_seek`).
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

    def _seek(
        self, low_t: Optional[tuple]
    ) -> Tuple[LeafNode, Optional[Set[int]]]:
        """The leaf a walk over keys ``>= low_t`` starts on, and the page
        ids read to reach it — or None if it descended no further than
        the node it started on: those ids are then the held path's
        (:meth:`_held_pids`) for as long as nothing moves it.

        The walk starts at the lowest held node that admits ``low_t``
        (see :class:`_Step`), else at the root.  A root descent would
        pass through that node, as each held step's bounds are exactly
        those its parent's ``bisect_left`` sends to it, so the seek
        lands on the descent's leaf and reads a suffix of its pages.  A
        leaf held alone admits only ``first key < low_t <= last key``:
        strict on the left, because a low bound at or before a leaf's
        first key (a prefix bound ``[v]`` sorts before every ``[v,
        rowid]``) may have matching keys at the end of the left sibling
        — duplicates can straddle a split — and only the descent finds
        those.
        """
        # Pages reach this walk before they are verified, so nothing
        # says the links form a tree: a page id seen twice is a cycle.
        path = self._path
        depth = len(path)
        while depth and not path[depth - 1].admits(low_t):
            depth -= 1
        if depth:
            del path[depth:]
            step = path[-1]
            if isinstance(step.node, LeafNode):
                self.held_seeks += 1
            else:
                self.held_internal_seeks += 1
        else:
            pid = self.pager.root_pid
            step = _Step(pid, self._view(pid), None, None, 0)
            path[:] = [step]
        seen: Optional[Set[int]] = None
        node = step.node
        while isinstance(node, InternalNode):
            if seen is None:
                seen = self._held_pids()
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
            step = step.child(pos, pid, node)
            path.append(step)
        return node, seen

    def _held_pids(self) -> Set[int]:
        return {step.pid for step in self._path}

    def _successor(self, leaf: LeafNode, seen: Set[int]) -> LeafNode:
        """The leaf ``leaf`` links to, refusing a cycle or a non-leaf.

        The held path follows it while it is the held parent's next
        child; any other successor is held alone."""
        pid = leaf.next_leaf
        if pid in seen:
            raise StorageError("corrupt B+Tree (leaf chain cycle)")
        seen.add(pid)
        node = self._view(pid)
        if not isinstance(node, LeafNode):
            raise StorageError(
                "corrupt B+Tree (a leaf's successor is not a leaf)"
            )
        path = self._path
        if len(path) > 1 and path[-1].node is leaf:
            parent, pos = path[-2], path[-1].pos + 1
            children = parent.node.children
            if pos < len(children) and children[pos] == pid:
                path[-1] = parent.child(pos, pid, node)
                return node
        tuples = node.tuples
        self._path = ([_Step(pid, node, tuples[0], tuples[-1], 0)]
                      if tuples else [])
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
        if seen is None:
            # The consumer may move the held path between two leaves.
            seen = self._held_pids()
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
