"""One adversary: every lie an ISP tells a verifying client, as a table.

:class:`LyingIsp` is an honest :class:`~repro.isp.server.IspServer`
until :meth:`LyingIsp.arm` hands it a :class:`Move` from :data:`MOVES`:
the answer it rewrites, the requests it lies to (a path and a page
predicate) and a function from the honest answer to the lie.  ``fire``
is ``ONCE`` (the next time the ISP is asked a thing the move can lie
about), ``FIRST_PER_SESSION`` (the first response to each request of a
session, every repeat of it genuine: one key, two contents, one
session) or ``ALWAYS``.  The ISP records what it was asked (``asked``)
and the lies it told (``told``).  ``tests/test_security.py`` and the
state machine in ``tests/test_stateful.py`` arm rows of this one table;
:func:`assert_refused_cleanly` is the refusal they expect.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
from typing import Any, Callable, List, Optional, Tuple

import pytest

from repro.db import btree
from repro.db.btree import BTree
from repro.db.pager import seal_page
from repro.errors import (
    CertificateError,
    ReproError,
    StorageError,
    VerificationError,
)
from repro.isp.server import IspServer
from repro.merkle.proof import AdsProof, gen_trie_proof

TABLE = "/db/tables/eth_transactions.tbl"
CATALOG = "/db/catalog"

ONCE, FIRST_PER_SESSION, ALWAYS = "once", "first-per-session", "always"


@dataclasses.dataclass(frozen=True)
class Asked:
    """One request the ISP was asked, and its honest answer."""

    isp: "LyingIsp"
    move: "Move"
    args: tuple
    #: The session's snapshot root (the current root outside a session).
    root: bytes
    honest: Any

    @property
    def path(self) -> Optional[str]:
        return self.args[1] if len(self.args) > 1 else None

    @property
    def page_id(self) -> Optional[int]:
        return self.args[2] if len(self.args) > 2 else None

    @property
    def rng(self) -> random.Random:
        return random.Random(f"{self.isp.seed}/{self.page_id}")

    def page(self, page_id: int, root: Optional[bytes] = None) -> bytes:
        """Honest bytes of another page of this file; the VO is not
        told (they are never claimed)."""
        return self.isp.ads.get_page(root or self.root, self.path, page_id)

    def meta(self, root: Optional[bytes] = None):
        node = self.isp.ads.file_node(root or self.root, self.path)
        return True, node.size, node.page_count

    def page_count(self) -> int:
        return self.meta()[2]


def data_pages(page_id: int) -> bool:
    return page_id >= 1  # a table's page 0 is its header


def any_page(page_id: int) -> bool:
    return True


@dataclasses.dataclass(frozen=True)
class Move:
    """One row of the table: the lie, where it is told, what refuses it."""

    name: str
    #: The :class:`IspServer` method whose answer is rewritten.
    answer: str
    #: The honest answer -> the lie, or None: nothing to lie about here.
    rewrite: Callable[[Asked], Any]
    #: The file lied about (None: every file) and which of its pages.
    path: Optional[str] = TABLE
    pages: Callable[[int], bool] = data_pages
    #: What the client must raise (a narrower type where it is known).
    error: Any = ReproError
    #: It has nothing to tell before a block: stale cache entries, a
    #: previous certificate or root.
    block_first: bool = False

    def at(self, path: Optional[str], pages=None) -> "Move":
        """The same lie about another file (every page, by default)."""
        return dataclasses.replace(self, path=path, pages=pages or any_page)

    def targets(self, asked: Asked) -> bool:
        return ((self.path is None or asked.path == self.path)
                and (asked.page_id is None or self.pages(asked.page_id)))


class LyingIsp(IspServer):
    """Honest until armed with a :class:`Move`."""

    def __init__(self) -> None:
        super().__init__()
        self.move: Optional[Move] = None
        self.fire = ONCE
        self.seed = 0
        #: ``(answer, args)`` of every request, in order.
        self.asked: list = []
        #: ``(move name, args)`` of every lie told, in order.
        self.told: list = []
        #: Called with the answer's name before each request is served.
        self.on_asked: Optional[Callable[[str], None]] = None
        self.previous_certificate = None
        self._lied_to: set = set()

    @classmethod
    def install(cls, system) -> "LyingIsp":
        """Take over ``system``'s ISP state; the system serves it."""
        isp = cls()
        honest = system.isp
        isp.ads, isp.root = honest.ads, honest.root
        isp.certificate = honest.certificate
        isp._previous_root = honest._previous_root
        system.isp = isp
        return isp

    def arm(self, move: Move, fire: str = ONCE, seed: int = 0) -> None:
        self.move, self.fire, self.seed = move, fire, seed
        self._lied_to.clear()

    def disarm(self) -> None:
        self.move = None

    def asked_for(self, answer: str) -> list:
        """The paths of every ``answer`` request, in order."""
        return [args[1] for name, args in self.asked if name == answer]

    def sync_update(self, writes, new_sizes, certificate) -> None:
        previous = self.certificate
        super().sync_update(writes, new_sizes, certificate)
        self.previous_certificate = previous

    # -- the five answers a client is told ---------------------------------

    def get_certificate(self):
        return self._answer("get_certificate", super().get_certificate)

    def get_file_meta(self, session_id, path):
        return self._answer("get_file_meta", super().get_file_meta,
                            session_id, path)

    def get_page(self, session_id, path, page_id):
        return self._answer("get_page", super().get_page,
                            session_id, path, page_id)

    def validate_path(self, session_id, path, page_id, digs_path):
        return self._answer("validate_path", super().validate_path,
                            session_id, path, page_id, digs_path)

    def finalize_session(self, session_id):
        return self._answer("finalize_session", super().finalize_session,
                            session_id)

    def _answer(self, answer: str, honest_call, *args):
        if self.on_asked is not None:
            self.on_asked(answer)
        session = self._sessions.get(args[0]) if args else None
        root = session.root if session is not None else self.root
        honest = honest_call(*args)
        self.asked.append((answer, args))
        move = self.move
        if move is None or move.answer != answer:
            return honest
        asked = Asked(self, move, args, root, honest)
        request = args[:3]
        if not move.targets(asked) or request in self._lied_to:
            return honest
        lie = move.rewrite(asked)
        if lie is None or lie == honest:
            return honest
        if self.fire == ONCE:
            self.move = None
        elif self.fire == FIRST_PER_SESSION:
            self._lied_to.add(request)
        self.told.append((move.name, args))
        return lie


def assert_refused_cleanly(client, isp: LyingIsp, sql: str, expected,
                           error=None) -> ReproError:
    """Run ``sql`` with the lie armed: it is told, the query fails with
    the move's typed error (or ``error``), no ISP session is left open,
    nothing read in the query is carried (decoded nodes, catalog,
    compiled statements and metadata are gone; the page cache only
    shrank), and — the ISP
    disarmed — the next query's rows are ``expected`` (skipped if None).
    """
    state = client.state
    before = set(state.pages._pages) if state.pages is not None else set()
    told = len(isp.told)
    with pytest.raises(error or isp.move.error) as refused:
        client.query(sql)
    isp.disarm()
    assert len(isp.told) > told, "the armed lie was never told"
    assert len(isp.sessions) == 0
    assert len(state.nodes) == len(state.catalog) == len(state.metas) == 0
    assert len(state.statements) == 0
    if state.pages is not None:
        assert set(state.pages._pages) <= before
    if expected is not None:
        assert client.query(sql).rows == expected
    return refused.value


@contextlib.contextmanager
def careless_reader():
    """The other party a verifying client must not trust: a reader that
    keeps every row ``BTree.rows``/``get_row`` hand out (the list is
    yielded) and scribbles on them all once the block is done."""
    rows, get_row, kept = BTree.rows, BTree.get_row, []

    def keeping_rows(tree):
        for key, row in rows(tree):
            kept.append(row)
            yield key, row

    def keeping_row(tree, key):
        row = get_row(tree, key)
        if row is not None:
            kept.append(row)
        return row

    BTree.rows, BTree.get_row = keeping_rows, keeping_row
    try:
        yield kept
    finally:
        BTree.rows, BTree.get_row = rows, get_row
        for row in kept:
            row[:] = ["scribbled"] * (len(row) + 1)


# -- the lies ---------------------------------------------------------------


def flip_byte(data: bytes, offset: int = 0, bit: int = 0x01) -> bytes:
    offset %= len(data)
    return data[:offset] + bytes([data[offset] ^ bit]) + data[offset + 1:]


def flip(offset: int = 40) -> Move:
    """One byte changed inside the node's first entries: the decoded
    content differs (or the parse fails), not just the checksum."""
    return Move(f"flip@{offset}", "get_page",
                lambda asked: flip_byte(asked.honest, offset))


def _flip8(asked: Asked) -> bytes:
    rng, garbled = asked.rng, bytearray(asked.honest)
    for _ in range(8):
        garbled[rng.randrange(len(garbled))] ^= 1 + rng.randrange(255)
    return bytes(garbled)


def _wrong_schema(asked: Asked) -> bytes:
    """A well-formed catalog file (length prefix, UTF-8, JSON) whose
    document is not a catalog."""
    raw = asked.rng.choice([
        '[1, 2]', '{"tables": 5}', '{"tables": [{"name": "t"}]}', '"é"',
        '{"tables": [{"name": "t", "columns": [1], "file_path": "x",'
        ' "indexes": [{"bogus": 1}]}]}',
    ]).encode("utf-8")
    return (len(raw).to_bytes(8, "big") + raw).ljust(len(asked.honest),
                                                     b"\x00")


def _other_page(leaves_only: bool):
    """Honest bytes of another page of the same file: a leaf for the
    root, the root for a leaf, one leaf for another."""
    def rewrite(asked: Asked) -> Optional[bytes]:
        if leaves_only and asked.honest[0] != btree._LEAF:
            return None
        others = [page for pid, page in enumerate(
                      map(asked.page, range(asked.page_count())))
                  if asked.move.pages(pid) and page != asked.honest
                  and (page[0] == btree._LEAF or not leaves_only)]
        return asked.rng.choice(others) if others else None
    return rewrite


#: One leaf's ``(key, value)`` entries.
Entries = List[Tuple[Any, bytes]]


def leaf_page(entries: Entries, next_leaf: int = 0) -> bytes:
    """A sealed page holding one B+Tree leaf of ``entries``, in the
    order given: the one way a test forges a leaf.  (A decoded node
    keeps each entry's encoded bytes, so a forger edits the entries,
    not a node.)"""
    return seal_page(btree._Leaf(entries, next_leaf).encode())


def _resealed(
    change: Callable[[Asked, Entries, int], Optional[tuple]],
):
    """A table leaf's ``(entries, next_leaf)`` changed by ``change``
    (None: nothing to change here) and sealed again: a well-formed
    page."""
    def rewrite(asked: Asked) -> Optional[bytes]:
        if asked.honest[0] != btree._LEAF:
            return None
        leaf = btree._decode_node(asked.honest)
        changed = change(asked, list(leaf.entries), leaf.next_leaf)
        return None if changed is None else leaf_page(*changed)
    return rewrite


def _one_record(asked: Asked, entries: Entries, next_leaf: int) -> tuple:
    """Every row carries the leaf's shortest record."""
    record = min((value for _, value in entries), key=len)
    return [(key, record) for key, _ in entries], next_leaf


def _garbled(offset: int, bits: int):
    """Every row's record garbled at ``offset``, keys and lengths intact
    (a record is ``[count:2][tag:1][payload]``; a text payload starts
    with its 4-byte length)."""
    def change(asked: Asked, entries: Entries, next_leaf: int) -> tuple:
        return [(key, flip_byte(value, offset, bits))
                for key, value in entries], next_leaf
    return change


def _link_past_next(asked: Asked, entries: Entries,
                    next_leaf: int) -> Optional[tuple]:
    """Link past the successor, so a scan omits its rows (0, ending the
    scan, if that was the last leaf)."""
    if next_leaf == 0:
        return None
    return entries, btree._decode_node(asked.page(next_leaf)).next_leaf


def _shifted_separators(asked: Asked) -> Optional[bytes]:
    """An internal node re-encoded with every separator's rowid one
    lower (table and index keys both end in the rowid): each child's
    bounds reach one key into its left sibling's, so a held path would
    admit there a bound the descent sends left."""
    if asked.honest[0] != btree._INTERNAL:
        return None
    node = btree._decode_node(asked.honest)
    keys = [[*key[:-1], key[-1] - 1] for key in node.keys]
    return seal_page(btree._Internal(keys, node.children).encode())


def _swapped_catalog(asked: Asked) -> bytes:
    """Two tables trade files; equal lengths keep every page boundary."""
    one = b"/db/tables/eth_transactions.tbl"
    other = b"/db/tables/btc_transactions.tbl"
    hole = b"\x00" * len(one)
    whole = b"".join(map(asked.page, range(asked.page_count())))
    swapped = (whole.replace(one, hole).replace(other, one)
               .replace(hole, other))
    return swapped[asked.page_id * 4096:(asked.page_id + 1) * 4096]


def _previous(asked: Asked, read):
    """``read`` under the previous certified root; None if it has none
    (or the thing did not exist then)."""
    previous = asked.isp._previous_root
    if previous is None:
        return None
    try:
        return read(previous)
    except StorageError:
        return None


def _meta(pages: int = 0, less=lambda asked: 0):
    """The size misstated by ``pages`` pages (files of two or more) or
    understated by ``less(asked)`` bytes."""
    def rewrite(asked: Asked):
        exists, size, count = asked.honest
        if pages and count <= 1:
            return None
        return exists, size + 4096 * pages - less(asked), count + pages
    return rewrite


def _fresh(pick: Callable[[list], tuple], forge: bool = False):
    """``("fresh", …)`` for one of the digests the client sent, its
    node added to the VO so the proof covers the claim."""
    def rewrite(asked: Asked):
        digs_path = asked.args[3]
        if not digs_path:
            return None
        level, index, digest = pick(digs_path)
        if forge:
            return ("fresh", level, index, flip_byte(digest, 0))
        try:
            if digest == asked.isp.ads.node_digest(asked.root, asked.path,
                                                   level, index):
                return None  # still fresh there: true, so no lie
        except StorageError:
            pass  # no such node under the root: false all the same
        session = asked.isp._sessions.get(asked.args[0])
        if session is not None:
            session.vo.add_node(asked.path, level, index)
        return ("fresh", level, index, digest)
    return rewrite


def _empty_vo(asked: Asked) -> Optional[AdsProof]:
    empty = AdsProof(trie=gen_trie_proof(asked.isp.ads.store, asked.root, []))
    return None if empty.encode() == asked.honest.encode() else empty


_ANYWHERE = {"path": None, "pages": any_page}

#: Every lie, by name; DESIGN §5 lists the hole each one generalises.
MOVES = {move.name: move for move in [
    flip(),
    Move("flip-end", "get_page",
         lambda asked: flip_byte(asked.honest, -1, 0xFF)),
    Move("flip8", "get_page", _flip8),
    Move("random", "get_page",
         lambda asked: asked.rng.randbytes(len(asked.honest))),
    Move("truncated", "get_page",
         lambda asked: asked.honest[:asked.rng.randrange(64)]),
    Move("wrong-schema", "get_page", _wrong_schema, CATALOG, any_page),
    Move("zero-page", "get_page", lambda asked: bytes(len(asked.honest))),
    Move("other-page", "get_page", _other_page(leaves_only=False)),
    Move("other-leaf", "get_page", _other_page(leaves_only=True),
         error=(StorageError, VerificationError)),
    Move("re-encoded-leaf", "get_page", _resealed(_one_record),
         error=VerificationError),
    Move("shifted-separators", "get_page", _shifted_separators,
         error=VerificationError),
    Move("garbled-tag", "get_page", _resealed(_garbled(2, 0x7C)),
         error=(StorageError, VerificationError)),
    Move("garbled-text", "get_page", _resealed(_garbled(7, 0x01)),
         error=(StorageError, VerificationError)),
    Move("swapped-catalog", "get_page", _swapped_catalog, CATALOG,
         any_page, error=VerificationError),
    # "meta-1" is also the truncating ISP's lie: hide the last page.
    Move("meta-1", "get_file_meta", _meta(pages=-1)),
    Move("meta+1", "get_file_meta", _meta(pages=+1)),
    Move("meta-16", "get_file_meta", _meta(less=lambda asked: 16),
         error=VerificationError),
    Move("meta-short", "get_file_meta", _meta(
        less=lambda asked: asked.rng.randrange(1, asked.honest[1]))),
    Move("fresh-top", "validate_path", _fresh(lambda digs: digs[0]),
         **_ANYWHERE, block_first=True),
    Move("fresh-deepest", "validate_path", _fresh(lambda digs: digs[-1]),
         **_ANYWHERE, block_first=True),
    Move("fresh-forged", "validate_path",
         _fresh(lambda digs: digs[0], forge=True),
         **_ANYWHERE, block_first=True, error=VerificationError),
    Move("empty-vo", "finalize_session", _empty_vo, None),
    Move("replay", "get_certificate",
         lambda asked: asked.isp.previous_certificate, None,
         block_first=True, error=CertificateError),
    # Completeness: each hides rows that exist rather than forging any.
    Move("skip-next-leaf", "get_page", _resealed(_link_past_next)),
    Move("stale-meta", "get_file_meta",
         lambda asked: _previous(asked, asked.meta), None,
         block_first=True),
    Move("stale-page", "get_page", lambda asked: _previous(
        asked, lambda root: asked.page(asked.page_id, root)),
         **_ANYWHERE, block_first=True),
]}
