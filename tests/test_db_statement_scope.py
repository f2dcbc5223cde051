"""What one statement holds: a pager and a tree per file, a cursor per
tree — opened on first use, closed on every way out, and never a leaf
that a write in the same statement has made stale."""

import sqlite3
from itertools import islice

import pytest

from repro.db import Engine
from repro.db.pager import PAGE_CONTENT_SIZE, Pager, seal_page
from repro.db.plan.planner import plan_select
from repro.db.sql.parser import parse_statement
from repro.errors import ReproError, StorageError, TornPageError
from repro.obs import REGISTRY
from repro.vfs.local import LocalFilesystem


class HandleLog(LocalFilesystem):
    """A local filesystem that remembers every handle it gave out."""

    def __init__(self):
        super().__init__()
        self.handles = []

    def open(self, path, create=False):
        handle = super().open(path, create=create)
        self.handles.append(handle)
        return handle

    def forget(self):
        assert all(handle.closed for handle in self.handles)
        self.handles.clear()


ROWS = [[i % 11, i, "row-%04d" % i] for i in range(1200)]


def indexed_engine(vfs=None):
    """Table and index both several leaves under an internal root."""
    engine = Engine(vfs if vfs is not None else LocalFilesystem())
    engine.execute("CREATE TABLE t (a INTEGER, b INTEGER, s TEXT)")
    engine.execute("CREATE INDEX t_a ON t (a)")
    engine.insert_rows("t", ROWS)
    return engine


def oracle(rows=ROWS):
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER, s TEXT)")
    db.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
    return db


class TestEveryExitCloses:
    def test_one_handle_per_file_and_all_closed(self):
        vfs = HandleLog()
        engine = indexed_engine(vfs)
        vfs.forget()
        join = "SELECT COUNT(*) FROM t x JOIN t y ON x.a = y.a WHERE x.b < 3"
        assert engine.execute(join).scalar() > 0
        # However often the join visits them: the table and its index.
        assert sorted(h.path for h in vfs.handles if not
                      h.path.endswith("catalog")) == [
            "/db/indexes/t_a.idx", "/db/tables/t.tbl"]
        vfs.forget()
        assert engine._open == {} and engine._statement_depth == 0

    def test_limit_abandons_a_scan_mid_leaf(self):
        vfs = HandleLog()
        engine = indexed_engine(vfs)
        vfs.forget()
        before = REGISTRY.counters_snapshot()
        rows = engine.execute("SELECT b FROM t WHERE a = 4 LIMIT 2").rows
        assert rows == [(4,), (15,)]
        vfs.forget()
        delta = REGISTRY.counters_delta(before)
        assert delta["pager.flush"] == delta["db.pager.opened"] == 2
        assert (delta["vfs.read_page"]
                == delta["pager.read_page"] + delta["pager.flush"])

    def test_limit_reads_nothing_past_its_last_row(self):
        """``LIMIT k`` reads what taking ``k`` rows off the unlimited
        plan reads: it does not pull a row it would drop, whose table
        page may be one the answer never needed."""
        engine = indexed_engine()
        query = "SELECT b FROM t WHERE a = 4"

        def reads(take):
            before = REGISTRY.counters_snapshot()
            rows = take()
            delta = REGISTRY.counters_delta(before)
            return rows, delta.get("pager.read_page", 0)

        def taken(count):
            with engine._statement():
                plan, _ = plan_select(parse_statement(query), engine)
                return [tuple(row) for row in islice(plan.rows(), count)]

        assert reads(lambda: engine.execute(f"{query} LIMIT 0").rows) == (
            [], 0)
        moved = 0
        for count in range(1, 40):
            limited = reads(
                lambda: engine.execute(f"{query} LIMIT {count}").rows)
            assert limited == reads(lambda: taken(count))
            moved += limited[1] != reads(lambda: taken(count + 1))[1]
        # Some row past a limit sits on a table page not read before it.
        assert moved > 0

    def test_second_file_failing_to_open_closes_the_first(self):
        """The index opens, the table it points into does not: the
        index's handle is closed and the header read it made is still
        reported."""
        vfs = HandleLog()
        engine = indexed_engine(vfs)
        vfs.forget()
        vfs.remove("/db/tables/t.tbl")
        before = REGISTRY.counters_snapshot()
        with pytest.raises(StorageError):
            engine.execute("SELECT b FROM t WHERE a = 4")
        assert [h.path for h in vfs.handles] == ["/db/indexes/t_a.idx"]
        vfs.forget()
        delta = REGISTRY.counters_delta(before)
        assert delta["vfs.read_page"] == 1
        assert delta["pager.flush"] == delta["db.pager.opened"] == 1
        assert engine._open == {}

    def test_a_plan_that_raises_mid_scan(self):
        vfs = HandleLog()
        engine = indexed_engine(vfs)
        with vfs.open("/db/tables/t.tbl") as handle:
            second_leaf = 2
            handle.write_page(second_leaf, seal_page(b"\x07not a node"))
        vfs.forget()
        with pytest.raises(StorageError, match="corrupt B\\+Tree node"):
            engine.execute("SELECT SUM(b) FROM t")
        assert len(vfs.handles) == 1
        vfs.forget()
        assert engine._open == {}
        # The first leaf is intact, and so is the engine.
        assert engine.execute("SELECT b FROM t WHERE a = 0 LIMIT 1").rows == [
            (0,)]
        vfs.forget()

    def test_a_close_that_raises_does_not_stop_the_others(self, monkeypatch):
        vfs = HandleLog()
        engine = indexed_engine(vfs)
        vfs.forget()
        real_close = Pager.close

        def close(pager):
            real_close(pager)
            if pager.path.endswith(".idx"):  # opened first
                raise StorageError("close failed")

        monkeypatch.setattr(Pager, "close", close)
        with pytest.raises(StorageError, match="close failed"):
            engine.execute("SELECT b FROM t WHERE a = 4")
        assert len(vfs.handles) == 2
        vfs.forget()

    def test_nested_statements_close_once_at_the_outermost(self):
        """INSERT runs ``insert_rows`` and a subquery runs a SELECT
        inside the statement that holds the files."""
        vfs = HandleLog()
        engine = indexed_engine(vfs)
        vfs.forget()
        before = REGISTRY.counters_snapshot()
        engine.execute("INSERT INTO t VALUES (4, -1, 'new'), (4, -2, 'new')")
        vfs.forget()
        delta = REGISTRY.counters_delta(before)
        assert delta["pager.flush"] == delta["db.pager.opened"] == 2
        before = REGISTRY.counters_snapshot()
        count = engine.execute(
            "SELECT COUNT(*) FROM t WHERE b < (SELECT MIN(b) + 2 FROM t)"
        ).scalar()
        assert count == 2
        vfs.forget()
        delta = REGISTRY.counters_delta(before)
        assert delta["pager.flush"] == delta["db.pager.opened"] == 1


class TestPagerConstructorClosesWhatItOpened:
    @staticmethod
    def header(vfs, raw):
        with vfs.open("/f", create=True) as handle:
            handle.write_page(0, raw)

    def check(self, vfs, error, match):
        vfs.forget()
        before = REGISTRY.counters_snapshot()
        with pytest.raises(error, match=match):
            Pager(vfs, "/f")
        (handle,) = vfs.handles
        assert handle.closed
        return REGISTRY.counters_delta(before)

    def test_empty_without_create(self):
        vfs = HandleLog()
        vfs.open("/f", create=True).close()
        self.check(vfs, StorageError, "empty and create=False")

    def test_bad_magic(self):
        vfs = HandleLog()
        self.header(vfs, seal_page(b"NOTADB00" + b"\x00" * 24))
        delta = self.check(vfs, StorageError, "not a database file")
        assert delta["vfs.read_page"] == 1  # the read is still reported

    def test_bad_checksum(self):
        vfs = HandleLog()
        sealed = bytearray(seal_page(b"V2FSDB01" + b"\x00" * 24))
        sealed[PAGE_CONTENT_SIZE - 1] ^= 1
        self.header(vfs, bytes(sealed))
        self.check(vfs, TornPageError, "checksum mismatch")


class TestNothingHeldGoesStale:
    """The cursor's leaf is dropped by every write to its tree and is
    gone with the statement, so a reader never computes on a page that
    a write has since replaced."""

    def test_select_insert_that_splits_the_leaf_select(self):
        engine = indexed_engine()
        db = oracle()
        probe = "SELECT b, s FROM t WHERE a = 7 ORDER BY b"
        assert engine.execute(probe).rows == db.execute(probe).fetchall()
        count = engine.execute("SELECT COUNT(*) FROM t").scalar()
        extra = [[7, 5000 + i, "x" * 40] for i in range(400)]
        engine.insert_rows("t", extra)  # splits leaves of both trees
        db.executemany("INSERT INTO t VALUES (?, ?, ?)", extra)
        assert engine.execute(probe).rows == db.execute(probe).fetchall()
        assert engine.execute("SELECT COUNT(*) FROM t").scalar() == (
            count + 400)

    @pytest.mark.parametrize("statement", [
        "UPDATE t SET b = b + 100000 WHERE a = 3",
        "UPDATE t SET a = a + 1 WHERE b < 600",
        "DELETE FROM t WHERE a = 5",
        "DELETE FROM t WHERE b IN (SELECT b FROM t WHERE a = 2)",
        # The subquery first runs at the second row it applies to,
        # *after* the statement has rewritten leaves of the tree the
        # subquery then scans — and of the index it then probes.
        "UPDATE t SET b = CASE WHEN b > 3 "
        "THEN (SELECT COUNT(*) FROM t y WHERE y.a = 3) ELSE -b END "
        "WHERE a = 3",
    ])
    def test_scan_and_writes_share_the_tree(self, statement):
        engine = indexed_engine()
        db = oracle()
        assert engine.execute(statement).rowcount == db.execute(
            statement).rowcount
        for check in (
            "SELECT a, b, s FROM t ORDER BY b, a, s",
            "SELECT a, COUNT(*), SUM(b) FROM t WHERE a >= 2 AND a <= 6 "
            "GROUP BY a ORDER BY a",
            "SELECT COUNT(*) FROM t x JOIN t y ON x.a = y.a WHERE x.b < 3",
        ):
            assert engine.execute(check).rows == db.execute(check).fetchall()

    def test_a_failed_statement_leaves_nothing_for_the_next(self):
        engine = indexed_engine()
        with pytest.raises(ReproError):
            engine.execute("SELECT b FROM t WHERE a = 4 AND nope = 1")
        with pytest.raises(ReproError):
            engine.insert_rows("t", [[1, 2]])
        assert engine._open == {} and engine._statement_depth == 0
        assert engine.execute(
            "SELECT COUNT(*) FROM t WHERE a = 1").scalar() == 109
