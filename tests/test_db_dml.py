"""Tests for UPDATE and DELETE, including a sqlite3 oracle check."""

import random
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Engine
from repro.errors import SQLCatalogError
from repro.vfs.local import LocalFilesystem


@pytest.fixture()
def engine():
    eng = Engine(LocalFilesystem())
    eng.execute("CREATE TABLE t (a INTEGER, b TEXT, c REAL)")
    eng.execute("CREATE INDEX idx_a ON t (a)")
    eng.execute(
        "INSERT INTO t VALUES (1, 'one', 1.0), (2, 'two', 2.0), "
        "(3, 'three', 3.0), (2, 'deux', -2.0)"
    )
    return eng


class TestUpdate:
    def test_basic_update(self, engine):
        result = engine.execute("UPDATE t SET c = 9.9 WHERE a = 2")
        assert result.rowcount == 2
        rows = engine.execute("SELECT c FROM t WHERE a = 2").rows
        assert rows == [(9.9,), (9.9,)]

    def test_update_expression_uses_old_values(self, engine):
        engine.execute("UPDATE t SET a = a * 10, c = c + a")
        rows = engine.execute("SELECT a, c FROM t ORDER BY a").rows
        assert rows == [(10, 2.0), (20, 4.0), (20, 0.0), (30, 6.0)]

    def test_update_maintains_index(self, engine):
        engine.execute("UPDATE t SET a = 42 WHERE b = 'three'")
        # index lookup must find the moved row and lose the old key
        assert engine.execute(
            "SELECT b FROM t WHERE a = 42"
        ).rows == [("three",)]
        assert engine.execute(
            "SELECT COUNT(*) FROM t WHERE a = 3"
        ).scalar() == 0

    def test_update_without_where_touches_all(self, engine):
        assert engine.execute("UPDATE t SET b = 'same'").rowcount == 4
        assert engine.execute(
            "SELECT COUNT(DISTINCT b) FROM t"
        ).scalar() == 1

    def test_update_no_match(self, engine):
        assert engine.execute(
            "UPDATE t SET b = 'x' WHERE a = 99"
        ).rowcount == 0

    def test_update_type_coercion(self, engine):
        engine.execute("UPDATE t SET c = 5 WHERE a = 1")
        value = engine.execute("SELECT c FROM t WHERE a = 1").scalar()
        assert value == 5.0 and isinstance(value, float)

    def test_update_unknown_column(self, engine):
        with pytest.raises(SQLCatalogError):
            engine.execute("UPDATE t SET zz = 1")

    def test_update_with_subquery_value(self, engine):
        engine.execute(
            "UPDATE t SET c = (SELECT MAX(a) FROM t) WHERE a = 1"
        )
        assert engine.execute(
            "SELECT c FROM t WHERE a = 1"
        ).scalar() == 3.0


class TestDelete:
    def test_delete_where(self, engine):
        assert engine.execute("DELETE FROM t WHERE a = 2").rowcount == 2
        assert engine.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_delete_maintains_index(self, engine):
        engine.execute("DELETE FROM t WHERE b = 'two'")
        assert engine.execute(
            "SELECT b FROM t WHERE a = 2"
        ).rows == [("deux",)]

    def test_delete_all(self, engine):
        assert engine.execute("DELETE FROM t").rowcount == 4
        assert engine.execute("SELECT COUNT(*) FROM t").scalar() == 0
        # Table is still usable afterwards.
        engine.execute("INSERT INTO t VALUES (7, 'seven', 7.0)")
        assert engine.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_delete_no_match(self, engine):
        assert engine.execute(
            "DELETE FROM t WHERE a > 100"
        ).rowcount == 0

    def test_delete_then_reinsert_same_values(self, engine):
        engine.execute("DELETE FROM t WHERE a = 1")
        engine.execute("INSERT INTO t VALUES (1, 'one', 1.0)")
        assert engine.execute(
            "SELECT COUNT(*) FROM t WHERE a = 1"
        ).scalar() == 1


class TestDmlOracle:
    """Random DML sequences must agree with sqlite3."""

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_random_dml_matches_sqlite(self, data):
        ours = Engine(LocalFilesystem())
        ours.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        ours.execute("CREATE INDEX ik ON t (k)")
        ref = sqlite3.connect(":memory:")
        ref.execute("CREATE TABLE t (k INTEGER, v INTEGER)")

        rows = [(i % 7, i * 3) for i in range(40)]
        ours.insert_rows("t", [list(r) for r in rows])
        ref.executemany("INSERT INTO t VALUES (?,?)", rows)

        operations = data.draw(st.lists(
            st.tuples(
                st.sampled_from(["update", "delete"]),
                st.integers(0, 8),
                st.integers(-5, 5),
            ),
            max_size=8,
        ))
        for op, k, delta in operations:
            if op == "update":
                sql = f"UPDATE t SET v = v + {delta} WHERE k = {k}"
            else:
                sql = f"DELETE FROM t WHERE k = {k} AND v < {delta * 10}"
            ours.execute(sql)
            ref.execute(sql)
        mine = ours.execute("SELECT k, v FROM t ORDER BY k, v").rows
        theirs = ref.execute(
            "SELECT k, v FROM t ORDER BY k, v"
        ).fetchall()
        assert mine == [tuple(r) for r in theirs]
