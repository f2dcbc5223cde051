"""Tests for the catalog and the external sorter."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.catalog import Catalog, IndexInfo, TableInfo
from repro.db.plan.sorter import ReverseKey, external_sort
from repro.db.types import sort_key
from repro.errors import SQLCatalogError, StorageError
from repro.vfs.local import LocalFilesystem


class TestCatalog:
    def make(self):
        catalog = Catalog()
        catalog.add_table(TableInfo(
            name="t",
            columns=[("a", "INTEGER"), ("b", "TEXT")],
            file_path="/db/tables/t.tbl",
        ))
        return catalog

    def test_lookup(self):
        catalog = self.make()
        table = catalog.table("t")
        assert table.column_names() == ["a", "b"]
        assert table.column_index("b") == 1
        assert table.column_type("a") == "INTEGER"

    def test_unknown_table_and_column(self):
        catalog = self.make()
        with pytest.raises(SQLCatalogError):
            catalog.table("ghost")
        with pytest.raises(SQLCatalogError):
            catalog.table("t").column_index("ghost")

    def test_duplicate_table(self):
        catalog = self.make()
        with pytest.raises(SQLCatalogError):
            catalog.add_table(TableInfo("t", [("x", "INTEGER")], "/x"))

    def test_index_registration(self):
        catalog = self.make()
        catalog.add_index(IndexInfo("idx_a", "t", "a", "/db/idx/a"))
        assert catalog.table("t").index_on("a").name == "idx_a"
        assert catalog.table("t").index_on("b") is None
        with pytest.raises(SQLCatalogError):
            catalog.add_index(IndexInfo("idx_a", "t", "b", "/db/idx/b"))

    def test_index_on_unknown_column(self):
        catalog = self.make()
        with pytest.raises(SQLCatalogError):
            catalog.add_index(IndexInfo("idx_x", "t", "nope", "/p"))

    def test_json_roundtrip(self):
        catalog = self.make()
        catalog.add_index(IndexInfo("idx_a", "t", "a", "/db/idx/a"))
        restored = Catalog.from_json(catalog.to_json())
        assert restored.table("t").columns == catalog.table("t").columns
        assert restored.table("t").indexes[0].column == "a"

    def test_vfs_persistence(self):
        vfs = LocalFilesystem()
        catalog = self.make()
        catalog.save(vfs, "/db/catalog")
        loaded = Catalog.load(vfs, "/db/catalog")
        assert loaded.table("t").file_path == "/db/tables/t.tbl"

    def test_load_missing_is_empty(self):
        assert Catalog.load(LocalFilesystem(), "/none").tables == {}

    @pytest.mark.parametrize("document", [
        b"\xff\xfe not utf-8",
        "{not json",
        "[1, 2]",
        '{"tables": 5}',
        '{"tables": [{"name": "t"}]}',
        '{"tables": [{"name": "t", "columns": [1], "file_path": "x",'
        ' "indexes": [{"bogus": 1}]}]}',
        "[" * 2000,  # past the JSON scanner's recursion limit
    ])
    def test_malformed_document_is_a_storage_error(self, document):
        # The client parses the catalog page before it is verified.
        with pytest.raises(StorageError, match="corrupt catalog"):
            Catalog.from_json(document)

    def test_rewrite_shorter_catalog(self):
        # The length prefix must make stale tail bytes harmless.
        vfs = LocalFilesystem()
        catalog = self.make()
        catalog.add_table(TableInfo(
            "extra_table_with_a_long_name",
            [("c%d" % i, "TEXT") for i in range(10)],
            "/db/tables/extra.tbl",
        ))
        catalog.save(vfs, "/db/catalog")
        small = Catalog()
        small.add_table(TableInfo("only", [("x", "INTEGER")], "/o"))
        small.save(vfs, "/db/catalog")
        loaded = Catalog.load(vfs, "/db/catalog")
        assert sorted(loaded.tables) == ["only"]


class TestExternalSort:
    def key(self, row):
        return tuple(sort_key(v) for v in row)

    def test_in_memory_path(self):
        rows = [[3], [1], [2]]
        out = list(external_sort(rows, self.key, LocalFilesystem(),
                                 memory_rows=100))
        assert out == [[1], [2], [3]]

    def test_spilling_path(self):
        values = list(range(500))
        random.Random(7).shuffle(values)
        temp = LocalFilesystem()
        out = list(external_sort(
            ([v] for v in values), self.key, temp, memory_rows=32
        ))
        assert [r[0] for r in out] == list(range(500))
        assert temp.list_files() == []  # runs cleaned up

    def test_stability(self):
        rows = [[1, "first"], [0, "x"], [1, "second"], [1, "third"]]
        out = list(external_sort(
            rows, lambda r: sort_key(r[0]), LocalFilesystem(),
            memory_rows=2,
        ))
        assert [r[1] for r in out if r[0] == 1] == [
            "first", "second", "third",
        ]

    def test_reverse_key_ordering(self):
        keys = [ReverseKey(1), ReverseKey(3), ReverseKey(2)]
        assert sorted(keys, key=lambda k: k)[0].key == 3
        assert ReverseKey(5) == ReverseKey(5)

    def test_mixed_direction_sort(self):
        rows = [[1, 9], [1, 3], [2, 5], [2, 1]]
        out = list(external_sort(
            rows,
            lambda r: (ReverseKey(sort_key(r[0])), sort_key(r[1])),
            LocalFilesystem(),
            memory_rows=2,
        ))
        assert out == [[2, 1], [2, 5], [1, 3], [1, 9]]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(-100, 100), max_size=200),
        st.integers(min_value=2, max_value=50),
    )
    def test_matches_sorted(self, values, memory_rows):
        out = list(external_sort(
            ([v] for v in values), self.key, LocalFilesystem(),
            memory_rows=memory_rows,
        ))
        assert [r[0] for r in out] == sorted(values)
