"""Persistent schema catalog.

The catalog is the engine's ``sqlite_master``: a single file (read and
written through the VFS like any other page data) describing every table,
its columns, and its secondary indexes.  Each table and index stores its
B+Tree in its own file, so the upper-layer ADS trie authenticates the
whole database file-by-file.

The serialized form is a length-prefixed JSON document; the length prefix
makes the file self-delimiting, which lets the catalog be rewritten in
place without truncation support in the (append-only) authenticated
storage layer.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import SQLCatalogError, StorageError
from repro.kept import Kept
from repro.vfs.interface import VirtualFilesystem


@dataclass
class IndexInfo:
    """A secondary index over one column of one table."""

    name: str
    table: str
    column: str
    file_path: str


@dataclass
class TableInfo:
    """A table: ordered columns (name, storage class) and its indexes."""

    name: str
    columns: List[Tuple[str, str]]
    file_path: str
    indexes: List[IndexInfo] = field(default_factory=list)

    def column_names(self) -> List[str]:
        return [name for name, _ in self.columns]

    def column_index(self, name: str) -> int:
        for i, (col, _) in enumerate(self.columns):
            if col == name:
                return i
        raise SQLCatalogError(f"no column {name!r} in table {self.name!r}")

    def column_type(self, name: str) -> str:
        return self.columns[self.column_index(name)][1]

    def index_on(self, column: str) -> IndexInfo | None:
        for index in self.indexes:
            if index.column == column:
                return index
        return None


class Catalog:
    """All schema objects, with load/save through the VFS."""

    def __init__(self) -> None:
        self.tables: Dict[str, TableInfo] = {}

    def add_table(self, table: TableInfo) -> None:
        if table.name in self.tables:
            raise SQLCatalogError(f"table {table.name!r} already exists")
        self.tables[table.name] = table

    def table(self, name: str) -> TableInfo:
        try:
            return self.tables[name]
        except KeyError:
            raise SQLCatalogError(f"no such table: {name}") from None

    def add_index(self, index: IndexInfo) -> None:
        table = self.table(index.table)
        if any(existing.name == index.name
               for t in self.tables.values() for existing in t.indexes):
            raise SQLCatalogError(f"index {index.name!r} already exists")
        table.column_index(index.column)  # validates the column
        table.indexes.append(index)

    def to_json(self) -> str:
        doc = {
            "tables": [
                {
                    "name": t.name,
                    "columns": [[c, ty] for c, ty in t.columns],
                    "file_path": t.file_path,
                    "indexes": [
                        {
                            "name": i.name,
                            "table": i.table,
                            "column": i.column,
                            "file_path": i.file_path,
                        }
                        for i in t.indexes
                    ],
                }
                for t in self.tables.values()
            ]
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "Catalog":
        """Parse a catalog document (``bytes`` are decoded as UTF-8).

        The catalog file reaches this parser *before* the client has
        verified it, so anything malformed raises :class:`StorageError`.
        """
        catalog = cls()
        try:
            for entry in json.loads(text).get("tables", []):
                table = TableInfo(
                    name=entry["name"],
                    columns=[tuple(pair) for pair in entry["columns"]],
                    file_path=entry["file_path"],
                    indexes=[IndexInfo(**idx) for idx in entry["indexes"]],
                )
                catalog.tables[table.name] = table
        except (ValueError, KeyError, TypeError, AttributeError,
                RecursionError) as error:
            raise StorageError(f"corrupt catalog ({error!r})") from error
        return catalog

    def save(self, vfs: VirtualFilesystem, path: str) -> None:
        raw = self.to_json().encode("utf-8")
        vfs.write_all(path, struct.pack(">Q", len(raw)) + raw)

    @classmethod
    def load(
        cls, vfs: VirtualFilesystem, path: str,
        memo: Optional[Kept] = None,
    ) -> "Catalog":
        """Read the catalog file through ``vfs`` and parse it — or, with
        ``memo`` (the last bytes parsed and their catalog), take the
        parse of those same bytes from it."""
        if not vfs.exists(path):
            return cls()
        with vfs.open(path) as handle:
            header = handle.read(8)
            if len(header) < 8:
                return cls()
            (length,) = struct.unpack(">Q", header)
            raw = handle.read(length)
        if len(raw) != length:
            raise StorageError(
                f"corrupt catalog (header claims {length} bytes, "
                f"file holds {len(raw)})"
            )
        if memo is None:
            return cls.from_json(raw)
        return memo.get(raw, cls.from_json)

