"""A stdlib ``sqlite3`` copy of an engine's database.

:func:`mirror` copies every table of an engine's catalog — its columns,
its rows and its indexes — into a ``sqlite3`` connection, and registers
``DATE()`` with this engine's semantics (SQLite's own ``date()`` reads a
number as a Julian day).  The connection may be in memory, or a file
with any page size: the rows are the engine's own, read through its own
scans, so whatever is compared or counted over the copy is over the
same data.
"""

from __future__ import annotations

import sqlite3

from repro.db import Engine
from repro.db.plan.expressions import _date


def mirror(engine: Engine, db: sqlite3.Connection) -> sqlite3.Connection:
    """Copy ``engine``'s tables and indexes into ``db``; returns ``db``."""
    for table in engine.catalog.tables.values():
        columns = ", ".join(f"{name} {sql_type}"
                            for name, sql_type in table.columns)
        db.execute(f"CREATE TABLE {table.name} ({columns})")
        names = ", ".join(table.column_names())
        slots = ", ".join("?" * len(table.columns))
        db.executemany(
            f"INSERT INTO {table.name} VALUES ({slots})",
            engine.execute(f"SELECT {names} FROM {table.name}").rows,
        )
        for index in table.indexes:
            db.execute(f"CREATE INDEX {index.name} "
                       f"ON {table.name} ({index.column})")
    db.create_function("DATE", 1, _date, deterministic=True)
    db.commit()
    return db
