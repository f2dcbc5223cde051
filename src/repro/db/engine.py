"""The database engine facade.

``Engine(vfs)`` is the "off-the-shelf database engine" of the paper: it
speaks SQL upward and the V2FS POSIX interface downward.  Swapping the
``vfs`` argument changes the deployment:

* a :class:`~repro.vfs.local.LocalFilesystem` — plain local database
  (the paper's ordinary-SQLite baseline);
* the CI's maintenance VFS — updates inside the simulated enclave;
* the client VFS — verifiable query processing against a remote ISP.

Temporary spill files (external sort) go to a *separate* filesystem,
``temp_vfs``, mirroring the paper's Appendix A: temp data is engine-local
and never verified.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.db.btree import BTree, KeptNodes, NodeMemo
from repro.db.catalog import Catalog, IndexInfo, TableInfo
from repro.db.pager import Pager, PagerTally
from repro.db.plan.expressions import Schema
from repro.db.plan.planner import AccessProvider, plan_select
from repro.db.record import encode_record
from repro.db.sql import ast
from repro.db.sql.parser import parse_statement
from repro.db.types import SqlValue, coerce, compare, normalize_type
from repro.errors import SQLCatalogError, SQLExecutionError
from repro.kept import Kept
from repro.obs import metrics as obs
from repro.vfs.interface import VirtualFilesystem
from repro.vfs.local import LocalFilesystem


@dataclass
class ResultSet:
    """Result of one statement: column names and materialized rows.

    For DML statements (INSERT/UPDATE/DELETE), ``rowcount`` carries the
    number of affected rows and ``rows`` is empty.
    """

    columns: List[str]
    rows: List[Tuple[SqlValue, ...]]
    rowcount: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> SqlValue:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SQLExecutionError("result is not a single scalar")
        return self.rows[0][0]


class Engine(AccessProvider):
    """SQL engine over a virtual filesystem."""

    def __init__(
        self,
        vfs: VirtualFilesystem,
        base_path: str = "/db",
        temp_vfs: Optional[VirtualFilesystem] = None,
        sort_memory_rows: int = 4096,
        node_memo: Optional[NodeMemo] = None,
        catalog_memo: Optional[Kept] = None,
        kept_nodes: Optional[KeptNodes] = None,
    ) -> None:
        self.vfs = vfs
        self.base_path = base_path.rstrip("/")
        self.temp_vfs = (
            temp_vfs if temp_vfs is not None else LocalFilesystem()
        )
        self._sort_memory_rows = sort_memory_rows
        self._catalog: Optional[Catalog] = None
        #: Decoded B+Tree nodes shared by every tree this engine opens;
        #: a verifying client hands in its own so they outlive the query.
        self._node_memo = node_memo if node_memo is not None else NodeMemo()
        #: The write path's kept nodes per file; the CI hands in its own
        #: so they outlive the statement.  None: each tree keeps its own.
        self._kept_nodes = kept_nodes
        #: Parsed catalog a verifying client keeps across its queries
        #: (read-only engines); None: parse what this engine loads.
        self._catalog_memo = catalog_memo
        #: Page-read and flush counts of every pager this engine opens,
        #: reported once per statement rather than once per pager.
        self._pager_tally = PagerTally()
        #: The running statement's open files, ``path -> (pager, tree)``
        #: in open order: a file's header is read once per statement and
        #: its tree keeps one cursor.  Emptied when the outermost
        #: statement ends, so nothing read in one verified session is
        #: answered from in the next.
        self._open: Dict[str, Tuple[Pager, BTree]] = {}
        self._statement_depth = 0

    # ------------------------------------------------------------------
    # Catalog handling
    # ------------------------------------------------------------------

    @property
    def catalog_path(self) -> str:
        return f"{self.base_path}/catalog"

    @property
    def catalog(self) -> Catalog:
        if self._catalog is None:
            self._catalog = Catalog.load(self.vfs, self.catalog_path,
                                         self._catalog_memo)
        return self._catalog

    def _save_catalog(self) -> None:
        if self._catalog_memo is not None:
            # Changed since it was parsed: no longer what its key says.
            self._catalog_memo.clear()
        self.catalog.save(self.vfs, self.catalog_path)

    def _pager(self, path: str, create: bool = False) -> Tuple[Pager, BTree]:
        """The statement's pager and tree for ``path``, opened on first
        use and closed by :meth:`_end_statement`."""
        opened = self._open.get(path)
        if opened is None:
            pager = Pager(self.vfs, path, create=create,
                          tally=self._pager_tally)
            kept = (None if self._kept_nodes is None
                    else self._kept_nodes.file(path))
            opened = self._open[path] = (
                pager, BTree(pager, self._node_memo, kept))
        return opened

    @contextmanager
    def _statement(self) -> Iterator[None]:
        """Scope of one statement; nests (a subquery, INSERT's
        ``insert_rows``), and only the outermost exit ends it — on
        every way out: a raising plan, a ``LIMIT`` that leaves a scan
        suspended mid-leaf."""
        self._statement_depth += 1
        try:
            yield
        finally:
            self._statement_depth -= 1
            if not self._statement_depth:
                self._end_statement()

    def _end_statement(self) -> None:
        """Close every file the statement opened, then report its
        tallies, once."""
        opened, self._open = self._open, {}
        try:
            # Callbacks run last-in first, so pushed in reverse the
            # files close in open order — each one, even if an earlier
            # close raised.
            with ExitStack() as closing:
                for pager, _ in reversed(opened.values()):
                    closing.callback(pager.close)
        finally:
            self._node_memo.report()
            self._pager_tally.report()
            if obs.ACTIVE and opened:
                obs.add("db.pager.opened", len(opened))
                trees = [tree for _, tree in opened.values()]
                held = sum(tree.held_seeks for tree in trees)
                if held:
                    obs.add("db.cursor.held", held)
                held = sum(tree.held_internal_seeks for tree in trees)
                if held:
                    obs.add("db.cursor.held.internal", held)

    def _table_file(self, name: str) -> str:
        return f"{self.base_path}/tables/{name}.tbl"

    def _index_file(self, name: str) -> str:
        return f"{self.base_path}/indexes/{name}.idx"

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def execute(self, sql: str) -> ResultSet:
        """Parse and run one SQL statement."""
        with self._statement():
            return self._execute(parse_statement(sql))

    def _execute(self, statement: ast.Statement) -> ResultSet:
        if isinstance(statement, ast.Select):
            return self._execute_select(statement)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateIndex):
            return self._execute_create_index(statement)
        raise SQLExecutionError(f"unsupported statement {statement!r}")

    def _execute_select(self, select: ast.Select) -> ResultSet:
        plan, names = plan_select(select, self)
        rows = [tuple(row) for row in plan.rows()]
        return ResultSet(columns=names, rows=rows)

    def explain(self, sql: str) -> str:
        """Render the operator tree the planner builds for a SELECT.

        A plan-introspection aid (``EXPLAIN``-alike): one line per
        operator, indented by depth, with scans showing their access
        path (sequential vs index range).
        """
        statement = parse_statement(sql)
        if not isinstance(statement, ast.Select):
            raise SQLExecutionError("explain supports SELECT statements")
        plan, _ = plan_select(statement, self)
        lines: List[str] = []

        def walk(operator, depth: int) -> None:
            lines.append("  " * depth + operator.describe())
            for child in operator.children():
                walk(child, depth + 1)

        walk(plan, 0)
        return "\n".join(lines)

    def _execute_create_table(self, stmt: ast.CreateTable) -> ResultSet:
        columns = [
            (name, normalize_type(type_name))
            for name, type_name in stmt.columns
        ]
        table = TableInfo(
            name=stmt.name,
            columns=columns,
            file_path=self._table_file(stmt.name),
        )
        self.catalog.add_table(table)
        self._pager(table.file_path, create=True)
        self._save_catalog()
        return ResultSet(columns=[], rows=[])

    def _execute_create_index(self, stmt: ast.CreateIndex) -> ResultSet:
        index = IndexInfo(
            name=stmt.name,
            table=stmt.table,
            column=stmt.column,
            file_path=self._index_file(stmt.name),
        )
        self.catalog.add_index(index)
        _, tree = self._pager(index.file_path, create=True)
        # Backfill from existing rows.
        table = self.catalog.table(stmt.table)
        column_index = table.column_index(stmt.column)
        for key, values in self._iter_table(table):
            tree.insert([values[column_index], key[0]], b"",
                        allow_duplicate=True)
        self._save_catalog()
        return ResultSet(columns=[], rows=[])

    def _execute_insert(self, stmt: ast.Insert) -> ResultSet:
        table = self.catalog.table(stmt.table)
        column_order = (
            [table.column_index(c) for c in stmt.columns]
            if stmt.columns
            else list(range(len(table.columns)))
        )
        rows: List[List[SqlValue]] = []
        for exprs in stmt.rows:
            if len(exprs) != len(column_order):
                raise SQLExecutionError(
                    "INSERT value count does not match column count"
                )
            values: List[SqlValue] = [None] * len(table.columns)
            for target, expr in zip(column_order, exprs):
                values[target] = _literal_value(expr)
            rows.append(values)
        count = self.insert_rows(stmt.table, rows)
        return ResultSet(columns=[], rows=[], rowcount=count)

    def _matching_rows(self, table: TableInfo, where):
        """Materialize (rowid, values) pairs satisfying ``where``."""
        from repro.db.plan.expressions import (
            SubqueryRunner,
            compile_expr,
            predicate,
        )

        schema = [(table.name, column) for column, _ in table.columns]
        keep = None
        if where is not None:
            keep = predicate(compile_expr(
                where, schema, SubqueryRunner(self.run_subquery)
            ))
        return [
            (key[0], values)
            for key, values in self._iter_table(table)
            if keep is None or keep(values)
        ]

    def _execute_update(self, stmt: ast.Update) -> ResultSet:
        """UPDATE: rewrite matching rows and maintain every index."""
        from repro.db.plan.expressions import SubqueryRunner, compile_expr

        table = self.catalog.table(stmt.table)
        schema = [(table.name, column) for column, _ in table.columns]
        runner = SubqueryRunner(self.run_subquery)
        assignments = [
            (table.column_index(column),
             compile_expr(expr, schema, runner))
            for column, expr in stmt.assignments
        ]
        matches = self._matching_rows(table, stmt.where)
        if not matches:
            return ResultSet(columns=[], rows=[], rowcount=0)
        _, table_tree = self._pager(table.file_path)
        index_trees = self._index_trees(table)
        for rowid, old_values in matches:
            new_values = list(old_values)
            for position, value_fn in assignments:
                _, sql_type = table.columns[position]
                new_values[position] = coerce(value_fn(old_values),
                                              sql_type)
            table_tree.delete([rowid])
            table_tree.insert([rowid], encode_record(new_values))
            for position, tree in index_trees:
                if old_values[position] != new_values[position]:
                    tree.delete([old_values[position], rowid])
                    tree.insert([new_values[position], rowid], b"",
                                allow_duplicate=True)
        return ResultSet(columns=[], rows=[], rowcount=len(matches))

    def _execute_delete(self, stmt: ast.Delete) -> ResultSet:
        """DELETE: drop matching rows and their index entries."""
        table = self.catalog.table(stmt.table)
        matches = self._matching_rows(table, stmt.where)
        if not matches:
            return ResultSet(columns=[], rows=[], rowcount=0)
        _, table_tree = self._pager(table.file_path)
        index_trees = self._index_trees(table)
        for rowid, values in matches:
            table_tree.delete([rowid])
            for position, tree in index_trees:
                tree.delete([values[position], rowid])
        return ResultSet(columns=[], rows=[], rowcount=len(matches))

    def insert_rows(
        self, table_name: str, rows: Iterable[List[SqlValue]]
    ) -> int:
        """Bulk-insert fully-ordered value lists; returns the row count.

        This is the ETL ingestion path: it opens each B+Tree once for the
        whole batch, which is also what keeps the CI's write set (P_w)
        compact per block.
        """
        table = self.catalog.table(table_name)
        count = 0
        with self._statement():  # callable outside execute()
            table_pager, table_tree = self._pager(table.file_path,
                                                  create=True)
            index_trees = self._index_trees(table, create=True)
            for values in rows:
                coerced = [
                    coerce(value, sql_type)
                    for value, (_, sql_type) in zip(values, table.columns)
                ]
                if len(coerced) != len(table.columns):
                    raise SQLExecutionError(
                        f"row width {len(coerced)} does not match table "
                        f"{table_name} ({len(table.columns)} columns)"
                    )
                rowid = table_pager.take_rowid()
                table_tree.insert([rowid], encode_record(coerced))
                for column_index, tree in index_trees:
                    tree.insert([coerced[column_index], rowid], b"",
                                allow_duplicate=True)
                count += 1
        return count

    def _index_trees(
        self, table: TableInfo, create: bool = False
    ) -> List[Tuple[int, BTree]]:
        """``(indexed column's position, index tree)`` per index."""
        return [
            (table.column_index(index.column),
             self._pager(index.file_path, create=create)[1])
            for index in table.indexes
        ]

    # ------------------------------------------------------------------
    # AccessProvider implementation (planner storage interface)
    # ------------------------------------------------------------------

    def table_schema(self, table_name: str, binding: str) -> Schema:
        table = self.catalog.table(table_name)
        return [(binding, column) for column, _ in table.columns]

    def seq_scan(self, table_name: str) -> Callable[[], Iterator[List[SqlValue]]]:
        table = self.catalog.table(table_name)

        def factory() -> Iterator[List[SqlValue]]:
            for _, values in self._iter_table(table):
                yield values
        return factory

    def index_range_scan(
        self,
        table_name: str,
        column: str,
        low: SqlValue,
        high: SqlValue,
        low_inc: bool,
        high_inc: bool,
    ) -> Callable[[], Iterator[List[SqlValue]]]:
        table, index = self._indexed(table_name, column)

        def factory() -> Iterator[List[SqlValue]]:
            _, index_tree = self._pager(index.file_path)
            _, table_tree = self._pager(table.file_path)
            # Index keys are [value, rowid]; the bounds are prefixes,
            # so exclusive endpoints must be re-checked on the value
            # component (a [v, rowid] key always sorts after [v]).
            low_key = None if low is None else [low]
            high_key = None if high is None else [high]
            for key, _ in index_tree.scan(low=low_key, high=high_key):
                value = key[0]
                if low is not None and not low_inc \
                        and compare(value, low) == 0:
                    continue
                if high is not None and not high_inc \
                        and compare(value, high) == 0:
                    continue
                values = table_tree.get_row([key[-1]])
                if values is None:
                    continue  # row deleted after index entry
                yield values
        return factory

    def _indexed(
        self, table_name: str, column: str
    ) -> Tuple[TableInfo, IndexInfo]:
        """``(table, its index on column)``; no such index raises."""
        table = self.catalog.table(table_name)
        index = table.index_on(column)
        if index is None:
            raise SQLCatalogError(f"no index on {table_name}.{column}")
        return table, index

    def has_index(self, table_name: str, column: str) -> bool:
        try:
            table = self.catalog.table(table_name)
        except SQLCatalogError:
            return False
        return table.index_on(column) is not None

    def index_lookup(
        self, table_name: str, column: str
    ) -> Callable[[SqlValue], Iterable[List[SqlValue]]]:
        """An index join's probe: the rows whose ``column`` equals a
        value, in index order, walked once per distinct value per
        statement.  The table, its index and their files are resolved
        here, once, not per probe."""
        table, index = self._indexed(table_name, column)
        index_path, table_path = index.file_path, table.file_path
        probed: Dict[Any, List[List[SqlValue]]] = {}

        def lookup(value: SqlValue) -> Iterable[List[SqlValue]]:
            rows = probed.get(value)
            if rows is None:
                # Index keys are [value, rowid]; [value] bounds both
                # ends, so every key the scan yields matches.
                _, index_tree = self._pager(index_path)
                _, table_tree = self._pager(table_path)
                rows = []
                for key, _ in index_tree.scan([value], [value]):
                    values = table_tree.get_row([key[-1]])
                    if values is not None:  # row deleted after entry
                        rows.append(values)
                probed[value] = rows
            return rows
        return lookup

    def run_subquery(self, select: ast.Select) -> List[tuple]:
        with self._statement():
            return self._execute_select(select).rows

    def temp_filesystem(self) -> VirtualFilesystem:
        return self.temp_vfs

    @property
    def sort_memory_rows(self) -> int:
        return self._sort_memory_rows

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _iter_table(
        self, table: TableInfo
    ) -> Iterator[Tuple[Tuple[SqlValue, ...], List[SqlValue]]]:
        """``(key, row)`` of every row of ``table``; ``key[0]`` is the
        rowid."""
        return self._pager(table.file_path)[1].rows()


def _literal_value(expr: ast.Expr) -> SqlValue:
    """Evaluate a constant INSERT expression."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Unary) and expr.op == "-":
        value = _literal_value(expr.operand)
        if not isinstance(value, (int, float)):
            raise SQLExecutionError("cannot negate a non-numeric literal")
        return -value
    raise SQLExecutionError(
        "INSERT supports literal values only; use insert_rows() for bulk data"
    )
