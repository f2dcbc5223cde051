"""Expression compilation.

Expressions are compiled once into Python closures evaluated per row.
SQL three-valued logic is preserved: NULL propagates through arithmetic
and comparisons, AND/OR follow Kleene logic, and filters treat non-true
as reject.

A *schema* is a list of ``(binding, column_name)`` pairs describing the
row layout; ``binding`` is the table alias (or a synthetic marker for
derived columns).  Column resolution prefers an exact
``binding.column`` match and reports ambiguity as an error.
"""

from __future__ import annotations

import datetime
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.db.sql import ast
from repro.db.types import SqlValue, sort_key
from repro.errors import SQLExecutionError

#: Row layout description.
Schema = List[Tuple[Optional[str], str]]
#: A compiled expression.
Compiled = Callable[[Sequence[SqlValue]], SqlValue]


def resolve_column(schema: Schema, table: Optional[str], name: str) -> int:
    """Return the row index of a column reference, validating uniqueness."""
    matches = [
        i
        for i, (binding, column) in enumerate(schema)
        if column == name and (table is None or binding == table)
    ]
    if not matches:
        where = f"{table}.{name}" if table else name
        raise SQLExecutionError(f"no such column: {where}")
    if len(matches) > 1:
        where = f"{table}.{name}" if table else name
        raise SQLExecutionError(f"ambiguous column: {where}")
    return matches[0]


def _is_true(value: SqlValue) -> bool:
    return value is not None and value != 0


def _compare(op: str, a: SqlValue, b: SqlValue) -> SqlValue:
    if a is None or b is None:
        return None
    ka, kb = sort_key(a), sort_key(b)
    if op == "=":
        return 1 if ka == kb else 0
    if op == "<>":
        return 1 if ka != kb else 0
    if op == "<":
        return 1 if ka < kb else 0
    if op == "<=":
        return 1 if ka <= kb else 0
    if op == ">":
        return 1 if ka > kb else 0
    if op == ">=":
        return 1 if ka >= kb else 0
    raise SQLExecutionError(f"unknown comparison {op!r}")


def _arith(op: str, a: SqlValue, b: SqlValue) -> SqlValue:
    if a is None or b is None:
        return None
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        raise SQLExecutionError(
            f"arithmetic on non-numeric values {a!r} {op} {b!r}"
        )
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            return None  # SQLite yields NULL on division by zero
        if isinstance(a, int) and isinstance(b, int):
            return int(a / b) if (a < 0) != (b < 0) else a // b
        return a / b
    if op == "%":
        if b == 0:
            return None
        return a % b
    raise SQLExecutionError(f"unknown arithmetic operator {op!r}")


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern to an anchored regular expression."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE | re.DOTALL)


def _date(value: SqlValue) -> SqlValue:
    """Unix-seconds timestamp -> 'YYYY-MM-DD' (UTC); the workloads'
    daily-bucketing primitive."""
    if value is None:
        return None
    moment = datetime.datetime.fromtimestamp(
        int(value), tz=datetime.timezone.utc
    )
    return moment.strftime("%Y-%m-%d")


def _memoized_date(arg: Compiled) -> Compiled:
    """``DATE(arg)``, computed once per distinct day for as long as the
    compiled expression lives (one statement's plan), so it holds at
    most one entry per day the statement meets.  The day is ``int(value)
    // 86400``: floor division puts a negative timestamp on the day
    before, as ``_date`` does.  A value that raises stores nothing, so it
    raises again."""
    dates: Dict[int, SqlValue] = {}

    def date(row: Sequence[SqlValue]) -> SqlValue:
        value = arg(row)
        if value is None:
            return None
        day = int(value) // 86400
        found = dates.get(day)
        if found is None:
            found = dates[day] = _date(day * 86400)
        return found
    return date


def _scalar_function(name: str, args: List[SqlValue]) -> SqlValue:
    if name == "ABS":
        return None if args[0] is None else abs(args[0])
    if name == "LENGTH":
        return None if args[0] is None else len(str(args[0]))
    if name == "LOWER":
        return None if args[0] is None else str(args[0]).lower()
    if name == "UPPER":
        return None if args[0] is None else str(args[0]).upper()
    if name == "ROUND":
        if args[0] is None:
            return None
        digits = int(args[1]) if len(args) > 1 and args[1] is not None else 0
        return round(float(args[0]), digits)
    if name == "COALESCE":
        for value in args:
            if value is not None:
                return value
        return None
    if name == "SUBSTR":
        if args[0] is None:
            return None
        text = str(args[0])
        start = int(args[1]) - 1 if len(args) > 1 else 0
        if len(args) > 2:
            return text[start:start + int(args[2])]
        return text[start:]
    if name == "CAST_INTEGER" or name == "CAST_INT":
        value = args[0]
        if value is None:
            return None
        try:
            return int(float(value))
        except (TypeError, ValueError):
            return 0
    if name == "CAST_REAL":
        value = args[0]
        if value is None:
            return None
        try:
            return float(value)
        except (TypeError, ValueError):
            return 0.0
    if name == "CAST_TEXT":
        return None if args[0] is None else str(args[0])
    raise SQLExecutionError(f"unknown function {name}()")


class SubqueryRunner:
    """Callback bundle the compiler uses to evaluate subqueries.

    The engine supplies :meth:`run`, which executes an uncorrelated
    subquery and returns its rows.  Results are cached so a subquery
    inside a per-row predicate executes exactly once.
    """

    def __init__(self, run: Callable[[ast.Select], List[tuple]]) -> None:
        self._run = run
        self._cache: dict = {}

    def rows(self, select: ast.Select) -> List[tuple]:
        key = id(select)
        if key not in self._cache:
            self._cache[key] = self._run(select)
        return self._cache[key]


def compile_expr(
    expr: ast.Expr,
    schema: Schema,
    subqueries: Optional[SubqueryRunner] = None,
) -> Compiled:
    """Compile ``expr`` against ``schema`` into a per-row closure."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ast.Column):
        index = resolve_column(schema, expr.table, expr.name)
        return lambda row: row[index]
    if isinstance(expr, ast.Star):
        raise SQLExecutionError("'*' is only valid in a select list "
                                "or COUNT(*)")
    if isinstance(expr, ast.Unary):
        operand = compile_expr(expr.operand, schema, subqueries)
        if expr.op == "-":
            return lambda row: (
                None if operand(row) is None else -operand(row)
            )
        if expr.op == "NOT":
            def negate(row):
                value = operand(row)
                if value is None:
                    return None
                return 0 if _is_true(value) else 1
            return negate
        raise SQLExecutionError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.Binary):
        return _compile_binary(expr, schema, subqueries)
    if isinstance(expr, ast.FuncCall):
        if expr.name in ast.AGGREGATES:
            raise SQLExecutionError(
                f"aggregate {expr.name}() used outside GROUP BY context"
            )
        arg_fns = [compile_expr(a, schema, subqueries) for a in expr.args]
        name = expr.name
        if name == "DATE":
            if len(arg_fns) != 1:
                raise SQLExecutionError("DATE() takes exactly one argument")
            return _memoized_date(arg_fns[0])
        return lambda row: _scalar_function(name, [f(row) for f in arg_fns])
    if isinstance(expr, ast.InList):
        operand = compile_expr(expr.operand, schema, subqueries)
        item_fns = [compile_expr(i, schema, subqueries) for i in expr.items]
        negated = expr.negated

        def in_list(row):
            value = operand(row)
            if value is None:
                return None
            key = sort_key(value)
            hit = any(
                item(row) is not None and sort_key(item(row)) == key
                for item in item_fns
            )
            return (0 if hit else 1) if negated else (1 if hit else 0)
        return in_list
    if isinstance(expr, ast.InSubquery):
        if subqueries is None:
            raise SQLExecutionError("subqueries are not allowed here")
        operand = compile_expr(expr.operand, schema, subqueries)
        select = expr.subquery
        negated = expr.negated
        runner = subqueries
        members = None  # built on first use, then kept with the closure

        def in_subquery(row):
            nonlocal members
            value = operand(row)
            if value is None:
                return None
            if members is None:
                members = {
                    sort_key(r[0]) for r in runner.rows(select)
                    if r and r[0] is not None
                }
            hit = sort_key(value) in members
            return (0 if hit else 1) if negated else (1 if hit else 0)
        return in_subquery
    if isinstance(expr, ast.ScalarSubquery):
        if subqueries is None:
            raise SQLExecutionError("subqueries are not allowed here")
        select = expr.subquery
        runner = subqueries

        def scalar(row):
            rows = runner.rows(select)
            if not rows:
                return None
            return rows[0][0]
        return scalar
    if isinstance(expr, ast.Between):
        operand = compile_expr(expr.operand, schema, subqueries)
        low = compile_expr(expr.low, schema, subqueries)
        high = compile_expr(expr.high, schema, subqueries)
        negated = expr.negated

        def between(row):
            value, lo, hi = operand(row), low(row), high(row)
            if value is None or lo is None or hi is None:
                return None
            hit = sort_key(lo) <= sort_key(value) <= sort_key(hi)
            return (0 if hit else 1) if negated else (1 if hit else 0)
        return between
    if isinstance(expr, ast.Like):
        operand = compile_expr(expr.operand, schema, subqueries)
        pattern = compile_expr(expr.pattern, schema, subqueries)
        negated = expr.negated

        def like(row):
            value, pat = operand(row), pattern(row)
            if value is None or pat is None:
                return None
            hit = like_to_regex(str(pat)).match(str(value)) is not None
            return (0 if hit else 1) if negated else (1 if hit else 0)
        return like
    if isinstance(expr, ast.IsNull):
        operand = compile_expr(expr.operand, schema, subqueries)
        negated = expr.negated

        def is_null(row):
            hit = operand(row) is None
            return (0 if hit else 1) if negated else (1 if hit else 0)
        return is_null
    if isinstance(expr, ast.Case):
        when_fns = [
            (compile_expr(c, schema, subqueries),
             compile_expr(v, schema, subqueries))
            for c, v in expr.whens
        ]
        default_fn = (
            compile_expr(expr.default, schema, subqueries)
            if expr.default is not None
            else (lambda row: None)
        )

        def case(row):
            for condition, value in when_fns:
                if _is_true(condition(row)):
                    return value(row)
            return default_fn(row)
        return case
    raise SQLExecutionError(f"cannot compile expression {expr!r}")


def _compile_binary(
    expr: ast.Binary,
    schema: Schema,
    subqueries: Optional[SubqueryRunner],
) -> Compiled:
    left = compile_expr(expr.left, schema, subqueries)
    right = compile_expr(expr.right, schema, subqueries)
    op = expr.op
    if op == "AND":
        def kleene_and(row):
            a = left(row)
            if a is not None and not _is_true(a):
                return 0
            b = right(row)
            if b is not None and not _is_true(b):
                return 0
            if a is None or b is None:
                return None
            return 1
        return kleene_and
    if op == "OR":
        def kleene_or(row):
            a = left(row)
            if a is not None and _is_true(a):
                return 1
            b = right(row)
            if b is not None and _is_true(b):
                return 1
            if a is None or b is None:
                return None
            return 0
        return kleene_or
    if op in ("=", "<>", "<", "<=", ">", ">="):
        return lambda row: _compare(op, left(row), right(row))
    if op == "||":
        def concat(row):
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            return str(a) + str(b)
        return concat
    return lambda row: _arith(op, left(row), right(row))


def predicate(compiled: Compiled) -> Callable[[Sequence[SqlValue]], bool]:
    """Wrap a compiled expression as a row filter (non-true rejects)."""
    return lambda row: _is_true(compiled(row))


def find_aggregates(expr: ast.Expr) -> List[ast.FuncCall]:
    """Collect aggregate calls in ``expr`` (not descending into them)."""
    found: List[ast.FuncCall] = []

    def walk(node: ast.Expr) -> None:
        if isinstance(node, ast.FuncCall):
            if node.name in ast.AGGREGATES:
                found.append(node)
                return
            for arg in node.args:
                walk(arg)
        elif isinstance(node, ast.Unary):
            walk(node.operand)
        elif isinstance(node, ast.Binary):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, (ast.Like,)):
            walk(node.operand)
            walk(node.pattern)
        elif isinstance(node, ast.IsNull):
            walk(node.operand)
        elif isinstance(node, ast.InSubquery):
            walk(node.operand)
        elif isinstance(node, ast.Case):
            for condition, value in node.whens:
                walk(condition)
                walk(value)
            if node.default is not None:
                walk(node.default)

    walk(expr)
    return found


def rewrite_for_aggregation(
    expr: ast.Expr,
    group_exprs: Sequence[ast.Expr],
    agg_calls: Sequence[ast.FuncCall],
) -> ast.Expr:
    """Rewrite an expression over aggregate output.

    Aggregate calls become references to synthetic ``#agg`` columns and
    sub-expressions structurally equal to a GROUP BY key become ``#group``
    references.  Any remaining raw column reference is an error (it is
    neither grouped nor aggregated).
    """
    for i, group in enumerate(group_exprs):
        if expr == group:
            return ast.Column("#group", f"g{i}")
    if isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATES:
        for j, call in enumerate(agg_calls):
            if expr == call:
                return ast.Column("#agg", f"a{j}")
        raise SQLExecutionError("aggregate call not collected")
    if isinstance(expr, ast.Column):
        raise SQLExecutionError(
            f"column {expr.name!r} must appear in GROUP BY or inside "
            "an aggregate"
        )
    if isinstance(expr, ast.Unary):
        return ast.Unary(
            expr.op, rewrite_for_aggregation(expr.operand, group_exprs,
                                             agg_calls)
        )
    if isinstance(expr, ast.Binary):
        return ast.Binary(
            expr.op,
            rewrite_for_aggregation(expr.left, group_exprs, agg_calls),
            rewrite_for_aggregation(expr.right, group_exprs, agg_calls),
        )
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(
            expr.name,
            tuple(
                rewrite_for_aggregation(a, group_exprs, agg_calls)
                for a in expr.args
            ),
            expr.distinct,
        )
    if isinstance(expr, ast.InList):
        return ast.InList(
            rewrite_for_aggregation(expr.operand, group_exprs, agg_calls),
            tuple(
                rewrite_for_aggregation(i, group_exprs, agg_calls)
                for i in expr.items
            ),
            expr.negated,
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            rewrite_for_aggregation(expr.operand, group_exprs, agg_calls),
            rewrite_for_aggregation(expr.low, group_exprs, agg_calls),
            rewrite_for_aggregation(expr.high, group_exprs, agg_calls),
            expr.negated,
        )
    if isinstance(expr, ast.Like):
        return ast.Like(
            rewrite_for_aggregation(expr.operand, group_exprs, agg_calls),
            rewrite_for_aggregation(expr.pattern, group_exprs, agg_calls),
            expr.negated,
        )
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(
            rewrite_for_aggregation(expr.operand, group_exprs, agg_calls),
            expr.negated,
        )
    if isinstance(expr, ast.Case):
        return ast.Case(
            tuple(
                (
                    rewrite_for_aggregation(c, group_exprs, agg_calls),
                    rewrite_for_aggregation(v, group_exprs, agg_calls),
                )
                for c, v in expr.whens
            ),
            rewrite_for_aggregation(expr.default, group_exprs, agg_calls)
            if expr.default is not None
            else None,
        )
    return expr
