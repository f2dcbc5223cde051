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
import math
import re
from contextlib import contextmanager
from decimal import ROUND_DOWN, Context, Decimal
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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


#: Every scalar function and its ``(fewest, most)`` arguments (``None``:
#: no upper bound), checked when a call is compiled, as ``sqlite3``
#: refuses ``abs()`` or ``coalesce(1)`` before any row.  ``CAST(x AS T)``
#: parses to ``CAST_T``, so a type not listed is refused here too.
SCALAR_ARITY: Dict[str, Tuple[int, Optional[int]]] = {
    "ABS": (1, 1), "LENGTH": (1, 1), "LOWER": (1, 1), "UPPER": (1, 1),
    "DATE": (1, 1), "ROUND": (1, 2), "SUBSTR": (2, 3),
    "COALESCE": (2, None), "CAST_INTEGER": (1, 1), "CAST_INT": (1, 1),
    "CAST_REAL": (1, 1), "CAST_TEXT": (1, 1),
}


def _check_arity(name: str, count: int) -> None:
    if name not in SCALAR_ARITY:
        raise SQLExecutionError(f"unknown function {name}()")
    fewest, most = SCALAR_ARITY[name]
    if count < fewest or (most is not None and count > most):
        wanted = ("exactly one argument" if fewest == most == 1
                  else f"at least {fewest} arguments" if most is None
                  else f"{fewest} to {most} arguments")
        raise SQLExecutionError(f"{name}() takes {wanted}, not {count}")


#: The numeric prefix ``sqlite3`` reads from text where it wants a
#: number (``'12abc'`` is 12; no prefix is 0).
_NUMERIC_PREFIX = re.compile(r"\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_INTEGER_PREFIX = re.compile(r"\s*[+-]?\d+")
_INT64 = 1 << 63
#: ``ROUND`` leaves a value this large alone: it has no fraction.
_NO_FRACTION = 4503599627370496.0
#: Exact enough for any double plus ``ROUND``'s half-unit bump.
_EXACT = Context(prec=800)


def _as_real(value: SqlValue) -> float:
    """``value`` as ``sqlite3_value_double`` reads it."""
    if isinstance(value, (bytes, bytearray)):
        value = bytes(value).decode("utf-8", "replace")
    if isinstance(value, str):
        found = _NUMERIC_PREFIX.match(value)
        return float(found.group(0)) if found else 0.0
    return float(value)


def _as_int(value: SqlValue) -> int:
    """``value`` as ``sqlite3_value_int`` reads it: a 64-bit integer (a
    real truncated toward zero, text its leading integer, either clamped
    to the range; NaN the least), then its low 32 bits, signed."""
    if isinstance(value, (bytes, bytearray)):
        value = bytes(value).decode("utf-8", "replace")
    if isinstance(value, str):
        found = _INTEGER_PREFIX.match(value)
        number = int(found.group(0)) if found else 0
    elif isinstance(value, float) and not -_INT64 < value < _INT64:
        number = _INT64 if value >= _INT64 else -_INT64
    else:
        number = math.trunc(value)
    number = max(min(number, _INT64 - 1), -_INT64) & 0xFFFFFFFF
    return number - (1 << 32) if number >= 1 << 31 else number


def _extended(exact: Fraction) -> Fraction:
    """``exact`` rounded to the x87 extended format SQLite computes in
    (a 64-bit significand, ties to even)."""
    if not exact:
        return exact
    exponent = exact.numerator.bit_length() - exact.denominator.bit_length()
    if Fraction(2) ** exponent > exact:
        exponent -= 1
    unit = Fraction(2) ** (exponent - 63)
    return round(exact / unit) * unit


def _round(value: SqlValue, digits: SqlValue = 0) -> SqlValue:
    """``ROUND`` as SQLite 3.40 computes it: halves away from zero,
    digits clamped to 0-30, a NULL argument gives NULL, text read as
    its numeric prefix.  With digits it is SQLite's ``printf("%.*f")``
    read back: add half a unit in the last place, plus ``3e-16`` of the
    value when the digits asked for are few enough, cut at that place
    or at the 16th significant digit, whichever comes first, and read
    the digits as ``sqlite3AtoF`` does, dividing in extended precision.
    (SQLite also cuts the digits in extended precision; where that
    errs in a 16th significant digit, this answer can differ there.)"""
    if value is None or digits is None:
        return None
    places = min(max(_as_int(digits), 0), 30)
    real = _as_real(value)
    if not -_NO_FRACTION <= real <= _NO_FRACTION:
        return real
    if places == 0:
        return float(math.trunc(real + (-0.5 if real < 0 else 0.5)))
    magnitude = abs(real)
    exact = Decimal(magnitude)
    bump = _EXACT.multiply(Decimal(5), Decimal(10) ** -(places + 1))
    exponent = math.frexp(magnitude)[1] - 1 if magnitude else -1023
    if places + int(exponent / 3) < 15:  # C's division truncates
        bump = _EXACT.add(bump, _EXACT.multiply(exact, Decimal(3e-16)))
    bumped = _EXACT.add(exact, bump)
    last = max(-places, bumped.adjusted() - 15)
    _, cut, power = bumped.quantize(
        Decimal(1).scaleb(last), rounding=ROUND_DOWN, context=_EXACT,
    ).as_tuple()
    significand = int("".join(map(str, cut)))
    while power < 0 and significand and not significand % 10:
        significand //= 10
        power += 1
    answer = float(_extended(significand * Fraction(10) ** power))
    return -answer if real < 0 else answer


def _scalar_function(name: str, args: List[SqlValue]) -> SqlValue:
    """One call of a function whose arity :func:`_check_arity` passed."""
    if name == "ABS":
        return None if args[0] is None else abs(args[0])
    if name == "LENGTH":
        return None if args[0] is None else len(str(args[0]))
    if name == "LOWER":
        return None if args[0] is None else str(args[0]).lower()
    if name == "UPPER":
        return None if args[0] is None else str(args[0]).upper()
    if name == "ROUND":
        return _round(*args)
    if name == "COALESCE":
        for value in args:
            if value is not None:
                return value
        return None
    if name == "SUBSTR":
        if args[0] is None:
            return None
        text = str(args[0])
        start = int(args[1]) - 1
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


class Binding:
    """What a compiled statement resolves when it runs (DESIGN §4k).

    ``provider`` is the access provider executing the statement — set
    for one execution (:meth:`bound`) and cleared after it, so a kept
    statement holds no engine between executions.  ``plans`` holds the
    compiled plans of the statement's subqueries, filled by the provider
    on their first run.  A subquery's rows and an ``IN`` list's members
    are kept in the running statement's scope (the provider's
    ``statement_memo``, emptied when the statement ends), so every
    execution starts empty and a subquery inside a per-row predicate
    still runs once per execution.
    """

    __slots__ = ("provider", "plans")

    def __init__(self, provider=None) -> None:
        self.provider = provider
        self.plans: dict = {}

    @contextmanager
    def bound(self, provider) -> Iterator[None]:
        """Run with ``provider`` executing; the one before it after."""
        outer, self.provider = self.provider, provider
        try:
            yield
        finally:
            self.provider = outer

    def rows(self, select: ast.Select) -> List[tuple]:
        """The rows of an uncorrelated subquery, run once per statement."""
        memo = self.provider.statement_memo
        key = ("rows", id(select))
        found = memo.get(key)
        if found is None:
            found = memo[key] = self.provider.run_subquery(select, self)
        return found

    def members(self, select: ast.Select) -> set:
        """The sort keys of an ``IN`` subquery's non-NULL first column,
        built once per statement."""
        memo = self.provider.statement_memo
        key = ("members", id(select))
        found = memo.get(key)
        if found is None:
            found = memo[key] = {
                sort_key(r[0]) for r in self.rows(select)
                if r and r[0] is not None
            }
        return found


def compile_expr(
    expr: ast.Expr,
    schema: Schema,
    subqueries: Optional[Binding] = None,
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
        _check_arity(name, len(arg_fns))
        if name == "DATE":
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
        binding = subqueries

        def in_subquery(row):
            value = operand(row)
            if value is None:
                return None
            hit = sort_key(value) in binding.members(select)
            return (0 if hit else 1) if negated else (1 if hit else 0)
        return in_subquery
    if isinstance(expr, ast.ScalarSubquery):
        if subqueries is None:
            raise SQLExecutionError("subqueries are not allowed here")
        select = expr.subquery
        binding = subqueries

        def scalar(row):
            rows = binding.rows(select)
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
    subqueries: Optional[Binding],
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
