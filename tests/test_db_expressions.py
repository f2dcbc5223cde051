"""Unit tests for expression compilation and three-valued logic."""

import datetime

import pytest

from repro.db.plan import expressions
from repro.db.plan.expressions import (
    SubqueryRunner,
    compile_expr,
    find_aggregates,
    like_to_regex,
    predicate,
    resolve_column,
    rewrite_for_aggregation,
)
from repro.db.sql import ast
from repro.db.sql.parser import parse_statement
from repro.errors import SQLExecutionError

SCHEMA = [("t", "a"), ("t", "b"), ("u", "a")]


def expr_of(sql_fragment):
    stmt = parse_statement(f"SELECT {sql_fragment}")
    return stmt.items[0].expr


def evaluate(sql_fragment, row=(None, None, None), schema=SCHEMA):
    fn = compile_expr(expr_of(sql_fragment), list(schema))
    return fn(list(row))


class TestResolution:
    def test_qualified(self):
        assert resolve_column(SCHEMA, "u", "a") == 2

    def test_unqualified_unique(self):
        assert resolve_column(SCHEMA, None, "b") == 1

    def test_ambiguous(self):
        with pytest.raises(SQLExecutionError):
            resolve_column(SCHEMA, None, "a")

    def test_missing(self):
        with pytest.raises(SQLExecutionError):
            resolve_column(SCHEMA, "t", "zz")


class TestThreeValuedLogic:
    def test_null_propagates_through_arithmetic(self):
        assert evaluate("t.a + 1") is None
        assert evaluate("-t.a") is None

    def test_null_comparisons_unknown(self):
        assert evaluate("t.a = 1") is None
        assert evaluate("t.a < 1") is None

    def test_kleene_and(self):
        # NULL AND FALSE = FALSE; NULL AND TRUE = NULL.
        assert evaluate("t.a = 1 AND 1 = 2") == 0
        assert evaluate("t.a = 1 AND 1 = 1") is None

    def test_kleene_or(self):
        assert evaluate("t.a = 1 OR 1 = 1") == 1
        assert evaluate("t.a = 1 OR 1 = 2") is None

    def test_not_null(self):
        assert evaluate("NOT t.a = 1") is None
        assert evaluate("NOT 1 = 1") == 0

    def test_predicate_rejects_unknown(self):
        keep = predicate(compile_expr(expr_of("t.a = 1"), SCHEMA))
        assert not keep([None, None, None])
        assert keep([1, None, None])

    def test_in_list_with_null_operand(self):
        assert evaluate("t.a IN (1, 2)") is None
        assert evaluate("5 IN (1, 5)") == 1
        assert evaluate("5 NOT IN (1, 5)") == 0

    def test_between_null_bound(self):
        assert evaluate("5 BETWEEN t.a AND 10") is None

    def test_like_null(self):
        assert evaluate("t.b LIKE 'x%'") is None


class TestLike:
    @pytest.mark.parametrize("pattern,text,match", [
        ("abc", "abc", True),
        ("abc", "ABC", True),  # SQLite LIKE is case-insensitive
        ("a%", "abcdef", True),
        ("%def", "abcdef", True),
        ("a_c", "abc", True),
        ("a_c", "abbc", False),
        ("%", "", True),
        ("a.c", "abc", False),  # dot is literal
    ])
    def test_patterns(self, pattern, text, match):
        assert bool(like_to_regex(pattern).match(text)) == match


class TestAggregateAnalysis:
    def test_find_aggregates_nested(self):
        expr = expr_of("SUM(t.a) + COUNT(*) * 2")
        found = find_aggregates(expr)
        assert {f.name for f in found} == {"SUM", "COUNT"}

    def test_no_descent_into_aggregate_args(self):
        expr = expr_of("SUM(t.a + 1)")
        assert len(find_aggregates(expr)) == 1

    def test_rewrite_group_key(self):
        group = expr_of("t.a")
        rewritten = rewrite_for_aggregation(
            expr_of("t.a"), [group], []
        )
        assert rewritten == ast.Column("#group", "g0")

    def test_rewrite_aggregate_call(self):
        call = expr_of("SUM(t.a)")
        rewritten = rewrite_for_aggregation(
            expr_of("SUM(t.a) + 1"), [], [call]
        )
        assert rewritten == ast.Binary(
            "+", ast.Column("#agg", "a0"), ast.Literal(1)
        )

    def test_ungrouped_column_rejected(self):
        with pytest.raises(SQLExecutionError):
            rewrite_for_aggregation(expr_of("t.b"), [expr_of("t.a")], [])


class TestSubqueries:
    def test_runner_caches(self):
        calls = []

        def run(select):
            calls.append(select)
            return [(1,), (2,)]

        runner = SubqueryRunner(run)
        select = parse_statement("SELECT 1")
        assert runner.rows(select) == [(1,), (2,)]
        assert runner.rows(select) == [(1,), (2,)]
        assert len(calls) == 1

    def test_in_subquery_compiles(self):
        stmt = parse_statement(
            "SELECT t.a IN (SELECT 1) FROM t"
        )
        runner = SubqueryRunner(lambda select: [(1,)])
        fn = compile_expr(stmt.items[0].expr, SCHEMA, runner)
        assert fn([1, None, None]) == 1
        assert fn([2, None, None]) == 0
        assert fn([None, None, None]) is None

    def test_in_subquery_members_are_built_once(self):
        """The member set is built on the first outer row that needs it,
        then kept by the compiled predicate: one ``rows`` call for the
        whole window, not one per row; none while every operand is
        NULL."""

        class CountingRunner(SubqueryRunner):
            asked = 0

            def rows(self, select):
                self.asked += 1
                return super().rows(select)

        stmt = parse_statement(
            "SELECT t.a NOT IN (SELECT 1) FROM t"
        )
        runner = CountingRunner(lambda select: [(1,), (None,), (2.0,)])
        fn = compile_expr(stmt.items[0].expr, SCHEMA, runner)
        assert fn([None, None, None]) is None
        assert runner.asked == 0
        assert [fn([value, None, None]) for value in range(5)] == [
            1, 0, 0, 1, 1]
        assert runner.asked == 1

    def test_scalar_subquery_empty_is_null(self):
        stmt = parse_statement("SELECT (SELECT 1)")
        runner = SubqueryRunner(lambda select: [])
        fn = compile_expr(stmt.items[0].expr, [], runner)
        assert fn([]) is None

    def test_subquery_without_runner_rejected(self):
        stmt = parse_statement("SELECT (SELECT 1)")
        with pytest.raises(SQLExecutionError):
            compile_expr(stmt.items[0].expr, [], None)


class TestMiscErrors:
    def test_star_outside_select_list(self):
        with pytest.raises(SQLExecutionError):
            compile_expr(ast.Star(), SCHEMA)

    def test_arithmetic_on_text(self):
        fn = compile_expr(expr_of("t.b + 1"), SCHEMA)
        with pytest.raises(SQLExecutionError):
            fn([None, "text", None])

    def test_aggregate_without_context(self):
        with pytest.raises(SQLExecutionError):
            compile_expr(expr_of("SUM(t.a)"), SCHEMA)


def date_per_call(value):
    """``DATE()`` as it was computed before it was memoized: one
    ``datetime`` and one ``strftime`` per row."""
    if value is None:
        return None
    moment = datetime.datetime.fromtimestamp(
        int(value), tz=datetime.timezone.utc
    )
    return moment.strftime("%Y-%m-%d")


class TestDate:
    """``DATE()`` is computed once per distinct day for the life of its
    compiled expression, and answers as one call per row."""

    VALUES = [0, 1, 86399, 86400, 1683852854, 1683852854.9, 1683936000.0,
              -1, -0.5, -86401, -86400.5, True, False, 1.0, None,
              "1683852854", 253402300799]
    BAD = ["noon", "1.5", 1e300, float("inf"), float("nan"), 10 ** 20,
           253402300800]

    def test_every_value_answers_as_one_call_per_row(self):
        date = compile_expr(expr_of("DATE(t.a)"), SCHEMA)
        for value in self.VALUES * 2:  # the second pass hits the memo
            assert date([value, None, None]) == date_per_call(value)

    def test_a_value_that_raises_raises_every_time(self):
        date = compile_expr(expr_of("DATE(t.a)"), SCHEMA)
        for value in self.BAD:
            with pytest.raises(Exception) as expected:
                date_per_call(value)
            for _ in range(2):
                with pytest.raises(type(expected.value)):
                    date([value, None, None])

    def test_each_distinct_day_is_computed_once_per_expression(
        self, monkeypatch
    ):
        computed = []

        def counted(value):
            computed.append(value)
            return date_per_call(value)

        monkeypatch.setattr(expressions, "_date", counted)
        first = compile_expr(expr_of("DATE(t.a)"), SCHEMA)
        second = compile_expr(expr_of("DATE(t.a)"), SCHEMA)
        for value in [7, 7.0, 86399, 86400, 7, 86400.5, None]:
            first([value, None, None])
        assert computed == [0, 86400]
        second([7, None, None])
        assert computed == [0, 86400, 0]

    @pytest.mark.parametrize("call", ["DATE()", "DATE(t.a, t.b)"])
    def test_any_other_arity_is_refused_when_compiled(self, call):
        with pytest.raises(SQLExecutionError, match="exactly one argument"):
            compile_expr(expr_of(call), SCHEMA)
