"""Rule-based query planner.

Translates a parsed :class:`~repro.db.sql.ast.Select` into an operator
tree.  The rules mirror a classic single-pass planner:

* base-table scans use a secondary index when a WHERE conjunct compares an
  indexed column with a constant (equality preferred over range);
* joins are left-deep; an equi-join whose inner side has an index on the
  join column becomes an :class:`~repro.db.plan.operators.IndexJoin`,
  anything else a materialized nested loop;
* grouping/aggregates rewrite the select list onto a synthetic
  ``(#group..., #agg...)`` schema;
* ORDER BY terms may be output aliases, 1-based ordinals, or expressions;
  sorting happens before projection on the resolved expressions;
* UNION / UNION ALL combine plans of identical width, with ORDER BY and
  LIMIT applying to the combined result.

The planner is storage-agnostic: it receives an *access provider* (the
engine) exposing table iteration, index ranges, index lookups, subquery
execution, and the temp filesystem for spills.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.db.plan import operators as ops
from repro.db.plan.expressions import (
    Compiled,
    Schema,
    SubqueryRunner,
    compile_expr,
    find_aggregates,
    predicate,
    rewrite_for_aggregation,
)
from repro.db.sql import ast
from repro.errors import SQLExecutionError


class AccessProvider:
    """The storage interface the planner compiles against.

    Implemented by :class:`repro.db.engine.Engine`; defined here to keep
    the dependency arrow pointing from the engine to the planner.
    """

    def table_schema(self, table_name: str, binding: str) -> Schema:
        raise NotImplementedError

    def seq_scan(self, table_name: str):
        """Return a factory yielding all rows of the table."""
        raise NotImplementedError

    def index_range_scan(self, table_name: str, column: str, low, high,
                         low_inc: bool, high_inc: bool):
        """Return a factory yielding rows with column within bounds."""
        raise NotImplementedError

    def has_index(self, table_name: str, column: str) -> bool:
        raise NotImplementedError

    def index_lookup(self, table_name: str, column: str):
        """Return ``fn(value) -> iterable of rows`` via the index."""
        raise NotImplementedError

    def run_subquery(self, select: ast.Select) -> List[tuple]:
        raise NotImplementedError

    def temp_filesystem(self):
        raise NotImplementedError

    @property
    def sort_memory_rows(self) -> int:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Helper analysis
# ---------------------------------------------------------------------------

def split_conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def combine_conjuncts(conjuncts: Sequence[ast.Expr]) -> Optional[ast.Expr]:
    result: Optional[ast.Expr] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else ast.Binary(
            "AND", result, conjunct
        )
    return result


def referenced_columns(expr: ast.Expr) -> List[ast.Column]:
    found: List[ast.Column] = []

    def walk(node) -> None:
        if isinstance(node, ast.Column):
            found.append(node)
        elif isinstance(node, ast.Unary):
            walk(node.operand)
        elif isinstance(node, ast.Binary):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.FuncCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, ast.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.InSubquery):
            walk(node.operand)
        elif isinstance(node, ast.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, ast.Like):
            walk(node.operand)
            walk(node.pattern)
        elif isinstance(node, ast.IsNull):
            walk(node.operand)
        elif isinstance(node, ast.Case):
            for condition, value in node.whens:
                walk(condition)
                walk(value)
            if node.default is not None:
                walk(node.default)

    walk(expr)
    return found


def _try_constant(
    expr: ast.Expr, subqueries: SubqueryRunner
) -> Tuple[bool, object]:
    """Evaluate a column-free expression to a constant, if possible."""
    if referenced_columns(expr):
        return False, None
    try:
        fn = compile_expr(expr, [], subqueries)
        return True, fn([])
    except SQLExecutionError:
        return False, None


class _Range:
    """Accumulated bounds on one indexed column."""

    __slots__ = ("low", "low_inc", "high", "high_inc", "is_eq")

    def __init__(self) -> None:
        self.low = None
        self.low_inc = True
        self.high = None
        self.high_inc = True
        self.is_eq = False

    def add(self, op: str, value) -> None:
        if op == "=":
            self.low = self.high = value
            self.low_inc = self.high_inc = True
            self.is_eq = True
        elif op in (">", ">="):
            if self.low is None:
                self.low, self.low_inc = value, op == ">="
        elif op in ("<", "<="):
            if self.high is None:
                self.high, self.high_inc = value, op == "<="

    def usable(self) -> bool:
        return self.low is not None or self.high is not None


_FLIP = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------

class _Planner:
    def __init__(self, provider: AccessProvider) -> None:
        self.provider = provider
        self.subqueries = SubqueryRunner(provider.run_subquery)

    # -- entry points ----------------------------------------------------

    def plan(self, select: ast.Select) -> Tuple[ops.Operator, List[str]]:
        if select.compounds:
            return self._plan_compound(select)
        return self._plan_core(select, apply_order_limit=True)

    def _plan_compound(
        self, select: ast.Select
    ) -> Tuple[ops.Operator, List[str]]:
        first = ast.Select(
            items=select.items,
            from_item=select.from_item,
            where=select.where,
            group_by=select.group_by,
            having=select.having,
            distinct=select.distinct,
        )
        combined, names = self._plan_core(first, apply_order_limit=False)
        for op_name, part in select.compounds:
            part_plan, _ = self._plan_core(part, apply_order_limit=False)
            combined = ops.Union(
                combined, part_plan, keep_all=op_name == "UNION ALL"
            )
        output_schema: Schema = [(None, name) for name in names]
        combined = ops.Scan(  # re-label the union output columns
            output_schema, combined.rows
        )
        if select.order_by:
            key_exprs, descending = self._order_keys_over_output(
                select.order_by, names, output_schema
            )
            combined = ops.Sort(
                combined, key_exprs, descending,
                self.provider.temp_filesystem(),
                self.provider.sort_memory_rows,
            )
        if select.limit is not None or select.offset:
            combined = ops.Limit(combined, select.limit,
                                 select.offset or 0)
        return combined, names

    def _order_keys_over_output(
        self,
        order_by: Sequence[ast.OrderItem],
        names: List[str],
        schema: Schema,
    ) -> Tuple[List[Compiled], List[bool]]:
        key_exprs: List[Compiled] = []
        descending: List[bool] = []
        for item in order_by:
            expr = item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                index = expr.value - 1
                if not 0 <= index < len(names):
                    raise SQLExecutionError(
                        f"ORDER BY ordinal {expr.value} out of range"
                    )
                key_exprs.append(lambda row, i=index: row[i])
            else:
                key_exprs.append(compile_expr(expr, schema, self.subqueries))
            descending.append(item.descending)
        return key_exprs, descending

    # -- core SELECT -------------------------------------------------------

    def _plan_core(
        self, select: ast.Select, apply_order_limit: bool
    ) -> Tuple[ops.Operator, List[str]]:
        where_conjuncts = split_conjuncts(select.where)
        source = self._plan_from(select.from_item, where_conjuncts)
        if where_conjuncts:
            remaining = combine_conjuncts(where_conjuncts)
            keep = predicate(
                compile_expr(remaining, source.schema, self.subqueries)
            )
            source = ops.Filter(source, keep)

        items = self._expand_stars(select.items, source.schema)
        names = self._output_names(items)

        order_items = list(select.order_by) if apply_order_limit else []
        resolved_order = self._resolve_order_aliases(order_items, items,
                                                     names)

        agg_calls = self._collect_aggregates(items, select.having,
                                             resolved_order)
        if select.group_by or agg_calls:
            plan = self._plan_aggregate(
                source, select, items, resolved_order, agg_calls
            )
        else:
            if select.having is not None:
                raise SQLExecutionError("HAVING requires GROUP BY")
            plan = source
            if resolved_order:
                key_exprs = [
                    compile_expr(item.expr, plan.schema, self.subqueries)
                    for item in resolved_order
                ]
                plan = ops.Sort(
                    plan, key_exprs,
                    [item.descending for item in resolved_order],
                    self.provider.temp_filesystem(),
                    self.provider.sort_memory_rows,
                )
            exprs = [
                compile_expr(item.expr, plan.schema, self.subqueries)
                for item in items
            ]
            plan = ops.Project(
                plan, exprs, [(None, name) for name in names]
            )
        if select.distinct:
            plan = ops.Distinct(plan)
        if apply_order_limit and (select.limit is not None or select.offset):
            plan = ops.Limit(plan, select.limit, select.offset or 0)
        return plan, names

    # -- FROM clause -------------------------------------------------------

    def _plan_from(
        self,
        from_item: Optional[ast.FromItem],
        where_conjuncts: List[ast.Expr],
    ) -> ops.Operator:
        if from_item is None:
            return ops.Materialized([], [[]])
        if isinstance(from_item, ast.TableRef):
            return self._plan_table(from_item, where_conjuncts)
        if isinstance(from_item, ast.SubqueryRef):
            return self._plan_subquery_ref(from_item)
        if isinstance(from_item, ast.Join):
            return self._plan_join(from_item, where_conjuncts)
        raise SQLExecutionError(f"unsupported FROM item {from_item!r}")

    def _plan_table(
        self, ref: ast.TableRef, where_conjuncts: List[ast.Expr]
    ) -> ops.Operator:
        binding = ref.binding()
        schema = self.provider.table_schema(ref.name, binding)
        ranges: Dict[str, _Range] = {}
        conditions = [
            self._index_condition(conjunct, binding, schema, ref.name)
            for conjunct in where_conjuncts
        ]
        for parsed in conditions:
            if parsed is None:
                continue
            column, op_name, value = parsed
            bounds = ranges.setdefault(column, _Range())
            if op_name == "between":
                bounds.add(">=", value[0])
                bounds.add("<=", value[1])
            else:
                bounds.add(op_name, value)
        best: Optional[Tuple[str, _Range]] = None
        for column, bounds in ranges.items():
            if not bounds.usable():
                continue
            if best is None or (bounds.is_eq and not best[1].is_eq):
                best = (column, bounds)
        if best is None:
            return ops.Scan(
                schema, self.provider.seq_scan(ref.name),
                label=f"seq {ref.name}",
            )
        column, bounds = best
        # Conjuncts folded into the chosen range are consumed; the rest
        # (including ranges on other columns) stay as post-scan filters.
        where_conjuncts[:] = [
            conjunct
            for conjunct, parsed in zip(where_conjuncts, conditions)
            if parsed is None or parsed[0] != column
        ]
        factory = self.provider.index_range_scan(
            ref.name, column, bounds.low, bounds.high,
            bounds.low_inc, bounds.high_inc,
        )
        low_mark = "(" if not bounds.low_inc else "["
        high_mark = ")" if not bounds.high_inc else "]"
        return ops.Scan(
            schema, factory,
            label=(f"index {ref.name}.{column} "
                   f"{low_mark}{bounds.low!r}..{bounds.high!r}{high_mark}"),
        )

    def _index_condition(
        self,
        conjunct: ast.Expr,
        binding: str,
        schema: Schema,
        table_name: str,
    ) -> Optional[Tuple[str, str, object]]:
        """Recognize ``col <op> constant`` over an indexed column."""
        def column_of(node) -> Optional[str]:
            if not isinstance(node, ast.Column):
                return None
            if node.table is not None and node.table != binding:
                return None
            if not any(c == node.name for _, c in schema):
                return None
            return node.name

        if isinstance(conjunct, ast.Between) and not conjunct.negated:
            column = column_of(conjunct.operand)
            if column is None or not self.provider.has_index(table_name,
                                                             column):
                return None
            ok_low, low = _try_constant(conjunct.low, self.subqueries)
            ok_high, high = _try_constant(conjunct.high, self.subqueries)
            if not (ok_low and ok_high):
                return None
            return (column, "between", (low, high))
        if not isinstance(conjunct, ast.Binary):
            return None
        if conjunct.op not in ("=", "<", "<=", ">", ">="):
            return None
        column = column_of(conjunct.left)
        if column is not None:
            ok, value = _try_constant(conjunct.right, self.subqueries)
            if ok and self.provider.has_index(table_name, column):
                return (column, conjunct.op, value)
        column = column_of(conjunct.right)
        if column is not None:
            ok, value = _try_constant(conjunct.left, self.subqueries)
            if ok and self.provider.has_index(table_name, column):
                return (column, _FLIP[conjunct.op], value)
        return None

    def _plan_subquery_ref(self, ref: ast.SubqueryRef) -> ops.Operator:
        plan, names = self.plan(ref.select)
        schema: Schema = [(ref.alias, name) for name in names]
        rows = [list(row) for row in plan.rows()]
        return ops.Materialized(schema, rows)

    def _plan_join(
        self, join: ast.Join, where_conjuncts: List[ast.Expr]
    ) -> ops.Operator:
        outer = self._plan_from(join.left, where_conjuncts)
        on_conjuncts = split_conjuncts(join.condition)
        # WHERE conjuncts must not be folded into the inner side of a
        # LEFT JOIN: they apply after NULL padding, not before.
        inner_conjuncts = [] if join.left_outer else where_conjuncts
        if isinstance(join.right, ast.TableRef):
            inner_ref = join.right
            inner_binding = inner_ref.binding()
            inner_schema = self.provider.table_schema(
                inner_ref.name, inner_binding
            )
            equi = self._find_equi_condition(
                on_conjuncts, outer.schema, inner_binding, inner_schema,
                inner_ref.name,
            )
            if equi is not None:
                outer_expr, inner_column, index = equi
                on_conjuncts.remove(on_conjuncts[index])
                residual = None
                if on_conjuncts:
                    combined_schema = outer.schema + inner_schema
                    residual = predicate(compile_expr(
                        combine_conjuncts(on_conjuncts),
                        combined_schema, self.subqueries,
                    ))
                outer_key = compile_expr(outer_expr, outer.schema,
                                         self.subqueries)
                lookup = self.provider.index_lookup(
                    inner_ref.name, inner_column
                )
                return ops.IndexJoin(
                    outer, inner_schema, outer_key, lookup, residual,
                    left_outer=join.left_outer,
                    label=f"probe {inner_ref.name}.{inner_column}",
                )
            inner = self._plan_table(inner_ref, inner_conjuncts)
        elif isinstance(join.right, ast.SubqueryRef):
            inner = self._plan_subquery_ref(join.right)
        else:
            raise SQLExecutionError("unsupported right side of JOIN")
        combined_schema = outer.schema + inner.schema
        keep = predicate(compile_expr(
            join.condition, combined_schema, self.subqueries
        ))
        return ops.MaterializedJoin(
            outer, inner, keep, left_outer=join.left_outer
        )

    def _find_equi_condition(
        self,
        on_conjuncts: List[ast.Expr],
        outer_schema: Schema,
        inner_binding: str,
        inner_schema: Schema,
        inner_table: str,
    ) -> Optional[Tuple[ast.Expr, str, int]]:
        """Find ``outer_expr = inner.col`` with an index on ``inner.col``."""
        inner_columns = {c for _, c in inner_schema}

        def is_inner_column(node) -> Optional[str]:
            if not isinstance(node, ast.Column):
                return None
            if node.table is not None and node.table != inner_binding:
                return None
            return node.name if node.name in inner_columns else None

        def is_outer_expr(node) -> bool:
            for column in referenced_columns(node):
                try:
                    from repro.db.plan.expressions import resolve_column
                    resolve_column(outer_schema, column.table, column.name)
                except SQLExecutionError:
                    return False
            return bool(referenced_columns(node))

        for i, conjunct in enumerate(on_conjuncts):
            if not isinstance(conjunct, ast.Binary) or conjunct.op != "=":
                continue
            for inner_side, outer_side in (
                (conjunct.right, conjunct.left),
                (conjunct.left, conjunct.right),
            ):
                column = is_inner_column(inner_side)
                if column is None:
                    continue
                if not self.provider.has_index(inner_table, column):
                    continue
                if is_outer_expr(outer_side):
                    return (outer_side, column, i)
        return None

    # -- select list and ordering -----------------------------------------

    def _expand_stars(
        self, items: Sequence[ast.SelectItem], schema: Schema
    ) -> List[ast.SelectItem]:
        expanded: List[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                for binding, column in schema:
                    if item.expr.table is not None and \
                            binding != item.expr.table:
                        continue
                    expanded.append(
                        ast.SelectItem(ast.Column(binding, column), column)
                    )
            else:
                expanded.append(item)
        if not expanded:
            raise SQLExecutionError("empty select list")
        return expanded

    @staticmethod
    def _output_names(items: Sequence[ast.SelectItem]) -> List[str]:
        names: List[str] = []
        for i, item in enumerate(items):
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ast.Column):
                names.append(item.expr.name)
            else:
                names.append(f"col{i + 1}")
        return names

    @staticmethod
    def _resolve_order_aliases(
        order_items: Sequence[ast.OrderItem],
        items: Sequence[ast.SelectItem],
        names: List[str],
    ) -> List[ast.OrderItem]:
        """Replace alias and ordinal ORDER BY terms with their expressions."""
        resolved: List[ast.OrderItem] = []
        for order in order_items:
            expr = order.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                index = expr.value - 1
                if not 0 <= index < len(items):
                    raise SQLExecutionError(
                        f"ORDER BY ordinal {expr.value} out of range"
                    )
                resolved.append(
                    ast.OrderItem(items[index].expr, order.descending)
                )
                continue
            if isinstance(expr, ast.Column) and expr.table is None \
                    and expr.name in names:
                index = names.index(expr.name)
                resolved.append(
                    ast.OrderItem(items[index].expr, order.descending)
                )
                continue
            resolved.append(order)
        return resolved

    @staticmethod
    def _collect_aggregates(
        items: Sequence[ast.SelectItem],
        having: Optional[ast.Expr],
        order_items: Sequence[ast.OrderItem],
    ) -> List[ast.FuncCall]:
        calls: List[ast.FuncCall] = []
        for item in items:
            calls.extend(find_aggregates(item.expr))
        if having is not None:
            calls.extend(find_aggregates(having))
        for order in order_items:
            calls.extend(find_aggregates(order.expr))
        unique: List[ast.FuncCall] = []
        for call in calls:
            if call not in unique:
                unique.append(call)
        return unique

    def _plan_aggregate(
        self,
        source: ops.Operator,
        select: ast.Select,
        items: List[ast.SelectItem],
        order_items: List[ast.OrderItem],
        agg_calls: List[ast.FuncCall],
    ) -> ops.Operator:
        group_exprs = list(select.group_by)
        group_fns = [
            compile_expr(g, source.schema, self.subqueries)
            for g in group_exprs
        ]
        specs: List[ops.AggSpec] = []
        for call in agg_calls:
            if call.name == "COUNT" and (
                not call.args or isinstance(call.args[0], ast.Star)
            ):
                specs.append(ops.AggSpec("COUNT", None, False))
                continue
            if len(call.args) != 1:
                raise SQLExecutionError(
                    f"{call.name}() takes exactly one argument"
                )
            arg = compile_expr(call.args[0], source.schema, self.subqueries)
            specs.append(ops.AggSpec(call.name, arg, call.distinct))
        synthetic: Schema = [
            ("#group", f"g{i}") for i in range(len(group_exprs))
        ] + [("#agg", f"a{j}") for j in range(len(agg_calls))]
        plan: ops.Operator = ops.Aggregate(
            source, group_fns, specs, synthetic,
            grouped=bool(group_exprs),
        )
        if select.having is not None:
            rewritten = rewrite_for_aggregation(
                select.having, group_exprs, agg_calls
            )
            plan = ops.Filter(
                plan,
                predicate(compile_expr(rewritten, synthetic,
                                       self.subqueries)),
            )
        if order_items:
            key_exprs = []
            descending = []
            for order in order_items:
                rewritten = rewrite_for_aggregation(
                    order.expr, group_exprs, agg_calls
                )
                key_exprs.append(
                    compile_expr(rewritten, synthetic, self.subqueries)
                )
                descending.append(order.descending)
            plan = ops.Sort(
                plan, key_exprs, descending,
                self.provider.temp_filesystem(),
                self.provider.sort_memory_rows,
            )
        names = self._output_names(items)
        exprs = []
        for item in items:
            rewritten = rewrite_for_aggregation(
                item.expr, group_exprs, agg_calls
            )
            exprs.append(compile_expr(rewritten, synthetic, self.subqueries))
        return ops.Project(plan, exprs, [(None, name) for name in names])


def plan_select(
    select: ast.Select, provider: AccessProvider
) -> Tuple[ops.Operator, List[str]]:
    """Plan ``select``; returns the root operator and output column names."""
    return _Planner(provider).plan(select)
