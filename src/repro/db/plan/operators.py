"""Iterator-model query operators.

Each operator exposes a ``schema`` (the row layout it produces) and a
``rows()`` iterator.  Scans are constructed by the planner around storage
closures, which keeps this module free of engine/catalog dependencies.
An operator that needs storage or a temp filesystem asks its plan's
:class:`~repro.db.plan.expressions.Binding` for the provider executing
it, each time it runs, and keeps nothing of one execution for the next.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

from repro.db.btree import key_tuple
from repro.db.plan.expressions import Binding, Compiled, Schema
from repro.db.plan.sorter import ReverseKey, external_sort
from repro.db.types import SqlValue, sort_key
from repro.errors import SQLExecutionError

Row = List[SqlValue]


class Operator:
    """Base class; subclasses set ``schema`` and implement ``rows``."""

    schema: Schema
    #: Human-readable node description used by ``Engine.explain``.
    label: str = ""

    def rows(self) -> Iterator[Row]:
        raise NotImplementedError

    def children(self) -> "List[Operator]":
        """Child operators, for plan introspection."""
        return [
            value for value in self.__dict__.values()
            if isinstance(value, Operator)
        ]

    def describe(self) -> str:
        name = type(self).__name__
        return f"{name}({self.label})" if self.label else name


class Scan(Operator):
    """Wraps a storage closure producing rows (sequential or index scan),
    called with the provider executing the plan."""

    def __init__(
        self,
        schema: Schema,
        source: Callable[[Any], Iterable[Row]],
        binding: Binding,
        label: str = "",
    ) -> None:
        self.schema = schema
        self._source = source
        self._binding = binding
        self.label = label

    def rows(self) -> Iterator[Row]:
        return iter(self._source(self._binding.provider))


class Filter(Operator):
    def __init__(
        self, child: Operator, keep: Callable[[Sequence[SqlValue]], bool]
    ) -> None:
        self.schema = child.schema
        self._child = child
        self._keep = keep

    def rows(self) -> Iterator[Row]:
        keep = self._keep
        for row in self._child.rows():
            if keep(row):
                yield row


class Project(Operator):
    def __init__(
        self, child: Operator, exprs: List[Compiled], schema: Schema
    ) -> None:
        self.schema = schema
        self._child = child
        self._exprs = exprs

    def rows(self) -> Iterator[Row]:
        exprs = self._exprs
        for row in self._child.rows():
            yield [fn(row) for fn in exprs]


class MaterializedJoin(Operator):
    """Nested-loop join with the inner side materialized once.

    With ``left_outer`` the operator emits one NULL-padded row for every
    outer row that matched nothing (LEFT OUTER JOIN semantics).
    """

    def __init__(
        self,
        outer: Operator,
        inner: Operator,
        keep: Callable[[Sequence[SqlValue]], bool],
        left_outer: bool = False,
    ) -> None:
        self.schema = outer.schema + inner.schema
        self._outer = outer
        self._inner = inner
        self._keep = keep
        self._left_outer = left_outer
        self.label = "left outer" if left_outer else "inner"

    def rows(self) -> Iterator[Row]:
        inner_rows = [list(row) for row in self._inner.rows()]
        inner_width = len(self._inner.schema)
        keep = self._keep
        for outer_row in self._outer.rows():
            matched = False
            for inner_row in inner_rows:
                combined = [*outer_row, *inner_row]
                if keep(combined):
                    matched = True
                    yield combined
            if self._left_outer and not matched:
                yield [*outer_row, *[None] * inner_width]


class IndexJoin(Operator):
    """Nested-loop join probing a secondary index on the inner side.

    ``probe``, given the provider executing the plan, answers the
    lookup that maps a join-key value to the matching inner rows;
    ``residual`` (optional) filters the combined row with any extra join
    conditions beyond the indexed equality.
    """

    def __init__(
        self,
        outer: Operator,
        inner_schema: Schema,
        outer_key: Compiled,
        probe: Callable[[Any], Callable[[SqlValue], Iterable[Row]]],
        binding: Binding,
        residual: Optional[Callable[[Sequence[SqlValue]], bool]] = None,
        left_outer: bool = False,
        label: str = "",
    ) -> None:
        self.schema = outer.schema + inner_schema
        self._outer = outer
        self._outer_key = outer_key
        self._probe = probe
        self._binding = binding
        self._residual = residual
        self._left_outer = left_outer
        self._inner_width = len(inner_schema)
        self.label = label

    def rows(self) -> Iterator[Row]:
        lookup = self._probe(self._binding.provider)
        for outer_row in self._outer.rows():
            key = self._outer_key(outer_row)
            matched = False
            if key is not None:
                for inner_row in lookup(key):
                    combined = [*outer_row, *inner_row]
                    if self._residual is None or self._residual(combined):
                        matched = True
                        yield combined
            if self._left_outer and not matched:
                yield [*outer_row, *[None] * self._inner_width]


class AggSpec:
    """One aggregate accumulator: function, compiled argument, DISTINCT."""

    __slots__ = ("func", "arg", "distinct")

    def __init__(
        self, func: str, arg: Optional[Compiled], distinct: bool
    ) -> None:
        self.func = func
        self.arg = arg  # None only for COUNT(*)
        self.distinct = distinct


class _Accumulator:
    __slots__ = ("spec", "count", "total", "best", "seen")

    def __init__(self, spec: AggSpec) -> None:
        self.spec = spec
        self.count = 0
        self.total: Any = None
        self.best: Any = None
        self.seen = set() if spec.distinct else None

    def add(self, row: Sequence[SqlValue]) -> None:
        spec = self.spec
        if spec.arg is None:  # COUNT(*)
            self.count += 1
            return
        value = spec.arg(row)
        if value is None:
            return
        if self.seen is not None:
            key = sort_key(value)
            if key in self.seen:
                return
            self.seen.add(key)
        self.count += 1
        if spec.func in ("SUM", "AVG"):
            self.total = value if self.total is None else self.total + value
        elif spec.func == "MIN":
            if self.best is None or sort_key(value) < sort_key(self.best):
                self.best = value
        elif spec.func == "MAX":
            if self.best is None or sort_key(value) > sort_key(self.best):
                self.best = value

    def result(self) -> SqlValue:
        func = self.spec.func
        if func == "COUNT":
            return self.count
        if func == "SUM":
            return self.total
        if func == "AVG":
            if self.count == 0:
                return None
            return self.total / self.count
        if func in ("MIN", "MAX"):
            return self.best
        raise SQLExecutionError(f"unknown aggregate {func}")


class Aggregate(Operator):
    """Hash aggregation.

    Produces one row per group: the group-key values followed by each
    aggregate's result.  With no GROUP BY, produces exactly one row (the
    SQL scalar-aggregate convention), even over empty input.
    """

    def __init__(
        self,
        child: Operator,
        group_fns: List[Compiled],
        specs: List[AggSpec],
        schema: Schema,
        grouped: bool,
    ) -> None:
        self.schema = schema
        self._child = child
        self._group_fns = group_fns
        self._specs = specs
        self._grouped = grouped

    def rows(self) -> Iterator[Row]:
        groups: dict = {}
        order: List[tuple] = []
        for row in self._child.rows():
            key_values = [fn(row) for fn in self._group_fns]
            key = key_tuple(key_values)
            state = groups.get(key)
            if state is None:
                state = (key_values,
                         [_Accumulator(s) for s in self._specs])
                groups[key] = state
                order.append(key)
            for acc in state[1]:
                acc.add(row)
        if not self._grouped and not groups:
            yield [acc.result() for acc in
                   [_Accumulator(s) for s in self._specs]]
            return
        for key in order:
            key_values, accumulators = groups[key]
            yield list(key_values) + [a.result() for a in accumulators]


class Sort(Operator):
    """ORDER BY via :func:`~repro.db.plan.sorter.external_sort`, spilling
    to the executing provider's temp filesystem."""

    def __init__(
        self,
        child: Operator,
        key_exprs: List[Compiled],
        descending: List[bool],
        binding: Binding,
    ) -> None:
        self.schema = child.schema
        self._child = child
        self._key_exprs = key_exprs
        self._descending = descending
        self._binding = binding

    def _key(self, row: Sequence[SqlValue]) -> tuple:
        parts = []
        for expr, desc in zip(self._key_exprs, self._descending):
            component = sort_key(expr(row))
            parts.append(ReverseKey(component) if desc else component)
        return tuple(parts)

    def rows(self) -> Iterator[Row]:
        provider = self._binding.provider
        return external_sort(
            self._child.rows(),
            self._key,
            provider.temp_filesystem(),
            provider.sort_memory_rows,
        )


class Limit(Operator):
    def __init__(
        self, child: Operator, limit: Optional[int], offset: int = 0
    ) -> None:
        self.schema = child.schema
        self._child = child
        self._limit = limit
        self._offset = offset

    def rows(self) -> Iterator[Row]:
        """Stops as its last row is taken, not one child row later: a
        row it would drop can cost page reads."""
        limit = self._limit
        if limit is not None and limit <= 0:
            return
        produced = 0
        skipped = 0
        for row in self._child.rows():
            if skipped < self._offset:
                skipped += 1
                continue
            yield row
            produced += 1
            if produced == limit:
                return


class Distinct(Operator):
    def __init__(self, child: Operator) -> None:
        self.schema = child.schema
        self._child = child

    def rows(self) -> Iterator[Row]:
        seen = set()
        for row in self._child.rows():
            key = key_tuple(row)
            if key in seen:
                continue
            seen.add(key)
            yield row


class Union(Operator):
    """UNION / UNION ALL of two inputs with compatible widths."""

    def __init__(self, left: Operator, right: Operator, keep_all: bool) -> None:
        if len(left.schema) != len(right.schema):
            raise SQLExecutionError(
                "UNION operands have different column counts"
            )
        self.schema = left.schema
        self._left = left
        self._right = right
        self._keep_all = keep_all

    def rows(self) -> Iterator[Row]:
        if self._keep_all:
            yield from self._left.rows()
            yield from self._right.rows()
            return
        seen = set()
        for source in (self._left, self._right):
            for row in source.rows():
                key = key_tuple(row)
                if key in seen:
                    continue
                seen.add(key)
                yield row


class Materialized(Operator):
    """A fixed list of rows (used for subquery-in-FROM results)."""

    def __init__(self, schema: Schema, rows: List[Row]) -> None:
        self.schema = schema
        self._rows = rows

    def rows(self) -> Iterator[Row]:
        return iter(self._rows)
