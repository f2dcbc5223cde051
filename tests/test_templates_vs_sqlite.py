"""The eight query templates against stdlib ``sqlite3`` over the same
rows (:mod:`tests.sqlite_mirror`).

Each template runs over several seeded windows and parameters.  Rows
must be equal as multisets; under ``ORDER BY``, equal in order, where a
run of rows with tied sort keys is compared as a multiset (the two
engines may order ties differently), and the last run of a ``LIMIT``ed
answer only by its key and length (each may keep different tied rows).
Floats are compared with ``isclose``: the two engines sum in different
orders.
"""

from __future__ import annotations

import math
import sqlite3

import pytest
from tests.sqlite_mirror import mirror

from repro.core.system import SystemConfig, V2FSSystem
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.queries import QUERY_TEMPLATES

#: Template -> (ORDER BY column positions, descending, has LIMIT); None
#: for an unordered answer.
ORDER = {
    "Q1": ((0,), True, False),
    "Q2": None,
    "Q3": None,
    "Q4": ((2,), True, False),
    "Q5": None,
    "Q6": ((0,), False, False),
    "Q7": ((2,), True, True),
    "Q8": ((0,), True, False),
}
WINDOW_HOURS = (2, 6, 24)
PER_WINDOW = 3


@pytest.fixture(scope="module")
def engines():
    system = V2FSSystem(SystemConfig(seed=3, txs_per_block=4))
    system.advance_all(10)
    replica = system.plain_replica()
    db = mirror(replica, sqlite3.connect(":memory:"))
    generator = WorkloadGenerator(
        system.universe, system.config.start_time, system.latest_time
    )
    yield replica, db, generator
    db.close()


def close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9))
    return a == b


def rows_close(a, b) -> bool:
    return len(a) == len(b) and all(map(close, a, b))


def canonical(row) -> tuple:
    """A sort key that rounding makes blind to last-bit float noise."""
    return tuple((0, "") if v is None
                 else (1, round(v, 6)) if isinstance(v, (int, float))
                 else (2, v) for v in row)


def assert_same_multiset(ours, theirs, sql):
    ours, theirs = sorted(ours, key=canonical), sorted(theirs, key=canonical)
    assert len(ours) == len(theirs), sql
    for mine, reference in zip(ours, theirs):
        assert rows_close(mine, reference), (sql, mine, reference)


def runs(rows, columns):
    """Consecutive rows with tied sort keys, grouped."""
    grouped = []
    for row in rows:
        key = [row[c] for c in columns]
        if grouped and rows_close(grouped[-1][0], key):
            grouped[-1][1].append(row)
        else:
            grouped.append((key, [row]))
    return grouped


def assert_same_answer(name, ours, theirs, sql):
    order = ORDER[name]
    if order is None:
        assert_same_multiset(ours, theirs, sql)
        return
    columns, descending, limited = order
    keys = [canonical([row[c] for c in columns]) for row in ours]
    assert keys == sorted(keys, reverse=descending), sql
    mine, reference = runs(ours, columns), runs(theirs, columns)
    assert len(mine) == len(reference), sql
    for i, ((key, group), (ref_key, ref_group)) in enumerate(
            zip(mine, reference)):
        assert rows_close(key, ref_key), (sql, key, ref_key)
        if limited and i == len(mine) - 1:
            assert len(group) == len(ref_group), sql
        else:
            assert_same_multiset(group, ref_group, sql)


@pytest.mark.parametrize("name", sorted(QUERY_TEMPLATES))
def test_template_answers_as_sqlite_does(engines, name):
    replica, db, generator = engines
    answered = 0
    for hours in WINDOW_HOURS:
        for sql in generator.workload(name, hours, PER_WINDOW).queries:
            ours = replica.execute(sql).rows
            theirs = db.execute(sql).fetchall()
            assert_same_answer(name, ours, theirs, sql)
            answered += bool(ours)
    # The windows are not all empty: there is something to compare.
    assert answered > 0
