"""Span arithmetic: self time, nesting, repeats, folding, attribution."""

import threading

import tracing
from repro.client.query_client import QueryClient
from repro.db import engine as engine_module
from repro.db.sql import parser as parser_module
from repro.merkle.ads import V2fsAds


class FakeClock:
    """Advances only when told to, so durations are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def _totals(tracer):
    return tracing.LayerTotals(tracer.aggregates(), tracer.op_kinds)


def test_self_time_is_duration_minus_children_nested_and_repeated():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.spend(2.0)

    def middle():
        clock.spend(1.0)
        traced_leaf()
        traced_leaf()
        clock.spend(0.5)

    def root():
        clock.spend(4.0)
        traced_middle()
        traced_leaf()

    traced_leaf = tracer.span_wrapper("leaf", leaf)
    traced_middle = tracer.span_wrapper("middle", middle)
    traced_root = tracer.span_wrapper("root", root)
    tracer.begin_op("op0", "query")
    traced_root()
    tracer.end_op()

    totals = _totals(tracer)
    # root: 4 own + middle (1 + 2 + 2 + 0.5) + leaf 2 = 11.5
    assert totals.select("root") == (1, 11.5, 4.0)
    assert totals.select("middle") == (1, 5.5, 1.5)
    # leaf ran three times: twice under middle, once under root.
    assert totals.select("leaf") == (3, 6.0, 6.0)
    assert totals.select("leaf", parent="middle") == (2, 4.0, 4.0)
    assert totals.select("leaf", parent="root") == (1, 2.0, 2.0)
    assert totals.select("root", parent="") == (1, 11.5, 4.0)
    # Self times of all spans sum to the root's duration.
    own = sum(totals.select(name)[2] for name in ("root", "middle", "leaf"))
    assert own == 11.5
    # Full spans carry (op, name, parent, start, end).
    by_name = {(s[1], s[2]): s for s in tracer.spans}
    assert by_name[("root", None)][3:5] == (0.0, 11.5)
    assert by_name[("middle", "root")][0] == "op0"


def test_repeated_children_fold_into_aggregates_after_the_cap():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    hot = tracer.span_wrapper("hot", lambda: clock.spend(0.001))
    parent = tracer.span_wrapper(
        "parent", lambda: [hot() for _ in range(tracing.FOLD_AFTER + 36)]
    )
    tracer.begin_op("op0", "query")
    parent()
    tracer.end_op()
    kept = [s for s in tracer.spans if s[1] == "hot"]
    assert len(kept) == tracing.FOLD_AFTER
    calls, total, own = _totals(tracer).select("hot")
    assert calls == tracing.FOLD_AFTER + 36
    assert abs(total - 0.1) < 1e-9 and abs(own - 0.1) < 1e-9
    assert abs(_totals(tracer).select("parent")[2]) < 1e-9


def test_operations_kinds_and_count_only_wrappers():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    work = tracer.span_wrapper("work", lambda: clock.spend(1.0))
    tick = tracer.count_wrapper("tick", lambda: None)
    for op, kind, ticks in (("q0", "query", 3), ("u0", "update", 5)):
        tracer.begin_op(op, kind)
        work()
        for _ in range(ticks):
            tick()
        tracer.end_op()
    totals = _totals(tracer)
    assert totals.select("work", "query") == (1, 1.0, 1.0)
    assert totals.select("work") == (2, 2.0, 2.0)
    assert totals.select("tick", "query")[0] == 3
    assert totals.select("tick", "update")[0] == 5


def test_root_spans_on_other_threads_join_the_current_operation():
    tracer = tracing.Tracer()
    served = tracer.span_wrapper("served", lambda: None)
    keyed = tracer.span_wrapper(
        "keyed", lambda sid: None,
        op_from_args=lambda sid: tracing.session_op(sid),
    )
    opened = tracer.span_wrapper(
        "opened", lambda: 7, op_from_result=tracing.session_op
    )
    tracer.begin_op("q0", "query")
    thread = threading.Thread(target=served)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    tracer.end_op()
    keyed(7)
    opened()
    ops = {(op, name) for (op, name, _parent) in tracer.aggregates()}
    assert ("q0", "served") in ops
    assert ("sid:7", "keyed") in ops and ("sid:7", "opened") in ops


def test_install_wraps_every_import_site_and_uninstall_restores_them():
    originals = {
        "query": QueryClient.__dict__["query"],
        "verify": V2fsAds.__dict__["verify_read_proof"],
        "parse_engine": engine_module.parse_statement,
        "parse_parser": parser_module.parse_statement,
    }
    assert originals["parse_engine"] is originals["parse_parser"]
    tracer = tracing.Tracer()
    tracer.install(tracing.client_targets() + tracing.isp_targets()
                   + tracing.rpc_targets() + tracing.update_targets())
    try:
        assert QueryClient.__dict__["query"] is not originals["query"]
        assert isinstance(V2fsAds.__dict__["verify_read_proof"],
                          staticmethod)
        # ``from x import f`` call sites are patched too.
        assert engine_module.parse_statement is not originals["parse_engine"]
        assert (engine_module.parse_statement
                is parser_module.parse_statement)
    finally:
        tracer.uninstall()
    assert QueryClient.__dict__["query"] is originals["query"]
    assert V2fsAds.__dict__["verify_read_proof"] is originals["verify"]
    assert engine_module.parse_statement is originals["parse_engine"]
    assert parser_module.parse_statement is originals["parse_parser"]


def test_wrap_attribute_on_an_instance_is_removed_again():
    class Thing:
        def act(self):
            return "acted"

    thing = Thing()
    tracer = tracing.Tracer()
    tracer.wrap_attribute(thing, "act", "thing.act")
    assert "act" in thing.__dict__ and thing.act() == "acted"
    tracer.uninstall()
    assert "act" not in thing.__dict__
    assert tracer.aggregates()[(None, "thing.act", None)][0] == 1
