"""Failpoint registry semantics: triggers, actions, and the fast path."""

import pytest

from repro import faults
from repro.errors import ReproError
from repro.faults import registry
from repro.faults.registry import (
    InjectedFault,
    SimulatedCrash,
    apply_schedule,
    parse_schedule,
)

# arm() rejects names missing from the FAILPOINTS catalog; the
# throwaway hooks these tests exercise must be declared first.
for _name in ("a.point", "boom", "dead", "limited", "combo", "maybe",
              "bits", "hook", "paused", "bad", "a.b"):
    faults.declare(_name, "test-local failpoint")


def test_inactive_by_default_and_fire_is_a_noop():
    assert faults.ACTIVE is False
    assert registry.fire("no.such.point") is None
    assert registry.mangle("no.such.point", b"abc") == b"abc"


def test_arm_flips_the_active_flag_and_reset_clears_it():
    registry.arm("a.point", "count")
    assert faults.ACTIVE is True
    registry.disarm("a.point")
    assert faults.ACTIVE is False
    registry.arm("a.point", "count")
    registry.reset()
    assert faults.ACTIVE is False


def test_raise_action_raises_injected_fault_as_a_repro_error():
    registry.arm("boom", "raise")
    with pytest.raises(InjectedFault) as excinfo:
        registry.fire("boom")
    assert excinfo.value.failpoint == "boom"
    assert isinstance(excinfo.value, ReproError)


def test_simulated_crash_evades_blanket_except_exception():
    registry.arm("dead", "crash")
    witnessed = []
    with pytest.raises(SimulatedCrash):
        try:
            registry.fire("dead")
        except Exception:  # the recovery code a crash must bypass
            witnessed.append("swallowed")
    assert witnessed == []
    assert not isinstance(SimulatedCrash("x"), Exception)


def test_times_bounds_total_fires():
    registry.arm("limited", "raise", times=2)
    for _ in range(2):
        with pytest.raises(InjectedFault):
            registry.fire("limited")
    for _ in range(5):
        assert registry.fire("limited") is None
    assert registry.stats()["limited"].fires == 2
    assert registry.stats()["limited"].hits == 7


def test_after_every_and_times_compose():
    registry.arm("combo", "count", after=2, every=2, times=2)
    point = registry.stats()["combo"]
    fired_on = []
    for hit in range(1, 9):
        before = point.fires
        registry.fire("combo")
        if point.fires > before:
            fired_on.append(hit)
    # eligible = hit - 2; fires when eligible is a positive multiple of
    # 2, capped at two fires total: hits 4 and 6.
    assert fired_on == [4, 6]


def test_probability_replays_exactly_from_the_seed():
    def pattern():
        registry.reset()
        registry.seed(1234)
        registry.arm("maybe", "count", probability=0.5)
        point = registry.stats()["maybe"]
        bits = []
        for _ in range(64):
            before = point.fires
            registry.fire("maybe")
            bits.append(point.fires > before)
        return bits

    first, second = pattern(), pattern()
    assert first == second
    assert any(first) and not all(first)


def test_corrupt_action_flips_bytes_deterministically():
    def corrupt_once():
        registry.reset()
        registry.seed(7)
        registry.arm("bits", "corrupt", times=1)
        return registry.mangle("bits", b"\x00" * 64)

    first, second = corrupt_once(), corrupt_once()
    assert first == second
    assert first != b"\x00" * 64
    assert len(first) == 64
    # A pass-through once the single fire is spent.
    assert registry.mangle("bits", b"\x01\x02") == b"\x01\x02"


def test_callable_action_receives_context_and_returns_its_value():
    seen = {}

    def action(ctx):
        seen.update(ctx)
        return "custom"

    registry.arm("hook", action)
    assert registry.fire("hook", extra=42) == "custom"
    assert seen["extra"] == 42
    assert seen["name"] == "hook"


def test_suspended_disables_and_renests():
    registry.arm("paused", "raise")
    with registry.suspended():
        assert faults.ACTIVE is False
        assert registry.fire("paused") is None
        with registry.suspended():
            assert registry.fire("paused") is None
        assert faults.ACTIVE is False
    assert faults.ACTIVE is True
    with pytest.raises(InjectedFault):
        registry.fire("paused")


def test_arm_rejects_undeclared_names_with_a_hint():
    with pytest.raises(ValueError) as excinfo:
        registry.arm("store.apend.mid", "crash")
    message = str(excinfo.value)
    assert "not declared" in message
    assert "store.append.mid" in message  # did-you-mean suggestion
    assert "store.apend.mid" not in registry.stats()
    # Declaring the name makes the same arm() legal.
    faults.declare("store.apend.mid.test", "typo probe, now declared")
    registry.arm("store.apend.mid.test", "count")
    registry.reset()


def test_every_production_failpoint_name_is_armable():
    for name in (
        "pager.write_page.pre", "store.append.mid",
        "isp.sync_update.pre_publish", "rpc.server.drop",
    ):
        assert name in faults.FAILPOINTS
        registry.arm(name, "count")
    registry.reset()


def test_unknown_action_and_bad_policy_are_rejected():
    with pytest.raises(ValueError):
        registry.arm("bad", "explode")
    with pytest.raises(ValueError):
        registry.arm("bad", "raise", probability=1.5)
    with pytest.raises(ValueError):
        registry.arm("bad", "raise", every=0)


def test_schedule_roundtrip_arms_the_registry():
    entries = parse_schedule(
        "store.append.mid=crash@p:0.25; rpc.server.drop=raise@times:2,after:1"
    )
    assert entries == [
        ("store.append.mid", "crash", {"probability": 0.25}),
        ("rpc.server.drop", "raise", {"times": 2, "after": 1}),
    ]
    armed = apply_schedule("a.b=count@every:3")
    assert armed == ["a.b"]
    assert "a.b" in registry.stats()
    with pytest.raises(ValueError):
        parse_schedule("missing-equals-sign")
    with pytest.raises(ValueError):
        parse_schedule("x=raise@p=0.5")  # '=' is not the term separator
