"""Shared fixtures.

The expensive fixture is a fully ingested multi-chain system; it is
session-scoped and treated as read-only by the tests that share it
(tests that mutate state build their own small system).
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import Phase, settings

from repro.core.system import SystemConfig, V2FSSystem
from repro.faults import registry as faults
from repro.workloads.generator import WorkloadGenerator

# Hypothesis profiles, picked with ``pytest --hypothesis-profile=NAME``.
# ``default`` is hypothesis' own budget, and tier-1 runs it without
# shrinking: a failing example is reported as found, in seconds, where
# shrinking a stateful machine's program can run for minutes and make
# the suite look hung.  ``chaos`` is CI's deeper run of the fault
# machine (tests/fault_machine.py), and shrinks what it finds.
settings.register_profile(
    "default", max_examples=100, stateful_step_count=50,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
settings.register_profile(
    "chaos", max_examples=500, stateful_step_count=100, phases=list(Phase),
)


TESTS = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """A socket or file left for the garbage collector to close is a
    leaked descriptor, and fails the tier-1 test that leaks it.  CPython
    warns from the finalizer, so the warning arrives unraisable."""
    for item in items:
        if TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings(
                "error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"))


@pytest.fixture(autouse=True)
def _reset_failpoints():
    """Keep the process-wide failpoint registry clean between tests."""
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="session")
def shared_system() -> V2FSSystem:
    """A system with 8 hours of two-chain history (read-only)."""
    system = V2FSSystem(SystemConfig(txs_per_block=5))
    system.advance_all(8)
    return system


@pytest.fixture(scope="session")
def shared_generator(shared_system) -> WorkloadGenerator:
    return WorkloadGenerator(
        shared_system.universe,
        shared_system.config.start_time,
        shared_system.latest_time,
        queries_per_workload=2,
    )
