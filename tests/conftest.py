"""Shared fixtures.

The expensive fixture is a fully ingested multi-chain system; it is
session-scoped and treated as read-only by the tests that share it
(tests that mutate state build their own small system).
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from repro.core.system import SystemConfig, V2FSSystem
from repro.faults import registry as faults
from repro.workloads.generator import WorkloadGenerator

# Hypothesis profiles, picked with ``pytest --hypothesis-profile=NAME``.
# ``default`` is hypothesis' own budget, and tier-1 runs it; ``chaos``
# is CI's deeper run of the fault machine (tests/fault_machine.py).
settings.register_profile("default", max_examples=100, stateful_step_count=50)
settings.register_profile("chaos", max_examples=500, stateful_step_count=100)


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


@pytest.fixture(scope="session")
def shipped_tree():
    """``src/`` parsed once and analyzed once by every lint rule.

    Returns ``(contexts, findings)``; the contexts are shared with
    every fixture that re-analyzes a mutant of one module beside the
    rest of the tree (read-only: nothing may mutate a context).
    """
    from repro.analysis.core import all_rules, parse_paths, run_rules

    repo = Path(__file__).resolve().parent.parent
    contexts, findings = parse_paths([repo / "src"], root=repo)
    findings.extend(run_rules(contexts, all_rules()))
    return contexts, sorted(findings)
