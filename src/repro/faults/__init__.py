"""``repro.faults`` — failpoint injection.

Production code paths carry named failpoints (see
:mod:`repro.faults.registry`, which also parses the ``--fault-schedule``
strings); this package also provides the shadow dirty-vs-durable
filesystem used to model power loss (:mod:`repro.faults.shadowfs`),
simulated netsplits (:mod:`repro.faults.netsplit`) and the concurrency
stress run (:mod:`repro.faults.chaos`).

Hot call sites import the registry module directly
(``from repro.faults import registry as faults``) so the disabled-path
guard ``faults.ACTIVE`` is one live module-attribute read; everything
else can use the re-exports here.
"""

from __future__ import annotations

from repro.faults import registry as _registry_module
from repro.faults.catalog import FAILPOINTS, declare, is_declared
from repro.faults.registry import (
    InjectedFault,
    SimulatedCrash,
    arm,
    disarm,
    fire,
    mangle,
    reset,
    seed,
    stats,
    suspended,
)

__all__ = [
    "ACTIVE",
    "FAILPOINTS",
    "InjectedFault",
    "SimulatedCrash",
    "arm",
    "declare",
    "disarm",
    "is_declared",
    "fire",
    "mangle",
    "reset",
    "seed",
    "stats",
    "suspended",
]


def __getattr__(name: str):
    # ``ACTIVE`` mutates inside the registry module; forward reads so
    # ``repro.faults.ACTIVE`` is always live (PEP 562).
    if name == "ACTIVE":
        return _registry_module.ACTIVE
    raise AttributeError(name)
