"""Simulated network partitions (netsplits) for fault tests.

A netsplit blackholes traffic between a *labelled* caller and a
``(host, port)`` endpoint: :class:`~repro.rpc.client.RemoteIsp` handles
carry a label (``"router"``, ``"client"``, ...) and consult this table
at the top of every call.  A severed pair fails with a typed
:class:`~repro.errors.RpcConnectionError` *before* touching the socket
— exactly how a partition looks from the application: the peer is up,
but unreachable from here.

Severing is directional and pairwise, so a schedule can model
asymmetric partitions (the router cannot reach shard 2, but the
replication log still can) — the failure mode that makes naive
failover dangerous.  V²FS soundness is unaffected either way: a
partition can only make answers slow or refused, never wrong.

Like :mod:`repro.faults.registry`, the table is process-global,
imperative, and zero-cost when empty: callers guard with
``if netsplit.ACTIVE:`` so production paths pay one module-attribute
read.  Not thread-synchronized by design — fault tests mutate the
table from the driver thread between steps, and a racy read during a
transition just means the partition lands one call earlier or later,
which any real netsplit also does.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

#: True while at least one pair is severed (zero-cost guard flag).
ACTIVE = False

Endpoint = Tuple[str, int]

#: Severed (label, endpoint) pairs.  ``label`` "*" matches any caller.
_SEVERED: Set[Tuple[str, Endpoint]] = set()


def _refresh() -> None:
    global ACTIVE
    ACTIVE = bool(_SEVERED)


def sever(endpoint: Endpoint) -> None:
    """Blackhole ``endpoint`` for *every* caller (full partition)."""
    _SEVERED.add(("*", endpoint))
    _refresh()


def sever_pair(label: str, endpoint: Endpoint) -> None:
    """Blackhole traffic from callers labelled ``label`` to ``endpoint``.

    Other labels still reach the endpoint — an asymmetric partition.
    """
    _SEVERED.add((label, endpoint))
    _refresh()


def heal(endpoint: Optional[Endpoint] = None) -> None:
    """Heal partitions touching ``endpoint``, or all of them."""
    global _SEVERED
    if endpoint is None:
        _SEVERED = set()
    else:
        _SEVERED = {
            pair for pair in _SEVERED if pair[1] != endpoint
        }
    _refresh()


def is_blocked(label: str, endpoint: Endpoint) -> bool:
    """True when ``label`` cannot currently reach ``endpoint``."""
    return (
        ("*", endpoint) in _SEVERED or (label, endpoint) in _SEVERED
    )


__all__ = [
    "ACTIVE",
    "Endpoint",
    "sever",
    "sever_pair",
    "heal",
    "is_blocked",
]
