"""A one-entry memo: the last key, and the value derived from or proven
under it.  Asked about another key it answers nothing, so it cannot be
stale; who fills and drops it is its owner's business (see
:class:`repro.client.state.CarriedState`).
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Optional, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class Kept(Generic[K, V]):
    """At most one ``key -> value`` entry.  Keys compare by equality,
    not identity: over RPC every fetched certificate is a new object."""

    __slots__ = ("key", "value")

    def __init__(self) -> None:
        self.clear()

    def __len__(self) -> int:
        return 0 if self.key is None else 1

    def __contains__(self, key: Any) -> bool:
        return self.key is not None and key == self.key

    def clear(self) -> None:
        self.key: Optional[K] = None
        self.value: Optional[V] = None

    def keep(self, key: K, value: V) -> None:
        """Replace the entry with ``key -> value``."""
        self.key, self.value = key, value

    def get(self, key: K, derive: Callable[[K], V]) -> V:
        """The value kept for ``key``, else ``derive(key)``, kept in
        place of the old entry; a raising ``derive`` keeps nothing new."""
        if key not in self:
            self.keep(key, derive(key))
        return self.value
