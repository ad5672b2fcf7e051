"""Change tracking for caches derived from mutable structures.

A structure whose records change one at a time (users, POIs, a seed's
region) names each changed id in a :class:`ChangeLog`. A cache derived
from it keeps a cursor into the log and, instead of rebuilding, drops
only the entries of the ids logged since its cursor. :class:`OwnedLRU`
is the cache side: an :class:`LRU` map whose keys name an owner id
first, so every entry of one owner is dropped without a scan.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Set

#: Entries a :class:`ChangeLog` keeps at least (and at most twice as
#: many) before dropping the oldest.
CHANGE_LOG_CAPACITY = 1024


class ChangeLog:
    """The ids whose records changed, oldest first, behind a cursor.

    ``end`` is the cursor just past the newest entry; a reader that
    stored it earlier gets every id logged since from :meth:`since`.
    The log keeps only its newest entries, so a reader that fell
    further behind gets ``None`` and must rebuild what it derived.
    """

    __slots__ = ("_entries", "_base")

    def __init__(self) -> None:
        self._entries: List[Hashable] = []
        self._base = 0

    @property
    def end(self) -> int:
        return self._base + len(self._entries)

    def record(self, key: Hashable) -> None:
        entries = self._entries
        entries.append(key)
        if len(entries) > 2 * CHANGE_LOG_CAPACITY:
            drop = len(entries) - CHANGE_LOG_CAPACITY
            del entries[:drop]
            self._base += drop

    def since(self, cursor: int) -> Optional[List[Hashable]]:
        """The ids logged at or after ``cursor``; ``None`` when some of
        them are no longer kept."""
        if cursor < self._base:
            return None
        return self._entries[cursor - self._base:]


class LRU(OrderedDict):
    """A least-recently-used map.

    Entries are read through :meth:`hit` and written through
    :meth:`put`, which evicts the least recently used entry beyond the
    given capacity.
    """

    def hit(self, key: Hashable):
        """The value under ``key`` (now the most recent), or ``None``."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def put(self, key: Hashable, value, capacity: float) -> Optional[Hashable]:
        """Store ``value``; return the evicted key, if any."""
        self[key] = value
        if len(self) > capacity:
            return self.popitem(last=False)[0]
        return None


class OwnedLRU(LRU):
    """An :class:`LRU` over tuple keys whose first item is the owner's
    id; :meth:`drop` removes every entry of one owner."""

    def __init__(self) -> None:
        super().__init__()
        self._owned: Dict[Hashable, Set[tuple]] = {}

    def put(self, key: tuple, value, capacity: float) -> Optional[tuple]:
        self._owned.setdefault(key[0], set()).add(key)
        old = super().put(key, value, capacity)
        if old is not None:
            keys = self._owned[old[0]]
            keys.discard(old)
            if not keys:
                del self._owned[old[0]]
        return old

    def drop(self, owner: Hashable) -> None:
        for key in self._owned.pop(owner, ()):
            del self[key]
