"""One bounded, digest-keyed artifact cache for the whole process.

LO-FAT keeps its monitor state in fixed-size memories (the loop counter
memory, the branch-target CAM); the software model's derived artifacts --
decoded instructions, compiled plans, program analyses, parsed traces,
replayed measurements and structural verdicts -- are kept the same way: in
a :class:`DigestCache` with a fixed budget, so no long-lived process grows
without limit.

* **Eviction.**  Each entry has a cost (1 by default, blob bytes for parsed
  traces).  When an insert takes the resident cost over the budget, entries
  are evicted least-recently-used first, one at a time; the entry just
  inserted is never evicted, so filling the cache never empties it.
* **Single-flight builds.**  Concurrent misses on one key run the build
  once: the first caller builds outside the lock while the others wait and
  then read the shared value.  A failed build raises in its caller and
  releases the waiters, which retry (and build, or fail, themselves).
* **Counters.**  ``hits`` and ``misses`` count calls (a waiter is one miss),
  ``builds`` counts completed builds and ``evictions`` entries dropped for
  the budget.  They are monotonic: :meth:`DigestCache.clear` keeps them.

Every instance joins a weak registry, so :func:`clear_caches` resets every
live cache in the process (tests).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Callable, Hashable, Set, Tuple, TypeVar

T = TypeVar("T")

_CACHES: "weakref.WeakSet[DigestCache]" = weakref.WeakSet()


class DigestCache:
    """A thread-safe LRU of built artifacts, bounded by total entry cost."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self._entries: "OrderedDict[Hashable, Tuple[object, int]]" = OrderedDict()
        self._cost = 0
        # Keys being built, and the condition their waiters sleep on (one
        # per cache, not per build, and notified only when someone waits:
        # a miss must stay cheap).
        self._building: Set[Hashable] = set()
        self._lock = threading.Lock()
        self._built = threading.Condition(self._lock)
        self._waiting = 0
        # Bumped by clear(): a build that started before a clear describes
        # state the clear discarded, so it is returned but not stored.
        self._generation = 0
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0
        _CACHES.add(self)

    def get_or_build(self, key: Hashable, build: Callable[[], T],
                     cost: int = 1) -> T:
        """The value cached under ``key``, built by ``build()`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[0]
            self.misses += 1
            # Another caller is building this key: wait for its value, or
            # for its failure and then build it here.
            while key in self._building:
                self._waiting += 1
                self._built.wait()
                self._waiting -= 1
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    return entry[0]
            self._building.add(key)
            generation = self._generation
        try:
            value = build()
        except BaseException:
            with self._lock:
                self._done_building(key)
            raise
        with self._lock:
            self._done_building(key)
            self.builds += 1
            if generation == self._generation:
                self._insert(key, value, cost)
        return value

    def _done_building(self, key: Hashable) -> None:
        self._building.discard(key)
        if self._waiting:
            self._built.notify_all()

    def _insert(self, key: Hashable, value: object, cost: int) -> None:
        # Single flight: a key is built only while it is not resident.
        self._entries[key] = (value, cost)
        self._cost += cost
        while self._cost > self.budget and len(self._entries) > 1:
            _, (_, evicted) = self._entries.popitem(last=False)
            self._cost -= evicted
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the counters keep counting)."""
        with self._lock:
            self._entries.clear()
            self._cost = 0
            self._generation += 1

    @property
    def resident_cost(self) -> int:
        """Total cost of the resident entries."""
        return self._cost

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries


def clear_caches() -> None:
    """Clear every live :class:`DigestCache` in the process (tests)."""
    for cache in list(_CACHES):
        cache.clear()
