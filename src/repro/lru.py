"""Bounded in-memory LRU: the storage behind every in-memory memo.

The pipeline's stage caches, the engines' plan and subquery memos, and the
serving tier's response LRU and text memo each hold one
:class:`LRUCache` with a fixed entry bound, so no stream of distinct
inputs grows a process without limit.  Evicting an entry costs a
recomputation (or a disk-cache probe), never correctness: every memo here
caches a deterministic function of its key.

A leaf module: it imports nothing from :mod:`repro`, so any layer may use
it without an import cycle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Hashable


@dataclass
class LRUStats:
    """Counters for one :class:`LRUCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class LRUCache:
    """A fixed-capacity mapping with least-recently-used eviction.

    ``max_entries <= 0`` disables caching entirely (every ``get`` misses,
    ``put`` is a no-op) — useful for measuring a truly cold server.

    Threads may share a cache (the compile server's two threads share the
    stage caches).  A lock makes ``get``, ``put`` and ``clear`` atomic:
    hashing a key can run Python code and so switch threads in the middle
    of an ``OrderedDict`` operation, which may then fail or crash.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self.stats = LRUStats()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value (refreshed to most-recent), else ``default``."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> int:
        """Insert/refresh ``key``; returns how many old entries it evicted."""
        if self.max_entries <= 0:
            return 0
        evicted = 0
        with self._lock:
            entries = self._entries
            if key in entries:
                entries.move_to_end(key)
            entries[key] = value
            while len(entries) > self.max_entries:
                entries.popitem(last=False)
                evicted += 1
            self.stats.evictions += evicted
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
