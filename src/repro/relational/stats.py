"""Lightweight table statistics for cardinality-guided planning.

The planner needs two numbers per relation to order joins sensibly: the
row count and, per column, an (approximate) distinct count.  Row counts
are exact and free; distinct counts are exact for small relations and
estimated with a KMV (k-minimum-values) sketch above a threshold, so
collecting statistics stays O(rows) with a small constant even on the
100k-row scaled databases.

Everything here is deterministic: value hashing goes through
:func:`stable_hash` (a salt-free mix) rather than Python's ``hash``, whose
string salting would make distinct estimates — and therefore join orders
and ``EXPLAIN`` output — vary between processes.

Statistics are cached per relation and computed again in full whenever
the relation's row count changes: tables only grow, so the row count is a
per-table version (see :mod:`~.database`).
"""

from __future__ import annotations

import heapq
import zlib

from .database import Database, Relation
from .resolve import match_column
from .values import Value

#: Columns at or below this many rows get exact distinct counts (a Python
#: set); longer columns use the KMV sketch, which bounds working memory.
EXACT_DISTINCT_THRESHOLD = 65536

#: Number of minimum hash values kept by the KMV distinct sketch.
KMV_K = 256

#: Selectivity guesses for pushed-down scan predicates, by operator class.
EQUALITY_DEFAULT_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 1.0 / 3.0

_HASH_SPACE = float(1 << 64)
_MASK64 = (1 << 64) - 1


def stable_hash(value: Value) -> int:
    """A process-stable 64-bit hash of an engine value.

    Python's ``hash`` is salted for strings, which would make sketch-based
    estimates differ between interpreter runs.  Numbers are mixed with a
    splitmix64 round so consecutive ids spread over the space; strings go
    through crc32 folded to 64 bits.  ``1`` and ``1.0`` hash alike, which
    matches the engine's comparison semantics (they are equal values).
    """
    if isinstance(value, str):
        data = value.encode("utf-8", "surrogatepass")
        x = zlib.crc32(data) ^ (zlib.crc32(data[::-1]) << 32)
    else:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, float):
            x = hash(value) & _MASK64  # float hash is not salted
        else:
            x = value & _MASK64
    # splitmix64 finalizer
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class KMVSketch:
    """K-minimum-values distinct-count sketch.

    Keeps the ``k`` smallest 64-bit hashes seen; the k-th smallest hash
    ``h_k`` estimates the distinct count as ``(k - 1) / (h_k / 2^64)``.
    Exact below ``k`` distinct hashes.  Deterministic given the input
    (hashes come from :func:`stable_hash`).
    """

    __slots__ = ("k", "_heap", "_members")

    def __init__(self, k: int = KMV_K) -> None:
        self.k = k
        self._heap: list[int] = []  # max-heap via negated hashes
        self._members: set[int] = set()

    def add(self, value: Value) -> None:
        self.add_hash(stable_hash(value))

    def add_hash(self, h: int) -> None:
        if h in self._members:
            return
        if len(self._heap) < self.k:
            self._members.add(h)
            heapq.heappush(self._heap, -h)
        elif h < -self._heap[0]:
            self._members.add(h)
            self._members.discard(-heapq.heappushpop(self._heap, -h))

    def estimate(self) -> int:
        n = len(self._heap)
        if n < self.k:
            return n  # saw fewer than k distinct hashes: exact
        h_k = -self._heap[0]
        if h_k == 0:
            return n
        return max(n, int(round((self.k - 1) / (h_k / _HASH_SPACE))))


def distinct_count(values: list[Value], exact_threshold: int = EXACT_DISTINCT_THRESHOLD) -> int:
    """Distinct count of ``values``: exact when small, KMV-estimated when big."""
    if len(values) <= exact_threshold:
        return len(set(values))
    sketch = KMVSketch()
    for value in values:
        sketch.add(value)
    return sketch.estimate()


class TableStats:
    """Statistics of one relation at one row-count version.

    The row count is captured eagerly (it is free); per-column distinct
    counts are computed on first request and cached — the planner only
    ever asks about join keys and filtered columns, so wide tables never
    pay for sketching columns no query touches.
    """

    __slots__ = ("name", "row_count", "_relation", "_distinct")

    def __init__(self, relation: Relation) -> None:
        self.name = relation.name
        self.row_count = len(relation)
        self._relation = relation
        self._distinct: dict[str, int] = {}

    @property
    def distinct(self) -> dict[str, int]:
        """The distinct counts computed so far (lower-cased column keys)."""
        return dict(self._distinct)

    def distinct_of(self, column: str) -> int:
        """(Estimated) distinct count of ``column``, case-insensitive, floor 1."""
        lowered = column.lower()
        cached = self._distinct.get(lowered)
        if cached is not None:
            return cached
        position = match_column(self._relation, column)
        if position is None:
            return max(1, self.row_count)
        values = [row[position] for row in self._relation.rows]
        estimate = max(1, distinct_count(values)) if values else 1
        self._distinct[lowered] = estimate
        return estimate


class CatalogStatistics:
    """Per-relation statistics with row-count invalidation.

    One instance is shared by a planner (join ordering) and its execution
    context; statistics are collected lazily per referenced column and
    cached until the relation grows.
    """

    def __init__(self, database: Database) -> None:
        self._db = database
        self._cache: dict[str, TableStats] = {}

    def table(self, table_name: str) -> TableStats:
        relation = self._db.relation(table_name)
        return self.for_relation(relation)

    def for_relation(self, relation: Relation) -> TableStats:
        key = relation.name.lower()
        cached = self._cache.get(key)
        if cached is not None and cached.row_count == len(relation):
            return cached
        stats = self._cache[key] = TableStats(relation)
        return stats
