"""Lightweight table statistics for cardinality-guided planning.

The planner needs two numbers per relation to order joins sensibly: the
row count and, per column, the distinct count.  Both are exact: a
column's distinct count is the size of the set of its values, computed
on the first request for that column.  A set counts ``1`` and ``1.0``
once, as the engine compares them, and its size does not depend on hash
salting, so join orders and ``EXPLAIN`` output are the same in every
process.

Statistics are cached per relation and computed again in full whenever
the relation's row count changes: tables only grow, so the row count is a
per-table version (see :mod:`~.database`).
"""

from __future__ import annotations

from .database import Database, Relation
from .resolve import match_column

#: Selectivity guesses for pushed-down scan predicates, by operator class.
EQUALITY_DEFAULT_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 1.0 / 3.0


class TableStats:
    """Statistics of one relation at one row-count version.

    The row count is captured eagerly (it is free); per-column distinct
    counts are computed on first request and cached — the planner only
    ever asks about join keys and filtered columns, so wide tables never
    pay for counting columns no query touches.
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
        """Distinct count of ``column``, case-insensitive, floor 1."""
        lowered = column.lower()
        cached = self._distinct.get(lowered)
        if cached is not None:
            return cached
        position = match_column(self._relation, column)
        if position is None:
            return max(1, self.row_count)
        count = max(1, len({row[position] for row in self._relation.rows}))
        self._distinct[lowered] = count
        return count


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
