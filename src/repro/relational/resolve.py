"""Name-resolution helpers shared by the naive executor, the planner, the
table statistics and the logic-tree evaluator.

Every reader must resolve names identically — these helpers are the
single source of truth for case-insensitive column matching, GROUP BY
validation and result-column labelling, so a fix to one reader cannot
silently desynchronize another (the exact divergence class the
differential test suite exists to catch).
"""

from __future__ import annotations

from typing import Sequence

from ..sql.ast import ColumnRef, SelectQuery
from .database import Relation


def match_column(relation: Relation, column: str) -> int | None:
    """Position of ``column`` in ``relation``'s rows, case-insensitively."""
    lowered = column.lower()
    for position, key in enumerate(relation.columns):
        if key.lower() == lowered:
            return position
    return None


def matches_group_key(column: ColumnRef, query: SelectQuery) -> bool:
    """True when ``column`` names one of the query's GROUP BY columns."""
    return any(
        column.column.lower() == group.column.lower()
        and (
            column.table is None
            or group.table is None
            or column.table.lower() == group.table.lower()
        )
        for group in query.group_by
    )


def result_columns(query: SelectQuery, relations: Sequence[Relation]) -> tuple[str, ...]:
    """The result-set column labels (``relations`` in FROM-clause order)."""
    if query.is_select_star:
        names: list[str] = []
        for table, relation in zip(query.from_tables, relations):
            names.extend(f"{table.effective_alias}.{c}" for c in relation.columns)
        return tuple(names)
    return tuple(str(item) for item in query.select_items)


def order_key_position(
    column: ColumnRef, query: SelectQuery, relations: Sequence[Relation]
) -> int | None:
    """The output-column position an ORDER BY key binds to, or None.

    ORDER BY is restricted to *output* columns (every engine sorts the
    projected result, so a key must name a slot of it); this helper is the
    single source of truth for which slot, shared by the planner and the
    naive oracle.  Matching is case-insensitive; an unqualified key binds
    to the most recently bound match (output list searched in reverse),
    mirroring the executors' scoping rule for unqualified columns.
    """
    target_column = column.column.lower()
    target_table = column.table.lower() if column.table else None
    if query.is_select_star:
        position = 0
        matches: list[int] = []
        for table, relation in zip(query.from_tables, relations):
            alias = table.effective_alias.lower()
            for key in relation.columns:
                if key.lower() == target_column and (
                    target_table is None or target_table == alias
                ):
                    matches.append(position)
                position += 1
        return matches[-1] if matches else None
    matches = [
        position
        for position, item in enumerate(query.select_items)
        if isinstance(item, ColumnRef)
        and item.column.lower() == target_column
        and (
            target_table is None
            or item.table is None
            or item.table.lower() == target_table
        )
    ]
    return matches[-1] if matches else None
