"""Pretty-printer for the QueryVis SQL fragment.

The study interface (Section 2, "Syntax highlighting") presented SQL queries
auto-indented with capitalised keywords; :func:`format_query` produces the
same canonical layout from an AST.  It is also used to round-trip queries in
tests (parse → format → parse must be the identity on ASTs).
"""

from __future__ import annotations

from .ast import (
    AggregateCall,
    ColumnRef,
    Comparison,
    Exists,
    InSubquery,
    Predicate,
    QuantifiedComparison,
    SelectItem,
    SelectQuery,
    Star,
    TableRef,
)

_INDENT = "    "


def format_query(query: SelectQuery) -> str:
    """Return a canonical, indented SQL rendering of ``query``."""
    return "\n".join(_format_block(query, depth=0)) + ";"


def format_inline(query: SelectQuery) -> str:
    """Return a single-line rendering (useful for log messages and labels)."""
    lines = _format_block(query, depth=0)
    return " ".join(line.strip() for line in lines)


# ---------------------------------------------------------------------- #
# internals
# ---------------------------------------------------------------------- #


def _format_block(query: SelectQuery, depth: int) -> list[str]:
    pad = _INDENT * depth
    head = "SELECT DISTINCT " if query.distinct else "SELECT "
    lines = [pad + head + _format_select_list(query.select_items)]
    lines.append(pad + "FROM " + ", ".join(_format_table(t) for t in query.from_tables))
    if query.where:
        where_lines = _format_predicates(query.where, depth)
        lines.append(pad + "WHERE " + where_lines[0])
        lines.extend(where_lines[1:])
    if query.group_by:
        columns = ", ".join(str(col) for col in query.group_by)
        lines.append(pad + "GROUP BY " + columns)
    if query.order_by:
        keys = ", ".join(str(item) for item in query.order_by)
        lines.append(pad + "ORDER BY " + keys)
    if query.limit is not None:
        clause = f"LIMIT {query.limit}"
        if query.offset:
            clause += f" OFFSET {query.offset}"
        lines.append(pad + clause)
    return lines


def _format_select_list(items: tuple[SelectItem, ...]) -> str:
    return ", ".join(_format_select_item(item) for item in items)


def _format_select_item(item: SelectItem) -> str:
    if isinstance(item, (ColumnRef, AggregateCall, Star)):
        return str(item)
    raise TypeError(f"unexpected select item: {item!r}")


def _format_table(table: TableRef) -> str:
    return str(table)


def _format_predicates(predicates: tuple[Predicate, ...], depth: int) -> list[str]:
    pad = _INDENT * depth
    lines: list[str] = []
    for index, predicate in enumerate(predicates):
        predicate_lines = _format_predicate(predicate, depth)
        if index == 0:
            lines.extend(predicate_lines)
        else:
            lines.append(pad + "  AND " + predicate_lines[0])
            lines.extend(predicate_lines[1:])
    return lines


def _format_predicate(predicate: Predicate, depth: int) -> list[str]:
    if isinstance(predicate, Comparison):
        return [str(predicate)]
    if isinstance(predicate, Exists):
        keyword = "NOT EXISTS" if predicate.negated else "EXISTS"
        return [keyword + " ("] + _format_block(predicate.query, depth + 1) + [
            _INDENT * depth + ")"
        ]
    if isinstance(predicate, InSubquery):
        keyword = "NOT IN" if predicate.negated else "IN"
        head = f"{predicate.column} {keyword} ("
        return [head] + _format_block(predicate.query, depth + 1) + [
            _INDENT * depth + ")"
        ]
    if isinstance(predicate, QuantifiedComparison):
        head = f"{predicate.column} {predicate.op} {predicate.quantifier} ("
        if predicate.negated:
            head = "NOT " + head
        return [head] + _format_block(predicate.query, depth + 1) + [
            _INDENT * depth + ")"
        ]
    raise TypeError(f"unexpected predicate: {predicate!r}")

