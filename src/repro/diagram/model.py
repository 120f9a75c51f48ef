"""The QueryVis diagram model (Section 4).

A diagram consists of exactly the marks described in the paper:

* **table composite marks** (:class:`DiagramTable`) — a header row with the
  table name plus one row per relevant attribute, selection predicate,
  GROUP BY attribute or aggregate;
* a distinguished **SELECT table** listing the query's output attributes;
* **bounding boxes** (:class:`BoundingBox`) — dashed for ∄ and double-lined
  for ∀ — enclosing the tables of a quantified query block;
* **lines/arrows** (:class:`Edge`) between attribute rows for join
  predicates, labelled with the comparison operator unless it is an equijoin.

The model is purely structural: layout and styling belong to
:mod:`repro.render`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator


class RowKind(enum.Enum):
    """The kinds of rows a table composite mark can contain."""

    ATTRIBUTE = "attribute"
    SELECTION = "selection"  # yellow background: ``Name = 'AC/DC'``
    GROUP_BY = "group_by"  # gray background (Appendix C.3 extension)
    AGGREGATE = "aggregate"  # e.g. ``SUM(Quantity)``
    ORDER_BY = "order_by"  # ranked-output key on the SELECT table: ``Name ↓``
    LIMIT = "limit"  # ranked-output cutoff on the SELECT table: ``LIMIT 10``


class BoxStyle(enum.Enum):
    """Visual style of a bounding box, one per quantifier it encodes."""

    NOT_EXISTS = "dashed"
    FOR_ALL = "double"

    @property
    def symbol(self) -> str:
        return "∄" if self is BoxStyle.NOT_EXISTS else "∀"


@dataclass(frozen=True)
class TableRow:
    """One row of a table composite mark.

    ``key`` identifies the row for edge endpoints (the lower-cased attribute
    name for attribute / GROUP BY rows, the full label for selection and
    aggregate rows).
    """

    kind: RowKind
    label: str
    key: str


@dataclass(frozen=True)
class DiagramTable:
    """A table composite mark (or the SELECT table when ``is_select``)."""

    table_id: str
    name: str
    alias: str | None
    rows: tuple[TableRow, ...]
    is_select: bool = False

    def row(self, key: str) -> TableRow:
        lowered = key.lower()
        for row in self.rows:
            if row.key.lower() == lowered:
                return row
        raise KeyError(f"table {self.table_id} has no row {key!r}")

    def has_row(self, key: str) -> bool:
        lowered = key.lower()
        return any(row.key.lower() == lowered for row in self.rows)

    def row_keys(self) -> tuple[str, ...]:
        return tuple(row.key for row in self.rows)


@dataclass(frozen=True)
class BoundingBox:
    """A quantifier bounding box enclosing the tables of one query block."""

    box_id: str
    style: BoxStyle
    table_ids: frozenset[str]


@dataclass(frozen=True)
class Endpoint:
    """One end of an edge: a specific row of a specific table."""

    table_id: str
    row_key: str


@dataclass(frozen=True)
class Edge:
    """A line mark between two rows, optionally directed and labelled.

    ``operator`` is ``None`` for equijoins (which are rendered unlabelled,
    Section 4.3.1); for any other operator the label reads
    ``source.row operator target.row``.
    """

    source: Endpoint
    target: Endpoint
    operator: str | None = None
    directed: bool = False


@dataclass(frozen=True)
class Diagram:
    """A complete QueryVis diagram."""

    tables: tuple[DiagramTable, ...]
    boxes: tuple[BoundingBox, ...]
    edges: tuple[Edge, ...]
    select_table_id: str
    metadata: dict[str, str] = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #

    def table(self, table_id: str) -> DiagramTable:
        for table in self.tables:
            if table.table_id == table_id:
                return table
        raise KeyError(f"no table with id {table_id!r}")

    def has_table(self, table_id: str) -> bool:
        return any(table.table_id == table_id for table in self.tables)

    @property
    def select_table(self) -> DiagramTable:
        return self.table(self.select_table_id)

    def data_tables(self) -> tuple[DiagramTable, ...]:
        """All table marks except the SELECT table."""
        return tuple(table for table in self.tables if not table.is_select)

    def box_of(self, table_id: str) -> BoundingBox | None:
        """The bounding box containing ``table_id``, or None."""
        for box in self.boxes:
            if table_id in box.table_ids:
                return box
        return None

    def unboxed_table_ids(self) -> frozenset[str]:
        """Data tables not enclosed by any bounding box."""
        boxed: set[str] = set()
        for box in self.boxes:
            boxed.update(box.table_ids)
        return frozenset(
            table.table_id for table in self.data_tables() if table.table_id not in boxed
        )

    def join_edges(self) -> tuple[Edge, ...]:
        """Edges between two data tables (excludes SELECT-table edges)."""
        return tuple(
            edge
            for edge in self.edges
            if self.select_table_id not in (edge.source.table_id, edge.target.table_id)
        )

    def select_edges(self) -> tuple[Edge, ...]:
        return tuple(
            edge
            for edge in self.edges
            if self.select_table_id in (edge.source.table_id, edge.target.table_id)
        )

    # ------------------------------------------------------------------ #
    # reading order (Section 4.6)
    # ------------------------------------------------------------------ #

    def reading_order(self) -> list[str]:
        """Table ids in reading order.

        Reading starts from the SELECT table and follows arrows depth-first;
        whenever the traversal exhausts its frontier it restarts from an
        unvisited source table (one with no incoming arrows), and finally
        visits any remaining tables.  For the unique-set query this yields
        L1, L2, L3, L4 then L5, L6 (footnote 1 of the paper).
        """
        successors: dict[str, list[str]] = {table.table_id: [] for table in self.tables}
        incoming: dict[str, int] = {table.table_id: 0 for table in self.tables}
        for edge in self.edges:
            source, target = edge.source.table_id, edge.target.table_id
            if source == target:
                continue
            if edge.directed:
                successors[source].append(target)
                incoming[target] += 1
            else:
                successors[source].append(target)
                successors[target].append(source)
        order: list[str] = []
        visited: set[str] = set()

        def visit(table_id: str) -> None:
            if table_id in visited:
                return
            visited.add(table_id)
            order.append(table_id)
            for nxt in successors[table_id]:
                visit(nxt)

        visit(self.select_table_id)
        # Restart from unvisited source nodes (no incoming arrows).
        for table in self.tables:
            if table.table_id not in visited and incoming[table.table_id] == 0:
                visit(table.table_id)
        for table in self.tables:
            visit(table.table_id)
        return order

    # ------------------------------------------------------------------ #
    # iteration helpers
    # ------------------------------------------------------------------ #

    def iter_rows(self) -> Iterator[tuple[DiagramTable, TableRow]]:
        for table in self.tables:
            for row in table.rows:
                yield table, row

    def __len__(self) -> int:
        """Total number of visual element marks (see diagram.metrics)."""
        return len(self.tables) + sum(len(t.rows) for t in self.tables) + len(
            self.edges
        ) + len(self.boxes)
