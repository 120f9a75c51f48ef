"""Logic Tree → QueryVis diagram construction (Section 4.7, Appendix A).

The construction follows the four steps of Appendix A:

1. create a table composite mark for every table of every Logic Tree node;
2. create a bounding box per quantified block (dashed for ∄, double for ∀;
   ∃ blocks are drawn without a box);
3. write selection predicates, GROUP BY attributes and aggregates as extra
   rows of the referencing table;
4. create edges for join predicates, with direction determined *solely* by
   the arrow rules:

   * both tables in the same block              → undirected;
   * nesting depths differ by exactly one       → arrow from the shallower
     to the deeper table;
   * nesting depths differ by more than one     → arrow from the deeper to
     the shallower table;

   and the operator label oriented so that it reads ``source op target``
   (rewriting e.g. ``A.x > B.y`` into ``B.y < A.x`` when the arrow must go
   from B to A, Section 4.5.1).

Finally the SELECT table is added with undirected edges to the selected
attributes.

Before the construction, existential blocks are *flattened* into their parent
block when the parent is not a ∀ block — ``∃S.(P ∧ ∃T.Q) ≡ ∃S,T.(P ∧ Q)`` —
which is why IN/EXISTS subqueries do not clutter the diagram with boxes.
"""

from __future__ import annotations

from ..catalog.schema import Schema
from ..sql.ast import (
    AggregateCall,
    ColumnRef,
    Comparison,
    FLIPPED_OP,
    Literal,
    TableRef,
)
from ..logic.errors import TranslationError
from ..logic.logic_tree import LogicTree, LogicTreeNode, Quantifier
from .model import (
    BoundingBox,
    BoxStyle,
    Diagram,
    DiagramTable,
    Edge,
    Endpoint,
    RowKind,
    TableRow,
)

SELECT_TABLE_ID = "__select__"


def build_diagram(tree: LogicTree, schema: Schema | None = None) -> Diagram:
    """Build a QueryVis diagram from a Logic Tree."""
    tree = ensure_unique_aliases(tree)
    tree = flatten_existential_blocks(tree)
    builder = _DiagramBuilder(tree, schema)
    return builder.build()


# ---------------------------------------------------------------------- #
# Logic Tree pre-processing
# ---------------------------------------------------------------------- #


def ensure_unique_aliases(tree: LogicTree) -> LogicTree:
    """Rename reused table aliases so every alias is unique tree-wide.

    Trees without alias collisions — the overwhelmingly common case — are
    returned unchanged (same object), so the cold compile path does not pay
    a full tree copy just to discover there was nothing to rename.
    """
    used: set[str] = set()
    new_root = _unique_aliases_node(tree.root, used)
    if new_root is tree.root:
        return tree
    return tree.with_root(new_root)


def _unique_aliases_node(node: LogicTreeNode, used: set[str]) -> LogicTreeNode:
    renames: dict[str, str] = {}
    new_tables: list[TableRef] = []
    for table in node.tables:
        alias = table.effective_alias
        if alias.lower() in used:
            suffix = 2
            while f"{alias}_{suffix}".lower() in used:
                suffix += 1
            new_alias = f"{alias}_{suffix}"
            renames[alias.lower()] = new_alias
            table = TableRef(name=table.name, alias=new_alias)
            alias = new_alias
        used.add(alias.lower())
        new_tables.append(table)
    if renames:
        node = LogicTreeNode(
            tuple(new_tables), node.predicates, node.quantifier, node.children
        )
        node = _rename_aliases(node, renames)
    children = tuple(_unique_aliases_node(child, used) for child in node.children)
    if children == node.children and not renames:
        return node
    return node.with_children(children)


def _rename_aliases(node: LogicTreeNode, renames: dict[str, str]) -> LogicTreeNode:
    """Rewrite column references for renamed aliases in ``node`` and below."""

    def rename_column(column: ColumnRef) -> ColumnRef:
        if column.table is not None and column.table.lower() in renames:
            return ColumnRef(renames[column.table.lower()], column.column)
        return column

    def rename_predicate(predicate: Comparison) -> Comparison:
        left = rename_column(predicate.left) if isinstance(predicate.left, ColumnRef) else predicate.left
        right = rename_column(predicate.right) if isinstance(predicate.right, ColumnRef) else predicate.right
        return Comparison(left, predicate.op, right)

    new_predicates = tuple(rename_predicate(p) for p in node.predicates)
    new_children = tuple(_rename_aliases(child, renames) for child in node.children)
    return LogicTreeNode(node.tables, new_predicates, node.quantifier, new_children)


def flatten_existential_blocks(tree: LogicTree) -> LogicTree:
    """Merge ∃ blocks into their parent when the parent is not a ∀ block.

    ``∃S.(P ∧ ∃T.Q) ≡ ∃S,T.(P ∧ Q)`` and ``¬∃S.(P ∧ ∃T.Q) ≡ ¬∃S,T.(P ∧ Q)``,
    so flattening preserves semantics; it is what makes IN/EXISTS subqueries
    appear as plain joins in the diagram (Fig. 6 of the paper draws the
    tables of the NOT EXISTS block inside a single dashed box).

    Trees without ∃ children anywhere are returned unchanged (same object).
    """
    new_root = _flatten_node(tree.root)
    if new_root is tree.root:
        return tree
    return tree.with_root(new_root)


def _flatten_node(node: LogicTreeNode) -> LogicTreeNode:
    children = tuple(_flatten_node(child) for child in node.children)
    if node.quantifier is Quantifier.FOR_ALL:
        if children == node.children:
            return node
        return node.with_children(children)
    if not any(child.quantifier is Quantifier.EXISTS for child in children):
        if children == node.children:
            return node
        return node.with_children(children)
    merged_tables = list(node.tables)
    merged_predicates = list(node.predicates)
    new_children: list[LogicTreeNode] = []
    for child in children:
        if child.quantifier is Quantifier.EXISTS:
            merged_tables.extend(child.tables)
            merged_predicates.extend(child.predicates)
            new_children.extend(child.children)
        else:
            new_children.append(child)
    return LogicTreeNode(
        tuple(merged_tables),
        tuple(merged_predicates),
        node.quantifier,
        tuple(new_children),
    )


# ---------------------------------------------------------------------- #
# the builder
# ---------------------------------------------------------------------- #


class _DiagramBuilder:
    def __init__(self, tree: LogicTree, schema: Schema | None) -> None:
        self._tree = tree
        self._schema = schema
        self._depth_of_alias: dict[str, int] = {}
        self._node_of_alias: dict[str, LogicTreeNode] = {}
        self._table_name_of_alias: dict[str, str] = {}
        self._parent_child: set[tuple[int, int]] = set()
        self._rows: dict[str, list[TableRow]] = {}
        # Per alias: lowercased row key -> positions in ``_rows[alias]`` of
        # the rows with that key, in order.  Rows are only appended or
        # replaced in place under the same key, so the index stays exact.
        self._row_keys: dict[str, dict[str, list[int]]] = {}
        self._table_id_of_alias: dict[str, str] = {}
        self._index_tree()

    # -------------------------- indexing ----------------------------- #

    def _index_tree(self) -> None:
        node_ids: dict[int, int] = {}
        for index, (node, depth) in enumerate(self._tree.iter_with_depth()):
            node_ids[id(node)] = index
            for table in node.tables:
                alias = table.effective_alias.lower()
                if alias in self._depth_of_alias:
                    raise TranslationError(
                        f"table alias {table.effective_alias!r} is defined twice"
                    )
                self._depth_of_alias[alias] = depth
                self._node_of_alias[alias] = node
                self._table_name_of_alias[alias] = table.name
                self._table_id_of_alias[alias] = table.effective_alias
                self._rows[alias] = []
                self._row_keys[alias] = {}

    # --------------------------- building ---------------------------- #

    def build(self) -> Diagram:
        join_edges = self._collect_rows_and_edges()
        select_rows, select_edges = self._build_select()
        tables = [self._make_select_table(select_rows)]
        for node, _depth in self._tree.iter_with_depth():
            for table in node.tables:
                alias = table.effective_alias.lower()
                tables.append(
                    DiagramTable(
                        table_id=self._table_id_of_alias[alias],
                        name=table.name,
                        alias=table.alias,
                        rows=tuple(self._rows[alias]),
                    )
                )
        boxes = self._build_boxes()
        metadata = {
            f"depth.{self._table_id_of_alias[alias]}": str(depth)
            for alias, depth in self._depth_of_alias.items()
        }
        # Machine-readable order spec (the τ/LIMIT rows are presentation):
        # lets diagram consumers and the inverse reader recover the ranking.
        if self._tree.distinct:
            metadata["distinct"] = "1"
        if self._tree.order_by:
            metadata["order_by"] = ",".join(
                f"{item.column}{' desc' if item.descending else ''}"
                for item in self._tree.order_by
            )
        if self._tree.limit is not None:
            metadata["limit"] = str(self._tree.limit)
            if self._tree.offset:
                metadata["offset"] = str(self._tree.offset)
        return Diagram(
            tables=tuple(tables),
            boxes=tuple(boxes),
            edges=tuple(select_edges + join_edges),
            select_table_id=SELECT_TABLE_ID,
            metadata=metadata,
        )

    # ------------------------ rows and edges -------------------------- #

    def _collect_rows_and_edges(self) -> list[Edge]:
        edges: list[Edge] = []
        for node, _depth in self._tree.iter_with_depth():
            for predicate in node.predicates:
                if predicate.is_join:
                    edges.append(self._join_edge(predicate, node))
                else:
                    self._add_selection_row(predicate, node)
        for column in self._tree.group_by:
            alias = self._resolve_alias(column, self._tree.root)
            self._ensure_attribute_row(alias, column.column, kind=RowKind.GROUP_BY)
        return edges

    def _join_edge(self, predicate: Comparison, node: LogicTreeNode) -> Edge:
        left: ColumnRef = predicate.left  # type: ignore[assignment]
        right: ColumnRef = predicate.right  # type: ignore[assignment]
        left_alias = self._resolve_alias(left, node)
        right_alias = self._resolve_alias(right, node)
        self._ensure_attribute_row(left_alias, left.column)
        self._ensure_attribute_row(right_alias, right.column)
        left_depth = self._depth_of_alias[left_alias]
        right_depth = self._depth_of_alias[right_alias]
        op = predicate.op
        if left_depth == right_depth:
            directed = False
            source_alias, source_col = left_alias, left.column
            target_alias, target_col = right_alias, right.column
        else:
            directed = True
            diff = abs(left_depth - right_depth)
            if diff == 1:
                source_is_left = left_depth < right_depth
            else:
                source_is_left = left_depth > right_depth
            if source_is_left:
                source_alias, source_col = left_alias, left.column
                target_alias, target_col = right_alias, right.column
            else:
                source_alias, source_col = right_alias, right.column
                target_alias, target_col = left_alias, left.column
                op = FLIPPED_OP[op]
        return Edge(
            source=Endpoint(self._table_id_of_alias[source_alias], source_col.lower()),
            target=Endpoint(self._table_id_of_alias[target_alias], target_col.lower()),
            operator=None if op == "=" else op,
            directed=directed,
        )

    def _add_selection_row(self, predicate: Comparison, node: LogicTreeNode) -> None:
        normalized = predicate.normalized_selection()
        column: ColumnRef = normalized.left  # type: ignore[assignment]
        literal: Literal = normalized.right  # type: ignore[assignment]
        alias = self._resolve_alias(column, node)
        label = f"{column.column} {normalized.op} {literal}"
        if label.lower() not in self._row_keys[alias]:
            self._append_row(alias, TableRow(kind=RowKind.SELECTION, label=label, key=label))

    def _append_row(self, alias: str, row: TableRow) -> None:
        rows = self._rows[alias]
        self._row_keys[alias].setdefault(row.key.lower(), []).append(len(rows))
        rows.append(row)

    def _ensure_attribute_row(
        self, alias: str, column: str, kind: RowKind = RowKind.ATTRIBUTE
    ) -> None:
        rows = self._rows[alias]
        for index in self._row_keys[alias].get(column.lower(), ()):
            row = rows[index]
            if row.kind in (RowKind.ATTRIBUTE, RowKind.GROUP_BY):
                if kind is RowKind.GROUP_BY and row.kind is RowKind.ATTRIBUTE:
                    rows[index] = TableRow(kind=RowKind.GROUP_BY, label=row.label, key=row.key)
                return
        self._append_row(alias, TableRow(kind=kind, label=column, key=column))

    # ---------------------------- SELECT ------------------------------ #

    def _build_select(self) -> tuple[list[TableRow], list[Edge]]:
        rows, edges = self._build_select_items()
        # Ranked-output notation: ORDER BY keys become τ rows of the SELECT
        # table (reading "sorted by", direction arrows matching SQL), and
        # LIMIT/OFFSET one cutoff row — output modifiers, so they live on
        # the output table rather than on any data table.
        for position, item in enumerate(self._tree.order_by):
            arrow = "↓" if item.descending else "↑"
            label = f"{item.column.column} {arrow}"
            rows.append(
                TableRow(kind=RowKind.ORDER_BY, label=label, key=f"order:{position}")
            )
            if isinstance(item.column, ColumnRef):
                alias = self._resolve_alias(item.column, self._tree.root)
                self._ensure_attribute_row(alias, item.column.column)
        if self._tree.limit is not None:
            label = f"LIMIT {self._tree.limit}"
            if self._tree.offset:
                label += f" OFFSET {self._tree.offset}"
            rows.append(TableRow(kind=RowKind.LIMIT, label=label, key="limit"))
        return rows, edges

    def _build_select_items(self) -> tuple[list[TableRow], list[Edge]]:
        rows: list[TableRow] = []
        edges: list[Edge] = []
        for item in self._tree.select_items:
            if isinstance(item, ColumnRef):
                alias = self._resolve_alias(item, self._tree.root)
                self._ensure_attribute_row(alias, item.column)
                key = item.column
                rows.append(TableRow(kind=RowKind.ATTRIBUTE, label=item.column, key=key))
                edges.append(
                    Edge(
                        source=Endpoint(SELECT_TABLE_ID, key.lower()),
                        target=Endpoint(
                            self._table_id_of_alias[alias], item.column.lower()
                        ),
                        operator=None,
                        directed=False,
                    )
                )
            elif isinstance(item, AggregateCall):
                label = str(item)
                rows.append(TableRow(kind=RowKind.AGGREGATE, label=label, key=label))
                if isinstance(item.argument, ColumnRef):
                    alias = self._resolve_alias(item.argument, self._tree.root)
                    simple_label = f"{item.func}({item.argument.column})"
                    if simple_label.lower() not in self._row_keys[alias]:
                        self._append_row(
                            alias,
                            TableRow(
                                kind=RowKind.AGGREGATE,
                                label=simple_label,
                                key=simple_label,
                            ),
                        )
                    edges.append(
                        Edge(
                            source=Endpoint(SELECT_TABLE_ID, label.lower()),
                            target=Endpoint(
                                self._table_id_of_alias[alias], simple_label.lower()
                            ),
                            operator=None,
                            directed=False,
                        )
                    )
            else:  # pragma: no cover - excluded by the translator
                raise TranslationError(f"unexpected select item {item!r}")
        return rows, edges

    def _make_select_table(self, rows: list[TableRow]) -> DiagramTable:
        return DiagramTable(
            table_id=SELECT_TABLE_ID,
            name="SELECT",
            alias=None,
            rows=tuple(rows),
            is_select=True,
        )

    # ---------------------------- boxes ------------------------------- #

    def _build_boxes(self) -> list[BoundingBox]:
        boxes: list[BoundingBox] = []
        counter = 0
        for node, depth in self._tree.iter_with_depth():
            if depth == 0 or node.quantifier is Quantifier.EXISTS:
                continue
            style = (
                BoxStyle.NOT_EXISTS
                if node.quantifier is Quantifier.NOT_EXISTS
                else BoxStyle.FOR_ALL
            )
            table_ids = frozenset(
                self._table_id_of_alias[table.effective_alias.lower()]
                for table in node.tables
            )
            counter += 1
            boxes.append(BoundingBox(box_id=f"box{counter}", style=style, table_ids=table_ids))
        return boxes

    # --------------------------- resolution --------------------------- #

    def _resolve_alias(self, column: ColumnRef, node: LogicTreeNode) -> str:
        """Resolve the (lower-cased) alias that owns ``column``."""
        if column.table is not None:
            alias = column.table.lower()
            if alias not in self._depth_of_alias:
                raise TranslationError(f"unknown table alias {column.table!r}")
            return alias
        # Unqualified column: prefer the defining block's own tables, then
        # fall back to a schema lookup across all tables.
        candidates = [
            table.effective_alias.lower()
            for table in node.tables
            if self._schema is None
            or self._schema.table(table.name).has_attribute(column.column)
        ]
        if self._schema is None and len(node.tables) == 1:
            return node.tables[0].effective_alias.lower()
        if len(candidates) == 1:
            return candidates[0]
        if self._schema is not None:
            everywhere = [
                alias
                for alias, name in self._table_name_of_alias.items()
                if self._schema.table(name).has_attribute(column.column)
            ]
            if len(everywhere) == 1:
                return everywhere[0]
        raise TranslationError(
            f"cannot resolve unqualified column {column.column!r} unambiguously"
        )
