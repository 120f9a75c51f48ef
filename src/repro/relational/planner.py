"""Compiler from :class:`~repro.sql.ast.SelectQuery` to logical plans.

The planner performs the classic logical optimizations of the supported
fragment:

* **predicate pushdown** — selection predicates referencing a single table
  are evaluated inside that table's scan; predicates referencing only
  enclosing blocks become row-independent *prechecks* evaluated once per
  block invocation;
* **equi-join detection** — ``A.x = B.y`` predicates between two tables of
  the block turn the cartesian product into a :class:`~.plan.HashJoin`;
* **cardinality-guided join ordering** — a lightweight statistics layer
  (:mod:`repro.relational.stats`: exact row counts and per-column distinct
  counts) estimates each table's filtered
  cardinality and each join's output size; the greedy left-deep order
  starts from the smallest filtered table and repeatedly adds the
  *connected* table minimizing the estimated intermediate result (tables
  connected to the bound set always beat unconnected ones, so any connected
  join graph still avoids accidental cartesian products);
* **ranked reads in key order** — a root block ranked by one column with
  a LIMIT starts its join order from that column's table instead, where
  the estimates say a read of that table in the column's order fills the
  limit before it reads as many rows as the join outputs; when every
  join then probes a bare scan's key with a column of that table, the
  TopK is marked (:class:`~.plan.KeyOrder`), so engines may read the
  table in that order and stop once the limit is filled;
* **decorrelation** — ``[NOT] IN`` subqueries (and the equivalent
  ``= ANY`` / ``<> ALL`` spellings) that do not reference the current block
  become :class:`~.plan.SemiJoin` / :class:`~.plan.AntiJoin` operators whose
  subquery result is materialized once as a hash set; all other subqueries
  stay predicates, but their results are memoized per distinct tuple of
  correlated outer values, so a subquery correlated on a low-cardinality
  column runs once per value instead of once per outer row.

Column references are resolved *statically*, mirroring the reference
executor's runtime scoping rules: a qualified reference binds to the
innermost scope defining its alias (the last FROM entry when an alias is
repeated), and an unqualified reference binds to the most recently bound
table that has the column — i.e. the block's FROM list searched in reverse,
then the enclosing blocks, innermost first.

**Compilation contract.**  Every backend registered with
:mod:`repro.relational.backends` interprets the plans produced here, so
the planner guarantees (and the backends — including the SQL lowering,
which compiles whole trees ahead of execution — rely on):

* the root of every block is a :class:`~.plan.Distinct` or an
  :class:`~.plan.Aggregate` — results carry set/GROUP BY semantics by
  construction, never bags — optionally wrapped in a single
  :class:`~.plan.TopK` when the root block carries ORDER BY / LIMIT
  (nested blocks never carry one; the translator rejects them and the
  planner only ranks the block it was asked to rank);
* TopK keys are slots of the block's *output* frame — ORDER BY is
  restricted to selected columns, and for grouped queries the TopK is
  fused directly onto the :class:`~.plan.Aggregate` output (group rows
  are unique by construction, so no Distinct intervenes);
* all column references are resolved to slots at plan time; no backend
  performs name resolution (unknown/ambiguous names raise here, even when
  tables are empty);
* ``prechecks`` and :class:`~.plan.SemiJoin.param_exprs` are
  row-independent (constants and enclosing-block parameters only);
* a repeated alias in one FROM clause is rejected at plan time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..sql.ast import (
    AggregateCall,
    ColumnRef,
    Comparison,
    Exists,
    InSubquery,
    Literal,
    QuantifiedComparison,
    SelectQuery,
    Star,
)
from .database import Database, Relation
from .errors import EngineError, UnknownColumnError
from .plan import (
    Aggregate,
    AntiJoin,
    BlockPlan,
    Col,
    CompiledComparison,
    Const,
    Distinct,
    Filter,
    HashJoin,
    KeyOrder,
    NestedLoopJoin,
    Param,
    PlanNode,
    Project,
    ScalarExpr,
    Scan,
    SemiJoin,
    SubqueryPred,
    TopK,
)

from .resolve import match_column as _match_column
from .resolve import matches_group_key, order_key_position, result_columns
from .stats import (
    EQUALITY_DEFAULT_SELECTIVITY,
    RANGE_SELECTIVITY,
    CatalogStatistics,
)

#: Resolver supplied by the enclosing block when planning a subquery: maps a
#: column reference to an expression in the *enclosing* frame (raising
#: UnknownColumnError when no enclosing block defines it).
OuterResolver = Callable[[ColumnRef], ScalarExpr]


@dataclass
class _Instance:
    """One FROM-clause table instance of the block being planned."""

    from_index: int
    alias: str  # effective alias, original spelling
    relation: Relation

    @property
    def alias_lower(self) -> str:
        return self.alias.lower()

    @property
    def width(self) -> int:
        return len(self.relation.columns)


class Planner:
    """Compiles queries into :class:`~.plan.BlockPlan` trees.

    ``statistics`` drives join ordering; when omitted, a fresh
    :class:`~.stats.CatalogStatistics` is collected lazily from the
    database (cached per relation, invalidated by row-count changes).
    """

    def __init__(
        self, database: Database, statistics: CatalogStatistics | None = None
    ) -> None:
        self._db = database
        self._stats = statistics if statistics is not None else CatalogStatistics(database)

    @property
    def statistics(self) -> CatalogStatistics:
        return self._stats

    def plan(self, query: SelectQuery) -> BlockPlan:
        """Compile ``query`` (and all nested blocks) into a plan."""
        return _BlockPlanner(self._db, query, outer=None, statistics=self._stats).compile()


class _BlockPlanner:
    """Plans a single query block; nested blocks recurse with an outer hook."""

    def __init__(
        self,
        database: Database,
        query: SelectQuery,
        outer: OuterResolver | None,
        statistics: CatalogStatistics | None = None,
    ) -> None:
        self._db = database
        self._query = query
        self._outer = outer
        self._stats = statistics if statistics is not None else CatalogStatistics(database)
        self._instances = [
            _Instance(index, table.effective_alias, database.relation(table.name))
            for index, table in enumerate(query.from_tables)
        ]
        # Repeated aliases make scoping incoherent in the reference executor
        # (predicates staged at the first instance, projection bound to the
        # last); real SQL rejects them, and so does the planner.
        seen_aliases: set[str] = set()
        for instance in self._instances:
            if instance.alias_lower in seen_aliases:
                raise EngineError(
                    f"duplicate table alias {instance.alias!r} in FROM clause"
                )
            seen_aliases.add(instance.alias_lower)
        # Formal parameters of this block: source expression in the
        # enclosing frame -> parameter index (deduplicated).
        self._params: dict[ScalarExpr, int] = {}
        self._param_exprs: list[ScalarExpr] = []
        self._param_labels: list[str] = []
        self._param_refs: dict[ColumnRef, int] = {}
        #: Estimated cardinality of the joined (pre-projection) result,
        #: filled in by _join_order; drives the TopK heap-vs-sort hint.
        self._estimated_rows = 0.0

    # ------------------------------------------------------------------ #
    # column resolution
    # ------------------------------------------------------------------ #

    def _instance_for(self, column: ColumnRef) -> _Instance | None:
        """The local FROM instance ``column`` binds to, or None (outer)."""
        if column.table is not None:
            lowered = column.table.lower()
            matches = [i for i in self._instances if i.alias_lower == lowered]
            if not matches:
                return None
            instance = matches[0]
            if _match_column(instance.relation, column.column) is None:
                raise UnknownColumnError(
                    f"table {column.table} has no column {column.column!r}"
                )
            return instance
        for instance in reversed(self._instances):
            if _match_column(instance.relation, column.column) is not None:
                return instance
        return None

    def _resolve(self, column: ColumnRef, bases: dict[int, int]) -> ScalarExpr:
        """Resolve a column reference against a (partial) frame.

        ``bases`` maps from-index -> slot offset of that instance's columns
        in the current row tuple.  References that do not bind locally are
        delegated to the enclosing block and become parameters.
        """
        instance = self._instance_for(column)
        if instance is None:
            return self._outer_param(column)
        position = _match_column(instance.relation, column.column)
        base = bases.get(instance.from_index)
        if base is None:  # pragma: no cover - guarded by attachment rules
            raise EngineError(f"internal: {column} referenced before binding")
        label = f"{instance.alias}.{instance.relation.columns[position]}"
        return Col(base + position, label=label)

    def _outer_param(self, column: ColumnRef) -> ScalarExpr:
        if self._outer is None:
            if column.table is not None:
                raise UnknownColumnError(f"unknown table alias {column.table!r}")
            raise UnknownColumnError(f"unknown column {column.column!r}")
        source = self._outer(column)
        index = self._params.get(source)
        if index is None:
            index = len(self._param_exprs)
            self._params[source] = index
            self._param_exprs.append(source)
            self._param_labels.append(str(column))
        self._param_refs[column] = index
        return Param(index, label=str(column))

    def _resolver_for_child(self, bases: dict[int, int]) -> OuterResolver:
        """Resolve a child block's free column against this block's frame."""

        def resolve(column: ColumnRef) -> ScalarExpr:
            return self._resolve(column, bases)

        return resolve

    def _operand(self, operand, bases: dict[int, int]) -> ScalarExpr:
        if isinstance(operand, Literal):
            return Const(operand.value)
        return self._resolve(operand, bases)

    def _comparison(self, pred: Comparison, bases: dict[int, int]) -> CompiledComparison:
        return CompiledComparison(
            self._operand(pred.left, bases), pred.op, self._operand(pred.right, bases)
        )

    def _local_aliases_of(self, pred: Comparison) -> set[int]:
        """From-indices of the local instances a comparison references."""
        indices: set[int] = set()
        for operand in (pred.left, pred.right):
            if isinstance(operand, ColumnRef):
                instance = self._instance_for(operand)
                if instance is not None:
                    indices.add(instance.from_index)
        return indices

    # ------------------------------------------------------------------ #
    # join ordering and tree construction
    # ------------------------------------------------------------------ #

    # -- cardinality estimation ----------------------------------------- #

    def _column_distinct(self, operand, fallback: float = 10.0) -> float:
        """Distinct-count estimate of a column operand (1.0 for literals)."""
        if not isinstance(operand, ColumnRef):
            return fallback
        instance = self._instance_for(operand)
        if instance is None:
            return fallback  # outer reference: a single parameter value
        stats = self._stats.for_relation(instance.relation)
        return float(stats.distinct_of(operand.column))

    def _scan_selectivity(self, pred: Comparison) -> float:
        """Selectivity estimate of a single-table selection predicate."""
        if pred.op == "<>":
            return 1.0
        if pred.op != "=":
            return RANGE_SELECTIVITY
        distincts = [
            self._column_distinct(operand)
            for operand in (pred.left, pred.right)
            if isinstance(operand, ColumnRef) and self._instance_for(operand) is not None
        ]
        if not distincts:
            return EQUALITY_DEFAULT_SELECTIVITY
        return 1.0 / max(max(distincts), 1.0)

    def _estimated_scan_rows(
        self, instance: _Instance, preds: list[Comparison] | None
    ) -> float:
        est = float(self._stats.for_relation(instance.relation).row_count)
        for pred in preds or ():
            est *= self._scan_selectivity(pred)
        return max(est, 0.001)  # keep products well-defined for empty tables

    def _join_selectivity(self, pred: Comparison, indices: set[int]) -> float:
        """Selectivity estimate of a join predicate between bound tables."""
        if pred.op == "=" and pred.is_join and len(indices) == 2:
            return 1.0 / max(
                self._column_distinct(pred.left), self._column_distinct(pred.right), 1.0
            )
        if pred.op == "<>":
            return 1.0
        if pred.op == "=":
            return EQUALITY_DEFAULT_SELECTIVITY
        return RANGE_SELECTIVITY

    def _join_order(
        self,
        scan_preds: dict[int, list[Comparison]],
        join_preds: list[tuple[Comparison, set[int]]],
        start: int | None = None,
    ) -> list[int]:
        """Greedy left-deep order guided by estimated cardinalities.

        Start from ``start``, or else from the table with the smallest
        estimated *filtered* cardinality, then repeatedly add the table
        that minimizes the estimated size of the joined intermediate
        result.  Connectivity dominates the choice: a table joined to the
        bound set through at least one predicate always beats an
        unconnected one, so any connected join graph still avoids
        accidental cartesian products — the statistics only refine the
        order *within* those constraints.
        Ties break on FROM-clause position, keeping plans deterministic.
        """
        n = len(self._instances)
        if n == 1:
            self._estimated_rows = self._estimated_scan_rows(
                self._instances[0], scan_preds.get(0)
            )
            return [0]
        base = {
            instance.from_index: self._estimated_scan_rows(
                instance, scan_preds.get(instance.from_index)
            )
            for instance in self._instances
        }
        pred_info = [
            (indices, self._join_selectivity(pred, indices))
            for pred, indices in join_preds
        ]
        if start is None:
            start = min(range(n), key=lambda index: (base[index], index))
        order = [start]
        bound = {start}
        bound_size = base[start]
        remaining = [index for index in range(n) if index != start]
        while remaining:
            best_key: tuple | None = None
            best_choice = remaining[0]
            best_size = bound_size * base[best_choice]
            for candidate in remaining:
                connected = False
                size = bound_size * base[candidate]
                for indices, selectivity in pred_info:
                    if candidate not in indices:
                        continue
                    others = indices - {candidate}
                    if others and others <= bound:
                        connected = True
                        size *= selectivity
                key = (not connected, size, candidate)
                if best_key is None or key < best_key:
                    best_key = key
                    best_choice = candidate
                    best_size = size
            order.append(best_choice)
            bound.add(best_choice)
            bound_size = max(best_size, 0.001)
            remaining.remove(best_choice)
        self._estimated_rows = bound_size
        return order

    def compile(self) -> BlockPlan:
        query = self._query
        comparisons = [p for p in query.where if isinstance(p, Comparison)]
        subqueries = [p for p in query.where if not isinstance(p, Comparison)]

        pred_locals = [self._local_aliases_of(p) for p in comparisons]
        prechecks: list = [
            self._comparison(pred, {})
            for pred, indices in zip(comparisons, pred_locals)
            if not indices
        ]

        # Single-table predicates push down into the table's scan.
        scan_preds: dict[int, list[Comparison]] = {}
        join_preds: list[tuple[Comparison, set[int]]] = []
        for pred, indices in zip(comparisons, pred_locals):
            if len(indices) == 1:
                scan_preds.setdefault(next(iter(indices)), []).append(pred)
            elif len(indices) > 1:
                join_preds.append((pred, indices))

        root = None if subqueries else self._key_ordered(scan_preds, join_preds)
        if root is not None:
            return self._block_plan(root, prechecks)
        order = self._join_order(scan_preds, join_preds)
        tree, bases = self._join_tree(order, scan_preds, join_preds)

        # Subquery predicates: decorrelate where possible, else evaluate as
        # (memoized) residual predicates over the joined rows.
        residual_subqueries: list[SubqueryPred] = []
        for predicate in subqueries:
            compiled = self._subquery_pred(predicate, bases)
            if compiled.is_row_independent:
                prechecks.append(compiled)
            elif (
                compiled.kind == "in"
                and isinstance(compiled.value_expr, Col)
                and not compiled.subquery_reads_row
            ):
                join_cls = AntiJoin if compiled.negated else SemiJoin
                tree = join_cls(
                    child=tree,
                    plan=compiled.plan,
                    param_exprs=compiled.param_exprs,
                    probe=compiled.value_expr,
                )
            else:
                residual_subqueries.append(compiled)
        if residual_subqueries:
            tree = Filter(tree, tuple(residual_subqueries))

        return self._block_plan(self._ranked(self._projection(tree, bases)), prechecks)

    def _block_plan(self, root: PlanNode, prechecks: list) -> BlockPlan:
        return BlockPlan(
            ast=self._query,
            root=root,
            columns=self._result_columns(),
            n_params=len(self._param_exprs),
            param_labels=tuple(self._param_labels),
            prechecks=tuple(prechecks),
            param_refs=frozenset(self._param_refs.items()),
            key_probed=any(
                type(node) is Filter and node.key_probe is not None
                for node in root.walk()
            ),
        )

    def _join_tree(
        self,
        order: list[int],
        scan_preds: dict[int, list[Comparison]],
        join_preds: list[tuple[Comparison, set[int]]],
    ) -> tuple[PlanNode, dict[int, int]]:
        """The left-deep join tree in ``order``, and each instance's base
        slot in its rows."""
        tree: PlanNode | None = None
        bases: dict[int, int] = {}
        width = 0
        attached = [False] * len(join_preds)
        for from_index in order:
            instance = self._instances[from_index]
            node: PlanNode = Scan(instance.relation.name, instance.alias)
            local = scan_preds.get(from_index)
            if local:
                scan_bases = {from_index: 0}
                conjuncts = tuple(self._comparison(p, scan_bases) for p in local)
                node = Filter(node, conjuncts, _key_probe(conjuncts))
            if tree is None:
                tree = node
                bases[from_index] = 0
                width = instance.width
                continue

            attachable = [
                position
                for position, (pred, indices) in enumerate(join_preds)
                if not attached[position]
                and from_index in indices
                and indices <= set(bases) | {from_index}
            ]
            equi_left: list[ScalarExpr] = []
            equi_right: list[ScalarExpr] = []
            residual: list[Comparison] = []
            for position in attachable:
                pred, indices = join_preds[position]
                attached[position] = True
                keys = self._equi_keys(pred, indices, from_index, bases)
                if keys is not None:
                    equi_left.append(keys[0])
                    equi_right.append(keys[1])
                else:
                    residual.append(pred)
            combined_bases = dict(bases)
            combined_bases[from_index] = width
            if equi_left:
                tree = HashJoin(
                    tree, node, tuple(equi_left), tuple(equi_right)
                )
                if residual:
                    tree = Filter(
                        tree,
                        tuple(self._comparison(p, combined_bases) for p in residual),
                    )
            else:
                tree = NestedLoopJoin(
                    tree,
                    node,
                    tuple(self._comparison(p, combined_bases) for p in residual),
                )
            bases[from_index] = width
            width += instance.width

        assert tree is not None  # the grammar requires a non-empty FROM list
        return tree, bases

    def _equi_keys(
        self,
        pred: Comparison,
        indices: set[int],
        new_index: int,
        bases: dict[int, int],
    ) -> tuple[ScalarExpr, ScalarExpr] | None:
        """``(left_key, right_key)`` when ``pred`` is a bound-to-new equi-join."""
        if pred.op != "=" or not pred.is_join:
            return None
        if len(indices) != 2 or new_index not in indices:
            return None
        left_ref, right_ref = pred.left, pred.right
        left_instance = self._instance_for(left_ref)
        right_instance = self._instance_for(right_ref)
        if left_instance is None or right_instance is None:
            return None
        if right_instance.from_index == new_index:
            bound_ref, new_ref = left_ref, right_ref
        else:
            bound_ref, new_ref = right_ref, left_ref
        return (
            self._resolve(bound_ref, bases),
            self._resolve(new_ref, {new_index: 0}),
        )

    # ------------------------------------------------------------------ #
    # subqueries
    # ------------------------------------------------------------------ #

    def _subquery_pred(self, predicate, bases: dict[int, int]) -> SubqueryPred:
        sub = predicate.query
        if sub.order_by or sub.limit is not None:
            raise EngineError(
                "nested query blocks may not use ORDER BY or LIMIT"
            )
        child = _BlockPlanner(
            self._db,
            predicate.query,
            outer=self._resolver_for_child(bases),
            statistics=self._stats,
        )
        if isinstance(predicate, Exists):
            plan = child.compile()
            return SubqueryPred(
                kind="exists",
                negated=predicate.negated,
                plan=plan,
                param_exprs=tuple(child._param_exprs),
            )
        # IN / ANY / ALL probe a single-column subquery.
        value_expr = self._resolve(predicate.column, bases)
        plan = child.compile()
        if len(plan.columns) != 1:
            raise EngineError(
                "IN / ANY / ALL subqueries must return exactly one column, "
                f"got {len(plan.columns)}"
            )
        params = tuple(child._param_exprs)
        if isinstance(predicate, InSubquery):
            return SubqueryPred(
                kind="in",
                negated=predicate.negated,
                plan=plan,
                param_exprs=params,
                value_expr=value_expr,
                op="=",
            )
        assert isinstance(predicate, QuantifiedComparison)
        # `= ANY` is IN; `<> ALL` is NOT IN — normalizing them unlocks the
        # semi-/anti-join path for two of the three Fig. 24 spellings.
        if predicate.op == "=" and predicate.quantifier == "ANY":
            return SubqueryPred(
                kind="in",
                negated=predicate.negated,
                plan=plan,
                param_exprs=params,
                value_expr=value_expr,
                op="=",
            )
        if predicate.op == "<>" and predicate.quantifier == "ALL":
            return SubqueryPred(
                kind="in",
                negated=not predicate.negated,
                plan=plan,
                param_exprs=params,
                value_expr=value_expr,
                op="=",
            )
        return SubqueryPred(
            kind="quantified",
            negated=predicate.negated,
            plan=plan,
            param_exprs=params,
            value_expr=value_expr,
            op=predicate.op,
            quantifier=predicate.quantifier,
        )

    # ------------------------------------------------------------------ #
    # projection
    # ------------------------------------------------------------------ #

    def _projection(self, tree: PlanNode, bases: dict[int, int]) -> PlanNode:
        query = self._query
        if query.has_aggregates or query.group_by:
            return self._grouped_projection(tree, bases)
        if query.is_select_star:
            exprs: list[ScalarExpr] = []
            for instance in self._instances:
                base = bases[instance.from_index]
                for offset, key in enumerate(instance.relation.columns):
                    exprs.append(Col(base + offset, label=f"{instance.alias}.{key}"))
        else:
            exprs = []
            for item in query.select_items:
                if not isinstance(item, ColumnRef):
                    raise EngineError(
                        "aggregate select items require GROUP BY handling"
                    )
                exprs.append(self._resolve(item, bases))
        return Distinct(Project(tree, tuple(exprs)))

    def _grouped_projection(self, tree: PlanNode, bases: dict[int, int]) -> PlanNode:
        query = self._query
        group_exprs = tuple(self._resolve(col, bases) for col in query.group_by)
        items: list[tuple] = []
        for item in query.select_items:
            if isinstance(item, ColumnRef):
                if item not in query.group_by and not matches_group_key(item, query):
                    raise EngineError(
                        f"column {item} must appear in GROUP BY to be selected"
                    )
                items.append(("col", self._resolve(item, bases)))
            elif isinstance(item, AggregateCall):
                if isinstance(item.argument, Star):
                    items.append(("agg", "COUNT", None))
                else:
                    items.append(("agg", item.func, self._resolve(item.argument, bases)))
            else:
                raise EngineError("SELECT * cannot be combined with GROUP BY")
        return Aggregate(tree, group_exprs, tuple(items))

    def _result_columns(self) -> tuple[str, ...]:
        return result_columns(
            self._query, [instance.relation for instance in self._instances]
        )

    # ------------------------------------------------------------------ #
    # ranked output (ORDER BY / LIMIT)
    # ------------------------------------------------------------------ #

    def _ranked(self, root: PlanNode) -> PlanNode:
        """Wrap the projection root in a TopK when the block is ranked.

        The keys are slots of the output frame, so the TopK composes with
        any projection root: for grouped queries it sits directly on the
        Aggregate (group rows are already unique — one half of the fusion
        the planner docstring promises); for plain queries the Distinct is
        *absorbed* into the TopK (``distinct=True``) — LIMIT counts
        distinct rows, so dedup cannot be dropped, but fusing it lets the
        engines rank first and dedup only candidate rows instead of
        materializing the entire distinct result below the cutoff.  A bare
        ``LIMIT k`` without ORDER BY compiles to a key-less TopK: pure
        lazy slicing, which the row engine turns into early pipeline exit.
        """
        query = self._query
        if not query.order_by and query.limit is None:
            return root
        distinct = isinstance(root, Distinct)
        if distinct:
            root = root.child
        relations = [instance.relation for instance in self._instances]
        keys: list[ScalarExpr] = []
        descending: list[bool] = []
        for item in query.order_by:
            position = order_key_position(item.column, query, relations)
            if position is None:
                raise EngineError(
                    f"ORDER BY column {item.column} must appear in the SELECT list"
                )
            keys.append(Col(position, label=str(item.column)))
            descending.append(item.descending)
        return TopK(
            child=root,
            keys=tuple(keys),
            descending=tuple(descending),
            limit=query.limit,
            offset=query.offset,
            strategy=self._topk_strategy(query.limit, query.offset, bool(keys)),
            distinct=distinct,
        )

    def _key_ordered(
        self,
        scan_preds: dict[int, list[Comparison]],
        join_preds: list[tuple[Comparison, set[int]]],
    ) -> TopK | None:
        """The block's ranked root, read in key order; None when the block
        cannot be (:class:`~.plan.KeyOrder`).

        Only a root block that is not grouped, ranks by one selected column
        and has a LIMIT qualifies (the caller rules out subquery
        predicates).  Its join order starts from the ORDER BY column's
        table.  Reading that table in key order pulls about ``(limit +
        offset) * rows / output`` of its rows before the limit fills,
        ``output`` being the join's estimated size, which the greedy order
        ranks in full.  Where the estimates say the ordered read pulls
        more, as behind a join few leading rows find a partner in, or
        where the tree is not of the shape, the block is planned as any
        other.
        """
        query = self._query
        if (
            self._outer is not None
            or len(query.order_by) != 1
            or query.limit is None
            or query.has_aggregates
            or query.group_by
            or query.is_select_star
        ):
            return None
        relations = [instance.relation for instance in self._instances]
        position = order_key_position(query.order_by[0].column, query, relations)
        if position is None:
            return None
        leading = self._instance_for(query.select_items[position])
        if leading is None:
            return None
        order = self._join_order(scan_preds, join_preds, start=leading.from_index)
        # Rows pulled, (limit + offset) * rows / output, against output.
        rows = self._stats.for_relation(leading.relation).row_count
        if (query.limit + query.offset) * rows > self._estimated_rows**2:
            return None
        root = self._ranked(self._projection(*self._join_tree(order, scan_preds, join_preds)))
        return root if _mark_key_order(root, leading.width) else None

    def _topk_strategy(self, limit: int | None, offset: int, has_keys: bool) -> str:
        """Heap vs sort-then-slice, guided by CatalogStatistics estimates.

        A bounded heap pays off when the cutoff is small relative to the
        estimated input (O(n log k) and O(k) live rows vs O(n log n) and a
        full materialized sort); when the cutoff swallows a sizeable
        fraction of the input, one sort is cheaper than heap maintenance.
        Key-less TopKs are pure slices — "heap" marks them lazily bounded.
        """
        if limit is None:
            return "sort"
        if not has_keys:
            return "heap"
        cutoff = limit + offset
        estimated = max(self._estimated_rows, 1.0)
        return "heap" if cutoff * 8 <= estimated else "sort"


def _key_probe(conjuncts: tuple[CompiledComparison, ...]) -> int | None:
    """Position of the first ``col = Param(i)`` that only column-against-
    scalar conjuncts precede; failing that, of the first such
    ``col = Const``; or None.

    The conjuncts of a scan filter each read a column of the scan.  One
    comparing two columns may raise on rows a key index would skip, so the
    search stops there.  A parameter wins: its bucket changes with the
    correlated row, so a correlated block reads one row's share of the
    table per run, where a constant's bucket is the same on every run.
    Fig. 24's inner block ``B.color = 'red' AND R.bid = B.bid`` probes
    ``bid`` and tests ``color`` on that bucket.
    """
    constant = None
    for position, conjunct in enumerate(conjuncts):
        kinds = (type(conjunct.left), type(conjunct.right))
        if kinds.count(Col) != 1:
            break
        if conjunct.op == "=":
            if Param in kinds:
                return position
            if constant is None:
                constant = position
    return constant


def _mark_key_order(root: TopK, width: int) -> bool:
    """Mark ``root`` and its leading scan for a read in key order when its
    tree has :class:`~.plan.KeyOrder`'s shape; whether it did.

    ``width`` is the leading table's: its columns are the first slots of
    the joined rows.
    """
    project = root.child
    key = project.exprs[root.keys[0].slot]
    node = project.child
    joins = []
    while type(node) is HashJoin:
        probe = node.left_keys
        if len(probe) != 1 or probe[0].slot >= width or type(node.right) is not Scan:
            return False
        joins.append((probe[0].slot, node.right.table, node.right_keys[0].slot))
        node = node.left
    filters = []
    scan_filter = None
    if type(node) is Filter:
        scan_filter = node
        for pred in node.predicates:
            if type(pred.left) is type(pred.right):  # two columns
                return False
            column, constant = (
                (pred.left, pred.right) if type(pred.left) is Col else (pred.right, pred.left)
            )
            filters.append((column.slot, constant.value))
        node = node.child
    if type(node) is not Scan or type(key) is not Col or key.slot >= width:
        return False
    if scan_filter is not None:
        # A bucket comes in table order, not key order: the filter tests
        # the ordered rows instead.
        scan_filter.key_probe = None
    node.key_order = (key.slot, root.descending[0])
    root.key_order = KeyOrder(node.table, key.slot, tuple(filters), tuple(reversed(joins)))
    return True


def plan_query(query: SelectQuery, database: Database) -> BlockPlan:
    """Convenience wrapper around :class:`Planner`."""
    return Planner(database).plan(query)
