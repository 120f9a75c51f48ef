"""Lowering compiled plan trees to parameterized SQLite SQL.

Every :class:`~repro.relational.plan.PlanNode` lowers to a complete
``SELECT`` whose output columns are positional (``c0 .. c{n-1}``); parents
embed children as derived tables under generated aliases (``t1, t2, ...``).
Constants never appear inline — each becomes a named parameter
(``:p0, :p1, ...``) collected into a bind dictionary, so the generated SQL
is injection-free and cacheable per plan.

Node-by-node lowering rules (documented in ``docs/sql_backend.md``):

=================  ====================================================
``Scan``           ``SELECT t."col" AS c0, ... FROM "Table" AS t``
``Filter``         ``SELECT * FROM (child) t WHERE p1 AND p2 ...``
``HashJoin``       ``... FROM (l) a JOIN (r) b ON a.k = b.k ...``
``NestedLoopJoin`` same shape, arbitrary predicates in ``ON`` (or ``1``)
``SemiJoin``       ``WHERE probe IN (subquery)``
``AntiJoin``       ``WHERE probe NOT IN (subquery)`` (no NULLs → safe)
``Project``        ``SELECT e0 AS c0, ... FROM (child) t``
``Distinct``       ``SELECT DISTINCT * FROM (child) t``
``TopK``           ``SELECT * FROM (child) t ORDER BY k1 [DESC], ...
                   LIMIT :p OFFSET :q`` (both bound, never inlined)
``Aggregate``      ``SELECT items FROM (child) t [GROUP BY ...]``; a
                   *global* aggregate gains ``HAVING COUNT(*) > 0`` so an
                   empty input yields zero rows like the Python engines
=================  ====================================================

Correlated subqueries re-correlate: a child block's ``Param(i)`` is
substituted with the SQL text of the enclosing frame's ``param_exprs[i]``,
so what the Python engines evaluate via memoized parameter tuples becomes
an ordinary correlated subquery in SQLite.  Quantified comparisons, which
SQLite lacks, rewrite to forms that are correct on empty subqueries.  An
uncorrelated ``S`` under ``<``, ``<=``, ``>`` or ``>=`` becomes one scalar
subquery SQLite runs once: ``v > ANY (S)`` → ``COALESCE(v > (SELECT
MIN(q.c0) FROM (S) q), 0)``, ``v >= ALL (S)`` → ``COALESCE(v >= (SELECT
MAX(q.c0) FROM (S) q), 1)`` (schema-typed columns carry no NULLs, so the
bound is NULL only for an empty ``S``).  ``= ANY`` and ``<> ALL`` become
``IN`` / ``NOT IN``; the rest re-run per outer row as ``v op ANY (S)`` →
``EXISTS(SELECT 1 FROM (S) q WHERE v op q.c0)`` and ``v op ALL (S)`` →
``NOT EXISTS(SELECT 1 FROM (S) q WHERE NOT (v op q.c0))``.

The lowering also propagates a static **type family** (``"num"`` or
``"str"``) per output slot, derived from the schema's declared dtypes.
Cross-family comparisons raise
:class:`~repro.relational.errors.TypeMismatchError` at lowering time —
slightly *earlier* than the row engines, which only raise when a row pair
is actually compared; that timing difference is a documented divergence
affecting only ill-typed queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..errors import EngineError, TypeMismatchError
from ..executor import _SubqueryValues
from ..plan import (
    Aggregate,
    AntiJoin,
    BlockPlan,
    Col,
    CompiledComparison,
    Const,
    Distinct,
    Filter,
    HashJoin,
    NestedLoopJoin,
    Param,
    PlanNode,
    Project,
    Scan,
    SemiJoin,
    SubqueryPred,
    TopK,
)
from ..values import OPERATORS, value_family
from .store import quote_identifier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..database import Database

_FAMILY_NAMES = {"num": "numeric", "str": "string"}


@dataclass(frozen=True)
class LoweredQuery:
    """One plan lowered to executable SQL plus its bound constants."""

    sql: str
    binds: dict
    columns: tuple[str, ...]
    families: tuple[str, ...]

    def describe(self) -> str:
        """The SQL with its binds, for ``explain --engine sql`` output."""
        lines = [self.sql]
        for name in sorted(self.binds, key=lambda n: int(n.lstrip("p"))):
            lines.append(f"--   :{name} = {self.binds[name]!r}")
        return "\n".join(lines)


#: A lowered relation: its SELECT text plus per-slot type families.
@dataclass(frozen=True)
class _Rel:
    sql: str
    families: tuple[str, ...]


#: The visible frame predicates/exprs render against: (alias, families)
#: segments, concatenated left-to-right like the engines' flat row tuples.
_Frame = list

#: Rendered actual parameters of a child block: (sql, family) per index.
_Params = list


class _Lowering:
    """One lowering pass: owns the alias counter and the bind dictionary."""

    def __init__(self, database: "Database") -> None:
        self._db = database
        self._alias_count = 0
        self.binds: dict = {}

    # -- helpers -------------------------------------------------------- #

    def _alias(self) -> str:
        self._alias_count += 1
        return f"t{self._alias_count}"

    def _bind(self, value) -> str:
        name = f"p{len(self.binds)}"
        self.binds[name] = value
        return f":{name}"

    # -- scalar expressions --------------------------------------------- #

    def _expr(self, expr, frame: _Frame, params: _Params) -> tuple[str, str]:
        """Render a scalar expression; returns ``(sql, family)``."""
        if type(expr) is Col:
            offset = expr.slot
            for alias, families in frame:
                if offset < len(families):
                    return f"{alias}.c{offset}", families[offset]
                offset -= len(families)
            raise EngineError(f"column slot {expr.slot} escapes the frame")
        if type(expr) is Const:
            return self._bind(expr.value), value_family(expr.value)
        if type(expr) is Param:
            if expr.index >= len(params):
                raise EngineError(
                    f"unbound correlated parameter {expr} in lowered plan"
                )
            return params[expr.index]
        raise EngineError(f"unsupported scalar expression: {expr!r}")

    # -- predicates ----------------------------------------------------- #

    def _pred(self, pred, frame: _Frame, params: _Params) -> str:
        if type(pred) is CompiledComparison:
            if pred.op not in OPERATORS:
                raise EngineError(f"unsupported operator {pred.op!r}")
            left_sql, left_family = self._expr(pred.left, frame, params)
            right_sql, right_family = self._expr(pred.right, frame, params)
            self._check_families(left_family, right_family, pred)
            return f"{left_sql} {pred.op} {right_sql}"
        return self._subquery_pred(pred, frame, params)

    @staticmethod
    def _check_families(left: str, right: str, what) -> None:
        if left != right:
            raise TypeMismatchError(
                f"cannot compare {_FAMILY_NAMES[left]} with "
                f"{_FAMILY_NAMES[right]} values in {what}"
            )

    def _subquery_pred(
        self, pred: SubqueryPred, frame: _Frame, params: _Params
    ) -> str:
        child_params: _Params = [
            self._expr(expr, frame, params) for expr in pred.param_exprs
        ]
        sub = self.block(pred.plan, child_params)
        if pred.kind == "exists":
            text = f"EXISTS ({sub.sql})"
            return f"NOT {text}" if pred.negated else text
        if len(sub.families) != 1:
            raise EngineError(
                "IN / ANY / ALL subqueries must return exactly one column, "
                f"got {len(sub.families)}"
            )
        value_sql, value_family = self._expr(pred.value_expr, frame, params)
        self._check_families(value_family, sub.families[0], pred)
        if pred.kind == "in":
            text = f"{value_sql} IN ({sub.sql})"
        else:
            text = self._quantified(
                value_sql, pred.op, pred.quantifier, sub, not pred.param_exprs
            )
        return f"NOT ({text})" if pred.negated else text

    def _quantified(
        self, value_sql: str, op: str, quantifier: str, sub: _Rel, uncorrelated: bool
    ) -> str:
        """Rewrite ANY/ALL (absent from SQLite) into forms SQLite runs.

        An uncorrelated subquery under an ordered operator becomes one
        scalar subquery over its min or max, which SQLite evaluates once:
        schema-typed columns carry no NULLs, so the bound is NULL exactly
        when the result is empty, and ``COALESCE`` answers that case.  The
        other shapes rewrite to ``EXISTS`` forms, re-run per outer row.
        Every form is correct on an empty subquery result: ``ANY`` over
        nothing is false, ``ALL`` over nothing is true.
        """
        if op not in OPERATORS:
            raise EngineError(f"unsupported operator {op!r}")
        if quantifier == "ANY" and op == "=":
            return f"{value_sql} IN ({sub.sql})"
        if quantifier == "ALL" and op == "<>":
            return f"{value_sql} NOT IN ({sub.sql})"
        alias = self._alias()
        end = _SubqueryValues.DECIDING_END.get((op, quantifier))
        if uncorrelated and end is not None:
            empty = 1 if quantifier == "ALL" else 0
            return (
                f"COALESCE({value_sql} {op} (SELECT {end.upper()}({alias}.c0) "
                f"FROM ({sub.sql}) AS {alias}), {empty})"
            )
        if quantifier == "ANY":
            return (
                f"EXISTS (SELECT 1 FROM ({sub.sql}) AS {alias} "
                f"WHERE {value_sql} {op} {alias}.c0)"
            )
        return (
            f"NOT EXISTS (SELECT 1 FROM ({sub.sql}) AS {alias} "
            f"WHERE NOT ({value_sql} {op} {alias}.c0))"
        )

    # -- plan nodes ----------------------------------------------------- #

    def _node(self, node: PlanNode, params: _Params) -> _Rel:
        handler = _NODE_LOWERINGS.get(type(node))
        if handler is None:
            raise EngineError(f"unsupported plan node: {type(node).__name__}")
        return handler(self, node, params)

    def _scan(self, node: Scan, params: _Params) -> _Rel:
        relation = self._db.relation(node.table)
        families = tuple(
            "num" if dtype in ("int", "float") else "str"
            for dtype in self._db.dtypes(node.table)
        )
        alias = self._alias()
        select_list = ", ".join(
            f"{alias}.{quote_identifier(column)} AS c{index}"
            for index, column in enumerate(relation.columns)
        )
        return _Rel(
            f"SELECT {select_list} "
            f"FROM {quote_identifier(relation.name)} AS {alias}",
            families,
        )

    def _filter(self, node: Filter, params: _Params) -> _Rel:
        child = self._node(node.child, params)
        alias = self._alias()
        frame: _Frame = [(alias, child.families)]
        conditions = " AND ".join(
            self._pred(pred, frame, params) for pred in node.predicates
        )
        return _Rel(
            f"SELECT * FROM ({child.sql}) AS {alias} WHERE {conditions}",
            child.families,
        )

    def _join_select_list(
        self, left_alias: str, left: _Rel, right_alias: str, right: _Rel
    ) -> str:
        width = len(left.families)
        parts = [f"{left_alias}.c{i} AS c{i}" for i in range(width)]
        parts.extend(
            f"{right_alias}.c{j} AS c{width + j}"
            for j in range(len(right.families))
        )
        return ", ".join(parts)

    def _hash_join(self, node: HashJoin, params: _Params) -> _Rel:
        left = self._node(node.left, params)
        right = self._node(node.right, params)
        left_alias, right_alias = self._alias(), self._alias()
        left_frame: _Frame = [(left_alias, left.families)]
        right_frame: _Frame = [(right_alias, right.families)]
        conditions = []
        for left_key, right_key in zip(node.left_keys, node.right_keys):
            left_sql, left_family = self._expr(left_key, left_frame, params)
            right_sql, right_family = self._expr(right_key, right_frame, params)
            self._check_families(left_family, right_family, node.label())
            conditions.append(f"{left_sql} = {right_sql}")
        return _Rel(
            f"SELECT {self._join_select_list(left_alias, left, right_alias, right)} "
            f"FROM ({left.sql}) AS {left_alias} "
            f"JOIN ({right.sql}) AS {right_alias} "
            f"ON {' AND '.join(conditions)}",
            left.families + right.families,
        )

    def _nested_loop(self, node: NestedLoopJoin, params: _Params) -> _Rel:
        left = self._node(node.left, params)
        right = self._node(node.right, params)
        left_alias, right_alias = self._alias(), self._alias()
        frame: _Frame = [(left_alias, left.families), (right_alias, right.families)]
        conditions = " AND ".join(
            self._pred(pred, frame, params) for pred in node.predicates
        )
        return _Rel(
            f"SELECT {self._join_select_list(left_alias, left, right_alias, right)} "
            f"FROM ({left.sql}) AS {left_alias} "
            f"JOIN ({right.sql}) AS {right_alias} "
            f"ON {conditions or '1'}",
            left.families + right.families,
        )

    def _semi_join(self, node: SemiJoin, params: _Params) -> _Rel:
        child = self._node(node.child, params)
        alias = self._alias()
        frame: _Frame = [(alias, child.families)]
        probe_sql, probe_family = self._expr(node.probe, frame, params)
        # param_exprs are row-independent by the SemiJoin contract (they
        # reference enclosing blocks only), so they render frame-free.
        child_params: _Params = [
            self._expr(expr, [], params) for expr in node.param_exprs
        ]
        sub = self.block(node.plan, child_params)
        if len(sub.families) != 1:  # pragma: no cover - planner guarantees
            raise EngineError("semi-join subquery must return exactly one column")
        self._check_families(probe_family, sub.families[0], node.label())
        membership = "NOT IN" if type(node) is AntiJoin else "IN"
        return _Rel(
            f"SELECT * FROM ({child.sql}) AS {alias} "
            f"WHERE {probe_sql} {membership} ({sub.sql})",
            child.families,
        )

    def _project(self, node: Project, params: _Params) -> _Rel:
        child = self._node(node.child, params)
        alias = self._alias()
        frame: _Frame = [(alias, child.families)]
        rendered = [self._expr(expr, frame, params) for expr in node.exprs]
        select_list = ", ".join(
            f"{sql} AS c{index}" for index, (sql, _) in enumerate(rendered)
        )
        return _Rel(
            f"SELECT {select_list} FROM ({child.sql}) AS {alias}",
            tuple(family for _, family in rendered),
        )

    def _distinct(self, node: Distinct, params: _Params) -> _Rel:
        child = self._node(node.child, params)
        alias = self._alias()
        return _Rel(
            f"SELECT DISTINCT * FROM ({child.sql}) AS {alias}", child.families
        )

    def _topk(self, node: TopK, params: _Params) -> _Rel:
        """Ranked output lowers to native ``ORDER BY … LIMIT``.

        SQLite's own sorter implements the top-k (it switches to a bounded
        sort when LIMIT is present), so the hint in ``node.strategy`` has
        nothing to steer here.  LIMIT/OFFSET become bound parameters like
        every other constant, keeping the SQL text cacheable across k.
        A fused Distinct renders as ``SELECT DISTINCT *`` so SQLite's
        sorter-based dedup composes with the bounded ORDER BY/LIMIT sort.
        """
        child = self._node(node.child, params)
        alias = self._alias()
        frame: _Frame = [(alias, child.families)]
        select = "SELECT DISTINCT *" if node.distinct else "SELECT *"
        sql = f"{select} FROM ({child.sql}) AS {alias}"
        if node.keys:
            keys = ", ".join(
                f"{self._expr(key, frame, params)[0]}{' DESC' if desc else ''}"
                for key, desc in zip(node.keys, node.descending)
            )
            sql += f" ORDER BY {keys}"
        if node.limit is not None:
            sql += f" LIMIT {self._bind(node.limit)}"
            if node.offset:
                sql += f" OFFSET {self._bind(node.offset)}"
        return _Rel(sql, child.families)

    def _aggregate(self, node: Aggregate, params: _Params) -> _Rel:
        child = self._node(node.child, params)
        alias = self._alias()
        frame: _Frame = [(alias, child.families)]
        group_sqls = [
            self._expr(expr, frame, params)[0] for expr in node.group_exprs
        ]
        parts: list[str] = []
        families: list[str] = []
        for index, item in enumerate(node.items):
            if item[0] == "col":
                sql, family = self._expr(item[1], frame, params)
            else:
                _, func, expr = item
                func = func.upper()
                if expr is None:
                    sql, family = "COUNT(*)", "num"
                else:
                    arg_sql, arg_family = self._expr(expr, frame, params)
                    if func in ("SUM", "AVG") and arg_family != "num":
                        raise TypeMismatchError(
                            f"{func} over non-numeric values is not well-typed"
                        )
                    sql = f"{func}({arg_sql})"
                    family = "num" if func in ("COUNT", "SUM", "AVG") else arg_family
            parts.append(f"{sql} AS c{index}")
            families.append(family)
        sql = f"SELECT {', '.join(parts)} FROM ({child.sql}) AS {alias}"
        if group_sqls:
            sql += f" GROUP BY {', '.join(group_sqls)}"
        else:
            # The Python engines produce *zero* rows for a global aggregate
            # over empty input (no group ever forms); SQL produces one.
            # Normalize the divergence away — it is cheap and total.
            sql += " HAVING COUNT(*) > 0"
        return _Rel(sql, tuple(families))

    # -- blocks --------------------------------------------------------- #

    def block(self, plan: BlockPlan, params: _Params) -> _Rel:
        """Lower one block: its operator tree gated by its prechecks."""
        rel = self._node(plan.root, params)
        if plan.prechecks:
            alias = self._alias()
            frame: _Frame = [(alias, rel.families)]
            conditions = " AND ".join(
                self._pred(pred, frame, params) for pred in plan.prechecks
            )
            # Prechecks are row-independent, so gating every row of the
            # block's output is equivalent to gating the block once.
            rel = _Rel(
                f"SELECT * FROM ({rel.sql}) AS {alias} WHERE {conditions}",
                rel.families,
            )
        return rel


_NODE_LOWERINGS: dict[type, Callable[[_Lowering, PlanNode, _Params], _Rel]] = {
    Scan: _Lowering._scan,
    Filter: _Lowering._filter,
    HashJoin: _Lowering._hash_join,
    NestedLoopJoin: _Lowering._nested_loop,
    SemiJoin: _Lowering._semi_join,
    AntiJoin: _Lowering._semi_join,
    Project: _Lowering._project,
    Distinct: _Lowering._distinct,
    Aggregate: _Lowering._aggregate,
    TopK: _Lowering._topk,
}


def lower_query(plan: BlockPlan, database: "Database") -> LoweredQuery:
    """Lower a parameter-free top-level block plan to executable SQL."""
    if plan.n_params:
        raise EngineError(
            "only parameter-free top-level plans can be lowered directly; "
            "correlated blocks are lowered inline by their enclosing query"
        )
    lowering = _Lowering(database)
    rel = lowering.block(plan, [])
    return LoweredQuery(
        sql=rel.sql,
        binds=lowering.binds,
        columns=plan.columns,
        families=rel.families,
    )
