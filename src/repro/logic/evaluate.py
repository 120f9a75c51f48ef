"""First-order-logic evaluation of a Logic Tree over a database.

This module gives the Logic Tree independent semantics so that the
translation (SQL → LT) and the simplification (∄∄ → ∀∃) can be verified
against ground truth: for any supported query and any database, executing the
SQL with :mod:`repro.relational.executor` and evaluating its Logic Tree here
must produce the same result set.

Node semantics (environment ``env`` binds the tables of all ancestors):

* ``∃``  node: ∃ rows for the node's tables such that all predicates hold and
  all children hold;
* ``∄``  node: no such rows exist;
* ``∀``  node: for all rows of the node's tables, *if* the predicates hold
  then all children hold (the implication form produced by the De Morgan
  rewrite in :mod:`repro.logic.simplify`);
* the root node: enumerate rows of its tables where predicates and children
  hold, and project the SELECT list (set semantics; the GROUP BY extension
  aggregates per group).
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from ..relational.aggregates import apply_aggregate
from ..relational.database import Database, Relation, Row
from ..relational.executor import ResultSet
from ..relational.resolve import match_column
from ..relational.values import Value, compare
from ..sql.ast import AggregateCall, ColumnRef, Comparison, Literal, Star
from .errors import EvaluationError
from .logic_tree import LogicTree, LogicTreeNode, Quantifier

Environment = dict[str, tuple[Relation, Row]]


def evaluate_logic_tree(tree: LogicTree, database: Database) -> ResultSet:
    """Evaluate ``tree`` over ``database`` and return its result set."""
    evaluator = _LogicTreeEvaluator(tree, database)
    return evaluator.run()


class _LogicTreeEvaluator:
    def __init__(self, tree: LogicTree, database: Database) -> None:
        self._tree = tree
        self._db = database

    # ------------------------------------------------------------------ #
    # root evaluation
    # ------------------------------------------------------------------ #

    def run(self) -> ResultSet:
        root = self._tree.root
        matches = [
            env
            for env in self._bindings(root, {})
            if self._predicates_hold(root, env) and self._children_hold(root, env)
        ]
        columns = tuple(str(item) for item in self._tree.select_items)
        if self._tree.group_by or any(
            isinstance(item, AggregateCall) for item in self._tree.select_items
        ):
            rows = self._grouped_rows(matches)
        else:
            rows = self._plain_rows(matches)
        return ResultSet(columns=columns, rows=tuple(rows))

    def _plain_rows(self, matches: list[Environment]) -> list[tuple[Value, ...]]:
        seen: set[tuple[Value, ...]] = set()
        rows: list[tuple[Value, ...]] = []
        for env in matches:
            row = tuple(
                self._resolve(item, env)
                for item in self._tree.select_items
                if isinstance(item, ColumnRef)
            )
            if row not in seen:
                seen.add(row)
                rows.append(row)
        return rows

    def _grouped_rows(self, matches: list[Environment]) -> list[tuple[Value, ...]]:
        groups: dict[tuple[Value, ...], list[Environment]] = {}
        order: list[tuple[Value, ...]] = []
        for env in matches:
            key = tuple(self._resolve(column, env) for column in self._tree.group_by)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(env)
        rows: list[tuple[Value, ...]] = []
        for key in order:
            envs = groups[key]
            row: list[Value] = []
            for item in self._tree.select_items:
                if isinstance(item, ColumnRef):
                    row.append(self._resolve(item, envs[0]))
                elif isinstance(item, AggregateCall):
                    if isinstance(item.argument, Star):
                        row.append(apply_aggregate("COUNT", [1] * len(envs)))
                    else:
                        values = [self._resolve(item.argument, env) for env in envs]
                        row.append(apply_aggregate(item.func, values))
                else:
                    raise EvaluationError(f"unexpected select item {item!r}")
            rows.append(tuple(row))
        return rows

    # ------------------------------------------------------------------ #
    # node semantics
    # ------------------------------------------------------------------ #

    def _node_holds(self, node: LogicTreeNode, outer: Environment) -> bool:
        if node.quantifier is Quantifier.EXISTS:
            return any(
                self._predicates_hold(node, env) and self._children_hold(node, env)
                for env in self._bindings(node, outer)
            )
        if node.quantifier is Quantifier.NOT_EXISTS:
            return not any(
                self._predicates_hold(node, env) and self._children_hold(node, env)
                for env in self._bindings(node, outer)
            )
        if node.quantifier is Quantifier.FOR_ALL:
            return all(
                self._children_hold(node, env)
                for env in self._bindings(node, outer)
                if self._predicates_hold(node, env)
            )
        raise EvaluationError("only the root node may have no quantifier")

    def _children_hold(self, node: LogicTreeNode, env: Environment) -> bool:
        return all(self._node_holds(child, env) for child in node.children)

    def _predicates_hold(self, node: LogicTreeNode, env: Environment) -> bool:
        return all(self._comparison_holds(p, env) for p in node.predicates)

    def _comparison_holds(self, predicate: Comparison, env: Environment) -> bool:
        left = self._operand(predicate.left, env)
        right = self._operand(predicate.right, env)
        return compare(left, predicate.op, right)

    # ------------------------------------------------------------------ #
    # bindings and resolution
    # ------------------------------------------------------------------ #

    def _bindings(
        self, node: LogicTreeNode, outer: Environment
    ) -> Iterator[Environment]:
        relations = [self._db.relation(table.name) for table in node.tables]
        aliases = [table.effective_alias.lower() for table in node.tables]
        for combination in product(*(relation.rows for relation in relations)):
            env = dict(outer)
            for alias, relation, row in zip(aliases, relations, combination):
                env[alias] = (relation, row)
            yield env

    def _operand(self, operand: ColumnRef | Literal, env: Environment) -> Value:
        if isinstance(operand, Literal):
            return operand.value
        return self._resolve(operand, env)

    def _resolve(self, column: ColumnRef, env: Environment) -> Value:
        if column.table is not None:
            binding = env.get(column.table.lower())
            if binding is None:
                raise EvaluationError(f"unbound table alias {column.table!r}")
            relation, row = binding
            position = match_column(relation, column.column)
            if position is None:
                raise EvaluationError(
                    f"table {column.table} has no column {column.column!r}"
                )
            return row[position]
        matches: list[Value] = []
        for relation, row in env.values():
            position = match_column(relation, column.column)
            if position is not None:
                matches.append(row[position])
        if len(matches) != 1:
            raise EvaluationError(
                f"unqualified column {column.column!r} resolves to {len(matches)} tables"
            )
        return matches[0]
