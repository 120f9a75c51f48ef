"""Logical query plans for the relational engine.

The planner (:mod:`repro.relational.planner`) compiles a
:class:`~repro.sql.ast.SelectQuery` into a tree of the operators defined
here; the rows engine (:mod:`repro.relational.executor`) compiles the tree
into closures over row tuples.  The vocabulary is the classic
relational-algebra set:

* :class:`Scan` — enumerate one table under an alias;
* :class:`Filter` — keep rows satisfying compiled predicates;
* :class:`HashJoin` — equi-join, build side hashed on the key columns;
* :class:`NestedLoopJoin` — theta join / cartesian product fallback;
* :class:`SemiJoin` / :class:`AntiJoin` — decorrelated ``[NOT] IN`` (and the
  equivalent ``= ANY`` / ``<> ALL`` spellings) against a memoized subquery;
* :class:`Project`, :class:`Distinct`, :class:`Aggregate` — the SELECT list,
  set semantics and GROUP BY semantics.

Rows flowing between operators are flat Python tuples.  Every operator
carries its output *frame* implicitly: column references are resolved at
plan time into slot indices (:class:`Col`), literals into :class:`Const`,
and references to enclosing query blocks into :class:`Param` — the formal
parameters of a correlated subquery plan.  A :class:`BlockPlan` packages one
query block: its operator tree, its parameter arity and the row-independent
``prechecks`` that gate the whole block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from .values import Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from typing import Iterator

    from ..sql.ast import SelectQuery


# ---------------------------------------------------------------------- #
# scalar expressions
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Col:
    """A slot index into the operator's input row tuple."""

    slot: int
    label: str = ""

    def __str__(self) -> str:
        return self.label or f"${self.slot}"


@dataclass(frozen=True)
class Const:
    """A literal constant."""

    value: Value

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Param:
    """A formal parameter of a correlated subquery plan."""

    index: int
    label: str = ""

    def __str__(self) -> str:
        return f"?{self.label or self.index}"


ScalarExpr = Union[Col, Const, Param]


@dataclass(frozen=True)
class CompiledComparison:
    """A comparison predicate with both operands resolved."""

    left: ScalarExpr
    op: str
    right: ScalarExpr

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"

    @property
    def is_row_independent(self) -> bool:
        """True when no operand reads the current row (params/consts only)."""
        return not isinstance(self.left, Col) and not isinstance(self.right, Col)


@dataclass(frozen=True)
class SubqueryPred:
    """A subquery predicate over the rows of its block.

    ``kind`` is ``"exists"``, ``"in"`` or ``"quantified"``.  ``param_exprs``
    are evaluated in the *enclosing* frame to produce the actual parameter
    tuple; results are memoized per distinct parameter tuple, so a subquery
    correlated on a low-cardinality outer column is executed only once per
    distinct value rather than once per outer row.

    A subquery that reads no column of the current row
    (:attr:`subquery_reads_row` false) has one result per run of the
    block.  The planner turns such predicates into prechecks or semi-/
    anti-joins where it can; the quantified comparisons left in a
    :class:`Filter` are probed once per block run, not once per row.
    """

    kind: str
    negated: bool
    plan: "BlockPlan"
    param_exprs: tuple[ScalarExpr, ...]
    value_expr: ScalarExpr | None = None  # probed column for in/quantified
    op: str | None = None
    quantifier: str | None = None  # "ANY" | "ALL"

    def __str__(self) -> str:
        if self.kind == "exists":
            text = "EXISTS(...)"
        elif self.kind == "in":
            text = f"{self.value_expr} IN (...)"
        else:
            text = f"{self.value_expr} {self.op} {self.quantifier} (...)"
        return f"NOT {text}" if self.negated else text

    @property
    def subquery_reads_row(self) -> bool:
        """True when a parameter of the subquery is a column of the row."""
        return any(isinstance(e, Col) for e in self.param_exprs)

    @property
    def is_row_independent(self) -> bool:
        value_free = self.value_expr is None or not isinstance(self.value_expr, Col)
        return value_free and not self.subquery_reads_row


Predicate = Union[CompiledComparison, SubqueryPred]


# ---------------------------------------------------------------------- #
# plan operators
# ---------------------------------------------------------------------- #


@dataclass
class PlanNode:
    """Base class for plan operators (gives every node ``describe``)."""

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def walk(self) -> "Iterator[PlanNode]":
        """Pre-order traversal of the subtree rooted at this node.

        Used by backends that compile whole trees at once (the SQL
        lowering) and by tests asserting plan shapes without caring about
        nesting depth.
        """
        yield self
        for child in self.children():
            yield from child.walk()

    def label(self) -> str:
        return type(self).__name__

    def describe(self, indent: int = 0) -> str:
        """EXPLAIN-style rendering of the subtree rooted at this node."""
        lines = [("  " * indent) + self.label()]
        lines.extend(child.describe(indent + 1) for child in self.children())
        return "\n".join(lines)


@dataclass
class Scan(PlanNode):
    """Enumerate all rows of one table under an alias."""

    table: str
    alias: str

    def label(self) -> str:
        if self.alias.lower() == self.table.lower():
            return f"Scan {self.table}"
        return f"Scan {self.table} AS {self.alias}"


@dataclass
class Filter(PlanNode):
    """Keep child rows satisfying every predicate (conjunction)."""

    child: PlanNode
    predicates: tuple[Predicate, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return "Filter " + " AND ".join(str(p) for p in self.predicates)


@dataclass
class HashJoin(PlanNode):
    """Equi-join: hash the right (build) side on its key columns.

    ``left_keys[i]`` must equal ``right_keys[i]`` for a row pair to join;
    ``right_keys`` are slots in the *right* child's own frame.  Output rows
    are ``left_row + right_row``.
    """

    left: PlanNode
    right: PlanNode
    left_keys: tuple[ScalarExpr, ...]
    right_keys: tuple[ScalarExpr, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        pairs = ", ".join(
            f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"HashJoin [{pairs}]"


@dataclass
class NestedLoopJoin(PlanNode):
    """Theta join (or cartesian product when ``predicates`` is empty)."""

    left: PlanNode
    right: PlanNode
    predicates: tuple[Predicate, ...] = ()

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        if not self.predicates:
            return "NestedLoopJoin [cartesian]"
        return "NestedLoopJoin " + " AND ".join(str(p) for p in self.predicates)


@dataclass
class SemiJoin(PlanNode):
    """Keep child rows whose probe value appears in a subquery's result.

    The subquery must be uncorrelated with the current block (its
    ``param_exprs`` may still reference parameters of *enclosing* blocks);
    its single output column is materialized once and probed as a hash set.
    """

    child: PlanNode
    plan: "BlockPlan"
    param_exprs: tuple[ScalarExpr, ...]
    probe: ScalarExpr

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"SemiJoin {self.probe} IN (subquery)"


@dataclass
class AntiJoin(SemiJoin):
    """Keep child rows whose probe value does NOT appear in the subquery."""

    def label(self) -> str:
        return f"AntiJoin {self.probe} NOT IN (subquery)"


@dataclass
class Project(PlanNode):
    """Evaluate the SELECT list expressions for every child row."""

    child: PlanNode
    exprs: tuple[ScalarExpr, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return "Project " + ", ".join(str(e) for e in self.exprs)


@dataclass
class Distinct(PlanNode):
    """Collapse duplicate rows, preserving first-seen order (set semantics)."""

    child: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass
class TopK(PlanNode):
    """Ranked output: ``ORDER BY keys`` then ``LIMIT limit OFFSET offset``.

    ``keys[i]`` is evaluated in the child's output frame; ``descending[i]``
    flips that key's sort direction.  ``limit is None`` means "sort only"
    (a bare ORDER BY).  ``strategy`` is the planner's execution hint:
    ``"heap"`` when ``limit + offset`` is small relative to the estimated
    input (bounded-heap / partial-selection kernels pay off), ``"sort"``
    when the cutoff swallows most of the input anyway and one full sort is
    cheaper than heap maintenance.  Engines are free to ignore the hint —
    it never changes the result, only how it is computed.

    ``distinct`` fuses set-semantics dedup into the operator: the planner
    replaces ``TopK(Distinct(x))`` with ``TopK(x, distinct=True)`` so
    engines can rank *before* deduplicating — the bounded heap dedups only
    among its resident rows, and the columnar kernel ranks raw column
    vectors and dedups just the top candidates, instead of every engine
    first materializing the full distinct result only to throw away all
    but k rows of it.

    Ties on the key tuple are broken arbitrarily (engines differ); the
    differential harness compares ranked results up to tie groups.
    """

    child: PlanNode
    keys: tuple[ScalarExpr, ...]
    descending: tuple[bool, ...]
    limit: int | None = None
    offset: int = 0
    strategy: str = "heap"  # "heap" | "sort"
    distinct: bool = False

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(
            f"{key}{' DESC' if desc else ''}"
            for key, desc in zip(self.keys, self.descending)
        )
        text = f"TopK [{keys}]"
        if self.distinct:
            text += " distinct"
        if self.limit is not None:
            text += f" limit={self.limit}"
            if self.offset:
                text += f" offset={self.offset}"
        return f"{text} strategy={self.strategy}"


@dataclass
class Aggregate(PlanNode):
    """GROUP BY + aggregate evaluation (Appendix C.3 extension).

    ``items`` mirrors the SELECT list: ``("col", expr)`` entries are grouped
    columns evaluated on the group's first row; ``("agg", func, expr)``
    entries apply ``func`` over the expression's values within the group
    (``expr is None`` for ``COUNT(*)``).  Groups are emitted in first-seen
    order, matching the reference executor.
    """

    child: PlanNode
    group_exprs: tuple[ScalarExpr, ...]
    items: tuple[tuple, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(str(e) for e in self.group_exprs)
        return f"Aggregate [group by {keys}]" if keys else "Aggregate [global]"


# ---------------------------------------------------------------------- #
# block plans
# ---------------------------------------------------------------------- #


@dataclass
class BlockPlan:
    """The compiled plan of one query block.

    ``ast`` is the source block and doubles as the subquery-memoization
    cache key (AST nodes are frozen, hashable dataclasses); ``prechecks``
    are row-independent predicates evaluated once per invocation, before
    any table is scanned — the planner routes predicates that reference
    only enclosing blocks (or only constants) here.
    """

    ast: "SelectQuery"
    root: PlanNode
    columns: tuple[str, ...]
    n_params: int = 0
    param_labels: tuple[str, ...] = ()
    prechecks: tuple[Predicate, ...] = field(default_factory=tuple)
    #: Parameter index assigned to each free-column occurrence, in resolution
    #: order.  Part of the subquery memoization key: two plans compiled from
    #: the same AST under different enclosing blocks share cached results
    #: only when their free columns collapsed onto parameters the same way.
    param_shape: tuple[int, ...] = ()
    #: The rows engine's compiled form of this plan, built on its first
    #: run.  It lives and dies with the plan, so it is dropped whenever the
    #: execution context drops its plans.
    compiled: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def cache_key(self) -> tuple:
        """Stable identity of this plan's *semantics* across recompiles.

        ``BlockPlan`` itself is mutable (and therefore unhashable); the
        frozen source AST plus the parameter shape pin down what the plan
        computes.  Both the context's subquery memo and the SQL backend's
        lowering cache key on this.
        """
        return (self.ast, self.param_shape)

    def describe(self) -> str:
        """EXPLAIN-style rendering of the whole block plan."""
        lines = []
        if self.n_params:
            lines.append(f"Params: {', '.join(self.param_labels)}")
        for pred in self.prechecks:
            lines.append(f"Precheck: {pred}")
        lines.append(self.root.describe())
        return "\n".join(lines)
