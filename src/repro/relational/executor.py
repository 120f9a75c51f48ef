"""SQL executor for the supported fragment.

The executor evaluates a :class:`~repro.sql.ast.SelectQuery` over a
:class:`~repro.relational.database.Database`.  :class:`ExecutionMode`
selects one of the pluggable engines registered with
:mod:`repro.relational.backends`:

* ``PLANNED`` (default) — the query is compiled by
  :mod:`repro.relational.planner` into a logical plan (predicate pushdown,
  hash equi-joins, semi-/anti-joins for decorrelated ``[NOT] IN``, memoized
  correlated subqueries) and each plan is compiled once into closures
  that stream flat row tuples.  Lives in this module.
* ``COLUMNAR`` — the same compiled plan interpreted batch-at-a-time by the
  vectorized backend (:mod:`repro.relational.columnar`): column-major
  storage, selection-vector filters, cardinality-chosen hash-join build
  sides.  Fastest on large databases; results are identical sets.
* ``SQL`` — the plan lowered to parameterized SQL text and executed on
  stdlib ``sqlite3`` (:mod:`repro.relational.sqlbackend`): an
  *independent* engine implementation, which is what gives the
  differential suite real adversarial power.
* ``NAIVE`` — the original nested-loop reference semantics: the FROM clause
  enumerates the cartesian product of its tables; WHERE predicates are
  evaluated per combination, with correlated subqueries receiving the outer
  bindings through an environment of scopes.  This path is kept as the
  ground-truth oracle for differential testing of the planner.

All modes implement the same fragment: ``EXISTS`` / ``IN`` / ``ANY`` /
``ALL`` follow standard SQL semantics restricted to 2-valued logic (no
NULLs); the result uses *set semantics* (duplicate result tuples are
collapsed) unless the query carries aggregates, in which case GROUP BY
semantics apply (Appendix C.3 extension).  The modes return identical
``as_set()`` results; only the tuple enumeration order may differ
(documented edge divergences live in ``docs/sql_backend.md``).

Compiled plans, materialized scans, subquery results and per-backend state
are cached on an :class:`ExecutionContext`.  An :class:`Executor` keeps
one context for its whole life, so a workload run through it
(:meth:`Executor.run`) plans each distinct query once, loads each table
once and evaluates each distinct subquery once across all its queries.
"""

from __future__ import annotations

import enum
import heapq
import operator
from dataclasses import dataclass, field, replace
from itertools import compress, count, islice
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .columnar import ColumnarTable

from ..sql.ast import (
    AggregateCall,
    ColumnRef,
    Comparison,
    Exists,
    FLIPPED_OP,
    InSubquery,
    Literal,
    Predicate,
    QuantifiedComparison,
    SelectQuery,
    Star,
)
from ..sql.parser import parse
from ..faults import fault_point
from .aggregates import apply_aggregate
from .backends import ExecutionBackend, backend_for, register_backend, with_fallback
from .database import Database, Relation, Row
from .errors import (
    AmbiguousColumnError,
    EngineError,
    TypeMismatchError,
    UnknownColumnError,
)
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
    NestedLoopJoin,
    PlanNode,
    Project,
    ScalarExpr,
    Scan,
    SemiJoin,
    SubqueryPred,
    TopK,
)
from .planner import Planner
from .resolve import match_column as _match_column
from .resolve import matches_group_key, order_key_position, result_columns
from .values import OPERATORS, OrderKey, Value, compare, value_family


class ExecutionMode(enum.Enum):
    """How queries are evaluated: rows, columnar, lowered SQL or the oracle."""

    NAIVE = "naive"
    PLANNED = "planned"
    COLUMNAR = "columnar"
    SQL = "sql"


@dataclass(frozen=True, slots=True)
class ResultSet:
    """The result of executing a query: column labels plus result rows."""

    columns: tuple[str, ...]
    rows: tuple[tuple[Value, ...], ...]
    #: Cache for :meth:`as_set`.  A real (non-init, non-compare) field so
    #: the cache works with ``slots=True`` and never leaks into equality
    #: or repr; writes go through ``object.__setattr__`` because the
    #: dataclass is frozen.
    _row_set: frozenset | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def as_set(self) -> frozenset[tuple[Value, ...]]:
        """The rows as a set (the comparison used in equivalence checks).

        The frozenset is computed once and cached, so repeated equivalence
        checks and ``in`` tests don't rebuild it.
        """
        cached = self._row_set
        if cached is None:
            cached = frozenset(self.rows)
            object.__setattr__(self, "_row_set", cached)
        return cached

    def __reduce__(self):
        # Pickle only the payload: the cache is derivable, and dropping it
        # keeps a pickled result compact and independent of whether
        # as_set() happened to have been called.
        return (type(self), (self.columns, self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: tuple[Value, ...]) -> bool:
        # Set semantics: containment is membership in the row *set*, not a
        # linear scan of the tuple (the two agree because rows are deduped,
        # but the set probe is O(1)).
        return row in self.as_set()


# ---------------------------------------------------------------------- #
# shared execution context (caches + statistics)
# ---------------------------------------------------------------------- #


@dataclass
class ExecutionStats:
    """Counters for the context's caches (useful for batch diagnostics)."""

    # Top-level queries run through every executor sharing the context.
    queries: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    subquery_hits: int = 0
    subquery_misses: int = 0
    scan_hits: int = 0
    scan_misses: int = 0
    # Rows the data mirrors (scan tuples, columnar tables, sqlite store)
    # took in by appending after an insert; the misses above count only
    # full builds.
    rows_appended: int = 0
    # SQL backend: in-memory store (re)builds and lowering-cache traffic.
    sql_store_builds: int = 0
    sql_lower_hits: int = 0
    sql_lower_misses: int = 0
    # Ranked output: rows consumed by TopK operators vs the peak number of
    # rows any single TopK kept resident.  The gap between the two is the
    # non-materialization guarantee — a bounded-heap `LIMIT 10` over a
    # million-row join shows topk_input_rows in the millions while
    # topk_held_rows stays at 10.
    topk_input_rows: int = 0
    topk_held_rows: int = 0
    # Graceful degradation (only moves under a FallbackBackend): queries
    # re-executed on the fallback engine, executions that skipped a
    # primary outright because its breaker was open, and the last
    # observed breaker state per wrapped engine.
    fallbacks: int = 0
    breaker_skips: int = 0
    breaker_state: dict[str, str] = field(default_factory=dict)

    def snapshot(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "subquery_hits": self.subquery_hits,
            "subquery_misses": self.subquery_misses,
            "scan_hits": self.scan_hits,
            "scan_misses": self.scan_misses,
            "sql_store_builds": self.sql_store_builds,
            "rows_appended": self.rows_appended,
            "sql_lower_hits": self.sql_lower_hits,
            "sql_lower_misses": self.sql_lower_misses,
            "topk_input_rows": self.topk_input_rows,
            "topk_held_rows": self.topk_held_rows,
            "fallbacks": self.fallbacks,
            "breaker_skips": self.breaker_skips,
        }

    def describe(self) -> str:
        """One line of query count and cache hit rates."""
        text = (
            f"{self.queries} queries: "
            f"plans {self.plan_hits}/{self.plan_hits + self.plan_misses} cached, "
            f"subqueries {self.subquery_hits}/"
            f"{self.subquery_hits + self.subquery_misses} cached, "
            f"scans {self.scan_hits}/{self.scan_hits + self.scan_misses} cached"
        )
        if self.sql_lower_hits or self.sql_lower_misses:
            text += (
                f", lowerings {self.sql_lower_hits}/"
                f"{self.sql_lower_hits + self.sql_lower_misses} cached "
                f"({self.sql_store_builds} sqlite load"
                f"{'s' if self.sql_store_builds != 1 else ''})"
            )
        return text


class ExecutionContext:
    """Caches shared by planned executions over one database.

    * **plan cache** — query AST → compiled :class:`~.plan.BlockPlan`;
    * **scan cache** — materialized row tuples per relation;
    * **columnar cache** — :class:`~.columnar.ColumnarTable` per relation;
    * **subquery cache** — subquery AST + parameter values → result, shared
      across queries so a batch re-evaluates each distinct subquery once;
    * **backend state** — one opaque bucket per registered backend (the SQL
      backend's sqlite store + lowering cache live here).

    Plans and subquery results are dropped whenever the database grows.
    The scan and columnar caches and the sqlite store are data *mirrors*:
    they survive inserts, record how many rows of each table they hold,
    and append the new rows when next read.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self.stats = ExecutionStats()
        self._planner = Planner(database)
        self._plans: dict[SelectQuery, BlockPlan] = {}
        self._scans: dict[str, list[tuple[Value, ...]]] = {}
        self._columnar: dict[str, "ColumnarTable"] = {}
        self._subqueries: dict[tuple, object] = {}
        self._backend_state: dict[str, object] = {}
        self._version = database.total_rows()

    def refresh(self) -> None:
        """Drop plans and subquery results if the database grew since last use.

        Called at every top-level execution.  Plans go because join orders
        are cardinality-guided, so a plan compiled against yesterday's row
        counts may be arbitrarily bad against today's.  The data mirrors
        stay and catch up per table on their next read.  This relies on
        the :class:`~.database.Database` API being append-only: in-place
        mutation of existing rows is not detected.
        """
        version = self.database.total_rows()
        if version != self._version:
            self._version = version
            self._plans.clear()
            self._subqueries.clear()

    def backend_state(self, key: str, factory: Callable[[], object]) -> object:
        """Per-backend state bucket, kept for the life of the context.

        ``key`` namespaces one backend (conventionally its mode value);
        ``factory`` builds the initial state on first use.  Anything a
        backend parks here must keep itself current as the database
        grows: the SQL backend appends new rows to its sqlite store and
        re-lowers a query whenever the context recompiles its plan.
        """
        state = self._backend_state.get(key)
        if state is None:
            state = factory()
            self._backend_state[key] = state
        return state

    # -- plans ---------------------------------------------------------- #

    def plan(self, query: SelectQuery) -> BlockPlan:
        plan = self._plans.get(query)
        if plan is None:
            self.stats.plan_misses += 1
            plan = self._planner.plan(query)
            self._plans[query] = plan
        else:
            self.stats.plan_hits += 1
        return plan

    # -- scans ---------------------------------------------------------- #

    def scan_rows(self, relation: Relation) -> list[tuple[Value, ...]]:
        """Rows of ``relation`` as flat tuples, extended as the table grows."""
        key = relation.name.lower()
        rows = relation.rows
        cached = self._scans.get(key)
        if cached is not None and len(cached) == len(rows):
            self.stats.scan_hits += 1
            return cached
        columns = relation.columns
        if cached is not None and len(cached) < len(rows):
            self.stats.rows_appended += len(rows) - len(cached)
            cached.extend(
                tuple(row[c] for c in columns) for row in rows[len(cached):]
            )
            return cached
        self.stats.scan_misses += 1
        cached = [tuple(row[c] for c in columns) for row in rows]
        self._scans[key] = cached
        return cached

    def columnar_table(self, relation: Relation) -> "ColumnarTable":
        """The relation loaded column-major, extended as the table grows."""
        key = relation.name.lower()
        count = len(relation.rows)
        table = self._columnar.get(key)
        if table is not None and table.nrows == count:
            self.stats.scan_hits += 1
            return table
        if table is not None and table.nrows < count:
            self.stats.rows_appended += count - table.nrows
            table.extend(relation)
            return table
        from .columnar import ColumnarTable

        self.stats.scan_misses += 1
        table = ColumnarTable.from_relation(relation)
        self._columnar[key] = table
        return table

    # -- subqueries ------------------------------------------------------ #
    #
    # ``runner`` evaluates a block plan's operator tree and returns its row
    # tuples; ``None`` selects the row pipeline.  The columnar backend
    # passes its own runner so nested blocks run columnar too.  Results are
    # engine-independent (the differential suite asserts it), so both
    # engines safely share one memo table.

    def _run_subplan(self, plan: BlockPlan, params: tuple, runner) -> Iterator[tuple]:
        if runner is None:
            return iter(_program(plan).run(self, params))
        return iter(runner(plan, self, params))

    def subquery_exists(
        self,
        plan: BlockPlan,
        params: tuple[Value, ...],
        runner: Callable[..., list[tuple]] | None = None,
    ) -> bool:
        key = (*plan.cache_key, params, "exists")
        cached = self._subqueries.get(key)
        if cached is None:
            self.stats.subquery_misses += 1
            if _prechecks_pass(plan, self, params):
                cached = next(self._run_subplan(plan, params, runner), None) is not None
            else:
                cached = False
            self._subqueries[key] = cached
        else:
            self.stats.subquery_hits += 1
        return cached

    def subquery_values(
        self,
        plan: BlockPlan,
        params: tuple[Value, ...],
        runner: Callable[..., list[tuple]] | None = None,
    ) -> "_SubqueryValues":
        key = (*plan.cache_key, params, "values")
        cached = self._subqueries.get(key)
        if cached is None:
            self.stats.subquery_misses += 1
            if _prechecks_pass(plan, self, params):
                values = tuple(
                    row[0] for row in self._run_subplan(plan, params, runner)
                )
            else:
                values = ()
            cached = _SubqueryValues(values)
            self._subqueries[key] = cached
        else:
            self.stats.subquery_hits += 1
        return cached


class _SubqueryValues:
    """Materialized single-column subquery result with probe fast paths.

    The value family is classified once on construction: ``"num"``,
    ``"str"``, ``"mixed"`` (both families present) or ``"empty"``.  Probing
    a non-empty result with a value of the other family, or probing a
    mixed-family result with anything, raises
    :class:`~.errors.TypeMismatchError` *deterministically* — the check is
    up-front and order-independent, instead of relying on a comparison loop
    whose short-circuit point (and therefore whether it raises at all)
    would depend on the engine-specific enumeration order of the subquery.
    With the family validated, the set/min/max fast paths are always safe.
    """

    __slots__ = ("values", "family", "_set", "_min", "_max")

    #: For an ordered ``op``, ``v op ANY|ALL (values)`` is ``v op`` one end
    #: of the non-empty values: ``v > ANY`` holds iff ``v > min``, ``v >= ALL``
    #: iff ``v >= max``.  Both Python engines and the SQL lowering read it.
    DECIDING_END = {
        ("<", "ANY"): "max",
        ("<=", "ANY"): "max",
        (">", "ANY"): "min",
        (">=", "ANY"): "min",
        ("<", "ALL"): "min",
        ("<=", "ALL"): "min",
        (">", "ALL"): "max",
        (">=", "ALL"): "max",
    }

    def __init__(self, values: tuple[Value, ...]) -> None:
        self.values = values
        families = {value_family(v) for v in values}
        if not families:
            self.family = "empty"
        elif len(families) == 1:
            self.family = families.pop()
        else:
            self.family = "mixed"
        self._set: frozenset | None = None
        self._min: Value | None = None
        self._max: Value | None = None

    def _check(self, value: Value) -> None:
        """Validate the probe's family (values are known non-empty here)."""
        if self.family == "mixed":
            raise TypeMismatchError(
                "subquery result mixes string and numeric values; "
                "comparing against it is not well-typed"
            )
        if value_family(value) != self.family:
            raise TypeMismatchError(
                f"cannot compare {type(value).__name__} with the subquery's "
                f"{self.family} values"
            )

    def as_set(self) -> frozenset:
        if self._set is None:
            self._set = frozenset(self.values)
        return self._set

    def _bounds(self) -> tuple[Value, Value]:
        if self._min is None:
            if self.family not in ("num", "str"):  # pragma: no cover - guarded
                raise TypeMismatchError(
                    "min/max of a mixed-type subquery result is undefined"
                )
            self._min = min(self.values)
            self._max = max(self.values)
        return self._min, self._max

    def contains(self, value: Value) -> bool:
        """``value = ANY(values)`` — the IN membership check."""
        if not self.values:
            return False
        self._check(value)
        return value in self.as_set()

    def bound(self, op: str, quantifier: str) -> Value:
        """The end of the (non-empty, one-family) values deciding ``op``."""
        lo, hi = self._bounds()
        return lo if self.DECIDING_END[op, quantifier] == "min" else hi

    def quantified(self, value: Value, op: str, quantifier: str) -> bool:
        """``value op ANY/ALL (values)`` with set and min/max shortcuts."""
        if not self.values:
            return quantifier == "ALL"
        self._check(value)
        if op == "=":
            members = self.as_set()
            return value in members if quantifier == "ANY" else members == {value}
        if op == "<>":
            members = self.as_set()
            if quantifier == "ANY":
                return len(members) > 1 or value not in members
            return value not in members
        return OPERATORS[op](value, self.bound(op, quantifier))

    def quantified_test(self, op: str, quantifier: str) -> Callable[[Value], bool]:
        """``value -> value op ANY/ALL (values)``, with the bound fixed once.

        Each value is checked as :meth:`quantified` checks it: an empty
        result answers without a check, a mixed-family result or a probe
        of the other family raises.
        """
        if not self.values:
            holds = quantifier == "ALL"
            return lambda value: holds
        if op in ("=", "<>") or self.family == "mixed":
            return lambda value: self.quantified(value, op, quantifier)
        bound = self.bound(op, quantifier)
        family = _family_type(bound)
        compare_to = OPERATORS[op]

        def test(value: Value) -> bool:
            if isinstance(value, family):
                return compare_to(value, bound)
            return self.quantified(value, op, quantifier)  # raises the mismatch

        return test


# ---------------------------------------------------------------------- #
# plan compilation: each operator becomes a closure over row tuples
# ---------------------------------------------------------------------- #
#
# A block plan is compiled once, on its first run, into closures
# ``run(context, params) -> iterable of row tuples`` with slots, constants
# and operators resolved up front; predicates compile to
# ``bind(context, params) -> test(row)``.  The program is kept on the
# BlockPlan, so it is dropped together with the plan when the database
# grows.  Operators that stream keep streaming (generators, ``filter``,
# ``map``), so a bare LIMIT or an EXISTS probe still stops the scan early.
#
# Type errors stay exactly those of ``values.compare``: every comparison,
# join probe and semi-join probe checks the value family inline before the
# native operator runs.

_NUMERIC = (int, float)
_PLAIN_TYPES = frozenset((int, float, str))


def _family_type(value: Value):
    """The ``isinstance`` target of ``value``'s family; ``()`` matches nothing."""
    if isinstance(value, _NUMERIC):
        return _NUMERIC
    return str if isinstance(value, str) else ()


def _eval_expr(expr: ScalarExpr, row: tuple, params: tuple) -> Value:
    if type(expr) is Col:
        return row[expr.slot]
    if type(expr) is Const:
        return expr.value
    return params[expr.index]


def _getter(expr: ScalarExpr, params: tuple) -> Callable[[tuple], Value]:
    """``row -> value`` of one expression under bound parameters."""
    if type(expr) is Col:
        return itemgetter(expr.slot)
    value = _eval_expr(expr, (), params)
    return lambda row: value


def _tuple_getter(
    exprs: Sequence[ScalarExpr], params: tuple
) -> Callable[[tuple], tuple]:
    """``row -> tuple`` of the expressions' values."""
    if len(exprs) > 1 and all(type(e) is Col for e in exprs):
        return itemgetter(*[e.slot for e in exprs])
    if len(exprs) == 1 and type(exprs[0]) is Col:
        slot = exprs[0].slot
        return lambda row: (row[slot],)
    getters = [_getter(e, params) for e in exprs]
    return lambda row: tuple([get(row) for get in getters])


def _compile_pred(pred) -> Callable:
    """``bind(context, params) -> test(row) -> bool`` for one predicate."""
    if type(pred) is not CompiledComparison:
        return _compile_subquery_pred(pred)
    left, right, name = pred.left, pred.right, pred.op
    if type(left) is Col and type(right) is Col:
        test = _columns_test(left.slot, name, right.slot)
        return lambda context, params: test
    if type(left) is not Col and type(right) is not Col:
        return lambda context, params: lambda row: compare(
            _eval_expr(left, row, params), name, _eval_expr(right, row, params)
        )
    flipped = type(left) is not Col
    column, scalar = (right, left) if flipped else (left, right)
    if type(scalar) is Const:
        test = _scalar_test(column.slot, name, scalar.value, flipped)
        return lambda context, params: test
    return lambda context, params: _scalar_test(
        column.slot, name, params[scalar.index], flipped
    )


def _columns_test(left: int, name: str, right: int) -> Callable[[tuple], bool]:
    op = OPERATORS[name]

    def test(row: tuple) -> bool:
        a = row[left]
        b = row[right]
        kind = type(a)
        if kind is type(b) and kind in _PLAIN_TYPES:
            return op(a, b)
        return compare(a, name, b)  # int against float, or a type error

    return test


def _scalar_test(slot: int, name: str, value: Value, flipped: bool) -> Callable[[tuple], bool]:
    """Column ``slot`` against a fixed value, with the value's family checked.

    ``flipped`` means the value stands on the left in the source.
    """
    family = _family_type(value)
    op = OPERATORS[FLIPPED_OP[name] if flipped else name]

    def test(row: tuple) -> bool:
        v = row[slot]
        if isinstance(v, family):
            return op(v, value)
        # The families differ, so compare raises its TypeMismatchError.
        return compare(value, name, v) if flipped else compare(v, name, value)

    return test


def _compile_subquery_pred(pred: SubqueryPred) -> Callable:
    # The memo methods are looked up on the context at call time, so
    # wrappers installed on ExecutionContext see every probe.
    plan, negated, kind = pred.plan, pred.negated, pred.kind
    op, quantifier = pred.op, pred.quantifier

    if kind == "quantified" and not pred.subquery_reads_row:
        # The subquery result is fixed for this run of the block: probe
        # the memo once, on the first row that reaches the predicate.
        def bind_fixed(context: ExecutionContext, params: tuple) -> Callable[[tuple], bool]:
            actual = tuple(_eval_expr(e, (), params) for e in pred.param_exprs)
            value = _getter(pred.value_expr, params)
            holds = None

            def test(row: tuple) -> bool:
                nonlocal holds
                if holds is None:
                    holds = context.subquery_values(plan, actual).quantified_test(
                        op, quantifier
                    )
                return holds(value(row)) != negated

            return test

        return bind_fixed

    def bind(context: ExecutionContext, params: tuple) -> Callable[[tuple], bool]:
        actual = _tuple_getter(pred.param_exprs, params)
        if kind == "exists":
            return lambda row: context.subquery_exists(plan, actual(row)) != negated
        value = _getter(pred.value_expr, params)
        if kind == "in":
            return lambda row: (
                context.subquery_values(plan, actual(row)).contains(value(row))
                != negated
            )
        return lambda row: (
            context.subquery_values(plan, actual(row)).quantified(
                value(row), op, quantifier
            )
            != negated
        )

    return bind


def _compile_node(node: PlanNode) -> Callable:
    compiler = _NODE_COMPILERS.get(type(node))
    if compiler is None:
        raise EngineError(f"unsupported plan node: {type(node).__name__}")
    return compiler(node)


def _compile_scan(node: Scan) -> Callable:
    table = node.table
    return lambda context, params: context.scan_rows(
        context.database.relation(table)
    )


def _compile_filter(node: Filter) -> Callable:
    child = _compile_node(node.child)
    binds = [_compile_pred(p) for p in node.predicates]

    def run(context: ExecutionContext, params: tuple):
        # Chained filters test each row in predicate order and stop at the
        # first failure, exactly as a conjunction would.
        rows = child(context, params)
        for bind in binds:
            rows = filter(bind(context, params), rows)
        return rows

    return run


def _buckets(rows: Iterable[tuple], key_of: Callable) -> dict:
    """``rows`` grouped by ``key_of(row)``, keys in first-seen order."""
    buckets: dict = {}
    get = buckets.get
    for row in rows:
        key = key_of(row)
        bucket = get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)
    return buckets


def _compile_hash_join(node: HashJoin) -> Callable:
    left, right = _compile_node(node.left), _compile_node(node.right)
    left_keys, right_keys = node.left_keys, node.right_keys
    # One column on each side: the table is keyed on the bare value.
    single = len(left_keys) == 1 and type(left_keys[0]) is Col and type(right_keys[0]) is Col

    def run(context: ExecutionContext, params: tuple) -> Iterator[tuple]:
        if single:
            right_key, left_key = itemgetter(right_keys[0].slot), itemgetter(left_keys[0].slot)
        else:
            right_key = _tuple_getter(right_keys, params)
            left_key = _tuple_getter(left_keys, params)
        build = _buckets(right(context, params), right_key)
        if not build:
            return
        # The families each key position may probe with, from the distinct
        # build keys: True numeric, False string, None (both) fails every
        # probe.  Mirrors the naive executor: comparing a string column
        # with a numeric one is a type error, not an empty join.
        expected = []
        for column in [build] if single else zip(*build):
            families = {value_family(value) for value in column}
            expected.append(families.pop() == "num" if len(families) == 1 else None)
        numeric = expected[0]
        get = build.get
        for left_row in left(context, params):
            key = left_key(left_row)
            if single:
                if isinstance(key, _NUMERIC) is not numeric:
                    raise _join_mismatch(key, right_keys[0])
            else:
                for value, family, expr in zip(key, expected, right_keys):
                    if isinstance(value, _NUMERIC) is not family:
                        raise _join_mismatch(value, expr)
            matches = get(key)
            if matches:
                for right_row in matches:
                    yield left_row + right_row

    return run


def _join_mismatch(value: Value, key: ScalarExpr) -> TypeMismatchError:
    return TypeMismatchError(
        f"cannot compare {type(value).__name__} with values of join key {key}"
    )


def _compile_nested_loop(node: NestedLoopJoin) -> Callable:
    left, right = _compile_node(node.left), _compile_node(node.right)
    binds = [_compile_pred(p) for p in node.predicates]

    def run(context: ExecutionContext, params: tuple) -> Iterator[tuple]:
        right_rows = list(right(context, params))
        if not right_rows:
            return
        tests = [bind(context, params) for bind in binds]
        for left_row in left(context, params):
            for right_row in right_rows:
                row = left_row + right_row
                if all(test(row) for test in tests):
                    yield row

    return run


def _compile_semi_join(node: SemiJoin) -> Callable:
    # The subquery is uncorrelated with this block: its parameters depend
    # only on enclosing blocks, so the membership set is built exactly once.
    child = _compile_node(node.child)
    plan, param_exprs, probe = node.plan, node.param_exprs, node.probe
    anti = type(node) is AntiJoin

    def run(context: ExecutionContext, params: tuple) -> Iterator[tuple]:
        actual = tuple(_eval_expr(e, (), params) for e in param_exprs)
        values = context.subquery_values(plan, actual)
        rows = child(context, params)
        if type(probe) is Col and values.family in ("num", "str"):
            slot, members = probe.slot, values.as_set()
            numeric = values.family == "num"
            for row in rows:
                value = row[slot]
                if isinstance(value, _NUMERIC) is not numeric:
                    values.contains(value)  # raises the family mismatch
                if (value in members) is not anti:
                    yield row
            return
        value_of = _getter(probe, params)
        for row in rows:
            if values.contains(value_of(row)) != anti:
                yield row

    return run


def _compile_project(node: Project) -> Callable:
    child = _compile_node(node.child)
    exprs = node.exprs
    return lambda context, params: map(
        _tuple_getter(exprs, params), child(context, params)
    )


def _distinct_rows(rows: Iterable[tuple]) -> Iterator[tuple]:
    """First occurrence of every row, lazily."""
    seen: set[tuple] = set()
    add = seen.add
    for row in rows:
        if row not in seen:
            add(row)
            yield row


def _compile_distinct(node: Distinct) -> Callable:
    child = _compile_node(node.child)
    return lambda context, params: _distinct_rows(child(context, params))


def _compile_aggregate(node: Aggregate) -> Callable:
    child = _compile_node(node.child)

    def run(context: ExecutionContext, params: tuple) -> Iterator[tuple]:
        groups = _buckets(child(context, params), _tuple_getter(node.group_exprs, params))
        evaluators = []  # (aggregate function or None for a column, getter)
        for item in node.items:
            if item[0] == "col":
                evaluators.append((None, _getter(item[1], params)))
            else:
                _, func, expr = item
                evaluators.append((func, None if expr is None else _getter(expr, params)))
        for rows in groups.values():  # first-seen order
            out: list[Value] = []
            for func, get in evaluators:
                if func is None:
                    out.append(get(rows[0]))
                elif get is None:
                    out.append(apply_aggregate("COUNT", [1] * len(rows)))
                else:
                    out.append(apply_aggregate(func, list(map(get, rows))))
            yield tuple(out)

    return run


class _ReverseRanked:
    """Heap entry whose ordering is reversed, turning heapq into a max-heap.

    ``heap[0]`` is then the *worst* of the resident top-k rows — exactly the
    row a strictly better candidate should evict.  ``ahead(a, b)`` says
    whether key ``a`` ranks before key ``b``.
    """

    __slots__ = ("key", "row", "ahead")

    def __init__(self, key, row: tuple, ahead) -> None:
        self.key = key
        self.row = row
        self.ahead = ahead

    def __lt__(self, other: "_ReverseRanked") -> bool:
        return self.ahead(other.key, self.key)


def _topk_distinct_heap(
    rows: Iterator[tuple],
    sort_key,
    cutoff: int,
    stats: ExecutionStats,
    descending: bool = False,
) -> list[tuple]:
    """Top ``cutoff`` *distinct* rows holding at most ``cutoff`` resident.

    Duplicates of resident rows are skipped via the ``members`` set; a
    non-resident row evicts the current worst only when strictly better.
    An evicted row's duplicates can never re-enter: the heap's worst key
    only ever improves, and equal keys do not evict — so a duplicate of an
    evicted row always compares >= the current worst and is skipped.  Rows
    tied at the boundary are chosen arbitrarily, which only ever truncates
    the final tie group of the output (the contract a LIMIT implies).
    ``descending`` ranks larger keys first (for native keys; an
    :class:`~.values.OrderKey` carries its own directions).
    """
    ahead = operator.gt if descending else operator.lt
    heap: list[_ReverseRanked] = []
    members: set[tuple] = set()
    for row in rows:
        if row in members:
            continue
        key = sort_key(row)
        if len(heap) < cutoff:
            heapq.heappush(heap, _ReverseRanked(key, row, ahead))
            members.add(row)
        elif ahead(key, heap[0].key):
            members.discard(heap[0].row)
            heapq.heapreplace(heap, _ReverseRanked(key, row, ahead))
            members.add(row)
    stats.topk_held_rows = max(stats.topk_held_rows, len(heap))
    ranked = sorted(heap, key=attrgetter("key"), reverse=descending)
    return [entry.row for entry in ranked]


def _family_checked(slot: int) -> Callable[[tuple], Value]:
    """``row -> row[slot]`` that raises once two value families meet.

    With two or more rows an :class:`~.values.OrderKey` ranking compares
    every family present against another, so it raises on exactly the
    inputs this key raises on; natively ordered, the values rank the same.
    """
    family = None

    def key(row: tuple) -> Value:
        nonlocal family
        value = row[slot]
        if family is None:
            family = _family_type(value)
        elif not isinstance(value, family):
            raise TypeMismatchError(
                f"cannot order {type(value).__name__} against another "
                "value family in the same ORDER BY key"
            )
        return value

    return key


def _compile_topk(node: TopK) -> Callable:
    """Ranked output without materializing beyond the cutoff.

    Three shapes, cheapest first:

    * **key-less LIMIT** — a lazy ``islice`` over the child; the pipeline
      stops pulling rows the moment the slice is satisfied, so a
      ``LIMIT 10`` over a huge join does bounded work end to end;
    * **heap strategy** — a bounded heap: the whole child is consumed
      (ordering needs every candidate) but at most ``limit + offset`` rows
      are ever resident;
    * **sort strategy** — full sort then slice, chosen by the planner when
      the cutoff would swallow most of the estimated input anyway (or when
      there is no LIMIT at all).

    A single key ranks on the native values (``heapq.nsmallest`` /
    ``nlargest``, ``sort(reverse=...)``); several keys rank through
    :class:`~.values.OrderKey`.  When the planner fused a Distinct into the
    node (``node.distinct``), the key-less path dedups lazily (the
    seen-set is bounded by the cutoff thanks to islice's early exit), the
    heap path runs the bounded distinct heap of
    :func:`_topk_distinct_heap`, and the sort path dedups before sorting.
    ``topk_input_rows`` counts the rows pulled from the child: ``compress``
    over an endless ``count`` passes every row through and advances the
    tally once per row, without a Python frame per row.
    """
    child = _compile_node(node.child)
    limit, offset, distinct = node.limit, node.offset, node.distinct
    stop = None if limit is None else offset + limit
    heap = limit is not None and node.strategy == "heap"
    keys, descending = node.keys, node.descending
    single = len(keys) == 1 and type(keys[0]) is Col
    reverse = single and descending[0]

    def ranked(rows: Iterable[tuple], params: tuple, stats: ExecutionStats) -> list:
        if single:
            sort_key = _family_checked(keys[0].slot)
        else:
            key_of = _tuple_getter(keys, params)

            def sort_key(row: tuple) -> OrderKey:
                return OrderKey(key_of(row), descending)

        if heap:
            if distinct:
                return _topk_distinct_heap(rows, sort_key, stop, stats, reverse)[offset:]
            pick = heapq.nlargest if reverse else heapq.nsmallest
            top = pick(stop, rows, key=sort_key)
            stats.topk_held_rows = max(stats.topk_held_rows, len(top))
            return top[offset:]
        rows = list(dict.fromkeys(rows)) if distinct else list(rows)
        rows.sort(key=sort_key, reverse=reverse)
        stats.topk_held_rows = max(stats.topk_held_rows, len(rows))
        return rows[offset:stop]

    def run(context: ExecutionContext, params: tuple) -> list[tuple]:
        stats = context.stats
        tally = count(1)
        rows = compress(child(context, params), tally)
        if keys:
            out = ranked(rows, params, stats)
        else:
            # Early exit: islice stops advancing the child once satisfied,
            # so upstream operators never produce rows beyond the cutoff.
            out = list(islice(_distinct_rows(rows) if distinct else rows, offset, stop))
        stats.topk_input_rows += next(tally) - 1
        return out

    return run


_NODE_COMPILERS = {
    Scan: _compile_scan,
    Filter: _compile_filter,
    HashJoin: _compile_hash_join,
    NestedLoopJoin: _compile_nested_loop,
    SemiJoin: _compile_semi_join,
    AntiJoin: _compile_semi_join,
    Project: _compile_project,
    Distinct: _compile_distinct,
    Aggregate: _compile_aggregate,
    TopK: _compile_topk,
}


@dataclass(frozen=True, slots=True)
class _RowProgram:
    """A block plan compiled for the rows engine."""

    prechecks: tuple[Callable, ...]
    run: Callable


def _program(plan: BlockPlan) -> _RowProgram:
    program = plan.compiled
    if program is None:
        program = _RowProgram(
            tuple(_compile_pred(p) for p in plan.prechecks),
            _compile_node(plan.root),
        )
        plan.compiled = program
    return program


def _prechecks_pass(
    plan: BlockPlan, context: ExecutionContext, params: tuple
) -> bool:
    return all(bind(context, params)(()) for bind in _program(plan).prechecks)


def run_block(
    plan: BlockPlan, context: ExecutionContext, params: tuple = ()
) -> ResultSet:
    """Execute a compiled block plan and materialize its result set."""
    if not _prechecks_pass(plan, context, params):
        return ResultSet(columns=plan.columns, rows=())
    rows = tuple(_program(plan).run(context, params))
    return ResultSet(columns=plan.columns, rows=rows)


# ---------------------------------------------------------------------- #
# naive reference execution (the differential-testing oracle)
# ---------------------------------------------------------------------- #


class _Scope:
    """One query block's bindings: alias (lower-cased) -> (relation, row)."""

    def __init__(self) -> None:
        self.bindings: dict[str, tuple[Relation, Row]] = {}

    def bind(self, alias: str, relation: Relation, row: Row) -> None:
        self.bindings[alias.lower()] = (relation, row)


class _Environment:
    """A stack of scopes, innermost last, used to resolve column references."""

    def __init__(self, scopes: Sequence[_Scope] = ()) -> None:
        self._scopes = list(scopes)

    def child(self, scope: _Scope) -> "_Environment":
        return _Environment([*self._scopes, scope])

    def resolve(self, column: ColumnRef) -> Value:
        if column.table is not None:
            return self._resolve_qualified(column)
        return self._resolve_unqualified(column)

    def _resolve_qualified(self, column: ColumnRef) -> Value:
        alias = column.table.lower()
        for scope in reversed(self._scopes):
            binding = scope.bindings.get(alias)
            if binding is None:
                continue
            relation, row = binding
            key = _match_column(relation, column.column)
            if key is None:
                raise UnknownColumnError(
                    f"table {column.table} has no column {column.column!r}"
                )
            return row[key]
        raise UnknownColumnError(f"unknown table alias {column.table!r}")

    def _resolve_unqualified(self, column: ColumnRef) -> Value:
        for scope in reversed(self._scopes):
            matches = []
            for relation, row in scope.bindings.values():
                key = _match_column(relation, column.column)
                if key is not None:
                    matches.append(row[key])
            if len(matches) > 1:
                raise AmbiguousColumnError(
                    f"column {column.column!r} is ambiguous in this scope"
                )
            if matches:
                return matches[0]
        raise UnknownColumnError(f"unknown column {column.column!r}")


class Executor:
    """Evaluates queries of the supported fragment against a database.

    >>> executor = Executor(database)
    >>> results = executor.run(queries)       # list[ResultSet]
    >>> executor.stats().describe()
    '12 queries: plans 4/12 cached, ...'

    Accepts SQL text or parsed :class:`~repro.sql.ast.SelectQuery` objects.
    ``mode`` selects the evaluation strategy — dispatched through the
    backend registry (:mod:`repro.relational.backends`), so any registered
    engine is reachable here without this facade naming it.  The
    executor's :class:`ExecutionContext` caches plans, scans and subquery
    results across every query it runs; ``context`` lets callers share
    one context between executors.  The naive oracle bypasses those
    caches.

    ``fallback=True`` wraps the engine in a breaker-guarded
    :class:`~.backends.FallbackBackend`: recoverable engine failures
    (IO faults, sqlite operational errors, injected chaos) re-execute on
    the PLANNED rows engine instead of raising, counted in
    ``context.stats.fallbacks``.  Off by default — differential suites
    need engines that fail loudly (see ``docs/robustness.md``).
    """

    def __init__(
        self,
        database: Database,
        mode: ExecutionMode = ExecutionMode.PLANNED,
        context: ExecutionContext | None = None,
        fallback: bool = False,
    ) -> None:
        self._db = database
        self._mode = mode
        self._context = context if context is not None else ExecutionContext(database)
        self._backend: ExecutionBackend | None = (
            with_fallback(mode) if fallback else None
        )

    @property
    def database(self) -> Database:
        return self._db

    @property
    def mode(self) -> ExecutionMode:
        return self._mode

    @property
    def context(self) -> ExecutionContext:
        return self._context

    def execute(self, query: SelectQuery | str) -> ResultSet:
        """Execute ``query`` (SQL text or AST) and return its result set."""
        if isinstance(query, str):
            query = parse(query)
        self._context.stats.queries += 1
        backend = self._backend if self._backend is not None else backend_for(self._mode)
        return backend.execute(query, self._context)

    def run(self, queries: Iterable[SelectQuery | str]) -> list[ResultSet]:
        """Execute a whole workload, returning one result set per query."""
        return [self.execute(query) for query in queries]

    def iter_run(
        self, queries: Iterable[SelectQuery | str]
    ) -> Iterator[tuple[SelectQuery | str, ResultSet]]:
        """Lazily yield ``(query, result)`` pairs — streaming-friendly."""
        for query in queries:
            yield query, self.execute(query)

    def explain(self, query: SelectQuery | str) -> str:
        """EXPLAIN-style rendering of the plan the query would execute.

        Backends may append engine-specific detail — the SQL backend adds
        the generated SQL text and its bound parameters.
        """
        if isinstance(query, str):
            query = parse(query)
        return backend_for(self._mode).explain(query, self._context)

    def stats(self) -> ExecutionStats:
        """A copy of the context's counters accumulated so far."""
        stats = self._context.stats
        return replace(stats, breaker_state=dict(stats.breaker_state))


class _NaiveInterpreter:
    """The nested-loop reference semantics (the differential oracle)."""

    def __init__(self, database: Database) -> None:
        self._db = database

    def execute(self, query: SelectQuery) -> ResultSet:
        return self._ranked(query, self._project_block(query, _Environment()))

    # ------------------------------------------------------------------ #
    # block evaluation
    # ------------------------------------------------------------------ #

    def _execute_block(self, query: SelectQuery, outer: _Environment) -> ResultSet:
        # Nested blocks feed predicates; ranking them is meaningless under
        # set semantics, and the planner rejects it too — the oracle must
        # agree on what is an error, not only on what results are.
        if query.order_by or query.limit is not None:
            raise EngineError(
                "nested query blocks may not use ORDER BY or LIMIT"
            )
        return self._project_block(query, outer)

    def _project_block(self, query: SelectQuery, outer: _Environment) -> ResultSet:
        matches = list(self._matching_environments(query, outer))
        if query.has_aggregates or query.group_by:
            return self._project_grouped(query, matches)
        return self._project_plain(query, matches)

    def _ranked(self, query: SelectQuery, result: ResultSet) -> ResultSet:
        """ORDER BY / LIMIT reference semantics: one full sort, then slice.

        Deliberately naive — no heap, no partial selection — so the
        differential suite checks the optimized engines against the
        simplest possible implementation of the same contract.
        """
        if not query.order_by and query.limit is None:
            return result
        rows = list(result.rows)
        if query.order_by:
            relations = [
                self._db.relation(table.name) for table in query.from_tables
            ]
            descending = tuple(item.descending for item in query.order_by)
            positions = []
            for item in query.order_by:
                position = order_key_position(item.column, query, relations)
                if position is None:
                    raise EngineError(
                        f"ORDER BY column {item.column} must appear in the "
                        "SELECT list"
                    )
                positions.append(position)
            rows.sort(
                key=lambda row: OrderKey(
                    tuple(row[p] for p in positions), descending
                )
            )
        if query.limit is not None:
            rows = rows[query.offset : query.offset + query.limit]
        return ResultSet(columns=result.columns, rows=tuple(rows))

    def _matching_environments(
        self, query: SelectQuery, outer: _Environment
    ) -> Iterator[_Environment]:
        """Enumerate bindings of the FROM tables that satisfy the WHERE clause.

        The join is a nested loop, but comparison predicates are evaluated as
        soon as every table they reference is bound ("predicate pushdown").
        Without this, the 10-table conjunctive queries of the user study
        (e.g. Q3) would enumerate the full cartesian product.  Subquery
        predicates are evaluated once the whole block is bound.
        """
        relations = [self._db.relation(table.name) for table in query.from_tables]
        aliases = [table.effective_alias for table in query.from_tables]
        local_aliases = {alias.lower() for alias in aliases}
        comparisons = [p for p in query.where if isinstance(p, Comparison)]
        subqueries = [p for p in query.where if not isinstance(p, Comparison)]
        staged: list[list[Comparison]] = [[] for _ in aliases]
        prechecks: list[Comparison] = []
        for predicate in comparisons:
            position = self._pushdown_position(predicate, aliases, local_aliases)
            if position is None:
                prechecks.append(predicate)
            else:
                staged[position].append(predicate)

        if not all(self._evaluate_predicate(p, outer) for p in prechecks):
            return

        def extend(index: int, env: _Environment) -> Iterator[_Environment]:
            if index == len(relations):
                if all(self._evaluate_predicate(p, env) for p in subqueries):
                    yield env
                return
            relation = relations[index]
            alias = aliases[index]
            for row in relation.rows:
                scope = _Scope()
                scope.bind(alias, relation, row)
                candidate = env.child(scope)
                if all(self._evaluate_predicate(p, candidate) for p in staged[index]):
                    yield from extend(index + 1, candidate)

        yield from extend(0, outer)

    @staticmethod
    def _pushdown_position(
        predicate: Comparison, aliases: list[str], local_aliases: set[str]
    ) -> int | None:
        """Earliest FROM position after which ``predicate`` can be evaluated.

        Returns ``None`` when the predicate only references outer tables (it
        can be checked before binding anything locally).  Unqualified column
        references are conservatively deferred to the last position.
        """
        last_required = None
        for operand in (predicate.left, predicate.right):
            if not isinstance(operand, ColumnRef):
                continue
            if operand.table is None:
                return len(aliases) - 1
            lowered = operand.table.lower()
            if lowered not in local_aliases:
                continue
            position = next(
                index for index, alias in enumerate(aliases) if alias.lower() == lowered
            )
            last_required = position if last_required is None else max(last_required, position)
        return last_required

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #

    def _evaluate_predicate(self, predicate: Predicate, env: _Environment) -> bool:
        if isinstance(predicate, Comparison):
            left = self._operand_value(predicate.left, env)
            right = self._operand_value(predicate.right, env)
            return compare(left, predicate.op, right)
        if isinstance(predicate, Exists):
            result = self._execute_block(predicate.query, env)
            found = len(result) > 0
            return not found if predicate.negated else found
        if isinstance(predicate, InSubquery):
            value = env.resolve(predicate.column)
            members = self._single_column_values(predicate.query, env)
            found = any(compare(value, "=", member) for member in members)
            return not found if predicate.negated else found
        if isinstance(predicate, QuantifiedComparison):
            value = env.resolve(predicate.column)
            members = self._single_column_values(predicate.query, env)
            if predicate.quantifier == "ANY":
                holds = any(compare(value, predicate.op, m) for m in members)
            else:  # ALL
                holds = all(compare(value, predicate.op, m) for m in members)
            return not holds if predicate.negated else holds
        raise EngineError(f"unsupported predicate type: {type(predicate).__name__}")

    def _single_column_values(
        self, query: SelectQuery, env: _Environment
    ) -> list[Value]:
        result = self._execute_block(query, env)
        if len(result.columns) != 1:
            raise EngineError(
                "IN / ANY / ALL subqueries must return exactly one column, "
                f"got {len(result.columns)}"
            )
        return [row[0] for row in result.rows]

    def _operand_value(self, operand: ColumnRef | Literal, env: _Environment) -> Value:
        if isinstance(operand, Literal):
            return operand.value
        return env.resolve(operand)

    # ------------------------------------------------------------------ #
    # projection
    # ------------------------------------------------------------------ #

    def _project_plain(
        self, query: SelectQuery, matches: list[_Environment]
    ) -> ResultSet:
        columns = self._result_columns(query)
        seen: set[tuple[Value, ...]] = set()
        rows: list[tuple[Value, ...]] = []
        for env in matches:
            row = self._project_row(query, env)
            if row not in seen:
                seen.add(row)
                rows.append(row)
        return ResultSet(columns=columns, rows=tuple(rows))

    def _project_row(self, query: SelectQuery, env: _Environment) -> tuple[Value, ...]:
        if query.is_select_star:
            values: list[Value] = []
            # SELECT * projects all columns of the block's own tables, in
            # FROM-clause order.  The block's tables occupy the innermost
            # scopes (one scope per table).  Only used by EXISTS subqueries.
            own_scopes = env._scopes[-len(query.from_tables) :]  # noqa: SLF001
            for scope in own_scopes:
                for relation, row in scope.bindings.values():
                    values.extend(row[column] for column in relation.columns)
            return tuple(values)
        values = []
        for item in query.select_items:
            if isinstance(item, ColumnRef):
                values.append(env.resolve(item))
            else:
                raise EngineError(
                    "aggregate select items require GROUP BY handling"
                )
        return tuple(values)

    def _project_grouped(
        self, query: SelectQuery, matches: list[_Environment]
    ) -> ResultSet:
        columns = self._result_columns(query)
        groups: dict[tuple[Value, ...], list[_Environment]] = {}
        order: list[tuple[Value, ...]] = []
        for env in matches:
            key = tuple(env.resolve(column) for column in query.group_by)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(env)
        rows: list[tuple[Value, ...]] = []
        for key in order:
            group_envs = groups[key]
            row: list[Value] = []
            for item in query.select_items:
                if isinstance(item, ColumnRef):
                    if item not in query.group_by and not matches_group_key(
                        item, query
                    ):
                        raise EngineError(
                            f"column {item} must appear in GROUP BY to be selected"
                        )
                    row.append(group_envs[0].resolve(item))
                elif isinstance(item, AggregateCall):
                    row.append(self._aggregate_value(item, group_envs))
                else:
                    raise EngineError("SELECT * cannot be combined with GROUP BY")
            rows.append(tuple(row))
        return ResultSet(columns=columns, rows=tuple(rows))

    def _aggregate_value(
        self, item: AggregateCall, group_envs: list[_Environment]
    ) -> Value:
        if isinstance(item.argument, Star):
            return apply_aggregate("COUNT", [1] * len(group_envs))
        values = [env.resolve(item.argument) for env in group_envs]
        return apply_aggregate(item.func, values)

    def _result_columns(self, query: SelectQuery) -> tuple[str, ...]:
        return result_columns(
            query, [self._db.relation(table.name) for table in query.from_tables]
        )


# ---------------------------------------------------------------------- #
# backend registrations — the oracle and the row pipeline live here;
# COLUMNAR and SQL register themselves from their own modules.
# ---------------------------------------------------------------------- #


class _NaiveBackend(ExecutionBackend):
    """``NAIVE``: nested loops over the AST with runtime scoping.

    Deliberately bypasses every context cache (plans, scans, subqueries) —
    the oracle must stay independent of the machinery it checks.
    """

    mode = ExecutionMode.NAIVE

    def execute(self, query: SelectQuery, context: ExecutionContext) -> ResultSet:
        return _NaiveInterpreter(context.database).execute(query)


class _PlannedRowBackend(ExecutionBackend):
    """``PLANNED``: plans compiled to closures, run tuple-at-a-time."""

    mode = ExecutionMode.PLANNED

    def execute(self, query: SelectQuery, context: ExecutionContext) -> ResultSet:
        # The rows engine is the fallback of last resort — its fault point
        # exists so chaos tests can prove that when *every* engine dies the
        # failure propagates instead of looping.
        fault_point("engine.planned.execute")
        context.refresh()
        return run_block(context.plan(query), context)


register_backend(_NaiveBackend())
register_backend(_PlannedRowBackend())


def execute(
    query: SelectQuery,
    database: Database,
    mode: ExecutionMode = ExecutionMode.PLANNED,
) -> ResultSet:
    """Convenience wrapper around :class:`Executor`."""
    return Executor(database, mode=mode).execute(query)
