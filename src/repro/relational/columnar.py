"""Vectorized columnar execution backend (``ExecutionMode.COLUMNAR``).

The rows engine of :mod:`repro.relational.executor` compiles a plan into
closures that still run one tuple at a time: every row pays a Python call
per predicate and operator, and a tuple concatenation per join match.
This module runs the *same* :class:`~.plan.BlockPlan` batch-at-a-time
instead:

* each relation is loaded **once** into a :class:`ColumnarTable` —
  column-major value arrays (NumPy ``int64``/``float64`` when the column is
  homogeneous and NumPy is importable, plain Python lists otherwise);
* operators exchange :class:`Frame` objects: per-slot column vectors with a
  lazily-applied **selection vector** (an index array), so a filter narrows
  a frame without copying any payload column until something reads it;
* comparison predicates compile to column-wise kernels — one NumPy
  ufunc call (or one list comprehension) per predicate instead of one
  ``compare()`` call per row;
* hash joins gather both key columns, pick the **build side by actual
  cardinality** (the smaller input is hashed, the larger streamed), and
  emit matched index pairs instead of concatenated tuples;
* semi-/anti-joins probe the memoized subquery value set with one
  vectorized membership pass, and ``v op ANY|ALL (S)`` against an ``S``
  that reads no column of the row probes ``S`` once per block run and
  compares ``v`` with its min or max in one kernel; grouped aggregation
  and distinct run over materialized columns at the top of the plan only.

NumPy is optional: every kernel has a pure-Python fallback, so the engine
works (more slowly) in environments without it.  Correctness is defined by
the row engines — the differential suite runs NAIVE, PLANNED and COLUMNAR
over the same workloads and asserts identical ``as_set()`` results.

Type errors mirror the row pipeline at batch granularity: comparing a
string column with a numeric column (or literal) raises
:class:`~.errors.TypeMismatchError` whenever at least one row would have
been compared, and never when the input is empty.  Because schema-typed
columns are homogeneous, that check is one family comparison per kernel
instead of one per row; heterogeneous ("mixed") columns fall back to the
row-at-a-time loop so errors surface exactly as in the oracle.
"""

from __future__ import annotations

import heapq
import os
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

try:  # NumPy accelerates the numeric kernels but is not required.
    if os.environ.get("REPRO_DISABLE_NUMPY"):  # force the pure-Python
        raise ImportError  # kernels (used by the fallback's own tests)
    import numpy as _np
except ImportError:
    _np = None

from ..sql.ast import FLIPPED_OP
from .aggregates import apply_aggregate
from .database import Relation
from .errors import EngineError, TypeMismatchError
from .keyindex import group_by_key
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
from .values import OPERATORS, OrderKey, Value, compare, value_family

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from .executor import ExecutionContext, ResultSet

#: Cap on materialized (left, right) index pairs per nested-loop chunk.
_NESTED_LOOP_CHUNK_PAIRS = 4_000_000

def _merge_families(left: str, right: str) -> str:
    """The family of two vectors placed end to end."""
    if left == right or right == "empty":
        return left
    if left == "empty":
        return right
    return "mixed"


def _families_of(values: Sequence[Value]) -> str:
    """The family of a materialized vector: num, str, mixed or empty."""
    families = set()
    for value in values:
        families.add("num" if isinstance(value, (int, float)) else "str")
        if len(families) > 1:
            return "mixed"
    if not families:
        return "empty"
    return families.pop()


# ---------------------------------------------------------------------- #
# columnar storage
# ---------------------------------------------------------------------- #


class Column:
    """One column of a loaded relation: a value array plus its type family.

    ``data`` is a NumPy ``int64``/``float64`` array when the column is
    homogeneous numeric of one Python type (so round-tripping through
    ``.tolist()`` reproduces the exact row-engine values) and NumPy is
    available; otherwise a plain Python list.
    """

    __slots__ = ("data", "family")

    def __init__(self, data, family: str) -> None:
        self.data = data
        self.family = family

    def __len__(self) -> int:
        return len(self.data)

    @classmethod
    def from_values(cls, values: list[Value]) -> "Column":
        family = _families_of(values)
        if _np is not None and family == "num" and values:
            first_type = type(values[0])
            if first_type in (int, float) and all(type(v) is first_type for v in values):
                try:
                    dtype = _np.int64 if first_type is int else _np.float64
                    return cls(_np.asarray(values, dtype=dtype), family)
                except OverflowError:  # ints beyond int64: keep the list
                    pass
        return cls(list(values), family)

    def extended(self, values: list[Value]) -> "Column":
        """This column followed by ``values``, stored as :meth:`from_values`
        would store the whole.

        A list column of at least one value stays a list: whatever made it
        one (a string, a second Python type, an int beyond int64, no NumPy)
        is still in it.  A NumPy column grows by concatenation while
        ``values`` fit its dtype, and is loaded again in full otherwise.
        """
        if not values:
            return self
        if isinstance(self.data, list):
            if not self.data:
                return Column.from_values(values)
            family = _merge_families(self.family, _families_of(values))
            return Column(self.data + values, family)
        tail = Column.from_values(values)
        if isinstance(tail.data, _np.ndarray) and tail.data.dtype == self.data.dtype:
            return Column(_np.concatenate((self.data, tail.data)), self.family)
        return Column.from_values(self.data.tolist() + values)


class ColumnarTable:
    """A relation loaded column-major, extended as the relation grows."""

    __slots__ = ("name", "columns", "cols", "nrows")

    def __init__(self, name: str, columns: tuple[str, ...], cols: list[Column]) -> None:
        self.name = name
        self.columns = columns
        self.cols = cols
        self.nrows = len(cols[0]) if cols else 0

    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnarTable":
        cols = [
            Column.from_values(values)
            for values in _transposed(relation.rows, len(relation.columns))
        ]
        return cls(relation.name, relation.columns, cols)

    def extend(self, relation: Relation) -> None:
        """Append ``relation``'s rows beyond the :attr:`nrows` held here.

        The result equals :meth:`from_relation` on the grown relation.
        Columns get new data objects, so frames built before the call keep
        reading the rows they started with.
        """
        tail = relation.rows[self.nrows:]
        self.cols = [
            column.extended(values)
            for column, values in zip(self.cols, _transposed(tail, len(self.cols)))
        ]
        self.nrows += len(tail)


def _transposed(rows: list[tuple], width: int) -> list[list[Value]]:
    """One list of values per column of ``width`` equally long ``rows``."""
    if not rows:
        return [[] for _ in range(width)]
    return [list(values) for values in zip(*rows)]


# ---------------------------------------------------------------------- #
# frames: slot vectors + lazy selection vectors
# ---------------------------------------------------------------------- #


def _as_index(seq):
    """Normalize a selection vector (NumPy int array when available)."""
    if _np is not None and not isinstance(seq, _np.ndarray):
        return _np.asarray(seq, dtype=_np.int64)
    return seq


def _index_list(index) -> list[int]:
    if _np is not None and isinstance(index, _np.ndarray):
        return index.tolist()
    return index


def _gather(data, index):
    """``data[index]`` for either storage kind; ``index=None`` is identity."""
    if index is None:
        return data
    if _np is not None and isinstance(data, _np.ndarray):
        return data[index]
    return [data[i] for i in _index_list(index)]


def _compose(old, new):
    """The selection vector equivalent to applying ``old`` then ``new``."""
    if old is None:
        return new
    if _np is not None and isinstance(old, _np.ndarray):
        return old[new]
    new_list = _index_list(new)
    return [old[i] for i in new_list]


class _Slot:
    """One frame column: source data + selection vector, materialized lazily."""

    __slots__ = ("data", "family", "index", "_mat")

    def __init__(self, data, family: str | None, index=None) -> None:
        self.data = data
        self.family = family
        self.index = index
        self._mat = None

    def vector(self):
        if self.index is None:
            return self.data
        if self._mat is None:
            self._mat = _gather(self.data, self.index)
        return self._mat

    def taken(self, index) -> "_Slot":
        # A selection of a mixed column may hold one family only, so
        # its family is read again from the values selected.
        family = None if self.family == "mixed" else self.family
        return _Slot(self.data, family, _compose(self.index, index))


class Frame:
    """A batch of rows as per-slot column vectors (the operator currency)."""

    __slots__ = ("nrows", "slots", "_rows")

    def __init__(self, nrows: int, slots: list[_Slot]) -> None:
        self.nrows = nrows
        self.slots = slots
        self._rows = None

    @classmethod
    def from_table(cls, table: ColumnarTable) -> "Frame":
        return cls(table.nrows, [_Slot(c.data, c.family) for c in table.cols])

    @classmethod
    def from_rows(cls, rows: list[tuple], width: int) -> "Frame":
        columns = list(map(list, zip(*rows))) if rows else [[] for _ in range(width)]
        frame = cls(len(rows), [_Slot(col, None) for col in columns])
        frame._rows = rows
        return frame

    def vector(self, slot: int):
        return self.slots[slot].vector()

    def family(self, slot: int) -> str:
        entry = self.slots[slot]
        if entry.family is None:
            entry.family = _families_of(self.values_list(slot))
        return entry.family

    def values_list(self, slot: int) -> list[Value]:
        """The slot's values as a plain Python list (NumPy scalars unboxed)."""
        vec = self.vector(slot)
        if _np is not None and isinstance(vec, _np.ndarray):
            return vec.tolist()
        return vec

    def take(self, index) -> "Frame":
        index = _as_index(index)
        return Frame(len(index), [slot.taken(index) for slot in self.slots])

    def rows(self) -> list[tuple]:
        if self._rows is None:
            if not self.slots or self.nrows == 0:
                self._rows = []
            else:
                self._rows = list(zip(*(self.values_list(i) for i in range(len(self.slots)))))
        return self._rows


def _concat(left: Frame, right: Frame) -> Frame:
    assert left.nrows == right.nrows
    return Frame(left.nrows, left.slots + right.slots)


def _empty_like(left: Frame, right: Frame) -> Frame:
    empty = _as_index([])
    return _concat(left.take(empty), right.take(empty))


# ---------------------------------------------------------------------- #
# scalar-expression and predicate kernels
# ---------------------------------------------------------------------- #


def _scalar_value(expr: ScalarExpr, params: tuple) -> Value:
    if type(expr) is Const:
        return expr.value
    return params[expr.index]  # Param


def _expr_values(expr: ScalarExpr, frame: Frame, params: tuple):
    """``(is_vector, payload)``: a slot's value list or a scalar constant."""
    if type(expr) is Col:
        return True, frame.values_list(expr.slot)
    return False, _scalar_value(expr, params)


_NP_OPS = None
if _np is not None:
    _NP_OPS = {
        "=": _np.equal,
        "<>": _np.not_equal,
        "<": _np.less,
        "<=": _np.less_equal,
        ">": _np.greater,
        ">=": _np.greater_equal,
    }


def _positions_from_mask(mask) -> list[int]:
    if _np is not None and isinstance(mask, _np.ndarray):
        return _np.nonzero(mask)[0]
    return [i for i, keep in enumerate(mask) if keep]


def _comparison_positions(frame: Frame, pred: CompiledComparison, params: tuple):
    """Selection vector of rows satisfying a compiled comparison."""
    if frame.nrows == 0:
        return _as_index([])
    left, op, right = pred.left, pred.op, pred.right

    # Normalize "scalar op vector" to "vector op scalar" by flipping.
    if type(left) is not Col and type(right) is Col:
        left, right, op = right, left, FLIPPED_OP[op]

    if type(left) is not Col:  # row-independent: evaluate once
        holds = compare(_scalar_value(left, params), op, _scalar_value(right, params))
        return _as_index(list(range(frame.nrows)) if holds else [])

    lfam = frame.family(left.slot)
    if type(right) is Col:
        rfam = frame.family(right.slot)
        if lfam == "mixed" or rfam == "mixed":
            lvec = frame.values_list(left.slot)
            rvec = frame.values_list(right.slot)
            return _as_index(
                [i for i, (a, b) in enumerate(zip(lvec, rvec)) if compare(a, op, b)]
            )
        if lfam != rfam:
            raise TypeMismatchError(f"cannot compare {lfam} column with {rfam} column")
        ldata = frame.vector(left.slot)
        rdata = frame.vector(right.slot)
        if (
            _np is not None
            and isinstance(ldata, _np.ndarray)
            and isinstance(rdata, _np.ndarray)
        ):
            return _positions_from_mask(_NP_OPS[op](ldata, rdata))
        fn = OPERATORS[op]
        lvec = frame.values_list(left.slot)
        rvec = frame.values_list(right.slot)
        return _as_index([i for i, (a, b) in enumerate(zip(lvec, rvec)) if fn(a, b)])

    scalar = _scalar_value(right, params)
    sfam = value_family(scalar)
    if lfam == "mixed":
        lvec = frame.values_list(left.slot)
        return _as_index([i for i, v in enumerate(lvec) if compare(v, op, scalar)])
    if lfam != sfam:
        raise TypeMismatchError(
            f"cannot compare {lfam} column with {type(scalar).__name__}"
        )
    data = frame.vector(left.slot)
    if _np is not None and isinstance(data, _np.ndarray):
        return _positions_from_mask(_NP_OPS[op](data, scalar))
    fn = OPERATORS[op]
    return _as_index([i for i, v in enumerate(data) if fn(v, scalar)])


def _fixed_quantified_positions(
    frame: Frame, pred: SubqueryPred, params: tuple, context: "ExecutionContext"
):
    """Rows satisfying ``v op ANY|ALL (S)`` where S reads no column of the row.

    S has one result for this run of the block: one memo probe, then one
    kernel against the result's min or max (a NumPy ufunc, or a list
    comprehension without NumPy).  A probe column of the other family
    raises per batch, as the comparison kernels do; ``<> ANY``, ``= ALL``
    and mixed families test row by row against the one result.
    """
    actual = tuple(_scalar_value(e, params) for e in pred.param_exprs)
    values = context.subquery_values(pred.plan, actual, runner=run_plan_rows)
    op, quantifier, negated = pred.op, pred.quantifier, pred.negated
    if not values.values:
        keep = (quantifier == "ALL") != negated
        return _as_index(list(range(frame.nrows)) if keep else [])
    # A probe that is not a column makes the predicate a precheck, so the
    # planner only leaves column probes in a Filter.
    slot = pred.value_expr.slot
    family = frame.family(slot)
    if "mixed" in (family, values.family) or op in ("=", "<>"):
        return _as_index([
            i for i, v in enumerate(frame.values_list(slot))
            if values.quantified(v, op, quantifier) != negated
        ])
    if family != values.family:
        raise TypeMismatchError(
            f"cannot compare {family} column with the subquery's {values.family} values"
        )
    bound = values.bound(op, quantifier)
    if bound is None:  # NaN decides: no probe of the family holds
        return _as_index(list(range(frame.nrows)) if negated else [])
    data = frame.vector(slot)
    if _np is not None and isinstance(data, _np.ndarray):
        mask = _NP_OPS[op](data, bound)
        return _positions_from_mask(~mask if negated else mask)
    fn = OPERATORS[op]
    return _as_index([i for i, v in enumerate(data) if fn(v, bound) != negated])


def _subquery_positions(
    frame: Frame, pred: SubqueryPred, params: tuple, context: "ExecutionContext"
) -> list[int]:
    """Rows satisfying a residual subquery predicate (memoized per params)."""
    if pred.kind == "quantified" and not pred.subquery_reads_row:
        return _fixed_quantified_positions(frame, pred, params, context)
    columns = [_expr_values(e, frame, params) for e in pred.param_exprs]
    value_column = (
        _expr_values(pred.value_expr, frame, params)
        if pred.value_expr is not None
        else None
    )
    negated = pred.negated
    keep: list[int] = []
    for i in range(frame.nrows):
        actual = tuple(
            payload[i] if is_vector else payload for is_vector, payload in columns
        )
        if pred.kind == "exists":
            found = context.subquery_exists(
                pred.plan, actual, runner=run_plan_nonempty
            )
            ok = not found if negated else found
        else:
            is_vector, payload = value_column
            value = payload[i] if is_vector else payload
            values = context.subquery_values(pred.plan, actual, runner=run_plan_rows)
            if pred.kind == "in":
                found = values.contains(value)
                ok = not found if negated else found
            else:
                holds = values.quantified(value, pred.op, pred.quantifier)
                ok = not holds if negated else holds
        if ok:
            keep.append(i)
    return keep


def _apply_predicates_tracked(
    frame: Frame, predicates, params: tuple, context: "ExecutionContext"
):
    """Conjunction of predicates as successive selection-vector narrowings.

    Each predicate only sees rows surviving the previous ones, mirroring
    the row engine's per-row short-circuit at batch granularity.  Returns
    the narrowed frame plus the cumulative selection vector relative to
    the input frame (``None`` when every row survived).
    """
    cumulative = None
    for pred in predicates:
        if frame.nrows == 0:
            break
        if type(pred) is CompiledComparison:
            positions = _comparison_positions(frame, pred, params)
        else:
            positions = _subquery_positions(frame, pred, params, context)
        frame = frame.take(positions)
        cumulative = positions if cumulative is None else _compose(cumulative, positions)
    return frame, cumulative


def _apply_predicates(
    frame: Frame, predicates, params: tuple, context: "ExecutionContext"
) -> Frame:
    return _apply_predicates_tracked(frame, predicates, params, context)[0]


# ---------------------------------------------------------------------- #
# operators
# ---------------------------------------------------------------------- #


def _run_scan(node: Scan, context: "ExecutionContext", params: tuple) -> Frame:
    table = context.columnar_table(context.database.relation(node.table))
    return Frame.from_table(table)


def _run_filter(node: Filter, context: "ExecutionContext", params: tuple) -> Frame:
    frame = _run_node(node.child, context, params)
    return _apply_predicates(frame, node.predicates, params, context)


def _check_join_families(
    build_frame: Frame,
    build_keys: tuple[ScalarExpr, ...],
    probe_frame: Frame,
    probe_keys: tuple[ScalarExpr, ...],
) -> None:
    """Mirror the row engine's join type errors at batch granularity.

    The row engine raises when a probe value's family is not among the
    build side's key families (or the build side mixes families); with
    homogeneous columns this is one family comparison per key column.
    """
    for position, (bk, pk) in enumerate(zip(build_keys, probe_keys)):
        bfam = (
            build_frame.family(bk.slot)
            if type(bk) is Col
            else value_family(_scalar_value(bk, ()))
        )
        pfam = (
            probe_frame.family(pk.slot)
            if type(pk) is Col
            else value_family(_scalar_value(pk, ()))
        )
        if bfam == "mixed":
            raise TypeMismatchError(
                f"join key {position} mixes string and numeric values"
            )
        if pfam == "mixed" or bfam != pfam:
            raise TypeMismatchError(
                f"cannot compare {pfam} values with {bfam} values of join key {position}"
            )


def _key_rows(frame: Frame, keys: tuple[ScalarExpr, ...], params: tuple) -> list:
    """Hashable join-key values per row (tuples for composite keys)."""
    vectors = []
    for expr in keys:
        is_vector, payload = _expr_values(expr, frame, params)
        vectors.append(payload if is_vector else [payload] * frame.nrows)
    if len(vectors) == 1:
        return vectors[0]
    return list(zip(*vectors))


def _np_join_pairs(build_keys, probe_keys):
    """Matching (build_row, probe_row) index pairs, fully vectorized.

    Sort-based equivalent of the hash join for NumPy key arrays: factorize
    the build keys with ``unique``, locate every probe key by binary
    search, then expand matches through a CSR-style (offsets, counts)
    layout — one ``repeat``/``arange`` pass instead of a Python probe loop.
    """
    unique_keys, build_groups = _np.unique(build_keys, return_inverse=True)
    order = _np.argsort(build_groups, kind="stable")
    counts = _np.bincount(build_groups, minlength=len(unique_keys))
    offsets = _np.concatenate(([0], _np.cumsum(counts)[:-1]))

    slot = _np.searchsorted(unique_keys, probe_keys)
    slot = _np.minimum(slot, len(unique_keys) - 1)
    matched = unique_keys[slot] == probe_keys
    probe_rows = _np.nonzero(matched)[0]
    groups = slot[matched]
    group_counts = counts[groups]
    total = int(group_counts.sum())
    empty = _np.empty(0, dtype=_np.int64)
    if total == 0:
        return empty, empty
    probe_expanded = _np.repeat(probe_rows, group_counts)
    starts = _np.repeat(offsets[groups], group_counts)
    running = _np.cumsum(group_counts)
    within = _np.arange(total, dtype=_np.int64) - _np.repeat(
        running - group_counts, group_counts
    )
    return order[starts + within], probe_expanded


def _run_hash_join(node: HashJoin, context: "ExecutionContext", params: tuple) -> Frame:
    left = _run_node(node.left, context, params)
    right = _run_node(node.right, context, params)
    # The row engine returns without error when the build (right) side is
    # empty, and never type-checks when no probe row is reached.
    if right.nrows == 0 or left.nrows == 0:
        return _empty_like(left, right)
    _check_join_families(right, node.right_keys, left, node.left_keys)

    # Build on the smaller input: estimated cardinality decided the join
    # *order* at plan time; actual cardinality decides the build side here.
    build_frame, build_key_exprs, probe_frame, probe_key_exprs, build_is_left = (
        (left, node.left_keys, right, node.right_keys, True)
        if left.nrows <= right.nrows
        else (right, node.right_keys, left, node.left_keys, False)
    )

    build_idx = probe_idx = None
    if _np is not None and len(build_key_exprs) == 1:
        bk, pk = build_key_exprs[0], probe_key_exprs[0]
        if type(bk) is Col and type(pk) is Col:
            build_vec = build_frame.vector(bk.slot)
            probe_vec = probe_frame.vector(pk.slot)
            if isinstance(build_vec, _np.ndarray) and isinstance(probe_vec, _np.ndarray):
                build_idx, probe_idx = _np_join_pairs(build_vec, probe_vec)

    if build_idx is None:
        build_keys = _key_rows(build_frame, build_key_exprs, params)
        probe_keys = _key_rows(probe_frame, probe_key_exprs, params)
        table: dict = {}
        group_by_key(
            range(len(build_keys)), build_keys.__getitem__, table, len(build_key_exprs) == 1
        )
        build_idx = []
        probe_idx = []
        for position, key in enumerate(probe_keys):
            bucket = table.get(key)
            if bucket is not None:
                if len(bucket) == 1:
                    build_idx.append(bucket[0])
                    probe_idx.append(position)
                else:
                    build_idx.extend(bucket)
                    probe_idx.extend([position] * len(bucket))

    if build_is_left:
        l_idx, r_idx = build_idx, probe_idx
    else:
        l_idx, r_idx = probe_idx, build_idx
    return _concat(left.take(l_idx), right.take(r_idx))


def _run_nested_loop(
    node: NestedLoopJoin, context: "ExecutionContext", params: tuple
) -> Frame:
    left = _run_node(node.left, context, params)
    right = _run_node(node.right, context, params)
    if left.nrows == 0 or right.nrows == 0:
        return _empty_like(left, right)
    nl, nr = left.nrows, right.nrows
    chunk = max(1, _NESTED_LOOP_CHUNK_PAIRS // nr)
    surviving_l: list[int] = []
    surviving_r: list[int] = []
    for start in range(0, nl, chunk):
        stop = min(start + chunk, nl)
        span = stop - start
        if _np is not None:
            l_idx = _np.repeat(_np.arange(start, stop, dtype=_np.int64), nr)
            r_idx = _np.tile(_np.arange(nr, dtype=_np.int64), span)
        else:
            l_idx = [i for i in range(start, stop) for _ in range(nr)]
            r_idx = list(range(nr)) * span
        combined = _concat(left.take(l_idx), right.take(r_idx))
        _, kept = _apply_predicates_tracked(combined, node.predicates, params, context)
        if kept is None:  # every pair of the chunk survived
            surviving_l.extend(_index_list(l_idx))
            surviving_r.extend(_index_list(r_idx))
        else:
            surviving_l.extend(_index_list(_gather(l_idx, kept)))
            surviving_r.extend(_index_list(_gather(r_idx, kept)))
    return _concat(left.take(surviving_l), right.take(surviving_r))


def _run_semi_join(node: SemiJoin, context: "ExecutionContext", params: tuple) -> Frame:
    from .executor import _eval_expr

    child = _run_node(node.child, context, params)
    anti = type(node) is AntiJoin
    if child.nrows == 0:
        return child
    actual = tuple(_eval_expr(e, (), params) for e in node.param_exprs)
    values = context.subquery_values(node.plan, actual, runner=run_plan_rows)
    probe = node.probe
    if type(probe) is not Col:
        scalar = _scalar_value(probe, params)
        ok = values.contains(scalar) != anti
        return child if ok else child.take(_as_index([]))
    if not values.values:
        return child if anti else child.take(_as_index([]))
    data = child.vector(probe.slot)
    if (
        _np is not None
        and isinstance(data, _np.ndarray)
        and values.family == "num"
    ):
        mask = _np.isin(data, list(values.as_set()))
        if anti:
            mask = ~mask
        return child.take(_positions_from_mask(mask))
    probe_values = child.values_list(probe.slot)
    if values.family == child.family(probe.slot) and values.family in ("num", "str"):
        members = values.as_set()
        keep = [i for i, v in enumerate(probe_values) if (v in members) != anti]
    else:
        keep = [i for i, v in enumerate(probe_values) if values.contains(v) != anti]
    return child.take(keep)


def _run_project(node: Project, context: "ExecutionContext", params: tuple) -> Frame:
    child = _run_node(node.child, context, params)
    slots: list[_Slot] = []
    for expr in node.exprs:
        if type(expr) is Col:
            slots.append(child.slots[expr.slot])
        else:
            value = _scalar_value(expr, params)
            slots.append(_Slot([value] * child.nrows, value_family(value)))
    return Frame(child.nrows, slots)


def _run_distinct(node: Distinct, context: "ExecutionContext", params: tuple) -> Frame:
    child = _run_node(node.child, context, params)
    deduped = list(dict.fromkeys(child.rows()))
    return Frame.from_rows(deduped, len(child.slots))


def _run_aggregate(node: Aggregate, context: "ExecutionContext", params: tuple) -> Frame:
    child = _run_node(node.child, context, params)
    n = child.nrows
    if node.group_exprs:
        key_columns = (_expr_values(e, child, params) for e in node.group_exprs)
        keys = zip(*(
            payload if is_vector else repeat(payload, n) for is_vector, payload in key_columns
        ))
        buckets: dict[tuple, list[int]] = {}
        for i, key in enumerate(keys):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [i]
            else:
                bucket.append(i)
        groups = buckets.values()  # first-seen order
    else:
        # A global aggregate takes its input whole, with no key per row;
        # an empty input makes no row, as in the oracle.
        groups = (range(n),) if n else ()
    # Each item's values; COUNT(*) counts a 1 per row.
    columns = []
    for item in node.items:
        expr = item[1] if item[0] == "col" else item[2]
        columns.append((False, 1) if expr is None else _expr_values(expr, child, params))
    rows: list[tuple] = []
    for positions in groups:
        out: list[Value] = []
        for item, (is_vector, payload) in zip(node.items, columns):
            if item[0] == "col":
                out.append(payload[positions[0]] if is_vector else payload)
                continue
            if not is_vector:
                values = [payload] * len(positions)
            elif len(positions) == n:  # every row, in order
                values = payload
            else:
                values = [payload[p] for p in positions]
            out.append(apply_aggregate(item[1], values))
        rows.append(tuple(out))
    return Frame.from_rows(rows, len(node.items))


def _topk_order(
    child: Frame,
    keys: tuple[ScalarExpr, ...],
    descending: tuple[bool, ...],
    params: tuple,
    cutoff: int | None,
    stats,
):
    """Indices of the top ``cutoff`` rows of ``child`` in rank order.

    NumPy path (all key columns numeric arrays): partial selection via
    ``argpartition`` on the primary key — descending keys are negated,
    which is only well-defined for numbers, hence the numeric gate — then
    a stable ``lexsort`` refinement over the surviving candidates.  With a
    single key the ``cutoff`` partitioned rows are exactly the answer (any
    subset of boundary ties is acceptable: full-key ties rank arbitrarily);
    with compound keys the candidate set is widened to *every* row tied
    with the partition boundary on the primary key, because a boundary tie
    excluded by ``argpartition`` could still win on a secondary key.

    Fallback (strings, mixed columns, no NumPy): a bounded heap of row
    indices keyed by :class:`~.values.OrderKey` — the same comparator the
    row engines rank with.
    """
    n = child.nrows
    np_vectors = None
    if _np is not None:
        np_vectors = []
        for expr in keys:
            vec = child.vector(expr.slot) if type(expr) is Col else None
            if vec is None or not isinstance(vec, _np.ndarray):
                np_vectors = None
                break
            np_vectors.append(vec)
    if np_vectors is not None:
        adjusted = [
            -vec if desc else vec for vec, desc in zip(np_vectors, descending)
        ]
        if cutoff is not None and cutoff < n:
            primary = adjusted[0]
            part = _np.argpartition(primary, cutoff - 1)[:cutoff]
            if len(adjusted) == 1:
                candidates = part
            else:
                boundary = primary[part].max()
                candidates = _np.nonzero(primary <= boundary)[0]
            stats.topk_held_rows = max(stats.topk_held_rows, len(candidates))
            ranked = candidates[
                _np.lexsort(tuple(a[candidates] for a in reversed(adjusted)))
            ]
            return ranked[:cutoff]
        stats.topk_held_rows = max(stats.topk_held_rows, n)
        return _np.lexsort(tuple(reversed(adjusted)))

    columns = [_expr_values(expr, child, params) for expr in keys]

    def key_of(i: int) -> OrderKey:
        return OrderKey(
            tuple(
                payload[i] if is_vector else payload
                for is_vector, payload in columns
            ),
            descending,
        )

    if cutoff is not None and cutoff < n:
        ranked = heapq.nsmallest(cutoff, range(n), key=key_of)
    else:
        ranked = sorted(range(n), key=key_of)
    stats.topk_held_rows = max(stats.topk_held_rows, len(ranked))
    return ranked


def _run_topk_distinct(
    node: TopK, child: Frame, cutoff: int | None, stats, params: tuple
) -> Frame:
    """Fused DISTINCT + TopK: rank raw vectors first, dedup candidates only.

    Ranking happens on the child's (possibly NumPy) columns *before* any
    tuple materialization; only the ranked candidate prefix is gathered
    into rows and deduplicated in rank order.  The candidate count starts
    at the cutoff and grows geometrically until the prefix holds enough
    distinct rows: the top-``m`` prefix contains every row ranked strictly
    below its boundary key, so once ``cutoff`` distinct rows emerge, any
    distinct row left outside the prefix can at best tie the boundary —
    and boundary ties are the final, arbitrarily-truncated group anyway.
    """
    n = child.nrows
    width = len(child.slots)
    offset = node.offset
    if cutoff is None or cutoff >= n:
        order = _topk_order(child, node.keys, node.descending, params, None, stats)
        rows = list(dict.fromkeys(child.take(_as_index(order)).rows()))
        return Frame.from_rows(rows[offset:cutoff], width)
    m = cutoff
    while True:
        order = _topk_order(child, node.keys, node.descending, params, m, stats)
        rows = list(dict.fromkeys(child.take(_as_index(order)).rows()))
        if len(rows) >= cutoff or m >= n:
            return Frame.from_rows(rows[offset:cutoff], width)
        m = min(n, m * 8)


def _run_topk(node: TopK, context: "ExecutionContext", params: tuple) -> Frame:
    child = _run_node(node.child, context, params)
    stats = context.stats
    stats.topk_input_rows += child.nrows
    limit, offset = node.limit, node.offset
    cutoff = None if limit is None else limit + offset
    if not node.keys:
        # Bare LIMIT: batch operators have already produced the child
        # frame, so "laziness" here is just a head slice of the selection
        # vector — no payload column is gathered beyond the cutoff.
        if cutoff is None:  # pragma: no cover - planner never emits this
            return child
        if node.distinct:
            rows: list[tuple] = []
            seen: set[tuple] = set()
            for row in child.rows():
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
                    if len(rows) >= cutoff:
                        break
            return Frame.from_rows(rows[offset:], len(child.slots))
        stop = min(cutoff, child.nrows)
        return child.take(_as_index(list(range(min(offset, stop), stop))))
    if node.distinct:
        return _run_topk_distinct(node, child, cutoff, stats, params)
    order = _topk_order(
        child, node.keys, node.descending, params, cutoff, stats
    )
    if cutoff is not None:
        order = order[offset:cutoff]
    elif offset:  # pragma: no cover - parser requires LIMIT before OFFSET
        order = order[offset:]
    return child.take(_as_index(order))


_NODE_HANDLERS = {
    Scan: _run_scan,
    Filter: _run_filter,
    HashJoin: _run_hash_join,
    NestedLoopJoin: _run_nested_loop,
    SemiJoin: _run_semi_join,
    AntiJoin: _run_semi_join,
    Project: _run_project,
    Distinct: _run_distinct,
    Aggregate: _run_aggregate,
    TopK: _run_topk,
}


def _run_node(node: PlanNode, context: "ExecutionContext", params: tuple) -> Frame:
    handler = _NODE_HANDLERS.get(type(node))
    if handler is None:
        raise EngineError(f"unsupported plan node: {type(node).__name__}")
    return handler(node, context, params)


# ---------------------------------------------------------------------- #
# entry points
# ---------------------------------------------------------------------- #


def run_plan_rows(
    plan: BlockPlan, context: "ExecutionContext", params: tuple = ()
) -> list[tuple]:
    """Evaluate a block plan's operator tree columnar; return row tuples.

    This is the *subplan runner* handed to the execution context's
    memoized subquery evaluation, so nested blocks of a columnar query run
    columnar too (prechecks are applied by the context before calling).
    """
    return _run_node(plan.root, context, params).rows()


def run_plan_nonempty(
    plan: BlockPlan, context: "ExecutionContext", params: tuple = ()
) -> list[tuple]:
    """Existence-only subplan runner: never materializes row tuples.

    Batch operators can't stream, so the operator tree runs in full either
    way — but an EXISTS probe only needs the final frame's row *count*,
    and skipping the per-row tuple materialization matters when the
    subquery result is large (hub keys under zipfian skew).
    """
    return [()] if _run_node(plan.root, context, params).nrows else []


def run_block_columnar(
    plan: BlockPlan, context: "ExecutionContext", params: tuple = ()
) -> "ResultSet":
    """Execute a compiled block plan with the columnar backend.

    A ranked block that stops early on this run
    (:meth:`~.executor.ExecutionContext.stops_early`) reads about its
    limit of rows on the rows engine, where a frame would hold every row,
    so it runs there.
    """
    from .executor import ResultSet, _prechecks_pass, _program

    if not _prechecks_pass(plan, context, params):
        return ResultSet(columns=plan.columns, rows=())
    root = plan.root
    if (
        type(root) is TopK
        and root.key_order is not None
        and context.stops_early(root.key_order)
    ):
        rows = _program(plan).run(context, params)
    else:
        rows = _run_node(root, context, params).rows()
    return ResultSet(columns=plan.columns, rows=tuple(rows))


# ---------------------------------------------------------------------- #
# backend registration
# ---------------------------------------------------------------------- #


def _register() -> None:
    # Imported here, not at module top: executor.py only references this
    # module lazily, and resolving the enum inside the function keeps the
    # import graph acyclic no matter which module loads first.
    from .backends import ExecutionBackend, register_backend
    from .executor import ExecutionMode

    class _ColumnarBackend(ExecutionBackend):
        """``COLUMNAR``: the vectorized engine behind the backend registry."""

        mode = ExecutionMode.COLUMNAR

        def execute(self, query, context: "ExecutionContext") -> "ResultSet":
            from ..faults import fault_point

            # Chaos stand-in for the engine's real operational failure
            # modes (NumPy import loss mid-flight, kernel OOM): a
            # FallbackBackend re-executes on the rows engine.
            fault_point("engine.columnar.execute")
            context.refresh()
            return run_block_columnar(context.plan(query), context)

    register_backend(_ColumnarBackend())


_register()
