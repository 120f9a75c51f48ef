"""``ExecutionMode.SQL``: execute lowered plans on stdlib ``sqlite3``.

The backend composes the two halves of this package: the
:class:`~.store.SQLiteStore` (schema DDL + bulk load, kept on the execution
context and caught up with appended rows before each query) and
:func:`~.lower.lower_query` (plan → parameterized SQL, cached per plan).
Execution is then a single ``connection.execute`` with the bind
dictionary, and the cursor's tuples *are* the engine's row representation
— SQLite adapts ``INTEGER`` / ``REAL`` / ``TEXT`` back to ``int`` /
``float`` / ``str``, exactly the :data:`~repro.relational.values.Value`
union.

Error taxonomy: anything ``sqlite3`` raises is mapped onto the shared
:mod:`repro.relational.errors` hierarchy (:func:`map_sqlite_error`), and
integer binds beyond SQLite's 64-bit range (``OverflowError``) become
:class:`~repro.relational.errors.EngineError` — so all four engines raise
the same exception classes for the same failure classes.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING

from ...faults import fault_point
from ..backends import ExecutionBackend, register_backend
from ..errors import (
    AmbiguousColumnError,
    EngineError,
    UnknownColumnError,
    UnknownTableError,
)
from ..executor import ExecutionContext, ExecutionMode, ResultSet
from .lower import LoweredQuery, lower_query
from .store import SQLiteStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...sql.ast import SelectQuery

#: Key of this backend's state bucket on the execution context.
_STATE_KEY = "sql"


def map_sqlite_error(error: BaseException) -> EngineError:
    """Map a ``sqlite3`` (or bind-time) error onto the engine hierarchy.

    The planner resolves names before any SQL is generated, so the name
    branches fire only for hand-written SQL against the store — but keeping
    the full mapping means *any* path through sqlite raises the same
    exception classes as the Python engines.
    """
    message = str(error)
    lowered = message.lower()
    if isinstance(error, OverflowError):
        return EngineError(
            f"value does not fit in sqlite's 64-bit integers: {message}"
        )
    if "no such table" in lowered:
        return UnknownTableError(message)
    if "no such column" in lowered:
        return UnknownColumnError(message)
    if "ambiguous column" in lowered:
        return AmbiguousColumnError(message)
    return EngineError(f"sqlite execution failed: {message}")


class _SQLState:
    """Per-context backend state: the store plus the lowering cache."""

    __slots__ = ("store", "lowered")

    def __init__(self) -> None:
        self.store: SQLiteStore | None = None
        #: plan cache key -> (the plan lowered, its lowering).
        self.lowered: dict[tuple, tuple[object, LoweredQuery]] = {}


class SQLBackend(ExecutionBackend):
    """``SQL``: plans lowered to parameterized SQL, run on ``sqlite3``."""

    mode = ExecutionMode.SQL

    def _state(self, context: ExecutionContext) -> _SQLState:
        return context.backend_state(_STATE_KEY, _SQLState)

    def _store(self, context: ExecutionContext) -> SQLiteStore:
        state = self._state(context)
        store = state.store
        # Parked again only once level with the data: a failed catch-up
        # has closed the store and raised, and must leave nothing behind.
        state.store = None
        if store is not None:
            appended = store.catch_up()
            if appended is not None:
                context.stats.rows_appended += appended
                state.store = store
                return store
            store.close()
        store = SQLiteStore(context.database)
        context.stats.sql_store_builds += 1
        state.store = store
        return store

    def _lowered(self, plan, context: ExecutionContext) -> LoweredQuery:
        # A lowering is as fresh as its plan: the context recompiles plans
        # when the database grows, and the new plan object misses here.
        state = self._state(context)
        key = plan.cache_key
        cached = state.lowered.get(key)
        if cached is not None and cached[0] is plan:
            context.stats.sql_lower_hits += 1
            return cached[1]
        context.stats.sql_lower_misses += 1
        lowered = lower_query(plan, context.database)
        state.lowered[key] = (plan, lowered)
        return lowered

    def execute(
        self, query: "SelectQuery", context: ExecutionContext
    ) -> ResultSet:
        # Chaos stand-in for sqlite's operational failure modes (disk IO
        # errors, database corruption): a FallbackBackend re-executes on
        # the rows engine when this fires.
        fault_point("engine.sql.execute")
        context.refresh()
        plan = context.plan(query)
        lowered = self._lowered(plan, context)
        store = self._store(context)
        try:
            cursor = store.connection.execute(lowered.sql, lowered.binds)
            rows = tuple(cursor.fetchall())
        except (sqlite3.Error, OverflowError) as error:
            raise map_sqlite_error(error) from error
        return ResultSet(columns=plan.columns, rows=rows)

    def explain(self, query: "SelectQuery", context: ExecutionContext) -> str:
        plan = context.plan(query)
        lowered = self._lowered(plan, context)
        return (
            plan.describe()
            + "\n\n-- lowered SQL (sqlite) --\n"
            + lowered.describe()
        )


register_backend(SQLBackend())
