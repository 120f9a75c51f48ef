"""``ExecutionMode.SQL``: execute lowered plans on stdlib ``sqlite3``.

The backend composes the two halves of this package: the
:class:`~.store.SQLiteStore` (schema DDL + bulk load, kept on the execution
context as ``sql_store`` and caught up with appended rows before each
query) and :func:`~.lower.lower_query` (plan → parameterized SQL, kept on
the plan).  Execution is then a single ``connection.execute`` with the
bind dictionary, and the cursor's tuples *are* the engine's row
representation — SQLite adapts ``INTEGER`` / ``REAL`` / ``TEXT`` back to
``int`` / ``float`` / ``str``, exactly the
:data:`~repro.relational.values.Value` union.

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


class SQLBackend(ExecutionBackend):
    """``SQL``: plans lowered to parameterized SQL, run on ``sqlite3``."""

    mode = ExecutionMode.SQL

    def _store(self, context: ExecutionContext) -> SQLiteStore:
        store = context.sql_store
        # Kept again only once level with the data: a failed catch-up
        # has closed the store and raised, and must leave nothing behind.
        context.sql_store = None
        if store is not None:
            appended = store.catch_up()
            if appended is not None:
                context.stats.rows_appended += appended
                context.sql_store = store
                return store
            store.close()
        store = SQLiteStore(context.database)
        context.stats.sql_store_builds += 1
        context.sql_store = store
        return store

    def _lowered(self, plan, context: ExecutionContext) -> LoweredQuery:
        # The lowering lives on its plan and leaves memory with it: the
        # context replans once a table the plan reads has more than
        # doubled or shrunk, and evicts plans past its bound.  It reads
        # only the schema, never the rows, so it stays valid while the
        # plan does.
        lowered = plan.lowered
        if lowered is not None:
            context.stats.sql_lower_hits += 1
            return lowered
        context.stats.sql_lower_misses += 1
        lowered = lower_query(plan, context.database)
        plan.lowered = lowered
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
        rows = tuple(self._run(lowered, context, ""))
        return ResultSet(columns=plan.columns, rows=rows)

    def _run(self, lowered: LoweredQuery, context: ExecutionContext, prefix: str) -> list:
        """``prefix`` + the lowered SQL run on the caught-up, indexed store."""
        store = self._store(context)
        try:
            store.create_indexes(lowered.indexes)
            return store.connection.execute(prefix + lowered.sql, lowered.binds).fetchall()
        except (sqlite3.Error, OverflowError) as error:
            raise map_sqlite_error(error) from error

    def explain(self, query: "SelectQuery", context: ExecutionContext) -> str:
        plan = context.plan(query)
        lowered = self._lowered(plan, context)
        # sqlite's own plan, one line per step, indented under its parent.
        depth = {0: -1}
        steps = []
        for step, parent, _, detail in self._run(lowered, context, "EXPLAIN QUERY PLAN "):
            depth[step] = depth.get(parent, -1) + 1
            steps.append("  " * depth[step] + detail)
        return (
            plan.describe()
            + "\n\n-- lowered SQL (sqlite) --\n"
            + lowered.describe()
            + "\n\n-- sqlite query plan --\n"
            + "\n".join(steps)
        )


register_backend(SQLBackend())
