"""In-memory relational engine: database, planner, pluggable execution backends.

Every public name is imported from its submodule on first access (PEP 562),
so a process that only compiles diagrams (the serving front end, a pool
worker) can import :mod:`repro.relational.errors` or
:mod:`repro.relational.backends` without loading the engines, NumPy or
``sqlite3``.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

#: Submodule -> the public names it defines.
_EXPORTS = {
    "aggregates": ("AGGREGATES", "apply_aggregate"),
    "backends": (
        "BreakerState",
        "CircuitBreaker",
        "ExecutionBackend",
        "FallbackBackend",
        "backend_for",
        "breaker_states",
        "is_recoverable",
        "register_backend",
        "reset_breakers",
        "with_fallback",
    ),
    "columnar": ("ColumnarTable",),
    "database": ("Database", "Relation", "Row"),
    "errors": (
        "AmbiguousColumnError",
        "EngineError",
        "TypeMismatchError",
        "UnknownColumnError",
        "UnknownTableError",
    ),
    "executor": (
        "ExecutionContext",
        "ExecutionMode",
        "ExecutionStats",
        "Executor",
        "ResultSet",
        "execute",
    ),
    "plan": ("BlockPlan", "PlanNode"),
    "planner": ("Planner", "plan_query"),
    "stats": ("CatalogStatistics", "TableStats"),
    "values": ("Value", "compare", "values_comparable"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .aggregates import AGGREGATES, apply_aggregate
    from .backends import (
        BreakerState,
        CircuitBreaker,
        ExecutionBackend,
        FallbackBackend,
        backend_for,
        breaker_states,
        is_recoverable,
        register_backend,
        reset_breakers,
        with_fallback,
    )
    from .columnar import ColumnarTable
    from .database import Database, Relation, Row
    from .errors import (
        AmbiguousColumnError,
        EngineError,
        TypeMismatchError,
        UnknownColumnError,
        UnknownTableError,
    )
    from .executor import (
        ExecutionContext,
        ExecutionMode,
        ExecutionStats,
        Executor,
        ResultSet,
        execute,
    )
    from .plan import BlockPlan, PlanNode
    from .planner import Planner, plan_query
    from .stats import CatalogStatistics, TableStats
    from .values import Value, compare, values_comparable

    BatchExecutor = Executor


def __getattr__(name: str):
    # BatchExecutor is another name for Executor, which runs whole
    # workloads itself.
    target = "Executor" if name == "BatchExecutor" else name
    submodule = _SUBMODULE.get(target)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Bound here, so that later lookups no longer reach this function.
    value = globals()[name] = getattr(import_module(f".{submodule}", __name__), target)
    return value


__all__ = [
    "AGGREGATES",
    "AmbiguousColumnError",
    "BatchExecutor",
    "BlockPlan",
    "BreakerState",
    "CatalogStatistics",
    "CircuitBreaker",
    "FallbackBackend",
    "ColumnarTable",
    "Database",
    "EngineError",
    "ExecutionBackend",
    "ExecutionContext",
    "ExecutionMode",
    "ExecutionStats",
    "Executor",
    "PlanNode",
    "Planner",
    "Relation",
    "ResultSet",
    "Row",
    "TableStats",
    "TypeMismatchError",
    "UnknownColumnError",
    "UnknownTableError",
    "Value",
    "apply_aggregate",
    "backend_for",
    "breaker_states",
    "compare",
    "execute",
    "is_recoverable",
    "plan_query",
    "register_backend",
    "reset_breakers",
    "values_comparable",
    "with_fallback",
]
