"""In-memory relational engine: database, planner, pluggable execution backends."""

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
    registered_modes,
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
from .stats import CatalogStatistics, KMVSketch, TableStats, stable_hash
from .values import Value, compare, values_comparable

#: Another name for :class:`Executor`, which runs whole workloads itself.
BatchExecutor = Executor

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
    "KMVSketch",
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
    "registered_modes",
    "reset_breakers",
    "stable_hash",
    "values_comparable",
    "with_fallback",
]
