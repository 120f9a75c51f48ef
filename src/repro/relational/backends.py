"""Pluggable execution backends: the registry every engine plugs into.

Historically :class:`~repro.relational.executor.Executor` branched on
:class:`~repro.relational.executor.ExecutionMode` with hard-coded imports.
That worked for three engines but made every new engine a cross-cutting
edit (executor, batch, CLI, benchmarks all knew the mode list).  This
module inverts the dependency: an engine implements
:class:`ExecutionBackend` and registers itself; the executor facade and
the CLI dispatch through :func:`backend_for` and never name a concrete
engine again — the `lsst.daf.relation` pattern of compiling one plan
vocabulary to interchangeable engines.

Backends registered out of the box:

* ``NAIVE`` / ``PLANNED`` — registered by :mod:`repro.relational.executor`
  itself (the reference oracle and the row pipeline live there);
* ``COLUMNAR`` — registered by :mod:`repro.relational.columnar`;
* ``SQL`` — registered by :mod:`repro.relational.sqlbackend` (plan trees
  lowered to parameterized SQL on stdlib ``sqlite3``).

Registration is lazy and self-healing: modules that define a backend are
imported on the first :func:`backend_for` miss, so ``backend_for`` works
whether callers imported the package facade or a single module.

Graceful degradation lives here too.  :func:`with_fallback` wraps any
registered engine in a :class:`FallbackBackend`: a *recoverable* failure
(an injected fault, an OS/sqlite operational error, NumPy import loss)
re-executes the query on the PLANNED rows engine — the pure-Python
pipeline with no native dependencies, the engine that keeps answering
when everything else is on fire.  Each wrapped engine carries a
:class:`CircuitBreaker`: after ``failure_threshold`` *consecutive*
recoverable failures the breaker opens and the primary is skipped
outright for ``reset_timeout`` seconds, after which one half-open probe
decides whether it closes again.  Semantic errors — the documented
divergences like :class:`~.errors.TypeMismatchError`, unknown tables or
columns — are contractual, not operational: they never trigger fallback
(the fallback engine would raise them too) and never move the breaker.
"""

from __future__ import annotations

import abc
import sys
import time
from dataclasses import dataclass, field
from enum import Enum
from importlib import import_module
from typing import TYPE_CHECKING, Callable

from ..faults import InjectedFault
from .errors import (
    AmbiguousColumnError,
    EngineError,
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sql.ast import SelectQuery
    from .executor import ExecutionContext, ExecutionMode, ResultSet


class ExecutionBackend(abc.ABC):
    """One execution engine: turns queries into :class:`~.executor.ResultSet`.

    Implementations set :attr:`mode` to the :class:`~.executor.ExecutionMode`
    they serve and register an *instance* via :func:`register_backend`.
    Backends share the caller's :class:`~.executor.ExecutionContext` — plans,
    scans and memoized subqueries are engine-independent, and per-engine
    state (columnar tables, the SQLite store) hangs off the context too.
    When the database grows the context drops memoized subqueries and
    keeps each plan until a table it reads has more than doubled, while
    the data mirrors append the new rows.  So nothing a
    backend derives from a plan may depend on the data it was planned
    against.
    """

    #: The mode this backend serves (set by subclasses).
    mode: "ExecutionMode"

    @abc.abstractmethod
    def execute(
        self, query: "SelectQuery", context: "ExecutionContext"
    ) -> "ResultSet":
        """Execute ``query`` against ``context.database``."""

    def explain(self, query: "SelectQuery", context: "ExecutionContext") -> str:
        """EXPLAIN-style rendering; backends may append engine detail."""
        return context.plan(query).describe()


#: mode -> backend instance.  Keyed by the enum member itself.
_REGISTRY: dict["ExecutionMode", ExecutionBackend] = {}

#: mode value -> module that registers the backend on import.  Lets
#: ``backend_for`` self-heal when a caller never imported the engine module.
_LAZY_MODULES: dict[str, str] = {
    "columnar": "repro.relational.columnar",
    "sql": "repro.relational.sqlbackend",
}


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Register ``backend`` for its mode (last registration wins)."""
    _REGISTRY[backend.mode] = backend
    return backend


def backend_for(mode: "ExecutionMode") -> ExecutionBackend:
    """The registered backend serving ``mode`` (importing it if needed)."""
    backend = _REGISTRY.get(mode)
    if backend is None:
        module = _LAZY_MODULES.get(getattr(mode, "value", ""))
        if module is not None:
            import_module(module)
            backend = _REGISTRY.get(mode)
    if backend is None:
        raise EngineError(f"no execution backend registered for {mode!r}")
    return backend


# ---------------------------------------------------------------------- #
# graceful degradation: recoverability, circuit breakers, fallback
# ---------------------------------------------------------------------- #

#: Errors every engine raises identically by contract (see
#: ``docs/sql_backend.md``'s divergence policy): retrying them on another
#: engine is pointless and would *hide* a semantic bug, so they propagate.
_SEMANTIC_ERRORS = (
    TypeMismatchError,
    UnknownTableError,
    UnknownColumnError,
    AmbiguousColumnError,
)


def is_recoverable(error: BaseException) -> bool:
    """Whether ``error`` is operational (retry elsewhere) vs semantic.

    Recoverable: injected faults, OS-level IO failures, sqlite operational
    errors (raw or already mapped onto the generic :class:`EngineError`),
    and import loss of an optional native dependency (NumPy).  Not
    recoverable: the semantic error classes all engines share, and
    anything unrecognized — an unknown exception class is a bug to
    surface, not a reason to silently re-execute.
    """
    if isinstance(error, _SEMANTIC_ERRORS):
        return False
    if isinstance(error, (InjectedFault, OSError, ImportError)):
        return True
    # No sqlite3.Error can exist before sqlite3 is imported, so a process
    # that never ran the SQL engine need not import it to answer.
    sqlite3 = sys.modules.get("sqlite3")
    if sqlite3 is not None and isinstance(error, sqlite3.Error):
        return True
    # The generic EngineError covers mapped sqlite operational failures;
    # its semantic subclasses were already rejected above.
    return type(error) is EngineError


class BreakerState(Enum):
    """Lifecycle of one :class:`CircuitBreaker`."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class CircuitBreaker:
    """Consecutive-failure breaker with timed half-open probes.

    CLOSED counts consecutive recoverable failures; hitting
    ``failure_threshold`` opens the breaker, and while OPEN
    :meth:`allow` answers ``False`` (callers skip the primary engine
    without paying for its failure).  ``reset_timeout`` seconds after
    opening, the next :meth:`allow` admits exactly one HALF_OPEN probe:
    its success closes the breaker, its failure re-opens it for another
    full timeout.  ``clock`` is injectable so tests advance time without
    sleeping.
    """

    failure_threshold: int = 3
    reset_timeout: float = 30.0
    clock: Callable[[], float] = time.monotonic
    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    opened_at: float = field(default=0.0, repr=False)
    #: Lifetime counters (survive close/open cycles) for diagnostics.
    opens: int = 0
    probes: int = 0

    def allow(self) -> bool:
        """Whether the primary engine should be attempted right now."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self.clock() - self.opened_at < self.reset_timeout:
                return False
            self.state = BreakerState.HALF_OPEN
            self.probes += 1
            return True
        # HALF_OPEN: one probe is already in flight somewhere; further
        # calls keep falling back until it resolves.
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = BreakerState.CLOSED

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            self.state = BreakerState.OPEN
            self.opened_at = self.clock()
            self.opens += 1


#: mode value -> the breaker guarding that engine, shared process-wide so
#: every FallbackBackend (and the serving tier's /healthz) sees one truth.
_BREAKERS: dict[str, CircuitBreaker] = {}


def breaker_for(mode: "ExecutionMode") -> CircuitBreaker:
    """The process-wide breaker guarding ``mode`` (created on first use)."""
    breaker = _BREAKERS.get(mode.value)
    if breaker is None:
        breaker = _BREAKERS[mode.value] = CircuitBreaker()
    return breaker


def breaker_states() -> dict[str, str]:
    """``{mode value: breaker state}`` for every breaker created so far."""
    return {mode: breaker.state.value for mode, breaker in _BREAKERS.items()}


def reset_breakers() -> None:
    """Forget every breaker (test isolation; never needed in production)."""
    _BREAKERS.clear()


class FallbackBackend(ExecutionBackend):
    """Wraps a primary engine with breaker-guarded fallback to another.

    The fallback engine defaults to PLANNED — the dependency-free row
    pipeline.  A primary == fallback wrapper degenerates to a plain
    dispatch (there is nowhere left to fall).  Recoverable primary
    failures re-execute on the fallback and count into
    ``context.stats.fallbacks``; ``context.breaker_state`` mirrors the
    breaker after every execution so batch diagnostics and the chaos
    suite can assert on it.
    """

    def __init__(
        self,
        primary: "ExecutionMode",
        fallback: "ExecutionMode | None" = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        from .executor import ExecutionMode

        self.mode = primary
        self._fallback_mode = fallback if fallback is not None else ExecutionMode.PLANNED
        self._breaker = breaker if breaker is not None else breaker_for(primary)

    @property
    def breaker(self) -> CircuitBreaker:
        return self._breaker

    @property
    def fallback_mode(self) -> "ExecutionMode":
        return self._fallback_mode

    def execute(self, query: "SelectQuery", context: "ExecutionContext") -> "ResultSet":
        if self.mode is self._fallback_mode:
            return backend_for(self.mode).execute(query, context)
        breaker = self._breaker
        stats = context.stats
        try:
            if breaker.allow():
                try:
                    result = backend_for(self.mode).execute(query, context)
                except Exception as error:
                    if not is_recoverable(error):
                        raise
                    breaker.record_failure()
                    stats.fallbacks += 1
                    result = backend_for(self._fallback_mode).execute(query, context)
                else:
                    breaker.record_success()
            else:
                stats.breaker_skips += 1
                stats.fallbacks += 1
                result = backend_for(self._fallback_mode).execute(query, context)
        finally:
            context.breaker_state[self.mode.value] = breaker.state.value
        return result

    def explain(self, query: "SelectQuery", context: "ExecutionContext") -> str:
        return backend_for(self.mode).explain(query, context)


def with_fallback(
    mode: "ExecutionMode", fallback: "ExecutionMode | None" = None
) -> FallbackBackend:
    """A breaker-guarded fallback wrapper around ``mode``.

    Explicitly opt-in: the registry keeps serving raw engines, because the
    differential suites *need* engines that fail loudly (a silently
    falling-back SQL engine would make four-engine differential testing
    test one engine four times).
    """
    return FallbackBackend(mode, fallback=fallback)
