"""Batch execution pipeline: many queries over one database, shared caches.

The interactive API (:func:`repro.relational.execute`) compiles and runs one
query at a time.  Batch workloads — the study's query corpus, generated
differential-testing workloads, benchmark sweeps — repeatedly touch the same
tables and frequently share whole subqueries, so the batch executor keeps
one :class:`~repro.relational.executor.ExecutionContext` alive across the
whole run:

* each distinct query AST is planned once (plan cache);
* each relation is materialized into flat row tuples once (scan cache);
* each distinct (subquery, correlated-values) pair is evaluated once across
  *all* queries of the batch (subquery cache) — frozen AST nodes make the
  subquery itself a safe cache key.

Inserts may come between any two queries: the context drops its plans and
subquery results when the database grows, and its data mirrors append the
new rows.  The database API is append-only; mutating rows in place behind
it is not detected.

``disk_cache=`` additionally persists query *results* to a
:class:`~repro.pipeline.diskcache.DiskCache` store, keyed on the query, the
schema and :meth:`~.database.Database.content_digest` — so a fresh process
replaying yesterday's workload against the same data serves results
straight from disk, and a database with other rows, even as many of them,
never shares a result.  The same trust rules as the diagram pipeline
apply: corrupt, version-mismatched or foreign entries are evicted and
recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pipeline.diskcache import DiskCache

from ..sql.ast import SelectQuery
from ..sql.parser import parse
from .database import Database
from .executor import ExecutionContext, ExecutionMode, Executor, ResultSet

#: Stage label under which query results live in a shared disk store.
_RESULT_STAGE = "exec-result"


@dataclass(frozen=True)
class BatchStats:
    """Cache effectiveness of one batch run."""

    queries: int
    plan_hits: int
    plan_misses: int
    subquery_hits: int
    subquery_misses: int
    scan_hits: int
    scan_misses: int
    result_disk_hits: int = 0
    sql_store_builds: int = 0
    sql_lower_hits: int = 0
    sql_lower_misses: int = 0

    def describe(self) -> str:
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
        if self.result_disk_hits:
            text += f", {self.result_disk_hits} results from disk"
        return text


class BatchExecutor:
    """Executes many queries over one database with shared plan/data caches.

    >>> batch = BatchExecutor(database)
    >>> results = batch.run(queries)          # list[ResultSet]
    >>> batch.stats().describe()
    '12 queries: plans 4/12 cached, ...'

    Accepts SQL text or parsed :class:`~repro.sql.ast.SelectQuery` objects.
    ``mode`` defaults to planned execution; the naive oracle is available
    for differential runs, in which case only parsing is shared.
    """

    def __init__(
        self,
        database: Database,
        mode: ExecutionMode = ExecutionMode.PLANNED,
        disk_cache: DiskCache | str | Path | None = None,
        fallback: bool = False,
    ) -> None:
        self._db = database
        self._mode = mode
        self._context = ExecutionContext(database)
        self._executor = Executor(
            database, mode=mode, context=self._context, fallback=fallback
        )
        self._queries_run = 0
        if disk_cache is not None and not hasattr(disk_cache, "get"):
            # Imported lazily: repro.logic pulls in this package at import
            # time, and repro.pipeline sits on top of repro.logic — a
            # module-level import would be circular.
            from ..pipeline.diskcache import DiskCache

            disk_cache = DiskCache(Path(disk_cache))
        self._disk_cache = disk_cache
        # Results are only trustworthy for exactly this schema; the
        # content digest participates per lookup (it changes mid-batch
        # when callers insert between runs).
        self._disk_namespace = f"exec|{database.schema!r}"
        self._result_disk_hits = 0

    @property
    def database(self) -> Database:
        return self._db

    @property
    def mode(self) -> ExecutionMode:
        return self._mode

    @property
    def context(self) -> ExecutionContext:
        return self._context

    @property
    def disk_cache(self) -> DiskCache | None:
        return self._disk_cache

    def execute(self, query: SelectQuery | str) -> ResultSet:
        """Execute one query (SQL text or AST) through the shared context."""
        if isinstance(query, str):
            query = parse(query)
        self._queries_run += 1
        disk = self._disk_cache
        if disk is None or self._mode is ExecutionMode.NAIVE:
            # Planned, columnar and SQL results are interchangeable
            # (identical sets by the differential contract), so all three
            # may serve from and populate the persistent store; the naive
            # oracle stays live.
            return self._executor.execute(query)
        from ..pipeline.diskcache import stable_key_digest

        digest = stable_key_digest(
            self._disk_namespace,
            _RESULT_STAGE,
            (query, self._db.content_digest()),
        )
        found, cached = disk.get(digest, _RESULT_STAGE)
        if found and isinstance(cached, ResultSet):
            self._result_disk_hits += 1
            return cached
        result = self._executor.execute(query)
        disk.put(digest, _RESULT_STAGE, result)
        return result

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
        """The plan the batch would use for ``query``."""
        if isinstance(query, str):
            query = parse(query)
        return self._executor.explain(query)

    def stats(self) -> BatchStats:
        """Cache counters accumulated so far."""
        counters = self._context.stats
        return BatchStats(
            queries=self._queries_run,
            plan_hits=counters.plan_hits,
            plan_misses=counters.plan_misses,
            subquery_hits=counters.subquery_hits,
            subquery_misses=counters.subquery_misses,
            scan_hits=counters.scan_hits,
            scan_misses=counters.scan_misses,
            result_disk_hits=self._result_disk_hits,
            sql_store_builds=counters.sql_store_builds,
            sql_lower_hits=counters.sql_lower_hits,
            sql_lower_misses=counters.sql_lower_misses,
        )


def execute_batch(
    queries: Sequence[SelectQuery | str],
    database: Database,
    mode: ExecutionMode = ExecutionMode.PLANNED,
) -> list[ResultSet]:
    """One-call batch execution (see :class:`BatchExecutor`)."""
    return BatchExecutor(database, mode=mode).run(queries)
