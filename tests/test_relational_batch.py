"""Tests for the batch execution pipeline and its shared caches."""

from __future__ import annotations

import pytest

from repro.relational import (
    BatchExecutor,
    ExecutionContext,
    ExecutionMode,
    Executor,
    execute,
)
from repro.sql import parse
from repro.workloads import (
    chinook_bench_database,
    chinook_join_workload,
    sailors_database,
)


@pytest.fixture
def db():
    return sailors_database()


class TestBatchExecutor:
    def test_accepts_sql_text_and_asts(self, db):
        batch = BatchExecutor(db)
        from_text = batch.execute("SELECT S.sname FROM Sailor S")
        from_ast = batch.execute(parse("SELECT S.sname FROM Sailor S"))
        assert from_text.as_set() == from_ast.as_set()

    def test_matches_single_query_execution(self, db):
        queries = [
            "SELECT S.sname FROM Sailor S WHERE S.rating >= 5",
            "SELECT S.sname FROM Sailor S, Reserves R WHERE S.sid = R.sid",
            "SELECT B.color, COUNT(*) FROM Boat B GROUP BY B.color",
        ]
        batch_results = BatchExecutor(db).run(queries)
        for sql, result in zip(queries, batch_results):
            assert result.as_set() == execute(parse(sql), db).as_set()

    def test_plan_cache_hits_on_repeated_queries(self, db):
        batch = BatchExecutor(db)
        query = parse("SELECT S.sname FROM Sailor S WHERE S.rating >= 5")
        batch.run([query, query, query])
        stats = batch.stats()
        assert stats.queries == 3
        assert stats.plan_misses == 1
        assert stats.plan_hits == 2

    def test_subquery_cache_shared_across_queries(self, db):
        # Two *different* top-level queries containing the same uncorrelated
        # subquery: the subquery must be evaluated once for the whole batch.
        sub = "(SELECT R.sid FROM Reserves R WHERE R.bid = 102)"
        batch = BatchExecutor(db)
        batch.execute(f"SELECT S.sname FROM Sailor S WHERE S.sid IN {sub}")
        before = batch.stats().subquery_misses
        batch.execute(f"SELECT S.age FROM Sailor S WHERE S.sid IN {sub}")
        stats = batch.stats()
        assert stats.subquery_misses == before  # second query hit the cache
        assert stats.subquery_hits >= 1

    def test_correlated_subquery_memoized_per_distinct_value(self, db):
        # Reserves has many rows per sid; the correlated EXISTS must run once
        # per distinct sid, not once per outer row enumeration.
        batch = BatchExecutor(db)
        batch.execute(
            "SELECT S.sname FROM Sailor S WHERE EXISTS "
            "(SELECT * FROM Reserves R WHERE R.sid = S.sid)"
        )
        stats = batch.stats()
        n_sailors = len(db.relation("Sailor").rows)
        assert stats.subquery_misses <= n_sailors
        # Repeating the query is answered entirely from the caches.
        batch.execute(
            "SELECT S.sname FROM Sailor S WHERE EXISTS "
            "(SELECT * FROM Reserves R WHERE R.sid = S.sid)"
        )
        assert batch.stats().subquery_misses == stats.subquery_misses

    def test_inserts_between_queries_invalidate_caches(self, db):
        # The subquery memo and the data mirrors must not serve stale
        # results after the database grows.
        sql = (
            "SELECT S.sname FROM Sailor S WHERE S.sid IN "
            "(SELECT R.sid FROM Reserves R WHERE R.bid = 102)"
        )
        batch = BatchExecutor(db)
        before = batch.execute(sql).as_set()
        db.insert("Reserves", [1, 102, "sun"])  # sailor 1 now reserves 102
        after = batch.execute(sql).as_set()
        assert after == execute(parse(sql), db, mode=ExecutionMode.NAIVE).as_set()
        assert after != before

    @pytest.mark.parametrize(
        "mode", [ExecutionMode.PLANNED, ExecutionMode.COLUMNAR, ExecutionMode.SQL]
    )
    def test_inserts_extend_the_data_mirrors(self, db, mode):
        sql = "SELECT S.sname, R.day FROM Sailor S, Reserves R WHERE S.sid = R.sid"
        batch = BatchExecutor(db, mode=mode)
        batch.execute(sql)
        loads = batch.stats()
        db.insert("Reserves", [1, 102, "sun"])
        db.insert("Reserves", [2, 103, "mon"])
        after = batch.execute(sql)
        assert after.as_set() == execute(parse(sql), db, mode=ExecutionMode.NAIVE).as_set()
        stats = batch.stats()
        # No table loaded again: Reserves took in just its two new rows.
        assert (stats.scan_misses, stats.sql_store_builds) == (
            loads.scan_misses, loads.sql_store_builds
        )
        assert batch.context.stats.rows_appended == 2
        assert stats.plan_misses == 2  # plans still follow the data

    def test_iter_run_streams_pairs(self, db):
        batch = BatchExecutor(db)
        queries = ["SELECT S.sname FROM Sailor S", "SELECT B.bname FROM Boat B"]
        pairs = list(batch.iter_run(queries))
        assert [q for q, _ in pairs] == queries
        assert all(len(result.columns) == 1 for _, result in pairs)

    def test_explain(self, db):
        batch = BatchExecutor(db)
        text = batch.explain(
            "SELECT S.sname FROM Sailor S, Reserves R WHERE S.sid = R.sid"
        )
        assert "HashJoin" in text

    def test_naive_mode_oracle(self, db):
        planned = BatchExecutor(db)
        naive = BatchExecutor(db, mode=ExecutionMode.NAIVE)
        sql = "SELECT S.sname FROM Sailor S, Reserves R WHERE S.sid = R.sid"
        assert planned.execute(sql).as_set() == naive.execute(sql).as_set()

    def test_stats_describe_is_readable(self, db):
        batch = BatchExecutor(db)
        batch.execute("SELECT S.sname FROM Sailor S")
        text = batch.stats().describe()
        assert "1 queries" in text and "plans" in text

    def test_batch_executor_is_another_name_for_executor(self):
        assert BatchExecutor is Executor

    def test_database_is_the_one_it_runs_on(self, db):
        assert Executor(db).database is db

    def test_explain_accepts_sql_text_and_asts(self, db):
        executor = Executor(db)
        sql = "SELECT S.sname FROM Sailor S, Reserves R WHERE S.sid = R.sid"
        assert executor.explain(sql) == executor.explain(parse(sql))

    def test_stats_is_a_copy_not_a_live_view(self, db):
        executor = Executor(db)
        executor.execute("SELECT S.sname FROM Sailor S")
        before = executor.stats()
        before.breaker_state["rows"] = "open"
        executor.execute("SELECT B.bname FROM Boat B")
        assert before.queries == 1
        assert executor.stats().queries == 2
        assert "rows" not in executor.context.stats.breaker_state

    def test_queries_count_every_executor_sharing_a_context(self, db):
        context = ExecutionContext(db)
        rows = Executor(db, context=context)
        columnar = Executor(db, mode=ExecutionMode.COLUMNAR, context=context)
        rows.run(["SELECT S.sname FROM Sailor S"] * 2)
        columnar.execute("SELECT S.sname FROM Sailor S")
        assert rows.stats().queries == columnar.stats().queries == 3
        assert context.stats.snapshot()["queries"] == 3

    def test_stats_describe_counts_sql_lowerings(self, db):
        executor = Executor(db, mode=ExecutionMode.SQL)
        executor.run(["SELECT S.sname FROM Sailor S"] * 2)
        text = executor.stats().describe()
        assert text.startswith("2 queries")
        assert "lowerings 1/2 cached (1 sqlite load)" in text


class TestChinookWorkload:
    def test_workload_queries_parse_and_agree(self):
        db = chinook_bench_database(scale=1)
        queries = chinook_join_workload()
        assert len(queries) == 12
        planned = BatchExecutor(db).run(queries)
        naive = BatchExecutor(db, mode=ExecutionMode.NAIVE).run(queries)
        for p, n in zip(planned, naive):
            assert p.as_set() == n.as_set()

    def test_repeat_extends_batch(self):
        assert len(chinook_join_workload(repeat=3)) == 36
