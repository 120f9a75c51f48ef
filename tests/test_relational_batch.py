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
from repro.relational.plan import Filter, SubqueryPred
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

    @pytest.mark.parametrize(
        "mode", [ExecutionMode.PLANNED, ExecutionMode.COLUMNAR, ExecutionMode.SQL]
    )
    def test_inserts_between_queries_invalidate_caches(self, db, mode):
        # The subquery memo and the data mirrors must not serve stale
        # results after the database grows.
        sql = (
            "SELECT S.sname FROM Sailor S WHERE S.sid IN "
            "(SELECT R.sid FROM Reserves R WHERE R.bid = 102)"
        )
        batch = BatchExecutor(db, mode=mode)
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
        if mode is ExecutionMode.PLANNED:
            # The rows engine scans the stored rows in place: it keeps no
            # copy to load or to extend.  Its one key index, on the join's
            # build side, took in the new rows without a rebuild.
            assert (stats.scan_misses, stats.rows_appended) == (0, 0)
            assert loads.key_index_builds == 1
        else:
            assert stats.rows_appended == 2
        assert stats.key_index_builds == loads.key_index_builds
        # Two rows come nowhere near doubling Reserves, so the plan, its
        # closures and its lowering were all reused.
        assert (stats.plan_hits, stats.plan_misses, stats.plan_replans) == (1, 1, 0)
        assert stats.sql_lower_misses == loads.sql_lower_misses

    @pytest.mark.parametrize(
        "mode", [ExecutionMode.PLANNED, ExecutionMode.COLUMNAR, ExecutionMode.SQL]
    )
    def test_one_subquery_planned_at_two_sizes_keeps_its_results_apart(self, db, mode):
        # The subquery's two outer references become parameters in join
        # order, and its join order starts from the smaller of Reserves and
        # Boat.  The first query is planned with Boat the smaller and kept
        # once Boat, still within twice its planned rows, outgrows
        # Reserves; the second is planned after that.  Sailors 20 and 30
        # then feed the two plans the same values in swapped roles, and the
        # two queries share one subquery memo.
        subquery = (
            "EXISTS (SELECT * FROM Reserves R, Boat B WHERE R.sid > S.sid "
            "AND B.bid < S.rating AND R.bid = B.bid)"
        )
        queries = [
            f"SELECT S.sid FROM Sailor S WHERE S.age > {age} AND {subquery}"
            for age in (0, 1)
        ]
        db.insert("Sailor", [20, "sailor20", 30, 40])
        db.insert("Sailor", [30, "sailor30", 20, 40])
        db.insert("Reserves", [25, 1, "mon"])
        boats = db.relation("Boat").rows
        reserves = db.row_count("Reserves")

        def add_boats(count):
            while len(boats) < count:
                db.insert("Boat", [100 + len(boats), f"boat{100 + len(boats)}", "red"])

        add_boats(reserves - 1)
        batch = BatchExecutor(db, mode=mode)
        batch.execute(queries[0])
        add_boats(reserves + 1)
        results = batch.run(queries)
        expected = [
            execute(parse(sql), db, mode=ExecutionMode.NAIVE).as_set() for sql in queries
        ]
        assert [result.as_set() for result in results] == expected
        assert (20,) in expected[1] and (30,) not in expected[1]
        stats = batch.stats()
        assert (stats.plan_hits, stats.plan_misses, stats.plan_replans) == (1, 2, 0)

        def subquery_params(sql):
            plan = batch.context.plan(parse(sql))
            (predicate,) = [
                predicate
                for node in plan.root.walk()
                if isinstance(node, Filter)
                for predicate in node.predicates
                if isinstance(predicate, SubqueryPred)
            ]
            return predicate.plan.param_labels

        assert subquery_params(queries[0]) == ("S.rating", "S.sid")
        assert subquery_params(queries[1]) == ("S.sid", "S.rating")

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
        before.fallbacks += 1
        executor.execute("SELECT B.bname FROM Boat B")
        assert before.queries == 1
        assert executor.stats().queries == 2
        assert executor.context.stats.fallbacks == 0

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
