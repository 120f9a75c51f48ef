"""Unit tests for the SQL backend: registry, store, lowering, error mapping.

The cross-engine *semantics* are covered by the four-engine differential
suite (``test_columnar_differential.py``); this module pins the backend's
machinery — the pluggable registry, DDL generation and bulk load, the
shape of the generated SQL, the sqlite3 → engine-error mapping, and the
context-version cache invalidation.
"""

from __future__ import annotations

import gc
import sqlite3

import pytest

from repro.catalog import sailors_schema
from repro.relational import (
    BatchExecutor,
    Database,
    EngineError,
    ExecutionContext,
    ExecutionMode,
    Executor,
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
    backend_for,
    execute,
)
from repro.relational.errors import AmbiguousColumnError
from repro.relational.sqlbackend import (
    SQLiteStore,
    lower_query,
    map_sqlite_error,
    table_ddl,
)
from repro.relational.sqlbackend.store import quote_identifier
from repro.sql import parse
from repro.workloads import sailors_database


@pytest.fixture
def sailors():
    return sailors_database(n_sailors=4, n_boats=3, n_reservations=6)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #


class TestBackendRegistry:
    def test_every_mode_resolves(self):
        for mode in ExecutionMode:
            backend = backend_for(mode)
            assert backend.mode is mode

    def test_unknown_mode_raises_engine_error(self):
        class FakeMode:
            value = "quantum"

            def __repr__(self):
                return "<FakeMode quantum>"

        with pytest.raises(EngineError, match="no execution backend"):
            backend_for(FakeMode())

    def test_executor_dispatches_through_registry(self, sailors):
        query = parse("SELECT S.sname FROM Sailor S WHERE S.rating >= 7")
        rows = Executor(sailors, mode=ExecutionMode.PLANNED).execute(query)
        sql = Executor(sailors, mode=ExecutionMode.SQL).execute(query)
        assert sql.columns == rows.columns
        assert sql.as_set() == rows.as_set()


# --------------------------------------------------------------------- #
# store: DDL + bulk load
# --------------------------------------------------------------------- #


class TestSQLiteStore:
    def test_quote_identifier_escapes_quotes(self):
        assert quote_identifier("Sailor") == '"Sailor"'
        assert quote_identifier('we"ird') == '"we""ird"'

    def test_table_ddl_types(self, sailors):
        ddl = table_ddl(sailors, "Sailor")
        assert ddl.startswith('CREATE TABLE "Sailor" (')
        assert '"sid" INTEGER' in ddl
        assert '"sname" TEXT' in ddl
        assert '"age" INTEGER' in ddl

    def test_load_mirrors_every_relation(self, sailors):
        store = SQLiteStore(sailors)
        try:
            for table in sailors.table_names():
                count = store.connection.execute(
                    f"SELECT COUNT(*) FROM {quote_identifier(table)}"
                ).fetchone()[0]
                assert count == sailors.row_count(table)
            assert store.rows_loaded == sailors.total_rows()
        finally:
            store.close()

    def test_empty_database_loads_empty_tables(self):
        store = SQLiteStore(Database(sailors_schema()))
        try:
            count = store.connection.execute(
                'SELECT COUNT(*) FROM "Sailor"'
            ).fetchone()[0]
            assert count == 0
            assert store.rows_loaded == 0
        finally:
            store.close()

    def test_store_appends_when_database_grows(self, sailors):
        context = ExecutionContext(sailors)
        executor = Executor(sailors, mode=ExecutionMode.SQL, context=context)
        query = parse("SELECT S.sname FROM Sailor S")
        before = len(executor.execute(query))
        sailors.insert(
            "Sailor", {"sid": 999, "sname": "newcomer", "rating": 5, "age": 31}
        )
        after = executor.execute(query)
        assert len(after) == before + 1
        assert "newcomer" in {row[0] for row in after.rows}
        assert context.stats.sql_store_builds == 1  # built once, then appended
        assert context.stats.rows_appended == 1

    def test_appended_rows_get_the_full_load_affinity(self, sailors):
        # A schema-violating "7" becomes INTEGER 7 whether it arrives in
        # the full load or in an append.
        store = SQLiteStore(sailors)
        try:
            sailors.insert("Sailor", [900, "late", "7", 30])
            assert store.catch_up() == 1
            appended = store.connection.execute(
                'SELECT rating FROM "Sailor" WHERE sid = 900'
            ).fetchone()[0]
        finally:
            store.close()
        full = SQLiteStore(sailors)
        try:
            loaded = full.connection.execute(
                'SELECT rating FROM "Sailor" WHERE sid = 900'
            ).fetchone()[0]
        finally:
            full.close()
        assert appended == loaded == 7

    def test_append_overflow_raises_like_a_full_load(self, sailors):
        store = SQLiteStore(sailors)
        sailors.insert("Sailor", [1 << 70, "huge", 5, 30])
        with pytest.raises(EngineError, match="64-bit") as appended:
            store.catch_up()
        with pytest.raises(sqlite3.ProgrammingError):  # closed: no tail survives
            store.connection.execute('SELECT * FROM "Sailor"')
        with pytest.raises(EngineError) as loaded:
            SQLiteStore(sailors)
        assert str(appended.value) == str(loaded.value)

    def test_failed_append_discards_the_store(self, sailors):
        context = ExecutionContext(sailors)
        executor = Executor(sailors, mode=ExecutionMode.SQL, context=context)
        query = parse("SELECT S.sname FROM Sailor S")
        executor.execute(query)
        sailors.insert("Sailor", [1 << 70, "huge", 5, 30])
        for _ in range(2):  # the append fails, then a full load does
            with pytest.raises(EngineError, match="64-bit"):
                executor.execute(query)
        assert context.stats.sql_store_builds == 1
        assert context.stats.rows_appended == 0

    def test_store_rebuilt_when_rows_vanish(self, sailors):
        # Removing rows is outside the append-only API; the mirror notices
        # a table below its watermark and loads afresh instead of serving
        # the vanished rows.
        context = ExecutionContext(sailors)
        executor = Executor(sailors, mode=ExecutionMode.SQL, context=context)
        query = parse("SELECT S.sname FROM Sailor S")
        executor.execute(query)
        del sailors.relation("Sailor").rows[0]
        sailors.insert("Reserves", [1, 1, "mon"])  # keep total_rows level
        result = executor.execute(query)
        assert result.as_set() == execute(query, sailors).as_set()
        assert context.stats.sql_store_builds == 2

    def test_store_indexes_each_column_once_and_again_after_a_rebuild(self, sailors):
        query = parse(
            "SELECT S.sname FROM Sailor S WHERE EXISTS "
            "(SELECT * FROM Reserves R WHERE R.sid = S.sid)"
        )
        context = ExecutionContext(sailors)
        executor = Executor(sailors, mode=ExecutionMode.SQL, context=context)

        def indexes():
            return context.sql_store.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            ).fetchall()

        executor.execute(query)
        executor.execute(query)
        assert indexes() == [("ix0_Reserves_sid",)]
        sailors.insert("Reserves", [1, 1, "mon"])
        assert executor.execute(query).as_set() == execute(query, sailors).as_set()
        del sailors.relation("Reserves").rows[0]
        assert executor.execute(query).as_set() == execute(query, sailors).as_set()
        assert context.stats.sql_store_builds == 2
        assert indexes() == [("ix0_Reserves_sid",)]

    def test_dropping_the_executor_closes_its_store(self, sailors):
        # Reference counting alone frees the context and its store; the
        # connection must close then, not at some later full collection.
        executor = Executor(sailors, mode=ExecutionMode.SQL)
        executor.execute("SELECT S.sname FROM Sailor S")
        connection = executor.context.sql_store.connection
        enabled = gc.isenabled()
        gc.disable()
        try:
            del executor
            with pytest.raises(sqlite3.ProgrammingError):
                connection.execute("select 1")
        finally:
            if enabled:
                gc.enable()


# --------------------------------------------------------------------- #
# lowering
# --------------------------------------------------------------------- #


class TestLowering:
    def _lower(self, sql_text, db):
        context = ExecutionContext(db)
        return lower_query(context.plan(parse(sql_text)), db)

    def test_constants_become_binds(self, sailors):
        lowered = self._lower(
            "SELECT S.sname FROM Sailor S WHERE S.rating > 7 AND S.sname = 'x'",
            sailors,
        )
        assert "7" not in lowered.sql  # value lives in binds, not the text
        assert "'x'" not in lowered.sql
        assert set(lowered.binds.values()) == {7, "x"}
        assert all(f":{name}" in lowered.sql for name in lowered.binds)

    def test_columns_and_families(self, sailors):
        lowered = self._lower(
            "SELECT S.sname, S.age FROM Sailor S", sailors
        )
        assert lowered.columns == ("S.sname", "S.age")
        assert lowered.families == ("str", "num")

    @pytest.mark.parametrize(
        "sql_text, indexes",
        [
            ("SELECT S.sname FROM Sailor S", ()),
            (
                "SELECT S.sname FROM Sailor S, Reserves R, Boat B "
                "WHERE S.sid = R.sid AND R.bid = B.bid",
                {("Sailor", "sid"), ("Reserves", "sid"), ("Reserves", "bid"),
                 ("Boat", "bid")},
            ),
            (
                "SELECT S.sname FROM Sailor S WHERE NOT EXISTS "
                "(SELECT * FROM Reserves R WHERE R.sid = S.sid AND NOT EXISTS "
                "(SELECT * FROM Boat B WHERE B.color = 'red' AND R.bid = B.bid))",
                {("Reserves", "sid"), ("Boat", "bid")},
            ),
            # A key probe needs a scalar-only prefix; a residual test does not.
            (
                "SELECT S.sname FROM Sailor S WHERE EXISTS (SELECT * FROM Reserves R "
                "WHERE R.sid = R.bid AND R.sid = S.sid)",
                (),
            ),
        ],
    )
    def test_lists_the_columns_it_looks_rows_up_by(self, sailors, sql_text, indexes):
        lowered = self._lower(sql_text, sailors)
        assert len(set(lowered.indexes)) == len(lowered.indexes)
        assert set(lowered.indexes) == set(indexes)

    def test_distinct_root(self, sailors):
        lowered = self._lower("SELECT S.sid FROM Sailor S", sailors)
        assert lowered.sql.startswith("SELECT DISTINCT * FROM (")

    def test_global_aggregate_gains_having(self, sailors):
        lowered = self._lower("SELECT COUNT(*) FROM Sailor S", sailors)
        assert "HAVING COUNT(*) > 0" in lowered.sql

    def test_grouped_aggregate_has_no_having(self, sailors):
        lowered = self._lower(
            "SELECT S.rating, COUNT(*) FROM Sailor S GROUP BY S.rating", sailors
        )
        assert "GROUP BY" in lowered.sql
        assert "HAVING" not in lowered.sql

    def test_quantified_any_rewrites_to_exists(self, sailors):
        lowered = self._lower(
            "SELECT S.sname FROM Sailor S WHERE S.rating > ANY "
            "(SELECT S2.rating FROM Sailor S2 WHERE S2.sid <> S.sid)",
            sailors,
        )
        assert "EXISTS (SELECT 1 FROM (" in lowered.sql

    def test_quantified_all_rewrites_to_not_exists(self, sailors):
        lowered = self._lower(
            "SELECT S.sname FROM Sailor S WHERE S.rating >= ALL "
            "(SELECT S2.rating FROM Sailor S2 WHERE S2.sid <> S.sid)",
            sailors,
        )
        assert "NOT EXISTS (SELECT 1 FROM (" in lowered.sql

    def test_uncorrelated_any_lowers_to_coalesced_min(self, sailors):
        lowered = self._lower(
            "SELECT S.sname FROM Sailor S WHERE S.rating > ANY "
            "(SELECT S2.rating FROM Sailor S2)",
            sailors,
        )
        assert "COALESCE(" in lowered.sql and "(SELECT MIN(" in lowered.sql
        assert lowered.sql.count("SELECT MIN(") == 1
        assert "EXISTS" not in lowered.sql and "MAX(" not in lowered.sql

    def test_uncorrelated_all_lowers_to_coalesced_max(self, sailors):
        lowered = self._lower(
            "SELECT S.sname FROM Sailor S WHERE S.rating >= ALL "
            "(SELECT S2.rating FROM Sailor S2)",
            sailors,
        )
        assert "COALESCE(" in lowered.sql and "(SELECT MAX(" in lowered.sql
        assert lowered.sql.count("SELECT MAX(") == 1
        assert "EXISTS" not in lowered.sql and "MIN(" not in lowered.sql

    def test_equality_any_becomes_in(self, sailors):
        lowered = self._lower(
            "SELECT S.sname FROM Sailor S WHERE S.sid = ANY "
            "(SELECT R.sid FROM Reserves R)",
            sailors,
        )
        assert " IN (" in lowered.sql
        assert "EXISTS" not in lowered.sql

    def test_cross_family_comparison_raises_at_lowering(self, sailors):
        with pytest.raises(TypeMismatchError, match="string"):
            self._lower(
                "SELECT S.sname FROM Sailor S WHERE S.sname = 3", sailors
            )

    def test_generated_sql_is_executable(self, sailors):
        lowered = self._lower(
            "SELECT S.sname FROM Sailor S, Reserves R "
            "WHERE S.sid = R.sid AND R.bid = 101",
            sailors,
        )
        store = SQLiteStore(sailors)
        try:
            rows = store.connection.execute(lowered.sql, lowered.binds).fetchall()
        finally:
            store.close()
        expected = execute(
            parse(
                "SELECT S.sname FROM Sailor S, Reserves R "
                "WHERE S.sid = R.sid AND R.bid = 101"
            ),
            sailors,
        )
        assert set(rows) == expected.as_set()

    def test_describe_lists_binds(self, sailors):
        lowered = self._lower(
            "SELECT S.sname FROM Sailor S WHERE S.rating > 7", sailors
        )
        description = lowered.describe()
        assert description.startswith(lowered.sql)
        assert "--   :p0 = 7" in description


# --------------------------------------------------------------------- #
# error mapping
# --------------------------------------------------------------------- #


class TestErrorMapping:
    def test_overflow_maps_to_engine_error(self):
        error = map_sqlite_error(OverflowError("int too big"))
        assert type(error) is EngineError
        assert "64-bit" in str(error)

    def test_no_such_table(self):
        error = map_sqlite_error(sqlite3.OperationalError("no such table: Foo"))
        assert type(error) is UnknownTableError

    def test_no_such_column(self):
        error = map_sqlite_error(sqlite3.OperationalError("no such column: c9"))
        assert type(error) is UnknownColumnError

    def test_ambiguous_column(self):
        error = map_sqlite_error(
            sqlite3.OperationalError("ambiguous column name: sid")
        )
        assert type(error) is AmbiguousColumnError

    def test_everything_else_is_engine_error(self):
        error = map_sqlite_error(sqlite3.OperationalError("database is locked"))
        assert type(error) is EngineError

    def test_unknown_table_raises_same_class_as_engines(self, sailors):
        query = parse("SELECT N.x FROM Nonexistent N")
        for mode in (ExecutionMode.PLANNED, ExecutionMode.SQL):
            with pytest.raises(UnknownTableError):
                execute(query, sailors, mode=mode)


# --------------------------------------------------------------------- #
# caching + batch integration
# --------------------------------------------------------------------- #


class TestCachingAndBatch:
    def test_lowering_cache_hits_on_repeat(self, sailors):
        context = ExecutionContext(sailors)
        executor = Executor(sailors, mode=ExecutionMode.SQL, context=context)
        query = parse("SELECT S.sname FROM Sailor S")
        executor.execute(query)
        executor.execute(query)
        assert context.stats.sql_lower_misses == 1
        assert context.stats.sql_lower_hits == 1

    def test_batch_stats_describe_mentions_lowerings(self, sailors):
        batch = BatchExecutor(sailors, mode=ExecutionMode.SQL)
        batch.run(["SELECT S.sname FROM Sailor S"] * 3)
        stats = batch.stats()
        assert stats.sql_lower_misses == 1
        assert stats.sql_lower_hits == 2
        assert stats.sql_store_builds == 1
        assert "lowerings 2/3 cached (1 sqlite load)" in stats.describe()

    def test_explain_includes_lowered_sql(self, sailors):
        query = parse("SELECT S.sname FROM Sailor S WHERE S.rating > 7")
        text = Executor(sailors, mode=ExecutionMode.SQL).explain(query)
        assert "-- lowered SQL (sqlite) --" in text
        assert "SELECT DISTINCT * FROM (" in text
        assert ":p0" in text
        # The plan tree is still the first half.
        assert text.startswith("Distinct")

    def test_explain_shows_sqlites_plan_searching_the_index(self, sailors):
        query = parse(
            "SELECT S.sname FROM Sailor S WHERE EXISTS "
            "(SELECT * FROM Reserves R WHERE R.sid = S.sid AND R.day = 'mon')"
        )
        executor = Executor(sailors, mode=ExecutionMode.SQL)
        text = executor.explain(query)
        _, plan = text.split("-- sqlite query plan --\n")
        steps = [line.strip() for line in plan.splitlines()]
        # Sailor is scanned once; Reserves is searched, never scanned.
        assert [step for step in steps if step.startswith("SCAN")] == ["SCAN t1"]
        assert "SEARCH t3 USING INDEX ix0_Reserves_sid (sid=?)" in steps
        # Explaining built the store as a query would, and the query reuses it.
        executor.execute(query)
        assert executor.stats().sql_store_builds == 1
