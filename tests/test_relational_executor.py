"""Unit tests for the SQL executor over hand-built fixtures."""

from __future__ import annotations

import pytest

import repro.relational.executor as executor_module
from repro.catalog import Schema, sailors_schema
from repro.paper_queries import FIG24_VARIANTS
from repro.relational import (
    Database,
    EngineError,
    ExecutionMode,
    Executor,
    ResultSet,
    execute,
)
from repro.sql import parse
from repro.workloads import sailors_database, scaled_bench_database


@pytest.fixture
def boats_db() -> Database:
    """A tiny, hand-checkable sailors database."""
    db = Database(sailors_schema())
    db.insert_many(
        "Sailor",
        [
            [1, "ann", 7, 30],
            [2, "bob", 5, 40],
            [3, "cyd", 9, 25],
            [4, "dan", 3, 50],
        ],
    )
    db.insert_many(
        "Boat",
        [
            [101, "sprite", "red"],
            [102, "wave", "green"],
            [103, "flame", "red"],
        ],
    )
    db.insert_many(
        "Reserves",
        [
            [1, 101, "mon"],  # ann: red only (101, 103)
            [1, 103, "tue"],
            [2, 101, "mon"],  # bob: red and green
            [2, 102, "tue"],
            [3, 102, "wed"],  # cyd: green only
            # dan reserves nothing
        ],
    )
    return db


class TestConjunctiveQueries:
    def test_projection_and_selection(self, boats_db):
        result = execute(parse("SELECT B.bname FROM Boat B WHERE B.color = 'red'"), boats_db)
        assert result.as_set() == {("sprite",), ("flame",)}

    def test_join(self, boats_db):
        result = execute(
            parse(
                "SELECT S.sname FROM Sailor S, Reserves R, Boat B "
                "WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = 'red'"
            ),
            boats_db,
        )
        assert result.as_set() == {("ann",), ("bob",)}

    def test_set_semantics_deduplicates(self, boats_db):
        # ann reserves two red boats but must appear once.
        result = execute(
            parse(
                "SELECT S.sid FROM Sailor S, Reserves R, Boat B "
                "WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = 'red'"
            ),
            boats_db,
        )
        assert sorted(result.rows) == [(1,), (2,)]

    def test_self_join_inequality(self, boats_db):
        result = execute(
            parse(
                "SELECT S1.sname FROM Sailor S1, Sailor S2 "
                "WHERE S1.rating > S2.rating AND S2.sname = 'bob'"
            ),
            boats_db,
        )
        assert result.as_set() == {("ann",), ("cyd",)}

    def test_numeric_comparison(self, boats_db):
        result = execute(parse("SELECT S.sname FROM Sailor S WHERE S.age <= 30"), boats_db)
        assert result.as_set() == {("ann",), ("cyd",)}

    def test_empty_result(self, boats_db):
        result = execute(parse("SELECT S.sname FROM Sailor S WHERE S.age > 99"), boats_db)
        assert len(result) == 0

    def test_multi_column_projection(self, boats_db):
        result = execute(parse("SELECT S.sid, S.sname FROM Sailor S WHERE S.sid = 1"), boats_db)
        assert result.rows == ((1, "ann"),)
        assert result.columns == ("S.sid", "S.sname")


class TestSubqueries:
    def test_correlated_not_exists(self, boats_db):
        # Sailors who reserve no boat at all: dan.
        result = execute(
            parse(
                "SELECT S.sname FROM Sailor S WHERE NOT EXISTS "
                "(SELECT * FROM Reserves R WHERE R.sid = S.sid)"
            ),
            boats_db,
        )
        assert result.as_set() == {("dan",)}

    def test_only_red_boats(self, boats_db):
        # Sailors who reserve only red boats: ann, and vacuously dan.
        result = execute(
            parse(
                """
                SELECT S.sname FROM Sailor S
                WHERE NOT EXISTS(
                    SELECT * FROM Reserves R WHERE R.sid = S.sid
                    AND NOT EXISTS(
                        SELECT * FROM Boat B WHERE B.color = 'red' AND R.bid = B.bid))
                """
            ),
            boats_db,
        )
        assert result.as_set() == {("ann",), ("dan",)}

    def test_all_red_boats(self, boats_db):
        # Sailors who reserve every red boat: only ann (101 and 103).
        result = execute(
            parse(
                """
                SELECT S.sname FROM Sailor S
                WHERE NOT EXISTS(
                    SELECT * FROM Boat B WHERE B.color = 'red'
                    AND NOT EXISTS(
                        SELECT * FROM Reserves R WHERE R.bid = B.bid AND R.sid = S.sid))
                """
            ),
            boats_db,
        )
        assert result.as_set() == {("ann",)}

    def test_in_subquery(self, boats_db):
        result = execute(
            parse(
                "SELECT S.sname FROM Sailor S WHERE S.sid IN "
                "(SELECT R.sid FROM Reserves R WHERE R.bid = 102)"
            ),
            boats_db,
        )
        assert result.as_set() == {("bob",), ("cyd",)}

    def test_not_in_subquery(self, boats_db):
        result = execute(
            parse(
                "SELECT S.sname FROM Sailor S WHERE S.sid NOT IN "
                "(SELECT R.sid FROM Reserves R)"
            ),
            boats_db,
        )
        assert result.as_set() == {("dan",)}

    def test_any_subquery(self, boats_db):
        # Sailors older than at least one other sailor.
        result = execute(
            parse(
                "SELECT S.sname FROM Sailor S WHERE S.age > ANY "
                "(SELECT S2.age FROM Sailor S2)"
            ),
            boats_db,
        )
        assert result.as_set() == {("ann",), ("bob",), ("dan",)}

    def test_all_subquery(self, boats_db):
        # Sailors at least as old as every sailor.
        result = execute(
            parse(
                "SELECT S.sname FROM Sailor S WHERE S.age >= ALL "
                "(SELECT S2.age FROM Sailor S2)"
            ),
            boats_db,
        )
        assert result.as_set() == {("dan",)}

    def test_in_subquery_requires_single_column(self, boats_db):
        with pytest.raises(EngineError):
            execute(
                parse(
                    "SELECT S.sname FROM Sailor S WHERE S.sid IN "
                    "(SELECT R.sid, R.bid FROM Reserves R)"
                ),
                boats_db,
            )

    def test_equivalent_syntactic_variants_agree(self, boats_db):
        """The three Fig. 24 spellings of 'only red boats' return the same set."""
        variants = [
            """
            SELECT S.sname FROM Sailor S
            WHERE NOT EXISTS(
                SELECT * FROM Reserves R WHERE R.sid = S.sid
                AND NOT EXISTS(SELECT * FROM Boat B WHERE B.color = 'red' AND R.bid = B.bid))
            """,
            """
            SELECT S.sname FROM Sailor S
            WHERE S.sid NOT IN(
                SELECT R.sid FROM Reserves R
                WHERE R.bid NOT IN(SELECT B.bid FROM Boat B WHERE B.color = 'red'))
            """,
            """
            SELECT S.sname FROM Sailor S
            WHERE NOT S.sid = ANY(
                SELECT R.sid FROM Reserves R
                WHERE NOT R.bid = ANY(SELECT B.bid FROM Boat B WHERE B.color = 'red'))
            """,
        ]
        results = [execute(parse(sql), boats_db).as_set() for sql in variants]
        assert results[0] == results[1] == results[2] == {("ann",), ("dan",)}


class TestResultSet:
    def test_contains_uses_set_semantics(self):
        result = ResultSet(columns=("a",), rows=((1,), (2,), (3,)))
        assert (2,) in result
        assert (9,) not in result

    def test_as_set_is_cached(self):
        result = ResultSet(columns=("a",), rows=((1,), (2,)))
        assert result.as_set() is result.as_set()

    def test_result_set_still_frozen(self):
        result = ResultSet(columns=("a",), rows=((1,),))
        with pytest.raises(AttributeError):
            result.rows = ()


class TestExecutionModes:
    def test_both_modes_available_on_executor(self, boats_db):
        query = parse(
            "SELECT S.sname FROM Sailor S, Reserves R, Boat B "
            "WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = 'red'"
        )
        planned = Executor(boats_db).execute(query)
        naive = Executor(boats_db, mode=ExecutionMode.NAIVE).execute(query)
        assert planned.as_set() == naive.as_set() == {("ann",), ("bob",)}

    def test_execute_wrapper_accepts_mode(self, boats_db):
        query = parse("SELECT S.sname FROM Sailor S WHERE S.age <= 30")
        assert (
            execute(query, boats_db, mode=ExecutionMode.NAIVE).as_set()
            == execute(query, boats_db, mode=ExecutionMode.PLANNED).as_set()
        )

    def test_default_mode_is_planned(self, boats_db):
        assert Executor(boats_db).mode is ExecutionMode.PLANNED


class TestGroupBy:
    def test_count_per_group(self, boats_db):
        result = execute(
            parse(
                "SELECT R.sid, COUNT(R.bid) FROM Reserves R GROUP BY R.sid"
            ),
            boats_db,
        )
        assert dict(result.rows) == {1: 2, 2: 2, 3: 1}

    def test_max_per_group_with_join(self, boats_db):
        result = execute(
            parse(
                "SELECT B.color, MAX(S.age) FROM Sailor S, Reserves R, Boat B "
                "WHERE S.sid = R.sid AND R.bid = B.bid GROUP BY B.color"
            ),
            boats_db,
        )
        assert dict(result.rows) == {"red": 40, "green": 40}

    def test_count_star(self, boats_db):
        result = execute(
            parse("SELECT B.color, COUNT(*) FROM Boat B GROUP BY B.color"), boats_db
        )
        assert dict(result.rows) == {"red": 2, "green": 1}

    def test_non_grouped_column_rejected(self, boats_db):
        with pytest.raises(EngineError):
            execute(
                parse("SELECT S.sname, COUNT(*) FROM Sailor S GROUP BY S.sid"), boats_db
            )


class TestKeyIndexedProbes:
    @pytest.fixture
    def row_tests(self, monkeypatch) -> list[int]:
        """``[n]``: the rows the rows engine's compiled comparisons have
        tested since a test last set it to 0."""
        tally = [0]

        def counting(make_test):
            def make(*args):
                test = make_test(*args)

                def counted(row):
                    tally[0] += 1
                    return test(row)

                return counted

            return make

        for name in ("_scalar_test", "_columns_test"):
            monkeypatch.setattr(
                executor_module, name, counting(getattr(executor_module, name))
            )
        return tally

    def test_only_red_query_does_linear_work(self, row_tests):
        # Counts row tests, times nothing.  Scanning Reserves once per
        # sailor would quadruple the count per doubling of the data.
        counts = []
        for n in (250, 500, 1000):
            db = sailors_database(n, n // 10, 5 * n)
            row_tests[0] = 0
            result = Executor(db).execute(FIG24_VARIANTS[0])
            counts.append(row_tests[0])
            assert result.as_set() == Executor(db).execute(FIG24_VARIANTS[1]).as_set()
        assert counts[0] > 0
        for smaller, larger in zip(counts, counts[1:]):
            assert larger <= 2.5 * smaller, counts

    def test_a_constant_key_tests_only_its_bucket(self, row_tests):
        # T.GenreId = 1 reads its key index's bucket, and the other
        # conjunct tests that bucket's rows alone; a scan would test
        # every Track row.
        query = parse(
            "SELECT MIN(T.Milliseconds), MAX(T.Milliseconds) FROM Track T "
            "WHERE T.GenreId = 1 AND T.Milliseconds > 0"
        )
        for rows in (1000, 4000):
            db = scaled_bench_database(total_rows=rows, seed=7)
            track = db.relation("Track")
            genre, length = track.columns.index("GenreId"), track.columns.index("Milliseconds")
            bucket = [row[length] for row in track.rows if row[genre] == 1]
            assert 0 < len(bucket) < len(track) / 2
            row_tests[0] = 0
            result = Executor(db).execute(query)
            assert row_tests[0] == len(bucket)
            assert result.rows == ((min(bucket), max(bucket)),)
