"""Differential property tests: NAIVE vs PLANNED vs COLUMNAR vs SQL.

This suite is the correctness contract of the execution backends: every
query — the paper's, and the querygen corpus — must return exactly the
same ``as_set()`` under all four execution modes on the scaled datagen
databases.  The naive oracle joins in at small scale (its nested loops
are quadratic); the planned backends are additionally compared on
databases big enough that the columnar kernels and the NumPy join path
actually engage.

The SQL backend participates under the divergence policy of
``docs/sql_backend.md``: its lowering typechecks comparisons *statically*,
so it may raise :class:`TypeMismatchError` on queries where the Python
engines, which only typecheck values that actually flow, return a result
(empty tables, dead predicate branches).  The generic harness accepts
exactly that one asymmetry; every other documented divergence is pinned by
an explicit test in :class:`TestDocumentedDivergences` — none are skipped.
"""

from __future__ import annotations

import math
from itertools import groupby, product

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import chinook_schema, sailors_schema
from repro.catalog.schema import Schema
from repro.paper_queries import FIG24_VARIANTS
from repro.relational import (
    BatchExecutor,
    Database,
    EngineError,
    ExecutionMode,
    Executor,
    ResultSet,
    TypeMismatchError,
    execute,
    plan_query,
)
from repro.relational.plan import Filter, SubqueryPred
from repro.relational.resolve import order_key_position
from repro.relational.sqlbackend import lower_query
from repro.relational.values import compare as compare_values
from repro.sql import SelectQuery, parse
from repro.sql.parser import MAX_QUERY_DEPTH
from repro.workloads import (
    QueryGenConfig,
    QueryGenerator,
    chinook_join_workload,
    chinook_mixed_workload,
    chinook_scaled_database,
    sailors_database,
    scaled_bench_database,
)

_ALL_MODES = (
    ExecutionMode.NAIVE,
    ExecutionMode.PLANNED,
    ExecutionMode.COLUMNAR,
    ExecutionMode.SQL,
)


def _rows_match(expected, actual):
    """Set equality, with an isclose fallback for float aggregates.

    SQLite accumulates SUM/AVG in its own traversal order, so float
    aggregates may differ from the Python engines in the last ulps
    (documented divergence).  Exact equality is tried first; the tolerant
    path only relaxes float-to-float comparisons.
    """
    if expected == actual:
        return True
    if len(expected) != len(actual):
        return False

    def canonical(rows):
        return sorted(
            rows, key=lambda row: tuple((value is None, str(value)) for value in row)
        )

    for expected_row, actual_row in zip(canonical(expected), canonical(actual)):
        if len(expected_row) != len(actual_row):
            return False
        for left, right in zip(expected_row, actual_row):
            if isinstance(left, float) and isinstance(right, float):
                if not math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif left != right:
                return False
    return True


def _tie_groups(rows, key_of):
    """Maximal runs of equal ORDER BY key tuples, in rank order."""
    return [(key, set(group)) for key, group in groupby(rows, key=key_of)]


def _assert_ranked_agree(query, db, reference, outcome, mode):
    """Ranked results agree up to ties (ties break arbitrarily per engine).

    The sequence of ORDER BY key tuples must match exactly — rank order and
    the limit cutoff are deterministic.  Within each tie group the row sets
    must match too, EXCEPT in the final group of a limited query, where the
    cutoff may slice an arbitrary subset of the tied rows; there only the
    group's size is pinned.
    """
    relations = [db.relation(table.name) for table in query.from_tables]
    slots = [
        order_key_position(item.column, query, relations)
        for item in query.order_by
    ]

    def key_of(row):
        return tuple(row[slot] for slot in slots)

    reference_groups = _tie_groups(reference.rows, key_of)
    outcome_groups = _tie_groups(outcome.rows, key_of)
    assert [key for key, _ in outcome_groups] == [
        key for key, _ in reference_groups
    ], f"{mode} ranks tie groups differently"
    for index, ((key, expected), (_, actual)) in enumerate(
        zip(reference_groups, outcome_groups)
    ):
        if query.limit is not None and index == len(reference_groups) - 1:
            assert len(actual) == len(expected), (
                f"{mode} cuts the boundary tie group {key} at a different size"
            )
        else:
            assert actual == expected, (
                f"{mode} disagrees within tie group {key}"
            )


def _assert_sliced_agree(query, db, outcome, mode):
    """A bare ``LIMIT k`` returns an *arbitrary* k-subset of the full result.

    Engines pick whichever rows their pipelines produce first, so the only
    cross-engine contract is: every returned row belongs to the query's
    unrestricted result, and the count is exactly what the slice allows.
    """
    unrestricted = SelectQuery(
        select_items=query.select_items,
        from_tables=query.from_tables,
        where=query.where,
        group_by=query.group_by,
        distinct=query.distinct,
    )
    full = execute(unrestricted, db, mode=ExecutionMode.NAIVE)
    expected = max(0, min(query.limit, len(full.rows) - query.offset))
    assert len(outcome.rows) == expected, f"{mode} returns a wrong-size slice"
    assert outcome.as_set() <= full.as_set(), (
        f"{mode} returns rows outside the unrestricted result"
    )


def _outcome(run):
    """A result set, or the class of the ``EngineError`` it raised."""
    try:
        return run()
    except EngineError as error:
        return type(error)


def _assert_agrees(query, db, reference, outcome, mode):
    """One engine's outcome agrees with the reference outcome.

    When the reference raised, the engine must raise an ``EngineError``
    subclass too.  When the reference returned, the SQL engine alone may
    instead raise :class:`TypeMismatchError` — its lowering rejects
    ill-typed comparisons statically, before any rows flow (the one
    generic allowance of the divergence policy).

    Ranked queries (ORDER BY present) are compared order-aware: equal tie
    group sequences, set equality within complete tie groups.  A bare
    ``LIMIT`` without ORDER BY is checked as an arbitrary-subset slice.
    """
    if isinstance(reference, type):
        assert outcome is reference or (
            isinstance(outcome, type) and issubclass(outcome, EngineError)
        ), f"{mode}: expected an engine error, got {outcome}"
        return
    if isinstance(outcome, type):
        assert mode is ExecutionMode.SQL and issubclass(
            outcome, TypeMismatchError
        ), f"{mode} raised {outcome}, reference did not"
        return
    assert outcome.columns == reference.columns
    assert len(outcome.as_set()) == len(outcome.rows)  # set semantics
    if query.order_by:
        _assert_ranked_agree(query, db, reference, outcome, mode)
    elif query.limit is not None:
        _assert_sliced_agree(query, db, outcome, mode)
    else:
        assert _rows_match(reference.as_set(), outcome.as_set()), (
            f"{mode} disagrees with the reference"
        )


def assert_engines_agree(sql_or_query, db, modes=_ALL_MODES):
    """All engines must agree with the first mode (see :func:`_assert_agrees`)."""
    query = parse(sql_or_query) if isinstance(sql_or_query, str) else sql_or_query
    reference = _outcome(lambda: execute(query, db, mode=modes[0]))
    for mode in modes[1:]:
        outcome = _outcome(lambda: execute(query, db, mode=mode))
        _assert_agrees(query, db, reference, outcome, mode)
    return reference


# --------------------------------------------------------------------- #
# four engines on the scaled datagen databases (naive-feasible sizes)
# --------------------------------------------------------------------- #


class TestFourEngineDifferential:
    @pytest.fixture(scope="class")
    def scaled_small(self):
        # Small enough that the naive oracle's nested loops stay fast
        # (correlated subqueries make it re-execute blocks per outer row),
        # produced by the *same* scaled generator as the benchmark data.
        return chinook_scaled_database(total_rows=150, seed=13, skew=1.2)

    @pytest.mark.parametrize("seed", range(30))
    def test_querygen_corpus_on_scaled_chinook(self, scaled_small, seed):
        generator = QueryGenerator(
            chinook_schema(), QueryGenConfig(max_depth=2, max_tables_per_block=2)
        )
        assert_engines_agree(generator.generate(seed), scaled_small)

    @pytest.mark.parametrize("seed", range(20))
    def test_querygen_corpus_on_sailors(self, seed):
        generator = QueryGenerator(
            sailors_schema(), QueryGenConfig(max_depth=3, max_tables_per_block=2)
        )
        db = sailors_database(n_sailors=5, n_boats=4, n_reservations=10)
        assert_engines_agree(generator.generate(seed + 500), db)

    @pytest.mark.parametrize("variant", range(len(FIG24_VARIANTS)))
    def test_fig24_variants(self, variant):
        db = sailors_database()
        result = assert_engines_agree(FIG24_VARIANTS[variant], db)
        reference = assert_engines_agree(FIG24_VARIANTS[0], db)
        assert result.as_set() == reference.as_set()

    def test_execbench_workload_on_scaled_small(self, scaled_small):
        for query in chinook_join_workload():
            assert_engines_agree(query, scaled_small)

    def test_mixed_workload_on_scaled_small(self, scaled_small):
        # Semi/anti-joins, correlated EXISTS, quantified comparisons and
        # grouped/global aggregates — the operator surface of the backends.
        for query in chinook_mixed_workload():
            assert_engines_agree(query, scaled_small)


# --------------------------------------------------------------------- #
# long-lived engines while the database grows (the append path)
# --------------------------------------------------------------------- #

#: The querygen literal pools, so inserted rows meet the generated filters.
_INSERT_POOLS = {
    "int": st.sampled_from(QueryGenConfig.int_pool),
    "float": st.sampled_from(QueryGenConfig.float_pool),
    "str": st.sampled_from(QueryGenConfig.string_pool),
}


def _rows_of(table):
    return st.tuples(*(_INSERT_POOLS[attribute.dtype] for attribute in table.attributes))


@st.composite
def _growth(draw, schema):
    """A start database with one empty table, then (table, row, query seed)
    steps whose first insert lands in the empty table."""
    tables = list(schema)
    empty = draw(st.sampled_from(tables))
    start = {
        table.name: [] if table is empty else draw(st.lists(_rows_of(table), max_size=3))
        for table in tables
    }
    seeds = st.integers(0, 10**6)
    steps = [(empty.name, draw(_rows_of(empty)), draw(seeds))]
    steps += draw(
        st.lists(
            st.sampled_from(tables).flatmap(
                lambda table: st.tuples(st.just(table.name), _rows_of(table), seeds)
            ),
            max_size=5,
        )
    )
    return start, steps


#: Replayed after every insert, so plans, their closures and lowerings, and
#: subquery results that an insert leaves in place are read again.  One
#: query per operator shape; literals come from the querygen pools that
#: inserted rows draw from.
_REPLAYED = {
    "sailors": (
        "SELECT S.sname, B.color FROM Sailor S, Reserves R, Boat B "
        "WHERE S.sid = R.sid AND R.bid = B.bid",
        "SELECT B.bname FROM Boat B WHERE EXISTS "
        "(SELECT * FROM Reserves R WHERE R.bid = B.bid AND R.day = 'red')",
        "SELECT S.sname FROM Sailor S WHERE NOT EXISTS "
        "(SELECT * FROM Reserves R WHERE R.sid = S.sid AND NOT EXISTS "
        "(SELECT * FROM Boat B WHERE B.bid = R.bid AND B.color = 'red'))",
        "SELECT B.bid FROM Boat B WHERE B.bid IN (SELECT R.bid FROM Reserves R, "
        "Sailor S WHERE R.sid = S.sid AND S.rating >= 3)",
        "SELECT S.sid FROM Sailor S WHERE S.sid NOT IN (SELECT R.sid FROM Reserves R)",
        "SELECT S.sname FROM Sailor S WHERE S.rating >= ALL "
        "(SELECT S2.rating FROM Sailor S2)",
        "SELECT R.sid FROM Reserves R WHERE R.bid < ANY "
        "(SELECT B.bid FROM Boat B WHERE B.color = R.day)",
        "SELECT S.sname, S.rating FROM Sailor S, Reserves R WHERE S.sid = R.sid "
        "ORDER BY S.rating DESC, S.sname LIMIT 3",
    ),
    "chinook": (
        "SELECT A.Name FROM Artist A, Album AL, Track T "
        "WHERE A.ArtistId = AL.ArtistId AND AL.AlbumId = T.AlbumId AND T.GenreId = 2",
        "SELECT T.Name FROM Track T, InvoiceLine IL, Invoice I "
        "WHERE T.TrackId = IL.TrackId AND IL.InvoiceId = I.InvoiceId "
        "AND I.BillingCountry = 'red'",
        "SELECT C.LastName FROM Customer C WHERE EXISTS (SELECT * FROM Invoice I "
        "WHERE I.CustomerId = C.CustomerId AND I.Total > 1.0)",
        "SELECT A.Name FROM Artist A WHERE NOT EXISTS (SELECT * FROM Album AL "
        "WHERE AL.ArtistId = A.ArtistId AND NOT EXISTS (SELECT * FROM Track T "
        "WHERE T.AlbumId = AL.AlbumId AND T.GenreId = 1))",
        "SELECT T.Name FROM Track T WHERE T.TrackId IN (SELECT PT.TrackId "
        "FROM PlaylistTrack PT, Playlist P WHERE PT.PlaylistId = P.PlaylistId)",
        "SELECT A.ArtistId FROM Artist A WHERE A.ArtistId NOT IN "
        "(SELECT AL.ArtistId FROM Album AL)",
        "SELECT T.Name FROM Track T WHERE T.UnitPrice >= ALL "
        "(SELECT T2.UnitPrice FROM Track T2)",
        "SELECT IL.InvoiceLineId FROM InvoiceLine IL WHERE IL.Quantity < ANY "
        "(SELECT T.MediaTypeId FROM Track T WHERE T.TrackId = IL.TrackId)",
        "SELECT IL.InvoiceLineId FROM InvoiceLine IL, Invoice I "
        "WHERE IL.InvoiceId = I.InvoiceId ORDER BY IL.InvoiceLineId DESC LIMIT 3",
    ),
}

#: A correlated subquery over two tables, whose two outer references become
#: parameters in join order.  Each step adds one more query around it, with
#: an outer literal of its own that keeps every row, so plans of the one
#: subquery made at different table sizes run side by side and share its
#: memoized results.
_SHARED_SUBQUERY = {
    "sailors": (
        "SELECT S.sid FROM Sailor S WHERE S.age < {} AND EXISTS "
        "(SELECT * FROM Reserves R, Boat B WHERE R.sid > S.sid "
        "AND B.bid < S.rating AND R.bid = B.bid)"
    ),
    "chinook": (
        "SELECT AL.AlbumId FROM Album AL WHERE AL.ArtistId < {} AND EXISTS "
        "(SELECT * FROM Track T, PlaylistTrack PT WHERE T.AlbumId > AL.AlbumId "
        "AND PT.PlaylistId < AL.ArtistId AND T.TrackId = PT.TrackId)"
    ),
}


class TestAppendPathDifferential:
    """Rows, columnar and sql ``BatchExecutor``s live through every insert,
    so their scan tuples, columnar tables and sqlite store grow by appends
    and their plans mostly survive.  The same queries run before the first
    insert and after each one, and every engine must agree with the naive
    oracle run afresh."""

    @pytest.mark.parametrize(
        "schema, config",
        [
            (sailors_schema(), QueryGenConfig(max_depth=2, max_tables_per_block=2)),
            (chinook_schema(), QueryGenConfig(max_depth=1, max_tables_per_block=2)),
        ],
        ids=["sailors", "chinook"],
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_engines_agree_after_every_insert(self, schema, config, data):
        start, steps = data.draw(_growth(schema))
        seeds = data.draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=2))
        db = Database(schema)
        for name, rows in start.items():
            db.insert_many(name, rows)
        batches = [BatchExecutor(db, mode=mode) for mode in _ALL_MODES[1:]]
        generator = QueryGenerator(schema, config)
        replayed = [parse(sql) for sql in _REPLAYED[schema.name]]
        replayed += [generator.generate(seed) for seed in seeds]
        shared = _SHARED_SUBQUERY[schema.name]
        replayed.append(parse(shared.format(10)))

        def check(queries):
            for query in queries:
                reference = _outcome(lambda: execute(query, db, mode=ExecutionMode.NAIVE))
                for batch in batches:
                    outcome = _outcome(lambda: batch.execute(query))
                    _assert_agrees(query, db, reference, outcome, batch.mode)

        check(replayed)
        for literal, (name, row, seed) in enumerate(steps, start=11):
            db.insert(name, row)
            replayed.append(parse(shared.format(literal)))
            check([*replayed, generator.generate(seed)])
        assert all(batch.stats().sql_store_builds <= 1 for batch in batches)


# --------------------------------------------------------------------- #
# ranked output: ORDER BY / LIMIT shapes across all four engines
# --------------------------------------------------------------------- #


class TestRankedDifferential:
    @pytest.fixture(scope="class")
    def scaled_small(self):
        return chinook_scaled_database(total_rows=150, seed=13, skew=1.2)

    @pytest.mark.parametrize("seed", range(30))
    def test_ranked_querygen_corpus(self, scaled_small, seed):
        # Heavy ranked knobs: most queries get ORDER BY, most get LIMIT,
        # some get OFFSET, and the ORDER BY-less remainder exercises the
        # bare-LIMIT arbitrary-subset contract.
        generator = QueryGenerator(
            chinook_schema(),
            QueryGenConfig(
                max_depth=1,
                max_tables_per_block=2,
                order_by_probability=0.75,
                limit_probability=0.75,
            ),
        )
        assert_engines_agree(generator.generate(seed + 3000), scaled_small)

    def test_handwritten_ranked_shapes(self, scaled_small):
        for sql in (
            "SELECT T.TrackId FROM Track T ORDER BY T.TrackId DESC LIMIT 5",
            "SELECT T.Name, T.Milliseconds FROM Track T "
            "ORDER BY T.Milliseconds DESC, T.Name LIMIT 10 OFFSET 2",
            "SELECT T.AlbumId, COUNT(*) FROM Track T GROUP BY T.AlbumId "
            "ORDER BY T.AlbumId DESC LIMIT 3",
            "SELECT DISTINCT T.GenreId FROM Track T ORDER BY T.GenreId LIMIT 4",
            "SELECT T.Name FROM Track T, Album AL "
            "WHERE T.AlbumId = AL.AlbumId ORDER BY T.Name LIMIT 6",
            "SELECT T.TrackId FROM Track T LIMIT 7",
            "SELECT T.TrackId FROM Track T ORDER BY T.TrackId LIMIT 1000000",
        ):
            assert_engines_agree(sql, scaled_small)

    def test_nested_ranked_block_rejected_everywhere(self, scaled_small):
        # The parser accepts ORDER BY/LIMIT in any block; planner, oracle
        # and (via the planner) the lowered engines all reject non-root
        # ranking, so the harness sees a unanimous EngineError.
        query = parse(
            "SELECT T.TrackId FROM Track T WHERE EXISTS "
            "(SELECT * FROM Album AL WHERE AL.AlbumId = T.AlbumId "
            "ORDER BY AL.AlbumId LIMIT 1)"
        )
        for mode in _ALL_MODES:
            with pytest.raises(EngineError):
                execute(query, scaled_small, mode=mode)


# --------------------------------------------------------------------- #
# planned engines where the vectorized kernels actually engage
# --------------------------------------------------------------------- #


class TestPlannedEnginesAtScale:
    @pytest.fixture(scope="class")
    def scaled_large(self):
        return scaled_bench_database(total_rows=30_000, skew=1.1)

    def test_execbench_workload_identical(self, scaled_large):
        batches = {
            mode: BatchExecutor(scaled_large, mode=mode)
            for mode in (
                ExecutionMode.PLANNED,
                ExecutionMode.COLUMNAR,
                ExecutionMode.SQL,
            )
        }
        workload = chinook_join_workload(repeat=2)  # exercises warm caches
        runs = {mode: batch.run(workload) for mode, batch in batches.items()}
        reference = runs[ExecutionMode.PLANNED]
        for mode in (ExecutionMode.COLUMNAR, ExecutionMode.SQL):
            for planned_result, other_result in zip(reference, runs[mode]):
                assert planned_result.columns == other_result.columns
                assert planned_result.as_set() == other_result.as_set()

    @pytest.mark.parametrize("seed", range(12))
    def test_querygen_corpus_identical(self, scaled_large, seed):
        # Single-block queries: at this scale the vectorized filter/join
        # kernels are what's under test; correlated subqueries would make
        # the *row* engine re-evaluate per distinct outer value (tens of
        # thousands here) and dominate the suite's runtime.  Nested blocks
        # are covered four-ways at naive-feasible sizes above.
        generator = QueryGenerator(
            chinook_schema(), QueryGenConfig(max_depth=0, max_tables_per_block=3)
        )
        query = generator.generate(seed + 9000)
        assert_engines_agree(
            query,
            scaled_large,
            modes=(ExecutionMode.PLANNED, ExecutionMode.COLUMNAR, ExecutionMode.SQL),
        )


# --------------------------------------------------------------------- #
# documented divergences, pinned explicitly (docs/sql_backend.md)
# --------------------------------------------------------------------- #


class TestDocumentedDivergences:
    """Each documented divergence is asserted, not skipped.

    The SQL backend is *supposed* to behave differently here; these tests
    fail if it silently starts agreeing (the docs would then be stale) or
    drifts to some third behaviour.
    """

    def test_static_raise_on_empty_tables(self):
        # Ill-typed comparison over an EMPTY table: the Python engines
        # never evaluate the predicate (no rows flow) and return the empty
        # result; the SQL lowering typechecks statically and raises.
        db = Database(sailors_schema())
        query = parse("SELECT S.sname FROM Sailor S WHERE S.sname = 3")
        for mode in (
            ExecutionMode.NAIVE,
            ExecutionMode.PLANNED,
            ExecutionMode.COLUMNAR,
        ):
            assert execute(query, db, mode=mode).rows == ()
        with pytest.raises(TypeMismatchError):
            execute(query, db, mode=ExecutionMode.SQL)

    def test_static_raise_matches_runtime_raise_on_data(self):
        # ...but on non-empty data all four engines raise the same class:
        # the static check only *moves* the error earlier, it never
        # invents one the runtime engines wouldn't eventually hit.
        db = sailors_database(n_sailors=3, n_boats=2, n_reservations=2)
        query = parse("SELECT S.sname FROM Sailor S WHERE S.sname = 3")
        for mode in _ALL_MODES:
            with pytest.raises(TypeMismatchError):
                execute(query, db, mode=mode)

    def test_int_beyond_64_bits(self):
        # SQLite integers are 64-bit; Python's are unbounded.  The huge
        # literal matches nothing in every engine, but SQL cannot even
        # bind it and raises EngineError instead of returning empty.
        db = sailors_database(n_sailors=3, n_boats=2, n_reservations=2)
        query = parse(
            "SELECT S.sname FROM Sailor S WHERE S.sid = "
            "99999999999999999999999999"
        )
        for mode in (
            ExecutionMode.NAIVE,
            ExecutionMode.PLANNED,
            ExecutionMode.COLUMNAR,
        ):
            assert execute(query, db, mode=mode).rows == ()
        with pytest.raises(EngineError, match="64-bit"):
            execute(query, db, mode=ExecutionMode.SQL)

    def test_row_order_not_part_of_the_contract(self):
        # Engines agree on the *set*; enumeration order is unspecified.
        # (This is why every comparison in this suite goes through
        # as_set() — asserting it keeps the suite honest about that.)
        db = chinook_scaled_database(total_rows=150, seed=13, skew=1.2)
        query = parse(
            "SELECT T.Name FROM Track T, Album AL "
            "WHERE T.AlbumId = AL.AlbumId AND AL.AlbumId <= 10"
        )
        results = {mode: execute(query, db, mode=mode) for mode in _ALL_MODES}
        sets = {mode: result.as_set() for mode, result in results.items()}
        assert len(set(map(frozenset, sets.values()))) == 1


# --------------------------------------------------------------------- #
# type errors: the rows engine raises exactly where the oracle does
# --------------------------------------------------------------------- #


def _planted_database() -> Database:
    """Three tables of ids, groups, numbers and text, two values planted.

    ``A.num`` holds the string ``"bad"`` at id 3 and ``A.txt`` the number
    7 at id 4; ``B`` is clean and ``Z`` empty.  A has 24 rows so that a
    ``LIMIT 1`` or ``2`` ranks with the heap strategy and ``LIMIT 10`` or
    none with the sort.
    """
    schema = Schema("planted")
    for name in ("A", "B", "Z"):
        schema.add_table(
            name, [("id", "int"), ("grp", "int"), ("num", "int"), ("txt", "str")]
        )
    db = Database(schema)
    for i in range(1, 25):
        db.insert("A", (i, i % 3, "bad" if i == 3 else i * 10, 7 if i == 4 else f"t{i:02}"))
    for i in (1, 2, 5, 30):
        db.insert("B", (i, i % 2, i * 10, f"t{i:02}"))
    return db


#: (query, whether the oracle raises TypeMismatchError on it).  Each
#: raising query has a twin that filters the planted row out first, so
#: a check that fires too eagerly fails as surely as a missing one.
_FILTER_CASES = (
    ("SELECT A.id FROM A WHERE A.num > 15", True),
    ("SELECT A.id FROM A WHERE A.num > 15 AND A.id < 3", True),
    ("SELECT A.id FROM A WHERE A.id < 3 AND A.num > 15", False),
    ("SELECT A.id FROM A WHERE A.txt = 't01'", True),
    ("SELECT A.id FROM A WHERE A.id <> 4 AND A.txt = 't01'", False),
    ("SELECT A.id FROM A WHERE 't05' <> A.txt", True),
    ("SELECT A.id FROM A WHERE 15 < A.num", True),
    ("SELECT A.id FROM A WHERE A.id > 3 AND 15 < A.num", False),
    ("SELECT A.id FROM A WHERE A.num = A.id", True),
    ("SELECT A.id FROM A WHERE A.id < 3 AND A.num = A.id", False),
    ("SELECT A.id FROM A WHERE A.txt < A.id", True),
    ("SELECT A.id FROM A, B WHERE A.num < B.num", True),
    ("SELECT A.id FROM A, B WHERE A.id > 3 AND A.num < B.num", False),
)
_JOIN_CASES = (
    ("SELECT A.id FROM A, B WHERE A.num = B.num", True),
    ("SELECT B.id FROM B, A WHERE B.num = A.num", True),
    ("SELECT A.id FROM A, B WHERE A.num = B.num AND A.id <> 3", False),
    ("SELECT A.id FROM A, B WHERE A.txt = B.txt", True),
    ("SELECT A.id FROM A, B WHERE A.txt = B.txt AND A.id > 4", False),
    ("SELECT A.id FROM A, Z WHERE A.num = Z.num", False),
    ("SELECT A.id FROM A, B WHERE A.num = B.num AND A.id = B.id", True),
    ("SELECT A.id FROM A, B WHERE A.grp = B.grp AND A.txt = B.txt", True),
    (
        "SELECT A.id FROM A, B WHERE A.grp = B.grp AND A.txt = B.txt "
        "AND A.id <> 4",
        False,
    ),
)
_SEMI_JOIN_CASES = (
    ("SELECT A.id FROM A WHERE A.num IN (SELECT Z.num FROM Z)", False),
    ("SELECT A.id FROM A WHERE A.num NOT IN (SELECT Z.num FROM Z)", False),
    ("SELECT A.id FROM A WHERE A.num IN (SELECT B.num FROM B)", True),
    ("SELECT A.id FROM A WHERE A.num NOT IN (SELECT B.num FROM B)", True),
    (
        "SELECT A.id FROM A WHERE A.id <> 3 AND A.num IN (SELECT B.num FROM B)",
        False,
    ),
    ("SELECT A.id FROM A WHERE A.txt IN (SELECT B.txt FROM B)", True),
    (
        "SELECT A.id FROM A WHERE A.id <> 4 AND A.txt NOT IN "
        "(SELECT B.txt FROM B)",
        False,
    ),
    ("SELECT B.id FROM B WHERE B.num IN (SELECT A.num FROM A)", True),
    ("SELECT B.id FROM B WHERE B.txt NOT IN (SELECT A.txt FROM A)", True),
    (
        "SELECT B.id FROM B WHERE B.num IN (SELECT A.num FROM A WHERE A.id <> 3)",
        False,
    ),
    (
        "SELECT B.id FROM B WHERE B.txt IN (SELECT A.num FROM A WHERE A.id <> 3)",
        True,
    ),
    # No child row reaches the probe, so the raising subquery never runs.
    (
        "SELECT B.id FROM B WHERE B.id > 100 AND B.num IN "
        "(SELECT A.num FROM A WHERE A.num > 15)",
        False,
    ),
    (
        "SELECT B.id FROM B WHERE B.id > 100 AND B.num NOT IN "
        "(SELECT A.num FROM A WHERE A.num > 15)",
        False,
    ),
    ("SELECT Z.id FROM Z WHERE Z.num IN (SELECT A.num FROM A WHERE A.num > 15)", False),
)
_CORRELATED_CASES = (
    (
        "SELECT B.id FROM B WHERE EXISTS "
        "(SELECT A.id FROM A WHERE A.id = B.id AND A.num > 15)",
        False,
    ),
    (
        "SELECT B.id FROM B WHERE EXISTS "
        "(SELECT A.id FROM A WHERE A.num > 15 AND A.id = B.id)",
        True,
    ),
    (
        "SELECT B.id FROM B WHERE NOT EXISTS "
        "(SELECT A.id FROM A WHERE A.id = B.id AND A.txt = B.txt)",
        False,
    ),
    (
        "SELECT A.id FROM A WHERE A.num > ANY "
        "(SELECT B.num FROM B WHERE B.id = A.id)",
        False,
    ),
    (
        "SELECT B.id FROM B WHERE B.txt > ANY "
        "(SELECT A.txt FROM A WHERE A.grp = B.grp)",
        True,
    ),
    (
        "SELECT A.id FROM A WHERE A.num < ALL "
        "(SELECT B.num FROM B WHERE B.id > A.id)",
        True,
    ),
    (
        "SELECT A.id FROM A WHERE A.id <> 3 AND A.num < ALL "
        "(SELECT B.num FROM B WHERE B.id > A.id)",
        False,
    ),
    (
        "SELECT B.id FROM B WHERE B.num <= ALL "
        "(SELECT A.num FROM A WHERE A.grp = B.grp AND A.id <> 3)",
        False,
    ),
)
#: Filters and hash joins answered from a key index when the index may
#: answer, by the scan when it may not.
_KEY_INDEX_CASES = (
    # The bucket of B.grp = 0 holds A.num = "bad"; that of B.grp = 1 not.
    (
        "SELECT B.id FROM B WHERE EXISTS "
        "(SELECT A.id FROM A WHERE A.grp = B.grp AND A.num > 15)",
        True,
    ),
    (
        "SELECT B.id FROM B WHERE B.grp = 1 AND EXISTS "
        "(SELECT A.id FROM A WHERE A.grp = B.grp AND A.num > 15)",
        False,
    ),
    # A guard over the planted column, or against the other family, makes
    # the filter scan, and the scan raises on rows no bucket holds.
    (
        "SELECT B.id FROM B WHERE EXISTS "
        "(SELECT A.id FROM A WHERE A.num > 15 AND A.grp = B.grp)",
        True,
    ),
    (
        "SELECT B.id FROM B WHERE EXISTS "
        "(SELECT A.id FROM A WHERE A.id > 3 AND A.grp = B.grp AND A.num > 15)",
        False,
    ),
    (
        "SELECT B.id FROM B WHERE EXISTS "
        "(SELECT A.id FROM A WHERE A.id <> 'x' AND A.grp = B.grp)",
        True,
    ),
    (
        "SELECT B.id FROM B WHERE NOT EXISTS "
        "(SELECT A.id FROM A WHERE A.id <> 4 AND A.id = B.id AND A.txt = B.txt)",
        False,
    ),
    # The key column itself holds the planted value.
    (
        "SELECT B.id FROM B WHERE EXISTS (SELECT A.id FROM A WHERE A.num = B.num)",
        True,
    ),
    (
        "SELECT B.id FROM B WHERE B.id > 100 AND EXISTS "
        "(SELECT A.id FROM A WHERE A.num = B.num)",
        False,
    ),
    # The build side of the join is a bare scan of A.
    ("SELECT A.id FROM A, B WHERE B.id > 1 AND A.num = B.num", True),
    ("SELECT A.id FROM A, B WHERE B.id > 100 AND A.num = B.num", False),
    ("SELECT A.id FROM A, B WHERE B.id > 1 AND A.txt = B.txt", True),
    ("SELECT A.id FROM A, B WHERE B.id > 100 AND A.txt = B.txt", False),
)
#: (query, raises, the TopK strategy the planner picks).
_RANKED_CASES = (
    ("SELECT A.num FROM A ORDER BY A.num LIMIT 1", True, "heap"),
    ("SELECT A.num FROM A ORDER BY A.num DESC LIMIT 2", True, "heap"),
    (
        "SELECT A.num FROM A WHERE A.id <> 3 ORDER BY A.num DESC LIMIT 2",
        False,
        "heap",
    ),
    ("SELECT A.num FROM A ORDER BY A.num LIMIT 10", True, "sort"),
    (
        "SELECT A.num FROM A WHERE A.id <> 3 ORDER BY A.num DESC LIMIT 10",
        False,
        "sort",
    ),
    ("SELECT A.txt FROM A ORDER BY A.txt", True, "sort"),
    ("SELECT A.txt FROM A WHERE A.id > 4 ORDER BY A.txt DESC", False, "sort"),
    ("SELECT DISTINCT A.num FROM A ORDER BY A.num LIMIT 1", True, "heap"),
    ("SELECT DISTINCT A.txt FROM A ORDER BY A.txt DESC LIMIT 2", True, "heap"),
    (
        "SELECT DISTINCT A.txt FROM A WHERE A.id <> 4 ORDER BY A.txt DESC LIMIT 2",
        False,
        "heap",
    ),
    ("SELECT DISTINCT A.grp FROM A ORDER BY A.grp DESC LIMIT 2", False, "heap"),
    ("SELECT DISTINCT A.num FROM A ORDER BY A.num LIMIT 10", True, "sort"),
    ("SELECT DISTINCT A.grp FROM A ORDER BY A.grp DESC LIMIT 10", False, "sort"),
    ("SELECT A.num, A.txt FROM A ORDER BY A.num DESC, A.txt LIMIT 2", True, "heap"),
    ("SELECT A.num, A.txt FROM A ORDER BY A.num DESC, A.txt LIMIT 10", True, "sort"),
    ("SELECT A.id, A.txt FROM A ORDER BY A.id, A.txt DESC LIMIT 2", False, "heap"),
    ("SELECT A.id, A.txt FROM A ORDER BY A.id DESC, A.txt LIMIT 10", False, "sort"),
    (
        "SELECT A.grp, A.num FROM A WHERE A.id <> 3 "
        "ORDER BY A.grp DESC, A.num LIMIT 2",
        False,
        "heap",
    ),
    ("SELECT A.grp, A.num FROM A ORDER BY A.grp, A.num DESC LIMIT 10", True, "sort"),
    (
        "SELECT DISTINCT A.grp, A.txt FROM A WHERE A.id <> 4 "
        "ORDER BY A.grp DESC, A.txt LIMIT 2",
        False,
        "heap",
    ),
    (
        "SELECT DISTINCT A.grp, A.txt FROM A ORDER BY A.grp, A.txt DESC LIMIT 10",
        True,
        "sort",
    ),
)


class TestTypeErrorParity:
    """The rows engine raises TypeMismatchError exactly where the oracle does.

    Covers each place the rows engine checks value families itself:
    comparisons against a constant or another column, single- and
    multi-column hash-join probes, semi-/anti-join probes against empty,
    one-family and mixed subquery results, correlated EXISTS/ANY/ALL,
    and single- and multi-key ORDER BY under both TopK strategies.
    """

    @pytest.fixture(scope="class")
    def planted(self):
        return _planted_database()

    @staticmethod
    def _agree(sql, db, raises):
        reference = assert_engines_agree(
            sql, db, modes=(ExecutionMode.NAIVE, ExecutionMode.PLANNED)
        )
        assert (reference is TypeMismatchError) == raises
        if raises:
            with pytest.raises(TypeMismatchError):
                execute(parse(sql), db, mode=ExecutionMode.PLANNED)

    @pytest.mark.parametrize("sql, raises", _FILTER_CASES)
    def test_filters(self, planted, sql, raises):
        self._agree(sql, planted, raises)

    @pytest.mark.parametrize("sql, raises", _JOIN_CASES)
    def test_hash_join_keys(self, planted, sql, raises):
        self._agree(sql, planted, raises)

    @pytest.mark.parametrize("sql, raises", _SEMI_JOIN_CASES)
    def test_semi_and_anti_join_probes(self, planted, sql, raises):
        self._agree(sql, planted, raises)

    @pytest.mark.parametrize("sql, raises", _CORRELATED_CASES)
    def test_correlated_subqueries(self, planted, sql, raises):
        self._agree(sql, planted, raises)

    @pytest.mark.parametrize("sql, raises", _KEY_INDEX_CASES)
    def test_key_index_probes(self, planted, sql, raises):
        self._agree(sql, planted, raises)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT G.id FROM G WHERE EXISTS (SELECT F.id FROM F WHERE F.x = G.x)",
            "SELECT G.id FROM G, F WHERE G.x = F.x",
        ],
    )
    def test_a_nan_key_matches_nothing_not_even_itself(self, sql):
        # One NaN object stored in both tables: a dict would find it by
        # identity, but NaN = NaN is false.
        nan = float("nan")
        schema = Schema("nan")
        for name in ("F", "G"):
            schema.add_table(name, [("id", "int"), ("x", "float")])
        db = Database(schema)
        for name in ("F", "G"):
            db.insert(name, (1, nan))
            db.insert(name, (2, 2.5))
        assert execute(parse(sql), db, mode=ExecutionMode.NAIVE).rows == ((2,),)
        self._agree(sql, db, False)

    @pytest.mark.parametrize("sql, raises, strategy", _RANKED_CASES)
    def test_order_by(self, planted, sql, raises, strategy):
        assert plan_query(parse(sql), planted).root.strategy == strategy
        self._agree(sql, planted, raises)


# --------------------------------------------------------------------- #
# ANY/ALL against a subquery that reads no column of the current row
# --------------------------------------------------------------------- #

_QUANTIFIED_OPS = ("=", "<>", "<", "<=", ">", ">=")
#: Probes of P: (v int, f float, s str).  They tie the minimum and the
#: maximum of group 2 and the single value of groups 1 and 3, in each
#: family, and an int ties a float (5 against 5.0).
_PROBES = ((2, 2.5, "a"), (3, 3.0, "c"), (4, 5.0, "k"), (5, 5.5, "m"),
           (6, 7.5, "p"), (8, 8.0, "t"), (9, 9.5, "z"))
#: Subquery values of Q by group: 0 empty, 1 one value, 2 several values,
#: 3 one value twice.
_GROUPS = {
    0: (),
    1: ((5, 5.0, "m"),),
    2: ((3, 2.5, "c"), (5, 5.0, "m"), (8, 7.5, "t")),
    3: ((5, 5.0, "m"), (5, 5.0, "m")),
}
#: (probe column of P, value column of Q): same type, int against float,
#: float against int, strings.
_COLUMN_PAIRS = (("v", "v"), ("v", "f"), ("f", "v"), ("s", "s"))


def _quantified_database(bad_value=None, bad_probe=None) -> Database:
    """P probes, Q groups of subquery values, R (id, grp) outer rows.

    ``bad_value`` adds group 4 to Q holding 3 and this value in ``Q.v``;
    ``bad_probe`` replaces ``P.v`` of P's last row.  Both violate the
    schema on purpose.
    """
    schema = Schema("quantified")
    schema.add_table("P", [("id", "int"), ("v", "int"), ("f", "float"), ("s", "str")])
    schema.add_table(
        "Q", [("id", "int"), ("grp", "int"), ("v", "int"), ("f", "float"), ("s", "str")]
    )
    schema.add_table("R", [("id", "int"), ("grp", "int")])
    db = Database(schema)
    for i, (v, f, s) in enumerate(_PROBES, 1):
        if bad_probe is not None and i == len(_PROBES):
            v = bad_probe
        db.insert("P", (i, v, f, s))
    groups = dict(_GROUPS)
    if bad_value is not None:
        groups[4] = ((3, 3.0, "c"), (bad_value, 3.0, "c"))
    rows = [(grp, *values) for grp, members in groups.items() for values in members]
    for i, row in enumerate(rows, 1):
        db.insert("Q", (i, *row))
    for i in range(1, len(_PROBES) + 1):
        for grp in _GROUPS:
            db.insert("R", (i, grp))
    return db


def _holds(value, op, quantifier, members) -> bool:
    """``value op ANY|ALL (members)``, straight from the definition."""
    tests = (compare_values(value, op, member) for member in members)
    return any(tests) if quantifier == "ANY" else all(tests)


def _subquery_preds(plan) -> list:
    """The subquery predicates filtering ``plan``'s operator tree."""
    return [
        pred
        for node in plan.root.walk()
        if isinstance(node, Filter)
        for pred in node.predicates
        if isinstance(pred, SubqueryPred)
    ]


class TestRowIndependentQuantified:
    """``v op ANY|ALL (S)`` where S reads no column of the current row.

    The rows and columnar engines probe S once per run of the block and
    test every row against its min, max or set; the sql engine lowers the
    ordered operators to one ``COALESCE(v op (SELECT MIN|MAX ...), 0|1)``.
    """

    @pytest.fixture(scope="class")
    def db(self):
        return _quantified_database()

    @pytest.mark.parametrize("quantifier", ("ANY", "ALL"))
    @pytest.mark.parametrize("op", _QUANTIFIED_OPS)
    def test_every_operator_group_and_family(self, db, op, quantifier):
        for (probe, column), grp, negated in product(_COLUMN_PAIRS, _GROUPS, (False, True)):
            sql = (
                f"SELECT P.id FROM P WHERE {'NOT ' if negated else ''}P.{probe} "
                f"{op} {quantifier} (SELECT Q.{column} FROM Q WHERE Q.grp = {grp})"
            )
            members = [values["vfs".index(column)] for values in _GROUPS[grp]]
            expected = {
                (i,) for i, values in enumerate(_PROBES, 1)
                if _holds(values["vfs".index(probe)], op, quantifier, members) != negated
            }
            result = assert_engines_agree(sql, db)
            assert result.as_set() == expected, sql

    @pytest.mark.parametrize("quantifier", ("ANY", "ALL"))
    @pytest.mark.parametrize("op", _QUANTIFIED_OPS)
    def test_bound_follows_the_enclosing_row(self, db, op, quantifier):
        # Inside the EXISTS block the subquery's only parameter is R.grp,
        # a parameter of that block: one result per block run, a new one
        # for every outer row.
        sql = (
            "SELECT R.id, R.grp FROM R WHERE EXISTS (SELECT P.id FROM P "
            f"WHERE P.id = R.id AND P.v {op} {quantifier} "
            "(SELECT Q.v FROM Q WHERE Q.grp = R.grp))"
        )
        if (op, quantifier) not in (("=", "ANY"), ("<>", "ALL")):  # else a semi-join
            inner = _subquery_preds(plan_query(parse(sql), db))[0].plan
            (quantified,) = _subquery_preds(inner)
            assert quantified.param_exprs and not quantified.subquery_reads_row
        expected = {
            (i, grp)
            for i, values in enumerate(_PROBES, 1)
            for grp, members in _GROUPS.items()
            if _holds(values[0], op, quantifier, [m[0] for m in members])
        }
        # Some probe row holds against some groups and fails against others.
        assert any(
            0 < sum((i, grp) in expected for grp in _GROUPS) < len(_GROUPS)
            for i in range(1, len(_PROBES) + 1)
        )
        assert assert_engines_agree(sql, db).as_set() == expected

    @pytest.mark.parametrize("grp", (0, 2))
    @pytest.mark.parametrize("quantifier", ("ANY", "ALL"))
    @pytest.mark.parametrize("op", _QUANTIFIED_OPS)
    def test_probe_of_the_other_family(self, db, op, quantifier, grp):
        sql = (
            f"SELECT P.id FROM P WHERE P.s {op} {quantifier} "
            f"(SELECT Q.v FROM Q WHERE Q.grp = {grp})"
        )
        query = parse(sql)
        # The sql engine raises at lowering, whatever the data.
        with pytest.raises(TypeMismatchError):
            lower_query(plan_query(query, db), db)
        if grp == 2:
            for mode in _ALL_MODES:
                with pytest.raises(TypeMismatchError):
                    execute(query, db, mode=mode)
        else:  # an empty result answers without a family check
            holds = quantifier == "ALL"
            for mode in _ALL_MODES[:3]:
                assert len(execute(query, db, mode=mode).rows) == (
                    len(_PROBES) if holds else 0
                )

    @pytest.mark.parametrize("quantifier", ("ANY", "ALL"))
    @pytest.mark.parametrize("op", ("<>", "<", ">="))
    def test_probe_column_holding_the_other_family(self, op, quantifier):
        # The last probe row holds a string in P.v (schema violation, so
        # the sql engine's type affinity sits this one out).
        db = _quantified_database(bad_probe="bad")
        modes = (ExecutionMode.NAIVE, ExecutionMode.PLANNED, ExecutionMode.COLUMNAR)
        for where, raises in (("", True), (f"P.id < {len(_PROBES)} AND ", False)):
            for grp in (1, 2):
                sql = (
                    f"SELECT P.id FROM P WHERE {where}P.v {op} {quantifier} "
                    f"(SELECT Q.v FROM Q WHERE Q.grp = {grp})"
                )
                reference = assert_engines_agree(sql, db, modes=modes)
                assert (reference is TypeMismatchError) == raises, sql

    @pytest.mark.parametrize("mode", (ExecutionMode.PLANNED, ExecutionMode.COLUMNAR))
    @pytest.mark.parametrize("op", (">", "<>"))
    def test_mixed_family_result_raises_when_a_row_reaches_it(self, mode, op):
        # Only data that violates its schema gives a mixed result; the
        # oracle may short-circuit before the odd member (docs/executor.md).
        db = _quantified_database(bad_value="bad")
        for quantifier in ("ANY", "ALL"):
            subquery = f"{op} {quantifier} (SELECT Q.v FROM Q WHERE Q.grp = 4)"
            with pytest.raises(TypeMismatchError):
                execute(parse(f"SELECT P.id FROM P WHERE P.v {subquery}"), db, mode=mode)
            unreached = f"SELECT P.id FROM P WHERE P.v > 100 AND P.v {subquery}"
            assert execute(parse(unreached), db, mode=mode).rows == ()

    @pytest.mark.parametrize("mode", (ExecutionMode.PLANNED, ExecutionMode.COLUMNAR))
    def test_one_probe_per_block_run_and_none_when_no_row_reaches(self, db, mode):
        subquery = "P.v >= ALL (SELECT Q.v FROM Q WHERE Q.grp = 2)"
        executor = Executor(db, mode=mode)
        assert executor.execute(parse(f"SELECT P.id FROM P WHERE {subquery}")).rows
        stats = executor.context.stats
        assert (stats.subquery_misses, stats.subquery_hits) == (1, 0)

        executor = Executor(db, mode=mode)
        unreached = f"SELECT P.id FROM P WHERE P.v > 100 AND {subquery}"
        assert executor.execute(parse(unreached)).rows == ()
        assert executor.context.stats.subquery_misses == 0


# --------------------------------------------------------------------- #
# the parser's nesting limit: every Python engine runs a chain at it
# --------------------------------------------------------------------- #


class TestNestingLimit:
    @staticmethod
    def _chain(blocks: int) -> str:
        """``blocks`` query blocks, each NOT EXISTS correlated on sid."""
        sql = "SELECT S0.sname FROM Sailor S0"
        for i in range(1, blocks):
            sql += (
                f" {'AND' if i > 1 else 'WHERE'} NOT EXISTS "
                f"(SELECT * FROM Sailor S{i} WHERE S{i}.sid = S{i - 1}.sid "
                f"AND S{i}.rating > {i % 7}"
            )
        return sql + ")" * (blocks - 1)

    def test_chain_at_the_limit_runs_on_the_python_engines(self):
        db = sailors_database(n_sailors=6, n_boats=2, n_reservations=2)
        result = assert_engines_agree(
            self._chain(MAX_QUERY_DEPTH),
            db,
            modes=(ExecutionMode.NAIVE, ExecutionMode.PLANNED, ExecutionMode.COLUMNAR),
        )
        assert isinstance(result, ResultSet) and result.rows

    def test_sql_engine_maps_its_own_overflow(self):
        # SQLite's parser stack is shallower than the limit; the backend
        # maps its failure to an EngineError instead of crashing.
        db = sailors_database(n_sailors=6, n_boats=2, n_reservations=2)
        with pytest.raises(EngineError):
            execute(parse(self._chain(MAX_QUERY_DEPTH)), db, mode=ExecutionMode.SQL)

