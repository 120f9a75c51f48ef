"""Unit tests for the columnar backend, the statistics layer and the
hardened result/subquery-value types.

The *semantics* of the columnar engine are covered by the differential
suites; these tests pin the pieces that differential testing can't see —
storage representation, type-error behaviour at batch granularity,
cache/pickling mechanics, sketch accuracy and planner ordering.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog.builtin import sailors_schema
from repro.relational import (
    CatalogStatistics,
    Database,
    Relation,
    ExecutionMode,
    KMVSketch,
    ResultSet,
    TypeMismatchError,
    execute,
    plan_query,
    stable_hash,
)
from repro.relational.columnar import Column, ColumnarTable, Frame, _np
from repro.relational.executor import _SubqueryValues
from repro.relational.plan import Filter, HashJoin
from repro.relational.stats import EXACT_DISTINCT_THRESHOLD, distinct_count
from repro.sql import parse
from repro.workloads import (
    chinook_scaled_database,
    sailors_database,
    zipf_sampler,
)


# --------------------------------------------------------------------- #
# columnar storage
# --------------------------------------------------------------------- #


class TestColumnStorage:
    def test_homogeneous_int_column_uses_numpy_when_available(self):
        column = Column.from_values([3, 1, 2])
        if _np is not None:
            assert isinstance(column.data, _np.ndarray)
            assert column.data.dtype == _np.int64
        assert column.family == "num"

    def test_string_column_stays_a_list(self):
        column = Column.from_values(["a", "b"])
        assert isinstance(column.data, list)
        assert column.family == "str"

    def test_mixed_int_float_column_stays_a_list(self):
        # int64/float64 arrays would coerce 1 -> 1.0 and change projected
        # values; mixed numeric columns must keep exact Python objects.
        column = Column.from_values([1, 2.5])
        assert isinstance(column.data, list)
        assert column.family == "num"

    def test_mixed_family_column_is_marked_mixed(self):
        assert Column.from_values([1, "a"]).family == "mixed"

    def test_empty_column_family(self):
        assert Column.from_values([]).family == "empty"

    def test_table_round_trips_rows(self):
        db = sailors_database()
        relation = db.relation("Sailor")
        table = ColumnarTable.from_relation(relation)
        frame = Frame.from_table(table)
        expected = [tuple(row[c] for c in relation.columns) for row in relation.rows]
        assert frame.rows() == expected
        # Values coming out of NumPy columns are Python scalars again.
        assert all(type(v) in (int, float, str) for row in frame.rows() for v in row)

    def test_take_composes_selection_vectors_lazily(self):
        table = ColumnarTable.from_relation(sailors_database().relation("Sailor"))
        frame = Frame.from_table(table)
        narrowed = frame.take([4, 2, 0]).take([2, 0])
        assert narrowed.nrows == 2
        assert narrowed.rows() == [frame.rows()[0], frame.rows()[4]]


# --------------------------------------------------------------------- #
# appending to a loaded table
# --------------------------------------------------------------------- #

_BEYOND_INT64 = 1 << 70

#: Values that move a column between representations: small ints (int64),
#: floats (float64), an int NumPy cannot hold, and strings.
_APPENDED_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from((0.5, -2.0, 1e300)),
    st.just(_BEYOND_INT64),
    st.sampled_from(("x", "y")),
)


def _assert_stored_alike(grown: ColumnarTable, loaded: ColumnarTable) -> None:
    """``grown`` holds what ``loaded`` holds, in the same representation."""
    assert grown.nrows == loaded.nrows
    for mine, theirs in zip(grown.cols, loaded.cols, strict=True):
        assert mine.family == theirs.family
        assert type(mine.data) is type(theirs.data)
        if _np is not None and isinstance(theirs.data, _np.ndarray):
            assert mine.data.dtype == theirs.data.dtype
        values = list(mine.data) if isinstance(mine.data, list) else mine.data.tolist()
        expected = list(theirs.data) if isinstance(theirs.data, list) else theirs.data.tolist()
        assert [(type(v), v) for v in values] == [(type(v), v) for v in expected]


def _grown_and_loaded(rows: list[tuple], split: int):
    """A table loaded at ``rows[:split]`` then extended, and one loaded whole."""
    relation = Relation("T", ("a", "b"))
    for row in rows[:split]:
        relation.insert(row)
    grown = ColumnarTable.from_relation(relation)
    for row in rows[split:]:
        relation.insert(row)
    grown.extend(relation)
    return grown, ColumnarTable.from_relation(relation)


class TestColumnarAppend:
    @given(rows=st.lists(st.tuples(_APPENDED_VALUES, _APPENDED_VALUES), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_property_extend_equals_load_at_every_split(self, rows):
        for split in range(len(rows) + 1):
            _assert_stored_alike(*_grown_and_loaded(rows, split))
        # One row at a time, as inserts between queries arrive.
        relation = Relation("T", ("a", "b"))
        table = ColumnarTable.from_relation(relation)
        for row in rows:
            relation.insert(row)
            table.extend(relation)
            _assert_stored_alike(table, ColumnarTable.from_relation(relation))

    @pytest.mark.parametrize(
        "held, appended, representation, family",
        [
            ([], [1], "int64", "num"),  # first row into an empty table
            ([1, 2], [3], "int64", "num"),
            ([0.5], [1.5], "float64", "num"),
            ([1, 2], [2.5], "list", "num"),  # int -> float
            ([1, 2], [_BEYOND_INT64], "list", "num"),
            ([1, 2], ["x"], "list", "mixed"),  # str into num
            (["x"], [1], "list", "mixed"),
            (["x"], ["y"], "list", "str"),
        ],
    )
    def test_representation_after_extend(self, held, appended, representation, family):
        rows = [(value, value) for value in held + appended]
        grown, loaded = _grown_and_loaded(rows, len(held))
        _assert_stored_alike(grown, loaded)
        column = grown.cols[0]
        assert column.family == family
        if _np is None or representation == "list":
            assert isinstance(column.data, list)
        else:
            assert column.data.dtype == getattr(_np, representation)

    def test_frames_built_before_extend_keep_their_rows(self):
        relation = Relation("T", ("a", "b"))
        relation.insert((1, "x"))
        table = ColumnarTable.from_relation(relation)
        frame = Frame.from_table(table)
        relation.insert((2, "y"))
        table.extend(relation)
        assert frame.rows() == [(1, "x")]
        assert Frame.from_table(table).rows() == [(1, "x"), (2, "y")]


# --------------------------------------------------------------------- #
# batch-granular type errors
# --------------------------------------------------------------------- #


class TestColumnarTypeErrors:
    @pytest.fixture
    def db(self):
        return sailors_database()

    def test_filter_string_column_vs_number_raises(self, db):
        query = parse("SELECT S.sname FROM Sailor S WHERE S.sname = 3")
        with pytest.raises(TypeMismatchError):
            execute(query, db, mode=ExecutionMode.COLUMNAR)
        with pytest.raises(TypeMismatchError):
            execute(query, db, mode=ExecutionMode.NAIVE)

    def test_filter_over_empty_table_does_not_raise(self):
        empty = Database(sailors_schema())
        query = parse("SELECT S.sname FROM Sailor S WHERE S.sname = 3")
        result = execute(query, empty, mode=ExecutionMode.COLUMNAR)
        assert result.rows == ()

    def test_hash_join_type_mismatch_raises(self, db):
        query = parse("SELECT S.sname FROM Sailor S, Boat B WHERE S.sname = B.bid")
        with pytest.raises(TypeMismatchError):
            execute(query, db, mode=ExecutionMode.COLUMNAR)

    def test_hash_join_with_empty_build_side_does_not_raise(self, db):
        # No Boat row survives the filter, so the ill-typed join key is
        # never probed — exactly like the row engines.
        query = parse(
            "SELECT S.sname FROM Sailor S, Boat B "
            "WHERE S.sname = B.bid AND B.color = 'no-such-color'"
        )
        assert execute(query, db, mode=ExecutionMode.COLUMNAR).rows == ()


# --------------------------------------------------------------------- #
# ResultSet caching (satellite: proper cache, slots + pickling safe)
# --------------------------------------------------------------------- #


class TestResultSetCache:
    def test_as_set_is_cached(self):
        result = ResultSet(columns=("a",), rows=((1,), (2,)))
        assert result.as_set() is result.as_set()

    def test_no_instance_dict(self):
        # slots=True: the cache lives in a real slot, not a __dict__ that
        # frozen dataclasses would otherwise sneak state into.
        result = ResultSet(columns=("a",), rows=())
        assert not hasattr(result, "__dict__")

    def test_frozen(self):
        result = ResultSet(columns=("a",), rows=())
        with pytest.raises(AttributeError):
            result.columns = ("b",)

    def test_pickle_round_trip_drops_cache_and_preserves_payload(self):
        result = ResultSet(columns=("a", "b"), rows=((1, "x"), (2, "y")))
        result.as_set()  # populate the cache before pickling
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone._row_set is None  # cache not serialized
        assert clone.as_set() == result.as_set()

    def test_equality_ignores_cache_state(self):
        a = ResultSet(columns=("a",), rows=((1,),))
        b = ResultSet(columns=("a",), rows=((1,),))
        a.as_set()
        assert a == b

    def test_contains_uses_set_semantics(self):
        result = ResultSet(columns=("a",), rows=((1,), (2,)))
        assert (1,) in result
        assert (3,) not in result


# --------------------------------------------------------------------- #
# _SubqueryValues hardening (satellite: mixed-type families)
# --------------------------------------------------------------------- #


class TestSubqueryValuesHardening:
    def test_empty_values(self):
        values = _SubqueryValues(())
        assert values.family == "empty"
        assert values.contains(1) is False
        assert values.quantified(1, "<", "ALL") is True
        assert values.quantified(1, "<", "ANY") is False

    def test_homogeneous_fast_paths(self):
        values = _SubqueryValues((3, 1, 2))
        assert values.family == "num"
        assert values.contains(2) is True
        assert values.contains(5) is False
        assert values.quantified(0, "<", "ALL") is True
        assert values.quantified(2, ">", "ANY") is True
        assert values.quantified(3, "<>", "ALL") is False

    def test_probe_family_mismatch_raises(self):
        with pytest.raises(TypeMismatchError):
            _SubqueryValues((1, 2)).contains("a")
        with pytest.raises(TypeMismatchError):
            _SubqueryValues(("a", "b")).quantified(1, "<", "ANY")

    @pytest.mark.parametrize("probe", [1, "a"])
    @pytest.mark.parametrize(
        "operation",
        [
            lambda v, p: v.contains(p),
            lambda v, p: v.quantified(p, "=", "ANY"),
            lambda v, p: v.quantified(p, "<", "ALL"),
        ],
    )
    def test_mixed_families_raise_deterministically(self, probe, operation):
        # Regression: the outcome must not depend on whether a matching
        # member happens to precede the incompatible one in enumeration
        # order.  Both orderings raise.
        for ordering in ((1, "a"), ("a", 1)):
            with pytest.raises(TypeMismatchError):
                operation(_SubqueryValues(ordering), probe)

    def test_mixed_int_float_is_one_family(self):
        values = _SubqueryValues((1, 2.5))
        assert values.family == "num"
        assert values.contains(1.0) is True
        assert values.quantified(3, ">", "ALL") is True


# --------------------------------------------------------------------- #
# statistics: sketches, laziness, invalidation
# --------------------------------------------------------------------- #


class TestStatistics:
    def test_stable_hash_is_family_consistent(self):
        assert stable_hash(1) == stable_hash(1.0)  # 1 = 1.0 in the engine
        assert stable_hash("a") != stable_hash("b")
        assert stable_hash(1) != stable_hash(2)

    def test_kmv_exact_below_k(self):
        sketch = KMVSketch(k=64)
        for value in range(40):
            sketch.add(value)
        for value in range(40):  # duplicates must not inflate the estimate
            sketch.add(value)
        assert sketch.estimate() == 40

    @pytest.mark.parametrize("true_distinct", [1_000, 20_000])
    def test_kmv_estimate_within_tolerance(self, true_distinct):
        sketch = KMVSketch()
        for value in range(true_distinct):
            sketch.add(value)
        estimate = sketch.estimate()
        assert abs(estimate - true_distinct) / true_distinct < 0.25

    def test_distinct_count_switches_to_sketch(self):
        small = list(range(100)) * 2
        assert distinct_count(small) == 100
        big = list(range(EXACT_DISTINCT_THRESHOLD + 1))
        estimate = distinct_count(big)
        assert abs(estimate - len(big)) / len(big) < 0.25

    def test_table_stats_are_lazy_and_cached(self):
        db = sailors_database()
        statistics = CatalogStatistics(db)
        stats = statistics.table("Sailor")
        assert stats.row_count == len(db.relation("Sailor"))
        assert stats.distinct == {}  # nothing computed yet
        d = stats.distinct_of("rating")
        assert d >= 1
        assert stats.distinct == {"rating": d}
        assert statistics.table("Sailor") is stats  # cached by version

    def test_row_count_change_invalidates(self):
        db = sailors_database()
        statistics = CatalogStatistics(db)
        before = statistics.table("Sailor")
        db.insert("Sailor", [99, "newcomer", 5, 30])
        after = statistics.table("Sailor")
        assert after is not before
        assert after.row_count == before.row_count + 1


# --------------------------------------------------------------------- #
# cardinality-guided join ordering
# --------------------------------------------------------------------- #


class TestJoinOrdering:
    def test_starts_from_smallest_filtered_table(self):
        db = sailors_database()
        plan = plan_query(
            parse(
                "SELECT S.sname FROM Sailor S, Reserves R, Boat B "
                "WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = 'red'"
            ),
            db,
        )
        node = plan.root.child.child
        while isinstance(node, HashJoin):
            node = node.left
        assert isinstance(node, Filter)
        assert node.child.table == "Boat"

    def test_database_growth_invalidates_cached_plans(self):
        # Plans are data-dependent now (cardinality-guided join order), so
        # a context must recompile them when the database grows.
        from repro.relational import Executor

        db = sailors_database()
        executor = Executor(db)
        query = parse(
            "SELECT S.sname FROM Sailor S, Reserves R WHERE S.sid = R.sid"
        )
        executor.execute(query)
        before = executor.context.plan(query)
        db.insert("Sailor", [50, "grown", 1, 20])
        executor.execute(query)  # refresh() sees the new row count
        after = executor.context.plan(query)
        assert after is not before

    def test_order_is_deterministic_across_planners(self):
        db = chinook_scaled_database(total_rows=3_000, skew=1.0)
        sql = (
            "SELECT A.Name FROM Artist A, Album AL, Track T "
            "WHERE A.ArtistId = AL.ArtistId AND AL.AlbumId = T.AlbumId "
            "AND T.GenreId = 1"
        )
        first = plan_query(parse(sql), db).describe()
        second = plan_query(parse(sql), db).describe()
        assert first == second

    def test_connected_tables_beat_unconnected_ones(self):
        db = sailors_database()
        plan = plan_query(
            parse(
                "SELECT S.sname FROM Sailor S, Boat B, Reserves R "
                "WHERE S.sid = R.sid AND R.bid = B.bid"
            ),
            db,
        )
        text = plan.root.describe()
        assert "NestedLoopJoin" not in text
        assert text.count("HashJoin") == 2


# --------------------------------------------------------------------- #
# workload generators
# --------------------------------------------------------------------- #


class TestScaledDatagen:
    def test_zipf_sampler_bounds_and_determinism(self):
        import random

        draws_a = [zipf_sampler(random.Random(5), 100, 1.2)() for _ in range(500)]
        draws_b = [zipf_sampler(random.Random(5), 100, 1.2)() for _ in range(500)]
        assert draws_a == draws_b
        assert all(1 <= d <= 100 for d in draws_a)

    def test_zipf_skew_concentrates_mass(self):
        import random
        from collections import Counter

        draw_skewed = zipf_sampler(random.Random(1), 50, 1.5)
        draw_uniform = zipf_sampler(random.Random(1), 50, 0.0)
        skewed = Counter(draw_skewed() for _ in range(4000))
        uniform = Counter(draw_uniform() for _ in range(4000))
        assert skewed[1] > 3 * uniform.most_common(1)[0][1]

    def test_zipf_sampler_rejects_empty_domain(self):
        import random

        with pytest.raises(ValueError):
            zipf_sampler(random.Random(0), 0, 1.0)

    def test_scaled_database_is_deterministic(self):
        a = chinook_scaled_database(total_rows=2_000, seed=11, skew=1.1)
        b = chinook_scaled_database(total_rows=2_000, seed=11, skew=1.1)
        assert a.total_rows() == b.total_rows()
        assert a.relation("Track").rows == b.relation("Track").rows

    def test_scaled_database_respects_budget_shape(self):
        db = chinook_scaled_database(total_rows=10_000, skew=0.0)
        assert db.total_rows() >= 9_000  # composite-key dedup loses a little
        assert db.row_count("Track") == 3_300
        assert db.row_count("Genre") == 4

    def test_foreign_keys_stay_in_range(self):
        db = chinook_scaled_database(total_rows=2_000, skew=1.3)
        n_albums = db.row_count("Album")
        assert all(1 <= row["AlbumId"] <= n_albums for row in db.relation("Track"))


# --------------------------------------------------------------------- #
# pure-Python kernel fallback (no NumPy)
# --------------------------------------------------------------------- #


class TestPurePythonFallback:
    def test_fallback_engine_matches_numpy_engine(self):
        """The no-NumPy kernels are differentially tested in a subprocess.

        ``REPRO_DISABLE_NUMPY`` makes the columnar module skip the import,
        so the subprocess runs every kernel through the list-based paths
        and asserts agreement with the row pipeline.
        """
        import os
        import subprocess
        import sys

        script = (
            "from repro.relational import ExecutionMode, execute\n"
            "from repro.relational.columnar import _np\n"
            "assert _np is None, 'numpy should be disabled'\n"
            "from repro.sql import parse\n"
            "from repro.workloads import chinook_join_workload, "
            "chinook_scaled_database\n"
            "db = chinook_scaled_database(total_rows=2000, seed=3, skew=1.1)\n"
            "for q in chinook_join_workload():\n"
            "    rows = execute(q, db, mode=ExecutionMode.PLANNED)\n"
            "    cols = execute(q, db, mode=ExecutionMode.COLUMNAR)\n"
            "    assert rows.as_set() == cols.as_set()\n"
            "print('fallback-ok')\n"
        )
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, REPRO_DISABLE_NUMPY="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fallback-ok" in proc.stdout
