"""TopK execution: bounded enumeration, distinct fusion, strategy choice.

The cross-engine *semantics* of ranked queries live in the differential
suite (``tests/test_columnar_differential.py``); this module pins down the
*mechanics* the ISSUE promises — plan shapes, the heap-vs-sort strategy
hint, the non-materialization guarantee observable through
``ExecutionStats`` counters, and the bounded distinct heap's eviction
rules — with small deterministic databases.
"""

from __future__ import annotations

import pytest

from repro.catalog.schema import Schema
from repro.relational import (
    ExecutionContext,
    ExecutionMode,
    Executor,
    plan_query,
)
from repro.relational.database import Database
from repro.relational.executor import ExecutionStats, _topk_distinct_heap
from repro.relational.plan import Aggregate, Distinct, KeyOrder, Project, Scan, TopK
from repro.relational.sqlbackend.lower import lower_query
from repro.relational.values import OrderKey
from repro.sql import parse
from repro.workloads import chinook_topk_workload, scaled_bench_database

N_EVENTS = 2000
KINDS = ("alpha", "beta", "gamma", "delta")


@pytest.fixture(scope="module")
def database() -> Database:
    schema = Schema("events")
    schema.add_table("Ev", [("id", "int"), ("kind", "str"), ("score", "int")])
    schema.add_table("Ref", [("kind", "str")])
    db = Database(schema)
    db.insert_many(
        "Ev",
        [
            (i, KINDS[i % len(KINDS)], (i * 7919) % 101)
            for i in range(N_EVENTS)
        ],
    )
    db.insert_many("Ref", [(kind,) for kind in KINDS])
    return db


def _run(query_text: str, db: Database, mode: ExecutionMode):
    """Execute through a fresh context and return (rows, stats)."""
    context = ExecutionContext(db)
    executor = Executor(db, mode=mode, context=context)
    result = executor.execute(parse(query_text))
    return list(result.rows), context.stats


# --------------------------------------------------------------------- #
# plan shapes
# --------------------------------------------------------------------- #


class TestPlanShapes:
    def test_plain_ranked_query_fuses_distinct_into_topk(self, database):
        plan = plan_query(
            parse("SELECT E.id FROM Ev E ORDER BY E.id LIMIT 10"), database
        )
        root = plan.root
        assert isinstance(root, TopK)
        assert root.distinct is True
        assert isinstance(root.child, Project)  # Distinct was absorbed
        assert root.limit == 10 and root.offset == 0

    def test_grouped_ranked_query_sits_on_aggregate_without_distinct(
        self, database
    ):
        plan = plan_query(
            parse(
                "SELECT E.kind, COUNT(*) FROM Ev E GROUP BY E.kind "
                "ORDER BY E.kind LIMIT 2"
            ),
            database,
        )
        root = plan.root
        assert isinstance(root, TopK)
        assert root.distinct is False  # group rows are already unique
        assert isinstance(root.child, Aggregate)

    def test_bare_limit_compiles_to_keyless_lazy_topk(self, database):
        plan = plan_query(parse("SELECT E.id FROM Ev E LIMIT 3"), database)
        root = plan.root
        assert isinstance(root, TopK)
        assert root.keys == () and root.strategy == "heap"

    def test_unranked_query_keeps_distinct_root(self, database):
        plan = plan_query(parse("SELECT E.id FROM Ev E"), database)
        assert isinstance(plan.root, Distinct)

    def test_one_key_with_a_limit_reads_its_table_in_key_order(self, database):
        plan = plan_query(
            parse(
                "SELECT E.id FROM Ev E, Ref R WHERE E.kind = R.kind "
                "AND E.score > 10 ORDER BY E.id DESC LIMIT 10"
            ),
            database,
        )
        # Ev leads the join order although Ref is smaller.
        assert plan.describe().splitlines() == [
            "TopK [E.id DESC] distinct limit=10 strategy=heap [key order]",
            "  Project E.id",
            "    HashJoin [E.kind = R.kind]",
            "      Filter E.score > 10",
            "        Scan Ev AS E [in key order]",
            "      Scan Ref AS R",
        ]
        assert plan.root.key_order == KeyOrder(
            "Ev", 0, filters=((2, 10),), joins=((1, "Ref", 0),)
        )

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT E.id FROM Ev E ORDER BY E.id",
            "SELECT E.id, E.kind FROM Ev E ORDER BY E.id, E.kind LIMIT 5",
            "SELECT E.kind, COUNT(*) FROM Ev E GROUP BY E.kind ORDER BY E.kind LIMIT 2",
            "SELECT E.id FROM Ev E WHERE E.score > E.id ORDER BY E.id LIMIT 5",
            "SELECT E.id FROM Ev E, Ref R WHERE E.kind = R.kind AND R.kind <> 'beta' "
            "ORDER BY E.id LIMIT 5",
            "SELECT E.id FROM Ev E, Ref R, Ref S WHERE E.kind = R.kind "
            "AND R.kind = S.kind ORDER BY E.id LIMIT 5",
            "SELECT E.id FROM Ev E WHERE E.kind IN (SELECT R.kind FROM Ref R) "
            "ORDER BY E.id LIMIT 5",
        ],
        ids=[
            "no-limit", "two-keys", "grouped", "column-filter",
            "filtered-build-side", "probe-key-off-the-leading-table", "semi-join",
        ],
    )
    def test_other_ranked_blocks_rank_their_whole_input(self, database, sql):
        plan = plan_query(parse(sql), database)
        assert plan.root.key_order is None
        assert "key order" not in plan.describe()

    def test_strategy_prefers_heap_for_small_k_and_sort_for_large(
        self, database
    ):
        small = plan_query(
            parse("SELECT E.id FROM Ev E ORDER BY E.id LIMIT 10"), database
        )
        large = plan_query(
            parse("SELECT E.id FROM Ev E ORDER BY E.id LIMIT 1000"), database
        )
        assert small.root.strategy == "heap"
        assert large.root.strategy == "sort"


# --------------------------------------------------------------------- #
# non-materialization counters
# --------------------------------------------------------------------- #


JOIN_TOPK = (
    "SELECT E.id FROM Ev E, Ref R WHERE E.kind = R.kind "
    "ORDER BY E.id LIMIT 10"
)
#: The same join ranked by two keys, which no key index orders.
JOIN_TOPK_TWO_KEYS = (
    "SELECT E.id, E.kind FROM Ev E, Ref R WHERE E.kind = R.kind "
    "ORDER BY E.id, E.kind LIMIT 10"
)


class TestBoundedMaterialization:
    @pytest.mark.parametrize(
        "mode", (ExecutionMode.PLANNED, ExecutionMode.COLUMNAR)
    )
    def test_limit_on_join_never_holds_more_than_the_cutoff(
        self, database, mode
    ):
        rows, stats = _run(JOIN_TOPK, database, mode)
        assert rows == [(i,) for i in range(10)]
        # Ev is read in E.id order and each row joins one Ref row, so the
        # ranking stops after the cutoff's worth of join output.
        assert stats.topk_input_rows == 10
        assert stats.topk_held_rows <= 10

    @pytest.mark.parametrize(
        "mode", (ExecutionMode.PLANNED, ExecutionMode.COLUMNAR)
    )
    def test_limit_on_join_ranked_by_two_keys_consumes_it_all(self, database, mode):
        rows, stats = _run(JOIN_TOPK_TWO_KEYS, database, mode)
        assert [row[0] for row in rows] == list(range(10))
        # The whole join output was consumed (ordering needs every
        # candidate) but at most the cutoff was ever resident.
        assert stats.topk_input_rows == N_EVENTS
        assert stats.topk_held_rows <= 10

    def test_bare_limit_exits_the_row_pipeline_early(self, database):
        rows, stats = _run(
            "SELECT E.id FROM Ev E LIMIT 3", database, ExecutionMode.PLANNED
        )
        assert len(rows) == 3
        # islice stopped pulling after 3 distinct rows: the scan never ran.
        assert stats.topk_input_rows == 3

    def test_sort_strategy_still_counts_held_rows(self, database):
        # Two keys, so the rows are sorted rather than read in key order.
        rows, stats = _run(
            "SELECT E.id, E.kind FROM Ev E ORDER BY E.id, E.kind LIMIT 1000",
            database,
            ExecutionMode.PLANNED,
        )
        assert len(rows) == 1000
        assert stats.topk_held_rows == N_EVENTS  # full sort, by design

    def test_key_order_holds_only_the_cutoff_at_any_limit(self, database):
        rows, stats = _run(
            "SELECT E.id FROM Ev E ORDER BY E.id LIMIT 1000",
            database,
            ExecutionMode.PLANNED,
        )
        assert rows == [(i,) for i in range(1000)]
        assert stats.topk_input_rows == stats.topk_held_rows == 1000


class TestSelectiveJoin:
    """A join that few leading rows find a partner in keeps the greedy
    order.  Read in E.id order, the ranking below would walk all of Ev to
    find its five rows; starting from the one Ref row, it probes Ev's key
    index for exactly those five."""

    SQL = "SELECT E.id FROM Ev E, Ref R WHERE E.kind = R.kind ORDER BY E.id LIMIT 10"

    @pytest.fixture(scope="class")
    def selective(self) -> Database:
        schema = Schema("events")
        schema.add_table("Ev", [("id", "int"), ("kind", "str"), ("score", "int")])
        schema.add_table("Ref", [("kind", "str")])
        db = Database(schema)
        db.insert_many("Ev", [(i, f"k{i % 400}", i % 7) for i in range(N_EVENTS)])
        db.insert("Ref", ("k7",))
        return db

    def test_the_plan_starts_from_the_smaller_side(self, selective):
        assert plan_query(parse(self.SQL), selective).describe().splitlines() == [
            "TopK [E.id] distinct limit=10 strategy=sort",
            "  Project E.id",
            "    HashJoin [R.kind = E.kind]",
            "      Scan Ref AS R",
            "      Scan Ev AS E",
        ]

    @pytest.mark.parametrize("mode", (ExecutionMode.PLANNED, ExecutionMode.COLUMNAR))
    def test_the_ranking_reads_only_the_joined_rows(self, selective, mode):
        rows, stats = _run(self.SQL, selective, mode)
        assert rows == [(7,), (407,), (807,), (1207,), (1607,)]
        assert stats.topk_input_rows == stats.topk_held_rows == 5
        # The rows engine builds Ev(kind) alone, for the Ref row's probe;
        # a read in E.id order would build Ev(id) and Ref(kind) instead.
        assert stats.key_index_builds == (mode is ExecutionMode.PLANNED)


# --------------------------------------------------------------------- #
# key order on the repository benchmark's engine database
# --------------------------------------------------------------------- #


class TestKeyOrderWork:
    """Exact work counts of the ranked families of ``repro.workloads.
    execbench`` on the database the ``exec_*`` benchmark workloads run:
    each ranking pulls and holds exactly its limit of rows, on the rows
    engine and through the columnar engine, and a second pass builds no
    key index."""

    @pytest.fixture(scope="class")
    def bench_database(self) -> Database:
        return scaled_bench_database(total_rows=4000, seed=7)

    def test_the_ranked_families_read_their_leading_table_in_key_order(
        self, bench_database
    ):
        leading = []
        for _, ranked, _ in chinook_topk_workload(ks=(10,)):
            plan = plan_query(ranked, bench_database)
            assert plan.root.label().endswith(" [key order]")
            (scan,) = [n for n in plan.root.walk() if type(n) is Scan and n.key_order is not None]
            column, descending = scan.key_order
            columns = bench_database.relation(scan.table).columns
            leading.append((scan.table, columns[column], descending))
        assert leading == [
            ("Track", "Milliseconds", False),
            ("Track", "Milliseconds", True),
            ("InvoiceLine", "InvoiceLineId", True),
        ]

    @pytest.mark.parametrize("mode", (ExecutionMode.PLANNED, ExecutionMode.COLUMNAR))
    def test_each_ranking_pulls_and_holds_its_limit(self, bench_database, mode):
        context = ExecutionContext(bench_database)
        executor = Executor(bench_database, mode=mode, context=context)
        for k, ranked, _ in chinook_topk_workload():
            context.stats.topk_held_rows = 0
            pulled = context.stats.topk_input_rows
            assert len(executor.execute(ranked)) == k
            assert context.stats.topk_input_rows - pulled == k
            assert context.stats.topk_held_rows == k
        # Track(Milliseconds), Album(AlbumId), InvoiceLine(InvoiceLineId)
        # and Invoice(InvoiceId), each built once.
        assert context.stats.key_index_builds == 4
        executor.run([ranked for _, ranked, _ in chinook_topk_workload()])
        assert context.stats.key_index_builds == 4


# --------------------------------------------------------------------- #
# the bounded distinct heap
# --------------------------------------------------------------------- #


def _heap(rows: list[tuple], cutoff: int) -> list[tuple]:
    return _topk_distinct_heap(
        iter(rows),
        lambda row: OrderKey(row, (False,)),
        cutoff,
        ExecutionStats(),
    )


class TestDistinctHeap:
    def test_duplicate_of_evicted_row_cannot_reenter(self):
        # (5,) is admitted, evicted by better rows, then reappears — the
        # worst resident key only ever improves, so it stays out.
        rows = [(5,), (3,), (1,), (3,), (5,), (0,)]
        assert _heap(rows, 2) == [(0,), (1,)]

    def test_duplicates_of_resident_rows_are_skipped(self):
        assert _heap([(1,), (1,), (2,), (2,), (1,)], 2) == [(1,), (2,)]

    def test_boundary_ties_do_not_evict(self):
        # Equal keys never displace a resident row: both (2,)s are the
        # same row here, but distinct rows tying at the boundary keep the
        # first-admitted one (the arbitrary choice LIMIT semantics allow).
        assert _heap([(1,), (2,), (2,), (3,)], 2) == [(1,), (2,)]

    def test_holds_at_most_cutoff_rows(self):
        stats = ExecutionStats()
        out = _topk_distinct_heap(
            iter([(value % 50,) for value in range(1000)]),
            lambda row: OrderKey(row, (False,)),
            5,
            stats,
        )
        assert out == [(0,), (1,), (2,), (3,), (4,)]
        assert stats.topk_held_rows == 5


# --------------------------------------------------------------------- #
# engine agreement on the fused-distinct path + SQL rendering
# --------------------------------------------------------------------- #


ALL_MODES = (
    ExecutionMode.NAIVE,
    ExecutionMode.PLANNED,
    ExecutionMode.COLUMNAR,
    ExecutionMode.SQL,
)


class TestFusedDistinct:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_distinct_ranked_output_matches_everywhere(self, database, mode):
        rows, _ = _run(
            "SELECT DISTINCT E.score FROM Ev E ORDER BY E.score DESC LIMIT 5",
            database,
            mode,
        )
        assert rows == [(100,), (99,), (98,), (97,), (96,)]

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_distinct_ranked_with_offset(self, database, mode):
        rows, _ = _run(
            "SELECT DISTINCT E.score FROM Ev E "
            "ORDER BY E.score LIMIT 3 OFFSET 2",
            database,
            mode,
        )
        assert rows == [(2,), (3,), (4,)]

    def test_sql_lowering_renders_order_limit_and_distinct(self, database):
        plan = plan_query(
            parse(
                "SELECT E.score FROM Ev E ORDER BY E.score DESC LIMIT 5"
            ),
            database,
        )
        sql = lower_query(plan, database).sql
        assert "SELECT DISTINCT *" in sql
        assert "ORDER BY" in sql and "DESC" in sql
        assert "LIMIT" in sql

    @pytest.mark.parametrize(
        "sql, indexes",
        [
            ("SELECT E.score FROM Ev E ORDER BY E.score DESC LIMIT 5", (("Ev", "score"),)),
            (
                "SELECT E.id FROM Ev E, Ref R WHERE E.kind = R.kind ORDER BY E.id LIMIT 5",
                (("Ev", "kind"), ("Ref", "kind"), ("Ev", "id")),
            ),
            ("SELECT E.score FROM Ev E ORDER BY E.score", ()),
            ("SELECT E.score, E.id FROM Ev E ORDER BY E.score, E.id LIMIT 5", ()),
        ],
        ids=["scan", "join", "no-limit", "two-keys"],
    )
    def test_sql_lowering_indexes_the_one_order_by_column_of_a_limit(
        self, database, sql, indexes
    ):
        # sqlite then walks that index in key order and stops at the LIMIT.
        plan = plan_query(parse(sql), database)
        assert lower_query(plan, database).indexes == indexes
