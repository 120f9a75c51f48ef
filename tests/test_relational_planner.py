"""Planner tests: plan shapes, and differential testing against the oracle.

The differential suite is the contract of the planned executor: every paper
query and a sample of generated workloads must return exactly the same
``as_set()`` result under ``ExecutionMode.PLANNED`` as under the naive
nested-loop oracle (``ExecutionMode.NAIVE``).
"""

from __future__ import annotations

import pytest

from repro.catalog import (
    actors_schema,
    chinook_schema,
    sailors_schema,
    students_schema,
)
from repro.paper_queries import (
    FIG24_VARIANTS,
    PATTERN_SCHEMAS,
    Q_ONLY_SQL,
    Q_SOME_SQL,
    UNIQUE_SET_SQL,
    pattern_query,
)
from repro.relational import (
    EngineError,
    ExecutionMode,
    Executor,
    TypeMismatchError,
    execute,
    plan_query,
)
from repro.relational.plan import (
    AntiJoin,
    Distinct,
    Filter,
    HashJoin,
    NestedLoopJoin,
    Project,
    Scan,
    SemiJoin,
)
from repro.sql import parse
from repro.workloads import (
    QueryGenConfig,
    QueryGenerator,
    beers_database,
    beers_fig3_database,
    chinook_database,
    generic_database,
    sailors_database,
)


def assert_modes_agree(sql_or_query, db):
    """The planned result set must equal the naive oracle's, byte for byte."""
    query = parse(sql_or_query) if isinstance(sql_or_query, str) else sql_or_query
    naive = execute(query, db, mode=ExecutionMode.NAIVE)
    planned = execute(query, db, mode=ExecutionMode.PLANNED)
    assert planned.columns == naive.columns
    assert planned.as_set() == naive.as_set()
    assert len(planned.as_set()) == len(planned.rows)  # set semantics kept
    return planned


# --------------------------------------------------------------------- #
# plan shapes
# --------------------------------------------------------------------- #


class TestPlanShapes:
    @pytest.fixture
    def db(self):
        return sailors_database()

    def test_equi_join_uses_hash_join_with_pushdown(self, db):
        plan = plan_query(
            parse(
                "SELECT S.sname FROM Sailor S, Reserves R, Boat B "
                "WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = 'red'"
            ),
            db,
        )
        assert isinstance(plan.root, Distinct)
        project = plan.root.child
        assert isinstance(project, Project)
        outer_join = project.child
        assert isinstance(outer_join, HashJoin)
        # The selection on Boat.color is pushed below the joins, into the
        # scan — and cardinality-guided ordering starts the left-deep tree
        # from that filtered scan (the smallest estimated input).
        leftmost = outer_join
        while isinstance(leftmost, HashJoin):
            leftmost = leftmost.left
        assert isinstance(leftmost, Filter)
        assert isinstance(leftmost.child, Scan)
        assert leftmost.child.table == "Boat"

    def test_inequality_join_uses_nested_loop(self, db):
        plan = plan_query(
            parse(
                "SELECT S1.sname FROM Sailor S1, Sailor S2 "
                "WHERE S1.rating > S2.rating"
            ),
            db,
        )
        node = plan.root.child.child
        assert isinstance(node, NestedLoopJoin)
        assert len(node.predicates) == 1

    def test_cartesian_product_still_possible(self, db):
        plan = plan_query(parse("SELECT S.sname FROM Sailor S, Boat B"), db)
        node = plan.root.child.child
        assert isinstance(node, NestedLoopJoin)
        assert node.predicates == ()

    def test_join_order_avoids_cartesian_when_connected(self, db):
        # B joins S only through R; FROM order (S, B, R) would start S x B.
        plan = plan_query(
            parse(
                "SELECT S.sname FROM Sailor S, Boat B, Reserves R "
                "WHERE S.sid = R.sid AND R.bid = B.bid"
            ),
            db,
        )
        def collect(node, acc):
            acc.append(node)
            for child in node.children():
                collect(child, acc)
            return acc

        nodes = collect(plan.root, [])
        assert not any(isinstance(n, NestedLoopJoin) for n in nodes)
        assert sum(isinstance(n, HashJoin) for n in nodes) == 2

    def test_uncorrelated_not_in_becomes_anti_join(self, db):
        plan = plan_query(
            parse(
                "SELECT S.sname FROM Sailor S WHERE S.sid NOT IN "
                "(SELECT R.sid FROM Reserves R)"
            ),
            db,
        )
        assert isinstance(plan.root.child.child, AntiJoin)

    def test_uncorrelated_in_becomes_semi_join(self, db):
        plan = plan_query(
            parse(
                "SELECT S.sname FROM Sailor S WHERE S.sid IN "
                "(SELECT R.sid FROM Reserves R WHERE R.bid = 102)"
            ),
            db,
        )
        node = plan.root.child.child
        assert isinstance(node, SemiJoin) and not isinstance(node, AntiJoin)

    def test_eq_any_normalizes_to_semi_join(self, db):
        plan = plan_query(
            parse(
                "SELECT S.sname FROM Sailor S WHERE S.sid = ANY "
                "(SELECT R.sid FROM Reserves R)"
            ),
            db,
        )
        node = plan.root.child.child
        assert isinstance(node, SemiJoin) and not isinstance(node, AntiJoin)

    def test_correlated_exists_stays_filter_predicate(self, db):
        plan = plan_query(
            parse(
                "SELECT S.sname FROM Sailor S WHERE NOT EXISTS "
                "(SELECT * FROM Reserves R WHERE R.sid = S.sid)"
            ),
            db,
        )
        node = plan.root.child.child
        assert isinstance(node, Filter)
        (pred,) = node.predicates
        assert pred.kind == "exists" and pred.negated
        assert pred.plan.n_params == 1  # correlated on S.sid

    @pytest.mark.parametrize(
        "where, key_probe",
        [
            ("R.sid = S.sid", 0),
            ("S.sid = R.sid", 0),
            ("R.day = 'mon' AND R.bid > S.rating AND R.sid = S.sid", 2),
            ("R.sid < S.sid AND R.bid = S.rating", 1),
            ("R.sid = R.bid AND R.sid = S.sid", None),
            ("R.sid <> S.sid", None),
        ],
    )
    def test_key_probe_is_the_first_parameter_equality_after_scalar_guards(
        self, db, where, key_probe
    ):
        plan = plan_query(
            parse(
                "SELECT S.sname FROM Sailor S WHERE EXISTS "
                f"(SELECT * FROM Reserves R WHERE {where})"
            ),
            db,
        )
        (pred,) = plan.root.child.child.predicates
        (scan_filter,) = [n for n in pred.plan.root.walk() if isinstance(n, Filter)]
        assert scan_filter.key_probe == key_probe
        assert pred.plan.key_probed == (key_probe is not None)
        assert not plan.key_probed

    def test_explain_renders_plan_tree(self, db):
        text = Executor(db).explain(
            parse(
                "SELECT S.sname FROM Sailor S, Reserves R WHERE S.sid = R.sid"
            )
        )
        assert "HashJoin" in text and "Scan Sailor AS S" in text

    def test_plan_time_unknown_column_raises(self, db):
        with pytest.raises(EngineError):
            plan_query(parse("SELECT S.nope FROM Sailor S"), db)

    def test_duplicate_from_alias_rejected(self, db):
        # Repeated aliases make scoping incoherent (real SQL rejects them).
        with pytest.raises(EngineError):
            plan_query(parse("SELECT X.sid FROM Sailor X, Reserves X"), db)

    def test_in_subquery_requires_single_column(self, db):
        with pytest.raises(EngineError):
            execute(
                parse(
                    "SELECT S.sname FROM Sailor S WHERE S.sid IN "
                    "(SELECT R.sid, R.bid FROM Reserves R)"
                ),
                db,
            )

    def test_hash_join_type_mismatch_raises(self, db):
        # Joining a string column with an int column is a type error in the
        # naive executor; the hash join must not silently return empty.
        query = parse(
            "SELECT S.sname FROM Sailor S, Boat B WHERE S.sname = B.bid"
        )
        with pytest.raises(TypeMismatchError):
            execute(query, db, mode=ExecutionMode.PLANNED)
        with pytest.raises(TypeMismatchError):
            execute(query, db, mode=ExecutionMode.NAIVE)


# --------------------------------------------------------------------- #
# differential: paper queries
# --------------------------------------------------------------------- #


class TestPaperQueriesDifferential:
    def test_unique_set_query(self):
        assert_modes_agree(UNIQUE_SET_SQL, beers_database())

    def test_q_some(self):
        assert_modes_agree(Q_SOME_SQL, beers_fig3_database())

    def test_q_only(self):
        assert_modes_agree(Q_ONLY_SQL, beers_fig3_database())

    @pytest.mark.parametrize("variant", range(len(FIG24_VARIANTS)))
    def test_fig24_variants(self, variant):
        db = sailors_database()
        result = assert_modes_agree(FIG24_VARIANTS[variant], db)
        # All three spellings must also agree with each other.
        reference = assert_modes_agree(FIG24_VARIANTS[0], db)
        assert result.as_set() == reference.as_set()

    @pytest.mark.parametrize("kind", ["no", "only", "all"])
    @pytest.mark.parametrize("schema_name", sorted(PATTERN_SCHEMAS))
    def test_pattern_queries(self, kind, schema_name):
        if schema_name == "sailors":
            db = sailors_database()
        elif schema_name == "students":
            db = generic_database(students_schema(), seed=11)
        else:
            db = generic_database(actors_schema(), seed=12)
        assert_modes_agree(pattern_query(kind, schema_name), db)


# --------------------------------------------------------------------- #
# differential: quantified comparisons (min/max fast paths)
# --------------------------------------------------------------------- #


class TestQuantifiedDifferential:
    @pytest.mark.parametrize("op", ["<", "<=", "=", "<>", ">=", ">"])
    @pytest.mark.parametrize("quantifier", ["ANY", "ALL"])
    @pytest.mark.parametrize("negated", [False, True])
    def test_all_op_quantifier_combinations(self, op, quantifier, negated):
        db = sailors_database()
        prefix = "NOT " if negated else ""
        sql = (
            f"SELECT S.sname FROM Sailor S WHERE {prefix}S.age {op} {quantifier} "
            "(SELECT S2.age FROM Sailor S2 WHERE S2.rating >= 5)"
        )
        assert_modes_agree(sql, db)

    def test_quantified_over_empty_subquery(self):
        db = sailors_database()
        for quantifier, expected in (("ANY", set()), ("ALL", None)):
            sql = (
                f"SELECT S.sname FROM Sailor S WHERE S.age > {quantifier} "
                "(SELECT S2.age FROM Sailor S2 WHERE S2.rating > 99)"
            )
            result = assert_modes_agree(sql, db)
            if expected is not None:
                assert result.as_set() == expected  # ANY over empty is false


# --------------------------------------------------------------------- #
# differential: generated workloads
# --------------------------------------------------------------------- #


class TestGeneratedWorkloadDifferential:
    @pytest.mark.parametrize("seed", range(60))
    def test_sailors_generated(self, seed):
        generator = QueryGenerator(sailors_schema())
        db = sailors_database(n_sailors=4, n_boats=3, n_reservations=8)
        assert_modes_agree(generator.generate(seed), db)

    @pytest.mark.parametrize("seed", range(25))
    def test_chinook_generated(self, seed):
        generator = QueryGenerator(
            chinook_schema(),
            QueryGenConfig(max_depth=2, max_tables_per_block=2),
        )
        db = chinook_database(
            n_artists=3, n_albums=4, n_tracks=8, n_customers=3, n_invoices=4
        )
        assert_modes_agree(generator.generate(seed), db)

    @pytest.mark.parametrize("seed", range(15))
    def test_deeper_nesting_generated(self, seed):
        generator = QueryGenerator(
            sailors_schema(),
            QueryGenConfig(max_depth=3, max_tables_per_block=2),
        )
        db = sailors_database(n_sailors=3, n_boats=3, n_reservations=6)
        assert_modes_agree(generator.generate(seed + 1000), db)
