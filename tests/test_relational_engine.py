"""Unit tests for the in-memory relational engine (database + values + aggregates)."""

from __future__ import annotations

import pytest

from repro.catalog import Schema, sailors_schema
from repro.relational import (
    Database,
    EngineError,
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
    apply_aggregate,
    compare,
    values_comparable,
)
from repro.relational.values import OPERATORS, value_family
from repro.sql.ast import FLIPPED_OP


@pytest.fixture
def tiny_schema() -> Schema:
    schema = Schema(name="tiny")
    schema.add_table("T", [("id", "int"), ("name", "str"), ("score", "float")])
    return schema


class TestValues:
    def test_numeric_comparisons(self):
        assert compare(1, "<", 2)
        assert compare(2.5, ">=", 2)
        assert not compare(3, "=", 4)
        assert compare(3, "<>", 4)

    def test_string_comparisons(self):
        assert compare("apple", "<", "banana")
        assert compare("red", "=", "red")

    def test_mixed_numeric_types_are_comparable(self):
        assert values_comparable(1, 2.5)

    def test_string_number_mismatch(self):
        assert not values_comparable("1", 1)
        with pytest.raises(TypeMismatchError):
            compare("1", "=", 1)

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            compare(1, "~", 2)

    def test_operator_table_agrees_with_compare_and_flips(self):
        # Every engine applies OPERATORS directly and turns "value op column"
        # around through FLIPPED_OP: both must say what compare() says.
        assert set(OPERATORS) == set(FLIPPED_OP)
        pairs = [(1, 2), (2, 2), (2.5, 2), ("apple", "banana"), ("red", "red")]
        for op, apply in OPERATORS.items():
            for left, right in pairs:
                assert apply(left, right) == compare(left, op, right)
                assert OPERATORS[FLIPPED_OP[op]](right, left) == compare(left, op, right)

    def test_value_family_decides_comparability(self):
        values = [0, 1, 2.5, -3.0, "", "red"]
        assert [value_family(v) for v in values] == ["num"] * 4 + ["str"] * 2
        for left in values:
            for right in values:
                same = value_family(left) == value_family(right)
                assert values_comparable(left, right) == same


class TestAggregates:
    def test_count(self):
        assert apply_aggregate("COUNT", [1, 2, 3]) == 3

    def test_sum_avg_min_max(self):
        values = [2, 4, 6]
        assert apply_aggregate("SUM", values) == 12
        assert apply_aggregate("AVG", values) == pytest.approx(4.0)
        assert apply_aggregate("MIN", values) == 2
        assert apply_aggregate("MAX", values) == 6

    def test_count_empty_is_zero(self):
        assert apply_aggregate("COUNT", []) == 0

    def test_sum_empty_raises(self):
        with pytest.raises(EngineError):
            apply_aggregate("SUM", [])

    def test_unknown_aggregate(self):
        with pytest.raises(EngineError):
            apply_aggregate("MEDIAN", [1])

    def test_case_insensitive_name(self):
        assert apply_aggregate("count", [1, 2]) == 2


class TestDatabase:
    def test_insert_positional(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("T", [1, "alice", 0.5])
        assert db.row_count("T") == 1
        assert db.relation("T").rows[0]["name"] == "alice"

    def test_insert_mapping_fills_defaults(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("T", {"id": 7})
        row = db.relation("T").rows[0]
        assert row == {"id": 7, "name": "", "score": 0.0}

    def test_insert_mapping_unknown_column(self, tiny_schema):
        db = Database(tiny_schema)
        with pytest.raises(UnknownColumnError):
            db.insert("T", {"nope": 1})

    def test_insert_wrong_arity(self, tiny_schema):
        db = Database(tiny_schema)
        with pytest.raises(ValueError):
            db.insert("T", [1, "x"])

    def test_insert_returns_nothing(self, tiny_schema):
        # Rows change only through the append-only API: no live row dict
        # leaks out for callers to mutate behind the engines' mirrors.
        db = Database(tiny_schema)
        assert db.insert("T", [1, "alice", 0.5]) is None
        assert db.insert("T", {"id": 2}) is None
        assert db.relation("T").insert([3, "carol", 1.5]) is None

    def test_insert_many(self, tiny_schema):
        db = Database(tiny_schema)
        count = db.insert_many("T", ([i, f"n{i}", 0.0] for i in range(5)))
        assert count == 5 and db.total_rows() == 5

    def test_unknown_table(self, tiny_schema):
        db = Database(tiny_schema)
        with pytest.raises(UnknownTableError):
            db.relation("Missing")

    def test_table_lookup_case_insensitive(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("t", [1, "a", 1.0])
        assert db.row_count("T") == 1

    def test_column_values(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert_many("T", [[1, "a", 1.0], [2, "b", 2.0]])
        assert db.relation("T").column_values("id") == [1, 2]
        with pytest.raises(UnknownColumnError):
            db.relation("T").column_values("nope")

    def test_database_from_builtin_schema(self):
        db = Database(sailors_schema())
        assert set(db.table_names()) == {"Sailor", "Reserves", "Boat"}
