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

    def test_content_digest_ignores_row_order(self, tiny_schema):
        rows = [[1, "alice", 0.5], [2, "bob", 1.5], [2, "bob", 1.5]]
        forward, backward = Database(tiny_schema), Database(tiny_schema)
        forward.insert_many("T", rows)
        backward.insert_many("T", reversed(rows))
        assert forward.content_digest() == backward.content_digest()

    def test_content_digest_tells_same_size_contents_apart(self, tiny_schema):
        digests = set()
        for row in ([1, "alice", 0.5], [1, "alice", 1.5], [1, "bob", 0.5],
                    [2, "alice", 0.5], [1, "alice", 0.5000001]):
            db = Database(tiny_schema)
            db.insert("T", row)
            digests.add(db.content_digest())
        assert len(digests) == 5

    def test_content_digest_tells_int_from_float(self, tiny_schema):
        # 1 == 1.0, but a result computed over one prints differently.
        ints, floats = Database(tiny_schema), Database(tiny_schema)
        ints.insert("T", [1, "a", 2])
        floats.insert("T", [1, "a", 2.0])
        assert ints.content_digest() != floats.content_digest()

    def test_content_digest_catches_up_with_inserts(self, tiny_schema):
        grown = Database(tiny_schema)
        before = grown.content_digest()
        rows = []
        for i in range(4):
            rows.append([i, f"n{i}", 0.5])
            grown.insert("T", rows[-1])
            fresh = Database(tiny_schema)
            fresh.insert_many("T", rows)
            assert grown.content_digest() == fresh.content_digest() != before
        # The same rows in a table of another name are other contents.
        renamed = Schema(name="tiny")
        renamed.add_table("U", [("id", "int"), ("name", "str"), ("score", "float")])
        other = Database(renamed)
        other.insert_many("U", ([i, f"n{i}", 0.5] for i in range(4)))
        assert other.content_digest() != grown.content_digest()
        # Rows removed behind the API make the digest start over.
        del grown.relation("T").rows[0]
        fresh = Database(tiny_schema)
        fresh.insert_many("T", rows[1:])
        assert grown.content_digest() == fresh.content_digest()

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
