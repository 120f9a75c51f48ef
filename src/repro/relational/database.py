"""In-memory relational database.

Tables are stored as lists of row dictionaries keyed by attribute name (the
attribute order of the schema is preserved for deterministic iteration).  The
database is deliberately simple — its job is to give the SQL executor and the
FOL/logic-tree evaluator a common ground truth so we can check that every
transformation in the QueryVis pipeline preserves query semantics.

Tables are append-only: the API inserts rows and never updates or deletes
them, so a table's row count is a monotonic per-table version.  Data
mirrors built from a table (the executors' scan tuples, columnar tables and
sqlite store) record how many rows they hold and later take in only
``relation.rows[held:]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from ..catalog.schema import Schema, Table
from .errors import UnknownColumnError, UnknownTableError
from .values import Value

Row = dict[str, Value]


@dataclass
class Relation:
    """A named relation: ordered column names plus a list of rows."""

    name: str
    columns: tuple[str, ...]
    rows: list[Row] = field(default_factory=list)

    def insert(self, values: Sequence[Value] | Mapping[str, Value]) -> None:
        """Append one row given either positional values or a mapping."""
        if isinstance(values, Mapping):
            unknown = set(values) - set(self.columns)
            if unknown:
                raise UnknownColumnError(
                    f"columns {sorted(unknown)} do not exist in {self.name}"
                )
            row = {column: values.get(column) for column in self.columns}
        else:
            if len(values) != len(self.columns):
                raise ValueError(
                    f"{self.name} expects {len(self.columns)} values, got {len(values)}"
                )
            row = dict(zip(self.columns, values))
        self.rows.append(row)

    def column_values(self, column: str) -> list[Value]:
        """All values of one column (bag semantics, in insertion order)."""
        if column not in self.columns:
            raise UnknownColumnError(f"{self.name} has no column {column!r}")
        return [row[column] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)


class Database:
    """A collection of relations conforming to a :class:`Schema`."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._relations: dict[str, Relation] = {}
        for table in schema:
            self._relations[table.name.lower()] = Relation(
                name=table.name, columns=table.attribute_names
            )

    # ------------------------------------------------------------------ #
    # loading data
    # ------------------------------------------------------------------ #

    def insert(
        self, table_name: str, values: Sequence[Value] | Mapping[str, Value]
    ) -> None:
        """Append a single row to ``table_name``.

        When ``values`` is a mapping, columns that are not mentioned receive a
        type-appropriate default (empty string / 0 / 0.0) because the
        supported SQL fragment has no NULLs (Section 4.7).
        """
        if isinstance(values, Mapping):
            table = self.table_def(table_name)
            defaults = {"int": 0, "float": 0.0, "str": ""}
            filled = {
                attribute.name: values.get(attribute.name, defaults[attribute.dtype])
                for attribute in table.attributes
            }
            unknown = set(values) - {attribute.name for attribute in table.attributes}
            if unknown:
                raise UnknownColumnError(
                    f"columns {sorted(unknown)} do not exist in {table.name}"
                )
            self.relation(table_name).insert(filled)
        else:
            self.relation(table_name).insert(values)

    def insert_many(
        self, table_name: str, rows: Iterable[Sequence[Value] | Mapping[str, Value]]
    ) -> int:
        """Insert many rows; returns the number inserted."""
        relation = self.relation(table_name)
        count = 0
        for row in rows:
            relation.insert(row)
            count += 1
        return count

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #

    def relation(self, table_name: str) -> Relation:
        """Return the relation for ``table_name`` (case-insensitive)."""
        relation = self._relations.get(table_name.lower())
        if relation is None:
            raise UnknownTableError(
                f"table {table_name!r} is not part of schema {self.schema.name}"
            )
        return relation

    def table_def(self, table_name: str) -> Table:
        return self.schema.table(table_name)

    def dtypes(self, table_name: str) -> tuple[str, ...]:
        """Per-column declared dtypes (``"int"``/``"float"``/``"str"``).

        Ordered like :attr:`Relation.columns` — the contract backends rely
        on for typed storage: the columnar engine's array choice and the
        SQL backend's DDL generation + static type-family checks both read
        the schema through this.
        """
        return tuple(
            attribute.dtype for attribute in self.table_def(table_name).attributes
        )

    def table_names(self) -> tuple[str, ...]:
        return tuple(relation.name for relation in self._relations.values())

    def row_count(self, table_name: str) -> int:
        return len(self.relation(table_name))

    def total_rows(self) -> int:
        return sum(len(relation) for relation in self._relations.values())
