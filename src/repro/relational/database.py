"""In-memory relational database.

Each table is a :class:`Relation`: its column names in schema order and
its rows, each row a tuple of values in that column order.  The
database is deliberately simple — its job is to give the SQL executor and
the FOL/logic-tree evaluator a common ground truth so we can check that
every transformation in the QueryVis pipeline preserves query semantics.

Tables only grow: :meth:`Relation.insert` is the only way a row arrives,
:attr:`Relation.rows` is a read-only view, and a stored row is a tuple.  A
table's length is therefore its version, and ``relation.rows[m:]`` every
change since it held ``m`` rows: data mirrors (columnar tables, key indexes,
the sqlite store) record how many rows they hold and take in only that tail.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterable, Iterator, Mapping

from ..catalog.schema import Schema, Table
from .errors import UnknownColumnError, UnknownTableError
from .values import Value

Row = tuple[Value, ...]

#: The value a column not named by a mapping insert receives, per dtype:
#: the supported SQL fragment has no NULLs (Section 4.7).
_DEFAULTS: dict[str, Value] = {"int": 0, "float": 0.0, "str": ""}


class RowsView(Sequence):
    """A read-only, live view of one relation's stored rows: reads go to
    the relation's own list and copy nothing but a slice."""

    def __init__(self, rows: list[Row]) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        return self._rows[index]

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)


class Relation:
    """A named relation: ordered column names plus the rows inserted so far.

    Each row is a tuple of values in :attr:`columns` order.  Iterating a
    relation yields one column → value mapping per row.
    """

    def __init__(self, name: str, columns: tuple[str, ...]) -> None:
        self.name = name
        self.columns = columns
        self._rows: list[Row] = []
        self._view = RowsView(self._rows)

    @property
    def rows(self) -> RowsView:
        """The stored rows in insertion order, as a read-only live view."""
        return self._view

    def insert(self, values: Sequence[Value]) -> None:
        """Append one row given its values in column order."""
        if isinstance(values, Mapping):
            raise TypeError(
                f"{self.name} takes values in column order; "
                "insert a mapping through Database.insert"
            )
        row = tuple(values)
        if len(row) != len(self.columns):
            raise ValueError(
                f"{self.name} expects {len(self.columns)} values, got {len(row)}"
            )
        self._rows.append(row)

    def column_values(self, column: str) -> list[Value]:
        """All values of one column (bag semantics, in insertion order)."""
        if column not in self.columns:
            raise UnknownColumnError(f"{self.name} has no column {column!r}")
        position = self.columns.index(column)
        return [row[position] for row in self._rows]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict[str, Value]]:
        columns = self.columns
        return (dict(zip(columns, row)) for row in self._rows)


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

        ``values`` is either the row's values in column order or a mapping
        from column name to value; columns a mapping does not mention
        receive a type-appropriate default (empty string / 0 / 0.0).
        """
        self.relation(table_name).insert(self._in_column_order(table_name, values))

    def insert_many(
        self, table_name: str, rows: Iterable[Sequence[Value] | Mapping[str, Value]]
    ) -> int:
        """Insert many rows, each as :meth:`insert` takes it; returns the count."""
        relation = self.relation(table_name)
        count = 0
        for values in rows:
            relation.insert(self._in_column_order(table_name, values))
            count += 1
        return count

    def _in_column_order(
        self, table_name: str, values: Sequence[Value] | Mapping[str, Value]
    ) -> Sequence[Value]:
        """``values`` as a sequence in column order, defaults filled in."""
        if not isinstance(values, Mapping):
            return values
        table = self.table_def(table_name)
        unknown = set(values) - set(table.attribute_names)
        if unknown:
            raise UnknownColumnError(
                f"columns {sorted(unknown)} do not exist in {table.name}"
            )
        return [
            values.get(attribute.name, _DEFAULTS[attribute.dtype])
            for attribute in table.attributes
        ]

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
