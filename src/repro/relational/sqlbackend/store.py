"""Schema DDL generation and bulk load into an in-memory SQLite database.

One :class:`SQLiteStore` mirrors one
:class:`~repro.relational.database.Database`: every relation gets a typed
table (``int`` → ``INTEGER``, ``float`` → ``REAL``, ``str`` → ``TEXT``)
and its stored row tuples are bulk-loaded with one ``executemany`` per
table.  The store records how many rows of each table it holds; tables
only ever grow (the database API is append-only), so
:meth:`SQLiteStore.catch_up` brings it level by inserting just the rows
appended since, on the same connection.  The store is the
:attr:`~repro.relational.executor.ExecutionContext.sql_store` of one
execution context, and its connection is closed when the store is closed
or freed.

Queries name the columns they look rows up by (``LoweredQuery.indexes``),
and :meth:`SQLiteStore.create_indexes` gives each such column an index
once per store; sqlite keeps every index level as rows are appended.

The declared types matter: SQLite's *type affinity* coerces values toward
the column's declared type on insert (``"123"`` into an ``INTEGER`` column
becomes the integer ``123``).  For schema-conforming data this is the
identity; for schema-*violating* rows it is a documented divergence from
the Python engines, which store whatever Python value the row carried
(see ``docs/sql_backend.md``).
"""

from __future__ import annotations

import sqlite3
import weakref
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..database import Database, Relation

#: schema dtype -> SQLite column type (drives type affinity on load).
DDL_TYPES = {"int": "INTEGER", "float": "REAL", "str": "TEXT"}


def quote_identifier(name: str) -> str:
    """Double-quote an identifier, escaping embedded quotes."""
    return '"' + name.replace('"', '""') + '"'


def table_ddl(database: "Database", table_name: str) -> str:
    """The CREATE TABLE statement for one relation of ``database``."""
    relation = database.relation(table_name)
    column_defs = ", ".join(
        f"{quote_identifier(column)} {DDL_TYPES[dtype]}"
        for column, dtype in zip(relation.columns, database.dtypes(table_name))
    )
    return f"CREATE TABLE {quote_identifier(relation.name)} ({column_defs})"


class SQLiteStore:
    """An in-memory ``sqlite3`` mirror of one database, grown by appends."""

    def __init__(self, database: "Database") -> None:
        self.rows_loaded = 0
        #: Per table: the relation mirrored and how many of its rows are held.
        self._held: list[tuple[Relation, int]] = []
        #: (table, column) pairs indexed so far.
        self._indexed: set[tuple[str, str]] = set()
        self.connection = sqlite3.connect(":memory:")
        # The connection sits in a reference cycle with its statement
        # cache, so without this a dropped store would keep its in-memory
        # database until the next full garbage collection.
        self._close = weakref.finalize(self, self.connection.close)
        with self._load_errors():
            for table_name in database.table_names():
                self.connection.execute(table_ddl(database, table_name))
                self._held.append((database.relation(table_name), 0))
            self._append()

    def catch_up(self) -> int | None:
        """Insert the rows each table gained since the last load.

        Returns how many rows were appended, or ``None`` when a table holds
        fewer rows than the mirror (rows removed behind the database API):
        the caller must build a fresh store.  Values load with the same
        type affinity as a full load, and fail the same way: the store is
        closed and :class:`~repro.relational.errors.EngineError` raised, so
        no partially appended tail survives.
        """
        if any(len(relation.rows) < held for relation, held in self._held):
            return None
        with self._load_errors():
            return self._append()

    def create_indexes(self, columns: Iterable[tuple[str, str]]) -> None:
        """Index each (table, column) of ``columns`` not indexed yet.

        Indexes are numbered in creation order, so no two (table, column)
        pairs can share a name.
        """
        for table, column in columns:
            if (table, column) in self._indexed:
                continue
            name = quote_identifier(f"ix{len(self._indexed)}_{table}_{column}")
            self.connection.execute(
                f"CREATE INDEX IF NOT EXISTS {name} "
                f"ON {quote_identifier(table)} ({quote_identifier(column)})"
            )
            self._indexed.add((table, column))

    def _append(self) -> int:
        appended = 0
        for index, (relation, held) in enumerate(self._held):
            if len(relation.rows) == held:
                continue
            tail = relation.rows[held:]
            placeholders = ", ".join("?" for _ in relation.columns)
            self.connection.executemany(
                f"INSERT INTO {quote_identifier(relation.name)} "
                f"VALUES ({placeholders})",
                tail,
            )
            self._held[index] = (relation, held + len(tail))
            appended += len(tail)
        if appended:
            self.connection.commit()
        self.rows_loaded += appended
        return appended

    @contextmanager
    def _load_errors(self) -> Iterator[None]:
        try:
            yield
        except sqlite3.Error as error:  # pragma: no cover - load-time guard
            self.close()
            raise EngineError(f"sqlite load failed: {error}") from error
        except OverflowError as error:
            # sqlite integers are 64-bit; Python's are not.  Surface the
            # same error class the execution path maps binding overflows to.
            self.close()
            raise EngineError(
                f"value does not fit in sqlite's 64-bit integers: {error}"
            ) from error

    def close(self) -> None:
        self._close()
