"""Shared fixtures: the paper's example queries, schemas and databases.

Every test also runs under a guard that fails it when asyncio logs an error.
"""

from __future__ import annotations

import logging

import pytest

from repro.catalog import (
    actors_schema,
    beers_fig3_schema,
    beers_schema,
    chinook_schema,
    sailors_schema,
    students_schema,
)
from repro.sql import parse
from repro.workloads import beers_database, chinook_database, sailors_database

# --------------------------------------------------------------------- #
# every test: asyncio logs no error
# --------------------------------------------------------------------- #


@pytest.fixture(autouse=True)
def _no_asyncio_errors(caplog):
    """Fail a test during which the ``asyncio`` logger recorded an ERROR.

    asyncio logs what no caller can catch: an exception that escaped a
    connection callback, or a task exception that was never retrieved.
    """
    yield
    errors = [
        record.getMessage()
        for phase in ("setup", "call")
        for record in caplog.get_records(phase)
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]
    assert not errors, f"asyncio logged: {errors}"


# --------------------------------------------------------------------- #
# paper queries
# --------------------------------------------------------------------- #

UNIQUE_SET_SQL = """
SELECT L1.drinker
FROM Likes L1
WHERE NOT EXISTS(
    SELECT * FROM Likes L2
    WHERE L1.drinker <> L2.drinker
    AND NOT EXISTS(
        SELECT * FROM Likes L3
        WHERE L3.drinker = L2.drinker
        AND NOT EXISTS(
            SELECT * FROM Likes L4
            WHERE L4.drinker = L1.drinker AND L4.beer = L3.beer))
    AND NOT EXISTS(
        SELECT * FROM Likes L5
        WHERE L5.drinker = L1.drinker
        AND NOT EXISTS(
            SELECT * FROM Likes L6
            WHERE L6.drinker = L2.drinker AND L6.beer = L5.beer)))
"""

Q_SOME_SQL = """
SELECT F.person
FROM Frequents F, Likes L, Serves S
WHERE F.person = L.person
AND F.bar = S.bar
AND L.drink = S.drink
"""

Q_ONLY_SQL = """
SELECT F.person
FROM Frequents F
WHERE NOT EXISTS
   (SELECT *
    FROM Serves S
    WHERE S.bar = F.bar
    AND NOT EXISTS
       (SELECT L.drink
        FROM Likes L
        WHERE L.person = F.person
        AND S.drink = L.drink))
"""

SAILORS_ONLY_RED_SQL = """
SELECT S.sname FROM Sailor S
WHERE NOT EXISTS(
    SELECT * FROM Reserves R WHERE R.sid = S.sid
    AND NOT EXISTS(
        SELECT * FROM Boat B WHERE B.color = 'red' AND R.bid = B.bid))
"""

SAILORS_NO_RED_SQL = """
SELECT S.sname FROM Sailor S
WHERE NOT EXISTS(
    SELECT * FROM Reserves R WHERE R.sid = S.sid
    AND EXISTS(
        SELECT * FROM Boat B WHERE B.color = 'red' AND R.bid = B.bid))
"""

SAILORS_ALL_RED_SQL = """
SELECT S.sname FROM Sailor S
WHERE NOT EXISTS(
    SELECT * FROM Boat B WHERE B.color = 'red'
    AND NOT EXISTS(
        SELECT * FROM Reserves R WHERE R.bid = B.bid AND R.sid = S.sid))
"""


@pytest.fixture
def unique_set_sql() -> str:
    return UNIQUE_SET_SQL


@pytest.fixture
def q_some_sql() -> str:
    return Q_SOME_SQL


@pytest.fixture
def q_only_sql() -> str:
    return Q_ONLY_SQL


@pytest.fixture
def unique_set_query():
    return parse(UNIQUE_SET_SQL)


@pytest.fixture
def q_some_query():
    return parse(Q_SOME_SQL)


@pytest.fixture
def q_only_query():
    return parse(Q_ONLY_SQL)


@pytest.fixture
def sailors_only_red_query():
    return parse(SAILORS_ONLY_RED_SQL)


# --------------------------------------------------------------------- #
# schemas and databases
# --------------------------------------------------------------------- #


@pytest.fixture
def beers() -> "Schema":
    return beers_schema()


@pytest.fixture
def beers_fig3() -> "Schema":
    return beers_fig3_schema()


@pytest.fixture
def sailors() -> "Schema":
    return sailors_schema()


@pytest.fixture
def students() -> "Schema":
    return students_schema()


@pytest.fixture
def actors() -> "Schema":
    return actors_schema()


@pytest.fixture
def chinook() -> "Schema":
    return chinook_schema()


@pytest.fixture
def sailors_db():
    return sailors_database()


@pytest.fixture
def beers_db():
    return beers_database()


@pytest.fixture
def chinook_db():
    return chinook_database()
