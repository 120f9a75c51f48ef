"""Exception types raised by the SQL front end.

All parsing problems are reported through :class:`SQLSyntaxError` so callers
only need a single except clause; :class:`UnsupportedSQLError` distinguishes
queries that are syntactically fine but fall outside the SQL fragment
supported by QueryVis (Fig. 4 of the paper).
"""

from __future__ import annotations


class SQLError(Exception):
    """Base class for all SQL front-end errors."""


class SQLSyntaxError(SQLError):
    """The input text could not be tokenized or parsed.

    Parameters
    ----------
    message:
        Human-readable description of the problem.
    position:
        Character offset in the source text where the problem was detected,
        or ``None`` when the offset is unknown (e.g. unexpected end of input).
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnsupportedSQLError(SQLError):
    """The query parses but uses a construct outside the supported fragment.

    The supported fragment is nested conjunctive queries with inequalities
    (Section 4.4), optionally extended with a single GROUP BY clause and
    aggregate select items (Appendix C.3).  Disjunctions (OR), NULL handling,
    outer joins, set operations and HAVING are intentionally unsupported.
    """


class QueryTooComplex(SQLError):
    """The query is larger than the front end accepts.

    Its text is longer than ``MAX_SQL_CHARS`` (the lexer's bound), or its
    subquery blocks nest deeper than ``MAX_QUERY_DEPTH`` (the parser's).
    The parser, the diagram pipeline and the engines all recurse once per
    query block, so an unbounded nesting depth would end in the
    interpreter's ``RecursionError`` instead of a typed error.
    """
