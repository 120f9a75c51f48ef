"""Token definitions for the QueryVis SQL fragment.

The lexer (:mod:`repro.sql.lexer`) produces a flat sequence of
:class:`Token` objects which the recursive-descent parser consumes.  Keeping
the token vocabulary tiny and explicit mirrors the small grammar in Fig. 4 of
the paper.

:class:`Token` is on the hot path of every compilation: corpus-scale runs
create millions of tokens, and the pipeline's parse cache hashes
``(type, value)`` pairs on every lookup.  It is therefore a ``__slots__``
class with its hash precomputed at construction instead of a dataclass —
no per-instance ``__dict__``, no repeated tuple hashing.  Instances are
immutable by convention (nothing in the package mutates a token after the
lexer creates it).
"""

from __future__ import annotations

import enum
from typing import Union


class TokenType(enum.Enum):
    """Kinds of lexical tokens recognised by the lexer."""

    # Members are singletons and compare by identity, so the C-level
    # identity hash is consistent with equality; Enum's own hashes the
    # member name in Python, once per token of every parse-cache key.
    __hash__ = object.__hash__

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"  # < <= = <> >= > !=
    COMMA = "comma"
    DOT = "dot"
    LPAREN = "lparen"
    RPAREN = "rparen"
    STAR = "star"
    SEMICOLON = "semicolon"
    EOF = "eof"


#: Keywords recognised by the lexer (always reported upper-case).
KEYWORDS = frozenset(
    {
        "SELECT",
        "FROM",
        "WHERE",
        "AND",
        "NOT",
        "EXISTS",
        "IN",
        "ANY",
        "ALL",
        "AS",
        "GROUP",
        "BY",
        "OR",  # recognised so we can give a precise "unsupported" error
        "DISTINCT",
        "JOIN",
        "ON",
        "HAVING",
        "ORDER",
        "UNION",
        "LIMIT",
        "OFFSET",
        "ASC",
        "DESC",
    }
)

#: Comparison operators of the supported fragment, in canonical spelling.
COMPARISON_OPERATORS = ("<", "<=", "=", "<>", ">=", ">")

#: Aggregate functions accepted in the GROUP BY extension.
AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


class Token:
    """A single lexical token.

    Attributes
    ----------
    type:
        The :class:`TokenType` of this token.
    value:
        Canonical text of the token.  Keywords and operators are upper-cased
        / normalised; identifiers keep their original spelling; string
        literals exclude the surrounding quotes.
    position:
        Character offset of the first character of the token in the source.
    """

    __slots__ = ("type", "value", "position", "_hash")

    type: TokenType
    value: Union[str, int, float]
    position: int

    def __init__(self, type: TokenType, value: str, position: int) -> None:
        self.type = type
        self.value = value
        self.position = position
        # Computed lazily: the lexer creates millions of tokens on cold
        # corpus runs, but only the parse-stage cache key ever hashes them.
        self._hash = -1

    def is_keyword(self, word: str) -> bool:
        """Return True if this token is the given keyword (case-insensitive)."""
        return self.type is TokenType.KEYWORD and self.value == word.upper()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (
            self.type is other.type
            and self.value == other.value
            and self.position == other.position
        )

    def __hash__(self) -> int:
        h = self._hash
        if h == -1:
            h = hash((self.type, self.value, self.position))
            if h == -1:  # hash() never returns -1; it is our "unset" marker
                h = -2
            self._hash = h
        return h

    def __reduce__(self):
        # __slots__ classes have no default pickle state; rebuilding through
        # the constructor also recomputes the cached hash on load.
        return (Token, (self.type, self.value, self.position))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r}, pos={self.position})"


def normalize_operator(text: str) -> str:
    """Return the canonical spelling of a comparison operator.

    ``!=`` is accepted as a synonym for ``<>`` because it is common in the
    wild, but the canonical operator set of the paper (Fig. 4) uses ``<>``.
    """
    if text == "!=":
        return "<>"
    return text
