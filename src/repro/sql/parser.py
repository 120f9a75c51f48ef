"""Recursive-descent parser for the QueryVis SQL fragment (Fig. 4).

The parser accepts:

* ``SELECT`` lists of qualified/unqualified columns, ``*`` and aggregate
  calls (``COUNT``, ``SUM``, ``AVG``, ``MIN``, ``MAX``);
* comma-separated ``FROM`` lists with optional aliases (with or without
  ``AS``);
* ``WHERE`` clauses that are conjunctions (``AND``) of join predicates,
  selection predicates, ``[NOT] EXISTS``, ``[NOT] IN`` and ``op ANY/ALL``
  subqueries;
* an optional ``GROUP BY`` clause (appendix extension);
* ``SELECT DISTINCT`` and the ranked-access clauses ``ORDER BY <col
  [ASC|DESC], ...>`` and ``LIMIT k [OFFSET m]``.

Constructs outside the fragment (``OR``, explicit ``JOIN``, ``HAVING``,
``UNION``) raise :class:`UnsupportedSQLError` with a message naming the
offending construct, so that callers can report a precise reason rather
than a generic syntax error.  Queries nested more than
:data:`MAX_QUERY_DEPTH` blocks deep raise :class:`QueryTooComplex`.

The implementation is written for the cold path: it consumes the lexer's
:class:`~repro.sql.lexer.TokenStream` parallel arrays directly (no token
objects are materialized), tracks the current token type/value in plain
attributes, and compares keywords against pre-upper-cased literals.  A
``list[Token]`` is still accepted for compatibility and converted up front.
"""

from __future__ import annotations

from .ast import (
    AggregateCall,
    ColumnRef,
    Comparison,
    Exists,
    InSubquery,
    Literal,
    OrderItem,
    Predicate,
    QuantifiedComparison,
    SelectItem,
    SelectQuery,
    Star,
    TableRef,
)
from .errors import QueryTooComplex, SQLSyntaxError, UnsupportedSQLError
from .lexer import TokenStream, scan
from .tokens import AGGREGATE_FUNCTIONS, Token, TokenType

#: Deepest accepted nesting of query blocks, the outermost block counting
#: as one.  Every later stage recurses once per block; the deepest of them
#: (the columnar engine, the SQL lowering) reach the interpreter's
#: recursion limit near 100 blocks.
MAX_QUERY_DEPTH = 64

_UNSUPPORTED_KEYWORDS = {
    "OR": "disjunction (OR) is outside the supported fragment",
    "JOIN": "explicit JOIN syntax is not supported; use implicit joins",
    "ON": "explicit JOIN syntax is not supported; use implicit joins",
    "HAVING": "HAVING is not supported",
    "UNION": "UNION is not supported",
}

_KEYWORD = TokenType.KEYWORD
_IDENTIFIER = TokenType.IDENTIFIER
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING
_OPERATOR = TokenType.OPERATOR
_COMMA = TokenType.COMMA
_DOT = TokenType.DOT
_LPAREN = TokenType.LPAREN
_RPAREN = TokenType.RPAREN
_STAR = TokenType.STAR
_SEMICOLON = TokenType.SEMICOLON
_EOF = TokenType.EOF


class Parser:
    """Parses a token stream into a :class:`SelectQuery` AST."""

    def __init__(self, tokens: TokenStream | list[Token]) -> None:
        if isinstance(tokens, TokenStream):
            stream = tokens
        else:
            stream = TokenStream(
                [token.type for token in tokens],
                [token.value for token in tokens],
                [token.position for token in tokens],
                "",
            )
        self._types = stream.types
        self._values = stream.values
        self._positions = stream.positions
        self._index = 0
        self._depth = 1  # query blocks open at the current token
        if self._types:
            self._type = self._types[0]
            self._value = self._values[0]
        else:
            self._type = _EOF
            self._value = ""

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #

    def parse_query(self) -> SelectQuery:
        """Parse a complete query and require that all input is consumed."""
        query = self._parse_select_query()
        if self._type is _SEMICOLON:
            self._advance()
        if self._type is not _EOF:
            raise SQLSyntaxError(
                f"unexpected trailing input {self._value!r}",
                self._positions[self._index],
            )
        return query

    # ------------------------------------------------------------------ #
    # token-stream helpers
    # ------------------------------------------------------------------ #

    def _advance(self) -> None:
        if self._type is not _EOF:
            index = self._index + 1
            self._index = index
            self._type = self._types[index]
            self._value = self._values[index]

    def _expect(self, token_type: TokenType, value: str | None = None) -> str:
        """Consume the current token and return its value."""
        if self._type is not token_type or (value is not None and self._value != value):
            expected = value if value is not None else token_type.name
            raise SQLSyntaxError(
                f"expected {expected}, found {self._value!r}",
                self._positions[self._index],
            )
        consumed = self._value
        self._advance()
        return consumed

    def _check_unsupported(self) -> None:
        # Call sites guard on ``self._type is _KEYWORD`` so the common
        # (non-keyword) token costs no method call at all.
        if self._value in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedSQLError(_UNSUPPORTED_KEYWORDS[self._value])

    # ------------------------------------------------------------------ #
    # grammar rules
    # ------------------------------------------------------------------ #

    def _parse_select_query(self) -> SelectQuery:
        self._expect(_KEYWORD, "SELECT")
        distinct = False
        if self._type is _KEYWORD and self._value == "DISTINCT":
            distinct = True
            self._advance()
        if self._type is _KEYWORD:
            self._check_unsupported()
        select_items = self._parse_select_list()
        self._expect(_KEYWORD, "FROM")
        from_tables = self._parse_from_list()
        where: tuple[Predicate, ...] = ()
        if self._type is _KEYWORD and self._value == "WHERE":
            self._advance()
            where = tuple(self._parse_conjunction())
        group_by: tuple[ColumnRef, ...] = ()
        if self._type is _KEYWORD and self._value == "GROUP":
            self._advance()
            self._expect(_KEYWORD, "BY")
            group_by = tuple(self._parse_group_by_list())
        order_by: tuple[OrderItem, ...] = ()
        if self._type is _KEYWORD and self._value == "ORDER":
            self._advance()
            self._expect(_KEYWORD, "BY")
            order_by = tuple(self._parse_order_by_list())
        limit: int | None = None
        offset = 0
        if self._type is _KEYWORD and self._value == "LIMIT":
            self._advance()
            limit = self._parse_nonnegative_int("LIMIT")
            if self._type is _KEYWORD and self._value == "OFFSET":
                self._advance()
                offset = self._parse_nonnegative_int("OFFSET")
        if self._type is _KEYWORD:
            self._check_unsupported()
        return SelectQuery(
            select_items=tuple(select_items),
            from_tables=tuple(from_tables),
            where=where,
            group_by=group_by,
            distinct=distinct,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )

    def _parse_select_list(self) -> list[SelectItem]:
        if self._type is _STAR:
            self._advance()
            return [Star()]
        items: list[SelectItem] = [self._parse_select_item()]
        while self._type is _COMMA:
            self._advance()
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> SelectItem:
        if (
            self._type is _IDENTIFIER
            and self._value.upper() in AGGREGATE_FUNCTIONS
            and self._types[self._index + 1] is _LPAREN
        ):
            return self._parse_aggregate_call()
        return self._parse_column_ref()

    def _parse_aggregate_call(self) -> AggregateCall:
        func = self._value.upper()
        self._advance()
        self._expect(_LPAREN)
        argument: ColumnRef | Star
        if self._type is _STAR:
            self._advance()
            argument = Star()
        else:
            argument = self._parse_column_ref()
        self._expect(_RPAREN)
        return AggregateCall(func=func, argument=argument)

    def _parse_column_ref(self) -> ColumnRef:
        # Hand-rolled cursor stepping: this is the most-called grammar rule,
        # and the generic _expect/_advance pair costs two method calls per
        # consumed token.
        if self._type is not _IDENTIFIER:
            raise SQLSyntaxError(
                f"expected IDENTIFIER, found {self._value!r}",
                self._positions[self._index],
            )
        first = self._value
        types = self._types
        index = self._index + 1
        if types[index] is _DOT:
            if types[index + 1] is not _IDENTIFIER:
                self._index = index + 1
                self._type = types[index + 1]
                self._value = self._values[index + 1]
                raise SQLSyntaxError(
                    f"expected IDENTIFIER, found {self._value!r}",
                    self._positions[index + 1],
                )
            second = self._values[index + 1]
            index += 2
            self._index = index
            self._type = types[index]
            self._value = self._values[index]
            return ColumnRef(table=first, column=second)
        self._index = index
        self._type = types[index]
        self._value = self._values[index]
        return ColumnRef(table=None, column=first)

    def _parse_from_list(self) -> list[TableRef]:
        tables = [self._parse_table_ref()]
        while self._type is _COMMA:
            self._advance()
            tables.append(self._parse_table_ref())
        return tables

    def _parse_table_ref(self) -> TableRef:
        if self._type is _KEYWORD:
            self._check_unsupported()
        name = self._expect(_IDENTIFIER)
        alias: str | None = None
        if self._type is _KEYWORD and self._value == "AS":
            self._advance()
            alias = self._expect(_IDENTIFIER)
        elif self._type is _IDENTIFIER:
            alias = self._value
            self._advance()
        return TableRef(name=name, alias=alias)

    def _parse_group_by_list(self) -> list[ColumnRef]:
        columns = [self._parse_column_ref()]
        while self._type is _COMMA:
            self._advance()
            columns.append(self._parse_column_ref())
        return columns

    def _parse_order_by_list(self) -> list[OrderItem]:
        items = [self._parse_order_item()]
        while self._type is _COMMA:
            self._advance()
            items.append(self._parse_order_item())
        return items

    def _parse_order_item(self) -> OrderItem:
        column = self._parse_column_ref()
        descending = False
        if self._type is _KEYWORD and self._value in ("ASC", "DESC"):
            descending = self._value == "DESC"
            self._advance()
        return OrderItem(column=column, descending=descending)

    def _parse_nonnegative_int(self, clause: str) -> int:
        if self._type is not _NUMBER or "." in self._value:
            raise SQLSyntaxError(
                f"{clause} requires a non-negative integer, found {self._value!r}",
                self._positions[self._index],
            )
        value = int(self._value)
        self._advance()
        return value

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #

    def _parse_conjunction(self) -> list[Predicate]:
        predicates = [self._parse_predicate()]
        while self._type is _KEYWORD:
            self._check_unsupported()
            if self._value == "AND":
                self._advance()
                predicates.append(self._parse_predicate())
            else:
                break
        return predicates

    def _parse_predicate(self) -> Predicate:
        if self._type is _KEYWORD:
            self._check_unsupported()
            if self._value == "NOT":
                return self._parse_negated_predicate()
            if self._value == "EXISTS":
                self._advance()
                return Exists(query=self._parse_parenthesized_query(), negated=False)
        return self._parse_comparison_like()

    def _parse_negated_predicate(self) -> Predicate:
        self._expect(_KEYWORD, "NOT")
        if self._type is _KEYWORD and self._value == "EXISTS":
            self._advance()
            return Exists(query=self._parse_parenthesized_query(), negated=True)
        # "NOT column ..." — applies to IN or quantified comparison.
        predicate = self._parse_comparison_like()
        if isinstance(predicate, InSubquery):
            return InSubquery(
                column=predicate.column, query=predicate.query, negated=True
            )
        if isinstance(predicate, QuantifiedComparison):
            return QuantifiedComparison(
                column=predicate.column,
                op=predicate.op,
                quantifier=predicate.quantifier,
                query=predicate.query,
                negated=True,
            )
        raise UnsupportedSQLError(
            "NOT may only negate EXISTS, IN, or quantified subquery predicates"
        )

    def _parse_comparison_like(self) -> Predicate:
        left = self._parse_operand()
        if self._type is _KEYWORD:
            if self._value == "NOT":
                position = self._positions[self._index]
                self._advance()
                self._expect(_KEYWORD, "IN")
                if not isinstance(left, ColumnRef):
                    raise SQLSyntaxError("IN requires a column on the left", position)
                return InSubquery(
                    column=left, query=self._parse_parenthesized_query(), negated=True
                )
            if self._value == "IN":
                position = self._positions[self._index]
                self._advance()
                if not isinstance(left, ColumnRef):
                    raise SQLSyntaxError("IN requires a column on the left", position)
                return InSubquery(
                    column=left, query=self._parse_parenthesized_query(), negated=False
                )
        if self._type is not _OPERATOR:
            raise SQLSyntaxError(
                f"expected comparison operator, found {self._value!r}",
                self._positions[self._index],
            )
        op = self._value
        self._advance()
        if self._type is _KEYWORD and self._value in ("ANY", "ALL"):
            quantifier = self._value
            position = self._positions[self._index]
            self._advance()
            if not isinstance(left, ColumnRef):
                raise SQLSyntaxError(
                    "quantified comparison requires a column on the left", position
                )
            return QuantifiedComparison(
                column=left,
                op=op,
                quantifier=quantifier,
                query=self._parse_parenthesized_query(),
            )
        if self._type is _LPAREN and (
            self._types[self._index + 1] is _KEYWORD
            and self._values[self._index + 1] == "SELECT"
        ):
            raise UnsupportedSQLError(
                "scalar subqueries are not supported; use IN, EXISTS, ANY or ALL"
            )
        right = self._parse_operand()
        return Comparison(left=left, op=op, right=right)

    def _parse_operand(self) -> ColumnRef | Literal:
        kind = self._type
        if kind is _IDENTIFIER:
            return self._parse_column_ref()
        if kind is _NUMBER:
            text = self._value
            self._advance()
            return Literal(float(text) if "." in text else int(text))
        if kind is _STRING:
            value = self._value
            self._advance()
            return Literal(value)
        raise SQLSyntaxError(
            f"expected column or literal, found {self._value!r}",
            self._positions[self._index],
        )

    def _parse_parenthesized_query(self) -> SelectQuery:
        self._expect(_LPAREN)
        if self._depth == MAX_QUERY_DEPTH:
            raise QueryTooComplex(
                f"query blocks nest deeper than {MAX_QUERY_DEPTH} levels"
            )
        self._depth += 1
        query = self._parse_select_query()
        self._depth -= 1
        self._expect(_RPAREN)
        return query


def parse(text: str) -> SelectQuery:
    """Parse SQL ``text`` into a :class:`SelectQuery` AST."""
    return Parser(scan(text)).parse_query()
