"""SQL front end: lexer, parser, AST, formatter and text metrics.

The public surface of this package is:

* :func:`parse` — parse SQL text into a :class:`SelectQuery` AST;
* :func:`format_query` — canonical pretty-printing of an AST;
* the AST node classes re-exported from :mod:`repro.sql.ast`;
* :func:`text_metrics` — the word/token counts used by Section 4.8.
"""

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
from .errors import QueryTooComplex, SQLError, SQLSyntaxError, UnsupportedSQLError
from .formatter import format_inline, format_query
from .lexer import Lexer, tokenize
from .metrics import SQLTextMetrics, text_metrics, word_count
from .parser import Parser, parse

__all__ = [
    "AggregateCall",
    "ColumnRef",
    "Comparison",
    "Exists",
    "InSubquery",
    "Lexer",
    "Literal",
    "OrderItem",
    "Parser",
    "Predicate",
    "QuantifiedComparison",
    "QueryTooComplex",
    "SQLError",
    "SQLSyntaxError",
    "SQLTextMetrics",
    "SelectItem",
    "SelectQuery",
    "Star",
    "TableRef",
    "UnsupportedSQLError",
    "format_inline",
    "format_query",
    "parse",
    "text_metrics",
    "tokenize",
    "word_count",
]
