"""Single-pass regex lexer for the QueryVis SQL fragment.

The supported grammar (Fig. 4 of the paper) needs identifiers, string/number
literals, six comparison operators and a handful of punctuation characters.
Comments (``--`` line comments and ``/* ... */`` block comments) are skipped
so that queries copied from the paper's appendix or from real codebases
tokenize cleanly.

The implementation is one compiled *master pattern* with a named group per
token class; each call to :func:`re.Pattern.match` consumes exactly one
token (or one run of ignorable whitespace/comments), replacing the previous
char-at-a-time scanner.  Two further cold-path economies:

* identifier and keyword spellings are interned and memoized in a shared
  word table, so a corpus that repeats ``SELECT``/``Sailors``/``sid``
  thousands of times classifies and allocates each spelling once;
* string literals are sliced wholesale between the quote positions (the
  ``''`` escape is handled by one ``str.replace``) instead of being built
  one character at a time.
"""

from __future__ import annotations

import re
import sys

from .errors import QueryTooComplex, SQLSyntaxError
from .tokens import KEYWORDS, Token, TokenType, normalize_operator

#: Longest SQL text the lexer reads: the HTTP server's body cap (1 MiB), so
#: library and CLI callers meet the bound that served requests meet.
MAX_SQL_CHARS = 1024 * 1024

#: One alternative per token class, each swallowing *trailing* whitespace
#: so one match usually covers "token + gap to the next token" — halving
#: the number of match iterations on typical input.  The ``skip``
#: alternative only has to handle comments (and any whitespace adjacent to
#: them, or leading the text).  Order matters only for overlapping
#: prefixes: comments must precede operators/punctuation so ``--`` and
#: ``/*`` are not split into single characters (neither ``-`` nor ``/`` is
#: a token of the fragment, so both would otherwise be hard errors).
_MASTER_PATTERN = re.compile(
    r"""
      (?P<skip>      (?: \s+ | --[^\n]* | /\*(?s:.*?)\*/ )+ )
    | (?P<qcol>      [A-Za-z_][A-Za-z0-9_$]* \. [A-Za-z_][A-Za-z0-9_$]* ) \s*
    | (?P<word>      [A-Za-z_][A-Za-z0-9_$]* ) \s*
    | (?P<number>    [0-9]+(?:\.[0-9]+)? ) \s*
    | (?P<string>    '[^']*(?:''[^']*)*' ) \s*
    | (?P<quoted>    "[^"]*" ) \s*
    | (?P<operator>  (?: <= | >= | <> | != | [<>=] ) ) \s*
    | (?P<comma>,\s*) | (?P<dot>\.\s*) | (?P<lparen>\(\s*) | (?P<rparen>\)\s*)
    | (?P<star>\*\s*) | (?P<semicolon>;\s*)
""",
    re.VERBOSE,
)

#: Group numbers of the master pattern (``lastindex`` is an int compare,
#: cheaper than the ``lastgroup`` string lookup on the per-token path).
_G_SKIP = _MASTER_PATTERN.groupindex["skip"]
_G_QCOL = _MASTER_PATTERN.groupindex["qcol"]
_G_WORD = _MASTER_PATTERN.groupindex["word"]
_G_NUMBER = _MASTER_PATTERN.groupindex["number"]
_G_STRING = _MASTER_PATTERN.groupindex["string"]
_G_QUOTED = _MASTER_PATTERN.groupindex["quoted"]
_G_OPERATOR = _MASTER_PATTERN.groupindex["operator"]

#: lastindex → (TokenType, canonical value) for the punctuation groups —
#: the value is fixed per group, so the match object is never consulted.
_SIMPLE_TOKENS = {
    _MASTER_PATTERN.groupindex[name]: (token_type, value)
    for name, token_type, value in (
        ("comma", TokenType.COMMA, ","),
        ("dot", TokenType.DOT, "."),
        ("lparen", TokenType.LPAREN, "("),
        ("rparen", TokenType.RPAREN, ")"),
        ("star", TokenType.STAR, "*"),
        ("semicolon", TokenType.SEMICOLON, ";"),
    )
}

_T_NUMBER = TokenType.NUMBER
_T_STRING = TokenType.STRING
_T_IDENTIFIER = TokenType.IDENTIFIER
_T_OPERATOR = TokenType.OPERATOR
_T_DOT = TokenType.DOT

#: Shared word table: exact spelling → (TokenType, canonical interned value).
#: Keywords in any case and repeated identifiers classify once per spelling.
_WORD_TABLE: dict[str, tuple[TokenType, str]] = {}

#: Safety valve so pathological corpora cannot grow the table unboundedly.
_WORD_TABLE_LIMIT = 1 << 16


def _classify_word(word: str) -> tuple[TokenType, str]:
    entry = _WORD_TABLE.get(word)
    if entry is None:
        upper = word.upper()
        if upper in KEYWORDS:
            entry = (TokenType.KEYWORD, sys.intern(upper))
        else:
            entry = (TokenType.IDENTIFIER, sys.intern(word))
        if len(_WORD_TABLE) >= _WORD_TABLE_LIMIT:
            _WORD_TABLE.clear()
        _WORD_TABLE[word] = entry
    return entry


class TokenStream:
    """The lexer's output as three parallel arrays plus the source text.

    The parser (and the pipeline's parse-stage cache key) only ever needs
    a token's type and value, and the odd error message needs a position —
    none of which requires one heap object per token.  ``scan`` therefore
    fills three flat lists; :class:`Token` objects are materialized only
    by the compatibility wrapper :func:`tokenize`.
    """

    __slots__ = ("types", "values", "positions", "text")

    def __init__(
        self,
        types: list[TokenType],
        values: list[str],
        positions: list[int],
        text: str,
    ) -> None:
        self.types = types
        self.values = values
        self.positions = positions
        self.text = text

    def __len__(self) -> int:
        return len(self.types)

    def tokens(self) -> list[Token]:
        """Materialize classic :class:`Token` objects (compat/debug path)."""
        return [
            Token(kind, value, position)
            for kind, value, position in zip(self.types, self.values, self.positions)
        ]


def scan(text: str) -> TokenStream:
    """Tokenize ``text`` into a :class:`TokenStream` (ends with EOF).

    The scan is one C-level :func:`re.Pattern.finditer` sweep; a gap
    between consecutive matches is the error position (the master pattern
    matches any legal token *or* ignorable run, so legal input has no
    gaps).  A text longer than :data:`MAX_SQL_CHARS` raises
    :class:`~repro.sql.errors.QueryTooComplex` before any matching.
    """
    length = len(text)
    if length > MAX_SQL_CHARS:
        raise QueryTooComplex(
            f"SQL text of {length} characters exceeds {MAX_SQL_CHARS}"
        )
    word_table = _WORD_TABLE
    classify = _classify_word
    simple_tokens = _SIMPLE_TOKENS
    types: list[TokenType] = []
    values: list[str] = []
    positions: list[int] = []
    add_type = types.append
    add_value = values.append
    add_position = positions.append
    covered = 0
    for m in _MASTER_PATTERN.finditer(text):
        start, end = m.span()
        covered += end - start
        group = m.lastindex
        if group == _G_QCOL:
            # "T1.attr" in one match: emit IDENTIFIER DOT IDENTIFIER — the
            # single hottest token sequence of the fragment, fused so it
            # costs one regex step instead of three.
            qualified = m.group(_G_QCOL)
            cut = qualified.index(".")
            first = qualified[:cut]
            second = qualified[cut + 1 :]
            entry = word_table.get(first)
            if entry is None:
                entry = classify(first)
            add_type(entry[0])
            add_value(entry[1])
            add_position(start)
            add_type(_T_DOT)
            add_value(".")
            add_position(start + cut)
            entry = word_table.get(second)
            if entry is None:
                entry = classify(second)
            add_type(entry[0])
            add_value(entry[1])
            add_position(start + cut + 1)
            continue
        if group == _G_WORD:
            word = m.group(_G_WORD)
            entry = word_table.get(word)
            if entry is None:
                entry = classify(word)
            add_type(entry[0])
            add_value(entry[1])
        elif group == _G_SKIP:
            continue
        elif group > _G_OPERATOR:
            kind, value = simple_tokens[group]
            add_type(kind)
            add_value(value)
        elif group == _G_OPERATOR:
            add_type(_T_OPERATOR)
            add_value(normalize_operator(m.group(_G_OPERATOR)))
        elif group == _G_NUMBER:
            add_type(_T_NUMBER)
            add_value(m.group(_G_NUMBER))
        elif group == _G_STRING:
            # Slice between the quotes; '' escapes a single quote.
            value = text[start + 1 : m.end(_G_STRING) - 1]
            if "''" in value:
                value = value.replace("''", "'")
            add_type(_T_STRING)
            add_value(value)
        else:  # _G_QUOTED
            add_type(_T_IDENTIFIER)
            add_value(text[start + 1 : m.end(_G_QUOTED) - 1])
        add_position(start)
    if covered != length:
        # Some stretch of the input matched nothing.  Rescan match-by-match
        # (cold error path) to pinpoint the first gap.
        pos = 0
        for m in _MASTER_PATTERN.finditer(text):
            start, end = m.span()
            if start != pos:
                break
            pos = end
        raise _scan_error(text, pos)
    add_type(TokenType.EOF)
    add_value("")
    add_position(length)
    return TokenStream(types, values, positions, text)


def _scan_error(text: str, pos: int) -> SQLSyntaxError:
    """The precise error for input the master pattern cannot match."""
    if text.startswith("/*", pos):
        return SQLSyntaxError("unterminated block comment", pos)
    ch = text[pos]
    if ch == "'":
        return SQLSyntaxError("unterminated string literal", pos)
    if ch == '"':
        return SQLSyntaxError("unterminated quoted identifier", pos)
    return SQLSyntaxError(f"unexpected character {ch!r}", pos)


class Lexer:
    """Tokenizes SQL source text into a list of :class:`Token` objects."""

    def __init__(self, text: str) -> None:
        self._text = text

    def tokenize(self) -> list[Token]:
        """Return all tokens of the source text, ending with an EOF token."""
        return scan(self._text).tokens()


def tokenize(text: str) -> list[Token]:
    """Convenience wrapper: tokenize ``text`` and return the token list."""
    return scan(text).tokens()
