"""Unit tests for the SQL lexer."""

from __future__ import annotations

import pytest

from repro.sql import QueryTooComplex, SQLSyntaxError, tokenize
from repro.sql.lexer import MAX_SQL_CHARS
from repro.sql.tokens import TokenType


def kinds(text: str) -> list[TokenType]:
    return [t.type for t in tokenize(text)]


def values(text: str) -> list[str]:
    return [t.value for t in tokenize(text) if t.type is not TokenType.EOF]


class TestBasicTokens:
    def test_keywords_are_upper_cased(self):
        assert values("select from where and not exists") == [
            "SELECT",
            "FROM",
            "WHERE",
            "AND",
            "NOT",
            "EXISTS",
        ]

    def test_identifiers_keep_case(self):
        tokens = tokenize("ArtistId")
        assert tokens[0].type is TokenType.IDENTIFIER
        assert tokens[0].value == "ArtistId"

    def test_qualified_column_is_three_tokens(self):
        assert values("T1.attr2") == ["T1", ".", "attr2"]

    def test_number_integer(self):
        tokens = tokenize("270000")
        assert tokens[0].type is TokenType.NUMBER
        assert tokens[0].value == "270000"

    def test_number_decimal(self):
        tokens = tokenize("2.5")
        assert tokens[0].type is TokenType.NUMBER
        assert tokens[0].value == "2.5"

    def test_number_followed_by_dot_identifier_not_merged(self):
        # "1.x" should not swallow the identifier after the dot.
        assert values("T1.attr") == ["T1", ".", "attr"]

    def test_string_literal(self):
        tokens = tokenize("'AC/DC'")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == "AC/DC"

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'O''Hara'")
        assert tokens[0].value == "O'Hara"

    def test_quoted_identifier(self):
        tokens = tokenize('"Group By Weird Name"')
        assert tokens[0].type is TokenType.IDENTIFIER
        assert tokens[0].value == "Group By Weird Name"

    def test_eof_token_is_appended(self):
        assert kinds("")[-1] is TokenType.EOF


class TestOperators:
    @pytest.mark.parametrize("op", ["<", "<=", "=", "<>", ">=", ">"])
    def test_all_six_operators(self, op):
        tokens = tokenize(op)
        assert tokens[0].type is TokenType.OPERATOR
        assert tokens[0].value == op

    def test_not_equal_alias(self):
        tokens = tokenize("a != b")
        assert tokens[1].value == "<>"

    def test_punctuation(self):
        assert kinds("( ) , ; *")[:-1] == [
            TokenType.LPAREN,
            TokenType.RPAREN,
            TokenType.COMMA,
            TokenType.SEMICOLON,
            TokenType.STAR,
        ]


class TestWhitespaceAndComments:
    def test_line_comment_is_skipped(self):
        assert values("SELECT -- comment here\n x") == ["SELECT", "x"]

    def test_block_comment_is_skipped(self):
        assert values("SELECT /* multi\nline */ x") == ["SELECT", "x"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT /* oops")

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'never closed")

    def test_positions_are_recorded(self):
        tokens = tokenize("SELECT x")
        assert tokens[0].position == 0
        assert tokens[1].position == 7


class TestStringEscapes:
    """Regression tests for the sliced (no longer char-at-a-time) literals."""

    def test_empty_string_literal(self):
        tokens = tokenize("''")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == ""

    def test_literal_that_is_only_an_escaped_quote(self):
        tokens = tokenize("''''")
        assert tokens[0].value == "'"

    def test_multiple_escapes_in_one_literal(self):
        tokens = tokenize("'a''b''''c'")
        assert tokens[0].value == "a'b''c"

    def test_escape_at_start_and_end(self):
        tokens = tokenize("'''x'''")
        assert tokens[0].value == "'x'"

    def test_adjacent_literals_do_not_merge(self):
        values = [t.value for t in tokenize("'a' 'b'") if t.type is TokenType.STRING]
        assert values == ["a", "b"]

    def test_escaped_quote_then_unterminated_tail_raises(self):
        with pytest.raises(SQLSyntaxError, match="string"):
            tokenize("'a'' and then it never ends")


class TestScanStream:
    def test_scan_arrays_align(self):
        from repro.sql.lexer import scan

        stream = scan("SELECT T1.attr FROM T AS T1")
        assert len(stream.types) == len(stream.values) == len(stream.positions)
        assert stream.types[-1] is TokenType.EOF
        assert stream.tokens() == tokenize("SELECT T1.attr FROM T AS T1")

    def test_qualified_column_positions(self):
        tokens = tokenize("T1.attr2")
        assert [t.position for t in tokens[:3]] == [0, 2, 3]

    def test_keyword_qualified_is_split_like_before(self):
        # The fused qualified-column match must still classify keywords.
        kinds_values = [(t.type, t.value) for t in tokenize("from.x")[:3]]
        assert kinds_values == [
            (TokenType.KEYWORD, "FROM"),
            (TokenType.DOT, "."),
            (TokenType.IDENTIFIER, "x"),
        ]

    def test_number_dot_identifier_unfused(self):
        assert values("T1.attr") == ["T1", ".", "attr"]
        assert values("1.5") == ["1.5"]


class TestErrorCases:
    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @x")

    def test_error_mentions_position(self):
        with pytest.raises(SQLSyntaxError, match="position"):
            tokenize("SELECT @x")

    def test_error_position_is_first_gap(self):
        with pytest.raises(SQLSyntaxError) as excinfo:
            tokenize("SELECT @x FROM % T")
        assert "@" in str(excinfo.value)

    def test_gap_at_end_of_input(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT x @")


class TestSizeBound:
    def test_a_text_at_the_bound_lexes_and_one_character_more_raises(self):
        query = "SELECT S.a FROM S"
        at_bound = query + " " * (MAX_SQL_CHARS - len(query))
        assert len(at_bound) == MAX_SQL_CHARS
        assert values(at_bound) == ["SELECT", "S", ".", "a", "FROM", "S"]
        with pytest.raises(QueryTooComplex, match="exceeds"):
            tokenize(at_bound + " ")
