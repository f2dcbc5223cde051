"""The SQL front end against a reference model of itself.

The tokenizer is one compiled regular expression and the ``||``,
additive and multiplicative levels are one precedence table.  The
reference below is the character loop and the three ``accept`` ladders
they replaced, kept verbatim: on every input both must produce the same
tokens (kind, value *and its type*, offset) and the same AST, or both
raise :class:`SQLParseError`.
"""

import random
import string
from dataclasses import dataclass
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.datagen import Universe
from repro.db.sql import parser as parser_module
from repro.db.sql.parser import parse_statement
from repro.db.sql.tokenizer import (
    EOF,
    IDENT,
    KEYWORDS,
    KW,
    NUMBER,
    OP,
    STRING,
    tokenize,
)
from repro.errors import SQLParseError
from repro.workloads.queries import QUERY_TEMPLATES

# ----------------------------------------------------------------------
# The reference model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RefToken:
    kind: str
    value: object
    position: int

    def matches(self, kind: str, value: object = None) -> bool:
        return self.kind == kind and (value is None or self.value == value)


_TWO_CHAR_OPS = {"<=", ">=", "<>", "!=", "||"}
_ONE_CHAR_OPS = set("+-*/%(),.=<>;")


def reference_tokenize(text: str) -> List[RefToken]:
    tokens: List[RefToken] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        start = i
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            i += 1
            is_float = ch == "."
            while i < n and (text[i].isdigit() or text[i] in ".eE+-"):
                if text[i] in "+-" and text[i - 1] not in "eE":
                    break
                if text[i] == ".":
                    is_float = True
                if text[i] in "eE":
                    is_float = True
                i += 1
            literal = text[start:i]
            try:
                value = float(literal) if is_float else int(literal)
            except ValueError:
                raise SQLParseError(f"bad numeric literal {literal!r}")
            tokens.append(RefToken(NUMBER, value, start))
            continue
        if ch == "'":
            parts = []
            i += 1
            while True:
                if i >= n:
                    raise SQLParseError("unterminated string literal")
                if text[i] == "'":
                    if i + 1 < n and text[i + 1] == "'":
                        parts.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                parts.append(text[i])
                i += 1
            tokens.append(RefToken(STRING, "".join(parts), start))
            continue
        if ch == '"':
            i += 1
            close = text.find('"', i)
            if close == -1:
                raise SQLParseError("unterminated quoted identifier")
            tokens.append(RefToken(IDENT, text[i:close], start))
            i = close + 1
            continue
        if ch.isalpha() or ch == "_":
            i += 1
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(RefToken(KW, upper, start))
            else:
                tokens.append(RefToken(IDENT, word, start))
            continue
        if text[i:i + 2] in _TWO_CHAR_OPS:
            tokens.append(RefToken(OP, text[i:i + 2], start))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(RefToken(OP, ch, start))
            i += 1
            continue
        raise SQLParseError(f"unexpected character {ch!r} at offset {i}")
    tokens.append(RefToken(EOF, None, n))
    return tokens


class ReferenceParser(parser_module._Parser):
    """The production parser with the binary levels as ladders again."""

    def parse_binary(self):
        left = self.parse_additive()
        while self.accept(OP, "||"):
            left = parser_module.ast.Binary("||", left,
                                            self.parse_additive())
        return left

    def parse_additive(self):
        left = self.parse_multiplicative()
        while True:
            if self.accept(OP, "+"):
                left = parser_module.ast.Binary(
                    "+", left, self.parse_multiplicative())
            elif self.accept(OP, "-"):
                left = parser_module.ast.Binary(
                    "-", left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self):
        left = self.parse_unary()
        while True:
            if self.accept(OP, "*"):
                left = parser_module.ast.Binary("*", left, self.parse_unary())
            elif self.accept(OP, "/"):
                left = parser_module.ast.Binary("/", left, self.parse_unary())
            elif self.accept(OP, "%"):
                left = parser_module.ast.Binary("%", left, self.parse_unary())
            else:
                return left


def reference_parse(sql):
    return ReferenceParser(reference_tokenize(sql)).parse_statement()


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------


def outcome(tokenizer, parse, sql):
    """``("ok", tokens, ast)``, or where and that it raised."""
    try:
        tokens = [(t.kind, type(t.value), t.value, t.position)
                  for t in tokenizer(sql)]
    except SQLParseError:
        return ("tokenize error",)
    try:
        # repr, not ==: 1 == 1.0, but Literal(1) and Literal(1.0) differ.
        return ("ok", tokens, repr(parse(sql)))
    except SQLParseError:
        return ("parse error", tokens)


def assert_same(sql):
    expected = outcome(reference_tokenize, reference_parse, sql)
    assert outcome(tokenize, parse_statement, sql) == expected
    return expected


EDGE_INPUTS = [
    "1.2.3", "1e", ".5", "''''", "'", '"', "'abc", '"abc', "--",
    "SELECT 1 --", "SELECT a FROM t WHERE a = b = c", "- - 1",
    "SELECT - - 1", "SELECT .5, 1e5, 1E+5, 1.e-3, 2.5e", "SELECT 1.2.3",
    "SELECT 1e", "SELECT ''''", "SELECT 'it''s'", "SELECT '''",
    "SELECT 1 -- comment\nFROM t", "SELECT a||b||c FROM t",
    "SELECT a - b - c * d / e % f FROM t", "SELECT 1+-2 FROM t",
    "SELECT x FROM t WHERE y <> 1 AND z != 2 OR NOT w >= 3",
    "SELECT \"quoted col\" FROM t", "SELECT a FROM t;", "SELECT ²",
    "SELECT 1² FROM t", "SELECT x² FROM t", "SELECT ½", "SELECT 1٣",
    "select é FROM t", "SELECT a FROM t", "SELECT #",
]


@pytest.mark.parametrize("sql", EDGE_INPUTS)
def test_edge_inputs(sql):
    assert_same(sql)


@pytest.mark.parametrize("sql", ["1.2.3", "1e", "SELECT 1.2.3",
                                 "SELECT 1e"])
def test_malformed_numbers_stay_bad_numeric_literals(sql):
    with pytest.raises(SQLParseError, match="bad numeric literal"):
        tokenize(sql)
    with pytest.raises(SQLParseError, match="bad numeric literal"):
        reference_tokenize(sql)


@st.composite
def rendered_templates(draw):
    name = draw(st.sampled_from(sorted(QUERY_TEMPLATES)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    t0 = draw(st.integers(0, 2 ** 40))
    t1 = t0 + draw(st.integers(0, 2 ** 20))
    rng = random.Random(seed)
    return QUERY_TEMPLATES[name].render(t0, t1, rng, _UNIVERSE)


_UNIVERSE = Universe(seed=3)
_PIECES = st.sampled_from([
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "IN", "BETWEEN", "IS",
    "NULL", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "AS", "(",
    ")", ",", "*", "+", "-", "/", "%", "||", "=", "<>", "<=", ">=", "<",
    ">", ".", ";", "'s'", "''", "1", "2.5", ".5", "1e3", "a", "t", "x",
    "\"q\"", "--", "\n", " ",
])


@settings(max_examples=300, deadline=None)
@given(rendered_templates())
def test_templates_with_random_parameters(sql):
    assert assert_same(sql)[0] == "ok"


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=string.printable, max_size=60))
def test_random_printable_strings(sql):
    assert_same(sql)


@settings(max_examples=500, deadline=None)
@given(st.lists(_PIECES, max_size=25).map(" ".join))
def test_random_token_sequences(sql):
    assert_same("SELECT " + sql)
    assert_same(sql)
