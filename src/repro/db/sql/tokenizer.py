"""SQL tokenizer.

Produces a flat list of :class:`Token` objects.  Keywords are
case-insensitive and reported upper-case; identifiers keep their case
(optionally double-quoted); string literals use single quotes with ``''``
escaping, as in SQLite.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.errors import SQLParseError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "ASC", "DESC", "AS", "JOIN", "INNER", "LEFT", "ON", "AND", "OR", "NOT",
    "IN", "BETWEEN", "LIKE", "IS", "NULL", "UNION", "ALL", "DISTINCT",
    "INSERT", "INTO", "VALUES", "CREATE", "TABLE", "INDEX", "CASE", "WHEN",
    "THEN", "ELSE", "END", "CAST", "OFFSET", "UPDATE", "SET", "DELETE",
    "OUTER", "EXPLAIN",
}

# Token kinds.
KW = "KW"          # keyword (value upper-cased)
IDENT = "IDENT"    # identifier
NUMBER = "NUMBER"  # numeric literal (value is int or float)
STRING = "STRING"  # string literal (value is str)
OP = "OP"          # operator or punctuation
EOF = "EOF"


class Token(NamedTuple):
    kind: str
    value: object
    position: int

    def matches(self, kind: str, value: object = None) -> bool:
        return self.kind == kind and (value is None or self.value == value)


#: One token per match, after any whitespace: one alternative per kind,
#: the first that matches wins.  A word starts with any word character
#: but a decimal digit (a non-letter among those is refused below).  A
#: number starts with a digit, or a dot before one, and runs over
#: digits, dots and exponent marks (a sign only right after an ``e``);
#: what it spells is judged by ``int``/``float`` afterwards.  ``bad`` is
#: any other character, and the empty match at the end closes the text.
_TOKEN = re.compile(r"""
    \s* (?:
      (?P<word> [^\W\d]\w* )
    | (?P<number> (?: \d | \.(?=\d) ) (?: [\d.eE] | (?<=[eE])[+-] )* )
    | (?P<comment> --[^\n]* )
    | (?P<op> <= | >= | <> | != | \|\| | [-+*/%(),.=<>;] )
    | (?P<string> '[^']*(?:''[^']*)*' )
    | (?P<quoted> "[^"]*" )
    | (?P<bad> . )
    | \Z )
""", re.VERBOSE | re.DOTALL)

#: ``_token(Token, (kind, value, position))`` builds the same tuple as
#: ``Token(kind, value, position)`` without the NamedTuple's
#: Python-level ``__new__``: one call per lexeme, so it shows.
_token = tuple.__new__

_UNTERMINATED = {
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
}


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; raises :class:`~repro.errors.SQLParseError`."""
    tokens: List[Token] = []
    append = tokens.append
    for found in _TOKEN.finditer(text):
        kind = found.lastgroup
        if kind is None or kind == "comment":
            continue
        lexeme = found.group(kind)
        start = found.start(kind)
        if kind == "word":
            upper = lexeme.upper()
            if upper in KEYWORDS:
                append(_token(Token, (KW, upper, start)))
            elif lexeme[0].isalpha() or lexeme[0] == "_":
                append(_token(Token, (IDENT, lexeme, start)))
            else:
                # A digit or numeral that is not a decimal digit ("²"):
                # no number or identifier starts with one.
                raise SQLParseError(
                    f"unexpected character {lexeme[0]!r} at offset {start}")
        elif kind == "op":
            append(_token(Token, (OP, lexeme, start)))
        elif kind == "number":
            try:
                if "." in lexeme or "e" in lexeme or "E" in lexeme:
                    value: object = float(lexeme)
                else:
                    value = int(lexeme)
            except ValueError:
                raise SQLParseError(f"bad numeric literal {lexeme!r}")
            append(_token(Token, (NUMBER, value, start)))
        elif kind == "string":
            body = lexeme[1:-1].replace("''", "'")
            append(_token(Token, (STRING, body, start)))
        elif kind == "quoted":
            append(_token(Token, (IDENT, lexeme[1:-1], start)))
        elif lexeme in _UNTERMINATED:
            raise SQLParseError(_UNTERMINATED[lexeme])
        else:
            raise SQLParseError(
                f"unexpected character {lexeme!r} at offset {start}")
    append(Token(EOF, None, len(text)))
    return tokens
