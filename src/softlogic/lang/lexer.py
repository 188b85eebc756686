"""Tokenizer of the rule parser; the data reader shares its token spellings
and tokenizes a data text only to locate an error.

One master regular expression, run with `re.finditer`, matches each token
or comment together with the blanks before it. Newlines are matched on
their own, so the scan tracks the line and where it starts, and a token's
column is its offset from that start.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from .ast import LangError


class SyntaxErrorWithLocation(LangError):
    pass


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int
    value: object = None

    def __repr__(self):
        return "Token(%s, %r, %d:%d)" % (self.kind, self.text, self.line, self.column)


_TWO_CHAR = {
    "->": "IMPLIES_R",
    ">>": "IMPLIES_R",
    "<-": "IMPLIES_L",
    "<<": "IMPLIES_L",
    "&&": "AND",
    "||": "OR",
    "!=": "NEQ",
    "<=": "LEQ",
    ">=": "GEQ",
    "^2": "SQUARED",
}

_ONE_CHAR = {
    "&": "AND",
    "|": "PIPE",
    "!": "NOT",
    "~": "NOT",
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
    ":": "COLON",
    ".": "PERIOD",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "=": "EQ",
    "@": "AT",
}

# Token spellings (constants need re.DOTALL; names also need str.isalpha).
STRING = r"""(?:"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')"""
NUMBER = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
IDENT = r"[^\W\d_]\w*"

# Alternatives are tried in order at each position, so comments come
# before "/" and two-character operators before one-character ones.
_MASTER = re.compile(
    r"""
    [ \t\r]*
    (?:
      (?P<NEWLINE>\n)
    | (?P<COMMENT>//[^\n]*)
    | (?P<BLOCK>/\*.*?\*/)
    | (?P<OPEN_BLOCK>/\*)
    | (?P<STRING>%s)
    | (?P<NUMBER>%s)
    | (?P<IDENT>%s)
    | (?P<OP>%s)
    | (?P<BAD>.)
    | (?P<END>$)
    )
    """
    % (STRING, NUMBER, IDENT, "|".join(re.escape(op) for op in [*_TWO_CHAR, *_ONE_CHAR])),
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_OPERATORS = {**_TWO_CHAR, **_ONE_CHAR}
(_NEWLINE, _COMMENT, _BLOCK, _OPEN_BLOCK, _STRING, _NUMBER, _IDENT, _OP, _BAD, _END) = (
    _MASTER.groupindex[name]
    for name in ("NEWLINE", "COMMENT", "BLOCK", "OPEN_BLOCK", "STRING", "NUMBER", "IDENT",
                 "OP", "BAD", "END")
)
# Builds a Token from a 5-tuple without the Python-level NamedTuple __new__.
_token = functools.partial(tuple.__new__, Token)


def unquote(raw: str) -> str:
    """A quoted constant's value: the text between its quotes, escapes resolved."""
    return _ESCAPE.sub(r"\1", raw[1:-1]) if "\\" in raw else raw[1:-1]


def _string_error(text: str, start: int) -> str:
    """Why the constant opened at ``start`` does not lex."""
    quote = text[start]
    j = start + 1
    while j < len(text) and text[j] != quote:
        if text[j] == "\\":
            if j + 1 >= len(text):
                break
            j += 2
        elif text[j] == "\n":
            return "newline inside constant"
        else:
            j += 1
    return "unterminated constant"


def tokenize(text: str):
    """Lex source text into a token list ending with EOF.

    Supports ``//`` line comments and ``/* */`` block comments anywhere.
    An escaped newline inside a quoted constant does not start a new line.
    """
    tokens = []
    append = tokens.append
    line = 1
    line_start = 0
    end = len(text)
    for m in _MASTER.finditer(text):
        group = m.lastindex
        start = m.start(group)
        if group == _NEWLINE:
            line += 1
            line_start = start + 1
            continue
        column = start - line_start + 1
        raw = m.group(group)
        if group == _OP:
            append(_token((_OPERATORS[raw], raw, line, column, None)))
        elif group == _STRING:
            append(_token(("STRING", raw, line, column, unquote(raw))))
        elif group == _IDENT and raw[0].isalpha():
            append(_token(("IDENT", raw, line, column, raw)))
        elif group == _NUMBER:
            append(_token(("NUMBER", raw, line, column, float(raw))))
        elif group == _COMMENT:
            if m.end() == len(text):
                end = start  # the end of input is placed where a final comment starts
        elif group == _END:
            break
        elif group == _BLOCK:
            newlines = raw.count("\n")
            if newlines:
                line += newlines
                line_start = start + raw.rindex("\n") + 1
        elif group == _OPEN_BLOCK:
            raise SyntaxErrorWithLocation("unterminated block comment", line, column)
        elif raw in "\"'":
            raise SyntaxErrorWithLocation(_string_error(text, start), line, column)
        else:
            raise SyntaxErrorWithLocation("unexpected character %r" % raw[0], line, column)
    append(Token("EOF", "", line, end - line_start + 1))
    return tokens
