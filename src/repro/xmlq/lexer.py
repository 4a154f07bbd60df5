"""Lexer for the XPath subset used by descriptor queries.

The paper (Section III-B) uses a subset of XPath 1.0 to express queries:
location steps separated by ``/``, predicates between brackets, the
wildcard ``*`` and the ancestor/descendant operator ``//``, and basic
comparison operators inside predicates.  The token language is accordingly
small:

========== ==========================================================
Token       Examples
========== ==========================================================
SLASH       ``/``
DSLASH      ``//``
LBRACKET    ``[``
RBRACKET    ``]``
STAR        ``*``
NAME        ``article``, ``author``, ``John``, ``1996`` (bare words)
OP          ``=`` ``!=`` ``<`` ``<=`` ``>`` ``>=``
LITERAL     ``"TCP"``, ``'1996'`` (quoted strings)
========== ==========================================================

Bare words double as element names *and* values, following the paper's own
query notation (e.g. ``/article/title/TCP``, where ``TCP`` is the value of
the ``title`` element); the evaluator resolves which one applies.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator


class TokenType(enum.Enum):
    """Kinds of token produced by :func:`tokenize`."""

    SLASH = "SLASH"
    DSLASH = "DSLASH"
    LBRACKET = "LBRACKET"
    RBRACKET = "RBRACKET"
    STAR = "STAR"
    NAME = "NAME"
    OP = "OP"
    LITERAL = "LITERAL"
    EOF = "EOF"


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position (for diagnostics)."""

    type: TokenType
    value: str
    position: int


class XPathLexError(ValueError):
    """Raised on characters outside the query subset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# Bare words may contain word characters plus the punctuation commonly found
# in bibliographic values (dots, dashes, colons, plus signs).  Spaces inside
# values require quoting.
_NAME_RE = re.compile(r"[\w.\-:+]+", re.UNICODE)
_OPS = ("<=", ">=", "!=", "=", "<", ">")


def tokenize(expression: str) -> list[Token]:
    """Tokenize an XPath expression, always ending with an EOF token."""
    return list(_token_stream(expression))


def _token_stream(expression: str) -> Iterator[Token]:
    position = 0
    length = len(expression)
    while position < length:
        char = expression[position]
        if char.isspace():
            position += 1
            continue
        if char == "/":
            if expression.startswith("//", position):
                yield Token(TokenType.DSLASH, "//", position)
                position += 2
            else:
                yield Token(TokenType.SLASH, "/", position)
                position += 1
            continue
        if char == "[":
            yield Token(TokenType.LBRACKET, "[", position)
            position += 1
            continue
        if char == "]":
            yield Token(TokenType.RBRACKET, "]", position)
            position += 1
            continue
        if char == "*":
            yield Token(TokenType.STAR, "*", position)
            position += 1
            continue
        if char in "\"'":
            end = expression.find(char, position + 1)
            if end < 0:
                raise XPathLexError("unterminated string literal", position)
            yield Token(TokenType.LITERAL, expression[position + 1 : end], position)
            position = end + 1
            continue
        matched_op = next(
            (op for op in _OPS if expression.startswith(op, position)), None
        )
        if matched_op is not None:
            yield Token(TokenType.OP, matched_op, position)
            position += len(matched_op)
            continue
        match = _NAME_RE.match(expression, position)
        if match is not None:
            yield Token(TokenType.NAME, match.group(0), position)
            position = match.end()
            continue
        raise XPathLexError(f"unexpected character {char!r}", position)
    yield Token(TokenType.EOF, "", length)
