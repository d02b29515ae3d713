"""The character-at-a-time SQL lexer, kept as an oracle.

``repro.sqlparser.lexer`` is one compiled regular expression; this is the
hand-written loop it replaced, unchanged, so that
``tests/sqlparser/test_lexer_oracle.py`` can require both to give equal
tokens (type, value, value type and position) and equal error positions.

Produces a flat list of :class:`~repro.sqlparser.tokens.Token` ending with an
``EOF`` token. Strings use single quotes with ``''`` as the escaped quote
(standard SQL). Line comments (``--``) and block comments (``/* */``) are
skipped.
"""

from __future__ import annotations

from typing import List

from repro.errors import LexerError
from repro.sqlparser.tokens import KEYWORDS, Token, TokenType

_OPERATOR_STARTS = "=<>!"


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` into SQL tokens.

    Raises
    ------
    LexerError
        On unterminated strings/comments or unexpected characters.
    """
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text.startswith("--", i):
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "-" and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == "."):
            start = i
            value, i = _read_number(text, i + 1)
            value = -value  # type: ignore[operator]
            tokens.append(Token(TokenType.NUMBER, value, start))
            continue
        if ch == "/" and text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                raise LexerError("unterminated block comment", i)
            i = end + 2
            continue
        if ch == "'":
            start = i
            value, i = _read_string(text, i)
            tokens.append(Token(TokenType.STRING, value, start))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            value, i = _read_number(text, i)
            tokens.append(Token(TokenType.NUMBER, value, start))
            continue
        if ch.isalpha() or ch == "_" or ch == '"':
            word, start, i = _read_word(text, i)
            upper = word.upper()
            if upper in KEYWORDS and not word.startswith('"'):
                tokens.append(Token(TokenType.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, word.strip('"'), start))
            continue
        if ch in _OPERATOR_STARTS:
            start = i
            op, i = _read_operator(text, i)
            tokens.append(Token(TokenType.OPERATOR, op, start))
            continue
        simple = {
            ",": TokenType.COMMA,
            ".": TokenType.DOT,
            "(": TokenType.LPAREN,
            ")": TokenType.RPAREN,
            "*": TokenType.STAR,
            ";": TokenType.SEMICOLON,
        }.get(ch)
        if simple is not None:
            tokens.append(Token(simple, ch, i))
            i += 1
            continue
        raise LexerError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenType.EOF, None, n))
    return tokens


def _read_string(text: str, start: int) -> tuple:
    """Read a single-quoted string starting at ``start``; '' escapes a quote."""
    i = start + 1
    parts: List[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise LexerError("unterminated string literal", start)


def _read_number(text: str, start: int) -> tuple:
    i = start
    n = len(text)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            seen_exp = True
            i += 1
            if i < n and text[i] in "+-":
                i += 1
        else:
            break
    raw = text[start:i]
    try:
        value: object = float(raw) if (seen_dot or seen_exp) else int(raw)
    except ValueError as exc:
        raise LexerError(f"malformed number {raw!r}", start) from exc
    return value, i


def _read_word(text: str, start: int) -> tuple:
    n = len(text)
    if text[start] == '"':
        end = text.find('"', start + 1)
        if end == -1:
            raise LexerError("unterminated quoted identifier", start)
        return text[start : end + 1], start, end + 1
    i = start
    while i < n and (text[i].isalnum() or text[i] == "_"):
        i += 1
    return text[start:i], start, i


def _read_operator(text: str, start: int) -> tuple:
    two = text[start : start + 2]
    if two in ("<=", ">=", "<>", "!="):
        return two, start + 2
    ch = text[start]
    if ch in "=<>":
        return ch, start + 1
    raise LexerError(f"unexpected operator character {ch!r}", start)
