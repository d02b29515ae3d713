"""SQL lexer: one compiled regular expression with named groups.

Produces a flat list of :class:`~repro.sqlparser.tokens.Token` ending with an
``EOF`` token. Strings use single quotes with ``''`` as the escaped quote
(standard SQL). Line comments (``--``) and block comments (``/* */``) are
skipped. A ``-`` directly before a digit or ``.`` starts a negative number.

The same expression reads a text's *shape* (:func:`shape_key`): the text
with every ``STRING`` / ``NUMBER`` literal cut out, plus the literals' types
and which of them are equal. A literal therefore has one definition, and two
texts of one shape lex to the same non-literal tokens — what lets the
resolved-query cache (:mod:`repro.engine.cache`) bind a text into the tree
of an earlier one instead of parsing it.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import LexerError
from repro.sqlparser.tokens import KEYWORDS, Token, TokenType

# ``\s``, ``\w`` and ``\d`` are exactly ``str.isspace``, ``isalnum`` (or
# ``_``) and ``isdecimal``; a digit that is not decimal (``²``) and a word
# that starts with a numeral are errors, raised by ``_fail``. Every repeat
# is of one character, so no match keeps a backtracking stack: a string is
# ``'[^']*'``, and two that touch are one, joined by the quote ``''`` means.
_TOKEN_RE = re.compile(
    r"""
      (?P<skip>\s+|--[^\n]*\n?|/\*.*?\*/)
    | (?P<number>(?:-(?:\d+\.?\d*|\.\d*)|\d+\.?\d*|\.\d+)(?:[eE][+-]?\d*)?)
    | (?P<string>'[^']*')
    | (?P<word>"[^"]*"|[^\W\d]\w*)
    | (?P<operator>[<>!]=|<>|[=<>])
    | (?P<punct>[,.()*;])
    | (?P<error>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_LITERALS = frozenset({"number", "string"})

_PUNCT = {
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "*": TokenType.STAR,
    ";": TokenType.SEMICOLON,
}


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` into SQL tokens.

    Raises
    ------
    LexerError
        On unterminated strings/comments, malformed numbers or unexpected
        characters, at the offending offset.
    """
    tokens: List[Token] = []
    append = tokens.append
    string_end = -1
    joined = {}  # index of a string token that goes on -> its end
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "skip":
            continue
        start = match.start()
        if start == string_end:  # straight after a string: it goes on
            if kind == "string":
                string_end = joined[len(tokens) - 1] = match.end()
                continue
            if kind == "error" and text[start] == "'":
                raise LexerError("unterminated string literal", tokens[-1].position)
        if kind == "word":
            word = match.group()
            if word[0] == '"':
                append(Token(TokenType.IDENTIFIER, word[1:-1], start))
                continue
            if not (word[0].isalpha() or word[0] == "_"):
                _fail(text, start)
            upper = word.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, start))
            else:
                append(Token(TokenType.IDENTIFIER, word, start))
        elif kind == "number":
            append(Token(TokenType.NUMBER, _literal(match, text), start))
        elif kind == "string":
            append(Token(TokenType.STRING, match.group()[1:-1], start))
            string_end = match.end()
        elif kind == "operator":
            append(Token(TokenType.OPERATOR, match.group(), start))
        elif kind == "punct":
            char = match.group()
            if char == "." and text[start + 1 : start + 2].isdigit():
                _fail(text, start)
            append(Token(_PUNCT[char], char, start))
        else:
            _fail(text, start)
    for index, end in joined.items():
        tokens[index].value = _joined(text, tokens[index].position, end)
    append(Token(TokenType.EOF, None, len(text)))
    return tokens


def shape_key(text: str) -> Optional[Tuple[tuple, List[object]]]:
    """``(key, literals)``: the values of ``text``'s ``STRING`` / ``NUMBER``
    tokens in order, and a key equal for two texts exactly when they differ
    only in those values while keeping

    * the text around them (comments and quoted identifiers included),
    * each literal's type — and value, for a number equal to ``TRUE`` or
      ``FALSE`` (``1``, ``0``, ``-0.0``) — and
    * the equality pattern: for each literal, the first earlier one equal to
      it under the ``==`` the AST uses.

    ``None`` when a literal is malformed (:func:`tokenize` raises on it).
    Other lexical errors are not looked for: a text whose shape is a
    well-formed text's cannot have them.
    """
    segments: List[str] = []
    literals: List[object] = []
    last = 0
    literal_start = 0
    joined = {}  # index of a string literal that goes on -> its span
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind not in _LITERALS:
            continue
        start = match.start()
        if kind == "string" and start == last and literals and type(literals[-1]) is str:
            joined[len(literals) - 1] = (literal_start, match.end())
        else:
            try:
                literals.append(_literal(match, text))
            except LexerError:
                return None
            segments.append(text[last:start])
            literal_start = start
        last = match.end()
    segments.append(text[last:])
    for index, (start, end) in joined.items():
        literals[index] = _joined(text, start, end)
    first: dict = {}
    pattern = tuple(first.setdefault(value, index) for index, value in enumerate(literals))
    return (tuple(segments), tuple(map(_kind, literals)), pattern), literals


def _kind(value: object) -> object:
    if type(value) is str:
        return str
    if value == 0 or value == 1:
        # Equal to the keyword FALSE or TRUE under the AST's ``==``, and
        # -0.0 equals 0.0 but prints apart: the value is the kind.
        return (type(value), repr(value))
    return type(value)


def _joined(text: str, start: int, end: int) -> str:
    """The value of the touching strings ``text[start:end]``."""
    return text[start + 1 : end - 1].replace("''", "'")


def _literal(match: "re.Match[str]", text: str) -> object:
    """The value of a ``number`` or ``string`` match."""
    raw = match.group()
    if raw[0] == "'":
        return raw[1:-1]
    negative = raw[0] == "-"
    digits = raw[negative:]
    start = match.start() + negative
    end = match.end()
    if end < len(text) and text[end].isdigit():
        raise LexerError(f"malformed number {digits + text[end]!r}", start)
    try:
        if "." in digits or "e" in digits or "E" in digits:
            value: object = float(digits)
        else:
            value = int(digits)
    except ValueError as exc:
        raise LexerError(f"malformed number {digits!r}", start) from exc
    return -value if negative else value  # type: ignore[operator]


def _fail(text: str, i: int) -> None:
    """Raise the error for the character at ``i``, which starts no token."""
    char = text[i]
    following = text[i + 1 : i + 2]
    if char == "-" and following.isdigit():
        raise LexerError(f"malformed number {following!r}", i + 1)
    if char == "/" and text.startswith("/*", i):
        raise LexerError("unterminated block comment", i)
    if char == "'":
        raise LexerError("unterminated string literal", i)
    if char.isdigit() or (char == "." and following.isdigit()):
        raise LexerError(f"malformed number {text[i : i + 2]!r}", i)
    if char == '"':
        raise LexerError("unterminated quoted identifier", i)
    if char == "!":
        raise LexerError(f"unexpected operator character {char!r}", i)
    raise LexerError(f"unexpected character {char!r}", i)
