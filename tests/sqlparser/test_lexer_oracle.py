"""The regular-expression lexer against the character-at-a-time one.

``tests/sqlparser/oracle_lexer.py`` is the lexer ``repro.sqlparser.lexer``
replaced. Over generated texts both must give equal tokens — type, value,
the value's Python type and position — and where the oracle raises, the new
lexer must raise :class:`LexerError` at the same position.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexerError
from repro.sqlparser.lexer import tokenize
from tests.sqlparser.oracle_lexer import tokenize as oracle_tokenize

_PIECES = st.one_of(
    st.sampled_from(
        [
            "SELECT", "select", "From", "WHERE", "and", "NOT", "in", "LIKE", "null",
            "TRUE", "limit", "ſelect", "t1", "Tao100", "_x9", "a.b", "é", "²", "½", "٣",
        ]
    ),
    st.from_regex(r'"[a-z\'\- ]{0,4}(--)?"', fullmatch=True),  # quoted identifiers
    st.from_regex(r"--[a-z' ]{0,5}\n?", fullmatch=True),
    st.from_regex(r"/\*[a-z'*/ ]{0,5}(\*/)?", fullmatch=True),
    st.from_regex(r"'([a-z ]|'')*'?", fullmatch=True),  # strings, some unterminated
    st.from_regex(r"-?(\d{1,3}|\d*\.\d*)([eE][+-]?\d{0,2})?", fullmatch=True),
    st.sampled_from(["1e999", "-1e999", ".5", "-.5", "1.", "-.", "1e", "1ex", "1²"]),
    st.sampled_from(["=", "<", "<=", ">", ">=", "<>", "!=", "!", "-", "/", "*", ",", ".", "(", ")", ";"]),
    st.sampled_from([" ", "  ", "\n", "\t", "\xa0"]),
    st.characters(blacklist_categories=("Cs",)),  # stray characters
)


def _lex(lexer, text):
    try:
        return [(t.type, t.value, type(t.value), t.position) for t in lexer(text)]
    except LexerError as exc:
        return ("LexerError", exc.position)


@given(st.lists(_PIECES, max_size=12).map("".join))
@settings(max_examples=600, deadline=None)
def test_new_lexer_matches_the_oracle(text):
    assert _lex(tokenize, text) == _lex(oracle_tokenize, text)


@given(st.text(alphabet="ab1.-e'\"/*!=<> \n²", max_size=16))
@settings(max_examples=400, deadline=None)
def test_new_lexer_matches_the_oracle_on_dense_punctuation(text):
    assert _lex(tokenize, text) == _lex(oracle_tokenize, text)


def test_a_long_run_of_escaped_quotes():
    text = "SELECT a FROM t WHERE a = '" + "x''" * 20000 + "'"
    assert _lex(tokenize, text) == _lex(oracle_tokenize, text)
