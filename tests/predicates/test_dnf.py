"""DNF conversion tests, including the semantic-equivalence property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DnfBlowupError
from repro.predicates.dnf import MAX_CONJUNCTS, basic_terms_of, to_dnf, to_nnf
from repro.predicates.evaluate import evaluate_truth
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_expression


def dnf_of(text):
    return to_dnf(parse_expression(text))


def two_way_ors(count):
    """``(c0 = 1 OR c0 = 2) AND ...``: a WHERE whose DNF has 2^count conjuncts."""
    return " AND ".join(f"(c{i} = 1 OR c{i} = 2)" for i in range(count))


class TestNnf:
    def test_not_pushed_through_and(self):
        nnf = to_nnf(parse_expression("NOT (a = 1 AND b = 2)"))
        assert isinstance(nnf, ast.Or)
        assert all(isinstance(i, ast.Comparison) for i in nnf.items)
        assert [i.op for i in nnf.items] == ["<>", "<>"]

    def test_not_pushed_through_or(self):
        nnf = to_nnf(parse_expression("NOT (a = 1 OR b = 2)"))
        assert isinstance(nnf, ast.And)

    def test_double_negation_cancels(self):
        expr = parse_expression("a = 1")
        assert to_nnf(parse_expression("NOT NOT a = 1")) == expr

    @pytest.mark.parametrize(
        "source, flipped_op",
        [("a < 1", ">="), ("a <= 1", ">"), ("a > 1", "<="), ("a >= 1", "<"),
         ("a = 1", "<>"), ("a <> 1", "=")],
    )
    def test_comparison_flips(self, source, flipped_op):
        nnf = to_nnf(parse_expression(f"NOT {source}"))
        assert nnf.op == flipped_op

    def test_not_in_toggles(self):
        nnf = to_nnf(parse_expression("NOT a IN (1, 2)"))
        assert isinstance(nnf, ast.InList)
        assert nnf.negated

    def test_not_between_toggles(self):
        nnf = to_nnf(parse_expression("NOT a BETWEEN 1 AND 2"))
        assert nnf.negated

    def test_not_like_toggles(self):
        nnf = to_nnf(parse_expression("NOT v LIKE 'x%'"))
        assert nnf.negated

    def test_not_is_null_toggles(self):
        nnf = to_nnf(parse_expression("NOT v IS NULL"))
        assert nnf.negated


class TestDnfShape:
    def test_single_term(self):
        assert dnf_of("a = 1") == [[parse_expression("a = 1")]]

    def test_conjunction_stays_one_conjunct(self):
        conjuncts = dnf_of("a = 1 AND b = 2")
        assert len(conjuncts) == 1
        assert len(conjuncts[0]) == 2

    def test_disjunction_splits(self):
        conjuncts = dnf_of("a = 1 OR b = 2")
        assert len(conjuncts) == 2

    def test_distribution(self):
        conjuncts = dnf_of("a = 1 AND (b = 2 OR c = 3)")
        assert len(conjuncts) == 2
        assert all(len(c) == 2 for c in conjuncts)

    def test_cross_distribution(self):
        conjuncts = dnf_of("(a = 1 OR b = 2) AND (c = 3 OR d = 4)")
        assert len(conjuncts) == 4

    def test_true_absorbs(self):
        assert dnf_of("TRUE OR a = 1") == [[]]
        assert dnf_of("a = 1 OR TRUE") == [[]]

    def test_true_dropped_from_conjunct(self):
        conjuncts = dnf_of("TRUE AND a = 1")
        assert conjuncts == [[parse_expression("a = 1")]]

    def test_false_conjunct_dropped(self):
        assert dnf_of("FALSE AND a = 1") == []
        assert dnf_of("a = 1 AND FALSE") == []

    def test_false_disjunct_dropped(self):
        conjuncts = dnf_of("FALSE OR a = 1")
        assert conjuncts == [[parse_expression("a = 1")]]

    def test_duplicate_terms_deduped(self):
        conjuncts = dnf_of("a = 1 AND a = 1")
        assert len(conjuncts[0]) == 1

    def test_duplicate_conjuncts_deduped(self):
        conjuncts = dnf_of("a = 1 OR a = 1")
        assert len(conjuncts) == 1

    def test_blowup_guard_raises(self):
        assert MAX_CONJUNCTS == 4096 == 2**12
        assert len(dnf_of(two_way_ors(12))) == MAX_CONJUNCTS  # at the budget: converted
        with pytest.raises(DnfBlowupError):
            dnf_of(two_way_ors(13))

    def test_blowup_error_carries_counts(self):
        with pytest.raises(DnfBlowupError) as info:
            dnf_of(two_way_ors(13))
        assert info.value.limit == MAX_CONJUNCTS
        assert info.value.term_count > MAX_CONJUNCTS


class TestBasicTermsOf:
    def test_flattens_conjunction(self):
        terms = basic_terms_of(parse_expression("a = 1 AND b = 2 AND c = 3"))
        assert len(terms) == 3

    def test_single_term(self):
        assert len(basic_terms_of(parse_expression("a = 1"))) == 1

    def test_rejects_disjunction(self):
        from repro.errors import UnsupportedQueryError

        with pytest.raises(UnsupportedQueryError):
            basic_terms_of(parse_expression("a = 1 OR b = 2"))


# ---------------------------------------------------------------------------
# Property: DNF is semantically equivalent to the original predicate
# ---------------------------------------------------------------------------

_columns = ["a", "b", "c"]

_atoms = st.one_of(
    st.builds(
        lambda c, op, v: f"{c} {op} {v}",
        st.sampled_from(_columns),
        st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        st.integers(0, 4),
    ),
    st.builds(
        lambda c, vs: f"{c} IN ({', '.join(map(str, vs))})",
        st.sampled_from(_columns),
        st.lists(st.integers(0, 4), min_size=1, max_size=3),
    ),
    st.builds(
        lambda c, lo, hi: f"{c} BETWEEN {lo} AND {hi}",
        st.sampled_from(_columns),
        st.integers(0, 2),
        st.integers(2, 4),
    ),
    st.builds(lambda c: f"{c} IS NULL", st.sampled_from(_columns)),
)

_predicates = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(lambda x, y: f"({x} AND {y})", inner, inner),
        st.builds(lambda x, y: f"({x} OR {y})", inner, inner),
        st.builds(lambda x: f"NOT ({x})", inner),
    ),
    max_leaves=10,
)

_tuples = st.fixed_dictionaries(
    {c: st.one_of(st.none(), st.integers(0, 4)) for c in _columns}
)


def _dnf_truth(conjuncts, lookup):
    """Evaluate a DNF (list of conjuncts of terms) under 3-valued logic."""
    saw_unknown = False
    for conjunct in conjuncts:
        value = True
        for term in conjunct:
            term_value = evaluate_truth(term, lookup)
            if term_value is False:
                value = False
                break
            if term_value is None:
                value = None
        if value is True:
            return True
        if value is None:
            saw_unknown = True
    return None if saw_unknown else False


class TestDnfEquivalenceProperty:
    @given(_predicates, _tuples)
    @settings(max_examples=300, deadline=None)
    def test_dnf_preserves_where_semantics(self, text, row):
        """A row passes WHERE under the original predicate iff it passes
        under the DNF. (We compare 'is True' because simplification may
        collapse UNKNOWN and FALSE, which WHERE treats identically.)"""
        expr = parse_expression(text)
        lookup = lambda ref: row[ref.name]  # noqa: E731
        original = evaluate_truth(expr, lookup)
        conjuncts = to_dnf(expr)
        converted = _dnf_truth(conjuncts, lookup)
        assert (original is True) == (converted is True)

    @given(_predicates)
    @settings(max_examples=100, deadline=None)
    def test_dnf_conjuncts_are_basic_terms(self, text):
        for conjunct in to_dnf(parse_expression(text)):
            for term in conjunct:
                assert not isinstance(term, (ast.And, ast.Or, ast.Not))
