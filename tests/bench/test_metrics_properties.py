"""Property tests for the Section 5.2 evaluation metrics.

``false_positive_rate`` has two guarded error paths — an *incomplete*
reported set (a correctness violation, not an fpr matter) and an empty
``S(Q)`` with sources reported (undefined ratio) — plus a closed-form value
on the happy path. These hold for arbitrary source-id sets, so they are
checked as properties rather than a handful of examples.
"""

from hypothesis import given
from hypothesis import strategies as st
import pytest

from paper_harness import false_positive_rate, naive_fpr, overhead
from repro.errors import TracError

ids = st.sets(st.text(alphabet="abcdefgh", min_size=1, max_size=3), max_size=8)
nonempty_ids = ids.filter(bool)


class TestFalsePositiveRateHappyPath:
    @given(exact=nonempty_ids, extra=ids)
    def test_closed_form_for_complete_reports(self, exact, extra):
        reported = exact | extra
        fpr = false_positive_rate(reported, exact)
        assert fpr == len(reported - exact) / len(exact)
        assert fpr >= 0.0

    @given(exact=ids)
    def test_exact_report_has_zero_fpr(self, exact):
        assert false_positive_rate(set(exact), exact) == 0.0

    @given(exact=nonempty_ids, extra=ids)
    def test_zero_iff_no_extras(self, exact, extra):
        reported = exact | extra
        fpr = false_positive_rate(reported, exact)
        assert (fpr == 0.0) == (reported == exact)


class TestFalsePositiveRateErrorPaths:
    @given(exact=nonempty_ids, data=st.data())
    def test_any_missing_relevant_source_raises(self, exact, data):
        # Drop a non-empty subset of S(Q) from the report: incomplete.
        dropped = data.draw(
            st.sets(st.sampled_from(sorted(exact)), min_size=1), label="dropped"
        )
        reported = exact - dropped
        with pytest.raises(TracError, match="incomplete"):
            false_positive_rate(reported, exact)

    @given(reported=nonempty_ids)
    def test_empty_exact_with_reports_is_undefined(self, reported):
        with pytest.raises(TracError, match="undefined"):
            false_positive_rate(reported, set())

    def test_empty_exact_and_empty_report_is_zero(self):
        assert false_positive_rate(set(), set()) == 0.0

    @given(exact=nonempty_ids, extra=ids)
    def test_error_message_names_missing_sources(self, exact, extra):
        victim = sorted(exact)[0]
        reported = (exact | extra) - {victim}
        try:
            false_positive_rate(reported, exact)
        except TracError as err:
            assert victim in str(err)
        else:  # pragma: no cover - property violation
            raise AssertionError("incomplete report did not raise")


class TestNaiveFprProperties:
    @given(
        relevant=st.integers(min_value=1, max_value=1000),
        slack=st.integers(min_value=0, max_value=1000),
    )
    def test_matches_closed_form_and_sign(self, relevant, slack):
        total = relevant + slack
        fpr = naive_fpr(total, relevant)
        assert fpr == slack / relevant
        assert fpr >= 0.0

    @given(total=st.integers(min_value=0, max_value=1000))
    def test_empty_relevant_set_rejected(self, total):
        with pytest.raises(TracError):
            naive_fpr(total, 0)

    @given(
        total=st.integers(min_value=0, max_value=1000),
        excess=st.integers(min_value=1, max_value=100),
    )
    def test_relevant_beyond_population_rejected(self, total, excess):
        with pytest.raises(TracError):
            naive_fpr(total, total + excess)


class TestOverheadProperties:
    @given(
        t_plain=st.floats(min_value=1e-6, max_value=1e3),
        factor=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_recovers_slowdown_factor(self, t_plain, factor):
        assert overhead(t_plain, t_plain * factor) == pytest.approx(factor - 1.0)

    @given(t_plain=st.floats(max_value=0.0, allow_nan=False))
    def test_nonpositive_baseline_rejected(self, t_plain):
        with pytest.raises(TracError):
            overhead(t_plain, 1.0)
