"""Descriptive statistics and z-score outlier tests (Section 4.3)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statistics import (
    SourceRecency,
    describe,
    describe_columns,
    format_interval,
    format_timestamp,
    mean_stddev,
    split_columns,
    zscore_split,
)


def srcs(*pairs):
    return [SourceRecency(sid, ts) for sid, ts in pairs]


class TestDescribe:
    def test_empty(self):
        stats = describe([])
        assert stats.count == 0
        assert stats.least_recent is None
        assert stats.inconsistency_bound is None

    def test_single(self):
        stats = describe(srcs(("m1", 100.0)))
        assert stats.least_recent.source_id == "m1"
        assert stats.most_recent.source_id == "m1"
        assert stats.inconsistency_bound == 0.0

    def test_min_max_range(self):
        stats = describe(srcs(("m1", 100.0), ("m2", 400.0), ("m3", 250.0)))
        assert stats.least_recent.source_id == "m1"
        assert stats.most_recent.source_id == "m2"
        assert stats.inconsistency_bound == 300.0

    def test_ties_broken_by_source_id(self):
        stats = describe(srcs(("mB", 100.0), ("mA", 100.0)))
        assert stats.least_recent.source_id == "mA"
        assert stats.most_recent.source_id == "mB"

    def test_paper_twenty_minute_bound(self):
        """The Section 5.1 transcript: least recent 14:20:05, most recent
        14:40:05 -> bound of inconsistency 00:20:00."""
        base = 1_142_431_205.0
        stats = describe(srcs(("m1", base + 1200.0), ("m3", base + 2400.0)))
        assert format_interval(stats.inconsistency_bound) == "00:20:00"


class TestFormatting:
    def test_format_timestamp(self):
        assert format_timestamp(0.0) == "1970-01-01 00:00:00"

    def test_format_interval(self):
        assert format_interval(0) == "00:00:00"
        assert format_interval(61) == "00:01:01"
        assert format_interval(3600 * 2 + 60 * 20) == "02:20:00"

    def test_format_interval_rounds(self):
        assert format_interval(59.6) == "00:01:00"

    def test_long_intervals_exceed_two_digit_hours(self):
        assert format_interval(30 * 24 * 3600) == "720:00:00"


class TestMeanStddev:
    def test_population_formulas(self):
        mu, sigma = mean_stddev([1.0, 2.0, 3.0, 4.0])
        assert mu == 2.5
        assert sigma == pytest.approx(math.sqrt(1.25))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_stddev([])


class TestZScoreSplit:
    def test_no_outliers_in_uniform_data(self):
        data = srcs(*[(f"m{i}", 100.0 + i) for i in range(10)])
        split = zscore_split(data)
        assert split.exceptional == []
        assert len(split.normal) == 10

    def test_extreme_outlier_detected(self):
        data = srcs(*[(f"m{i}", 1000.0 + i) for i in range(10)])
        data.append(SourceRecency("dead", 1000.0 - 30 * 24 * 3600.0))
        split = zscore_split(data)
        assert [s.source_id for s in split.exceptional] == ["dead"]
        assert len(split.normal) == 10

    def test_outlier_removal_tightens_bound(self):
        data = srcs(*[(f"m{i}", 1000.0 + 60 * i) for i in range(10)])
        data.append(SourceRecency("dead", -10_000_000.0))
        split = zscore_split(data)
        full_bound = describe(data).inconsistency_bound
        normal_bound = describe(split.normal).inconsistency_bound
        assert normal_bound < full_bound

    def test_zero_variance_no_outliers(self):
        data = srcs(("a", 5.0), ("b", 5.0), ("c", 5.0))
        split = zscore_split(data)
        assert split.exceptional == []
        assert split.stddev == 0.0

    def test_fewer_than_two_sources_never_exceptional(self):
        assert zscore_split([]).normal == []
        one = srcs(("a", 1.0))
        split = zscore_split(one)
        assert split.normal == one
        assert split.mean is None

    def test_threshold_configurable(self):
        data = srcs(("a", 0.0), ("b", 10.0), ("c", 10.0), ("d", 10.0), ("e", 10.0))
        strict = zscore_split(data, threshold=1.5)
        lenient = zscore_split(data, threshold=3.0)
        assert len(strict.exceptional) >= len(lenient.exceptional)

    @pytest.mark.parametrize("threshold", [3.0, 6.0])
    def test_a_threshold_of_three_or_more_flags_only_the_dead(self, threshold):
        data = srcs(*[(f"s{i}", 1000.0 + (i % 13) * 60.0) for i in range(500)])
        dead = srcs(*[(f"dead{i}", -1e6 * (i + 1)) for i in range(3)])
        split = zscore_split(data + dead, threshold)
        assert {s.source_id for s in split.exceptional} <= {s.source_id for s in dead}

    def test_two_points_never_exceptional_at_default_threshold(self):
        # Two points are each exactly 1 sigma from the mean.
        split = zscore_split(srcs(("a", 0.0), ("b", 1e9)))
        assert split.exceptional == []


class TestChebyshevProperty:
    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e9, allow_nan=False),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_at_most_one_ninth_beyond_three_sigma(self, values):
        """Chebyshev: at most 1/9 of any data set has |z| >= 3."""
        data = [SourceRecency(f"s{i}", v) for i, v in enumerate(values)]
        split = zscore_split(data, threshold=3.0)
        assert len(split.exceptional) <= len(values) / 9

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e9, allow_nan=False),
            min_size=0,
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_split_is_partition(self, values):
        data = [SourceRecency(f"s{i}", v) for i, v in enumerate(values)]
        split = zscore_split(data)
        assert len(split.normal) + len(split.exceptional) == len(data)
        combined = {s.source_id for s in split.normal} | {
            s.source_id for s in split.exceptional
        }
        assert combined == {s.source_id for s in data}

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_range_is_max_minus_min(self, values):
        data = [SourceRecency(f"s{i}", v) for i, v in enumerate(values)]
        stats = describe(data)
        assert stats.inconsistency_bound == pytest.approx(max(values) - min(values))


def oracle_describe(sources):
    """``describe`` before the one-pass rewrite, frozen as the oracle."""
    if not sources:
        return None, None, 0
    least = min(sources, key=lambda s: (s.recency, s.source_id))
    most = max(sources, key=lambda s: (s.recency, s.source_id))
    return least, most, len(sources)


def oracle_zscore_split(sources, threshold):
    """``zscore_split`` before the one-pass rewrite, frozen as the oracle:
    ``(normal, exceptional, mean, stddev)``."""
    items = list(sources)
    if len(items) < 2:
        return items, [], None, None
    values = [s.recency for s in items]
    mu = sum(values) / len(values)
    sigma = math.sqrt(sum((x - mu) ** 2 for x in values) / len(values))
    if sigma == 0.0:
        return items, [], mu, sigma
    normal, exceptional = [], []
    for source in items:
        z = (source.recency - mu) / sigma
        if abs(z) >= threshold:
            exceptional.append(source)
        else:
            normal.append(source)
    return normal, exceptional, mu, sigma


NAN = float("nan")  # one object: tuple comparison treats it as equal to itself

#: Values that force ties, zero spread, NaN (shared and fresh) and ±inf.
RECENCIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 60.0, 1e9, NAN, math.inf, -math.inf]),
    st.builds(float, st.just("nan")),
    st.floats(min_value=-1e6, max_value=1e6),
)
SOURCES = st.lists(
    st.builds(SourceRecency, st.sampled_from(["m1", "m10", "m2", "a", "b"]), RECENCIES),
    max_size=12,
)
THRESHOLDS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0, math.inf, NAN, -1.0])


def same_float(a, b):
    """Equal, or both NaN; ``None`` only matches ``None``."""
    if a is None or b is None:
        return a is b
    return a == b or (a != a and b != b)


def pairs(sources):
    """Ordered ``(source_id, recency)`` pairs: ``repr`` tells -0.0 from 0.0
    and equates NaNs. ``None`` stays ``None``."""
    if sources is None or isinstance(sources, SourceRecency):
        return None if sources is None else pairs([sources])[0]
    return [(s.source_id, repr(s.recency)) for s in sources]


class TestDifferential:
    """``zscore_split`` and ``describe`` against their frozen predecessors:
    the same sources in the same order, the same mean and stddev, the same
    least and most recent source, the same count. The split's objects are
    views built from its columns, so sources compare as ordered
    ``(source_id, recency)`` pairs, not by identity."""

    def assert_describes_alike(self, sources):
        least, most, count = oracle_describe(sources)
        stats = describe(sources)
        assert pairs(stats.least_recent) == pairs(least)
        assert pairs(stats.most_recent) == pairs(most)
        assert stats.count == count

    @given(SOURCES, THRESHOLDS)
    @settings(max_examples=500, deadline=None)
    def test_split_and_statistics_match_the_oracle(self, sources, threshold):
        normal, exceptional, mu, sigma = oracle_zscore_split(sources, threshold)
        split = zscore_split(sources, threshold)
        assert pairs(split.normal) == pairs(normal)
        assert pairs(split.exceptional) == pairs(exceptional)
        assert same_float(split.mean, mu) and same_float(split.stddev, sigma)
        self.assert_describes_alike(split.normal)
        self.assert_describes_alike(sources)

    def test_the_drawn_corners_are_reached(self):
        ties = srcs(("b", 5.0), ("a", 5.0), ("a", 1.0), ("c", 1.0))
        self.assert_describes_alike(ties)
        self.assert_describes_alike(srcs(("b", -0.0), ("a", 0.0)))
        self.assert_describes_alike(srcs(("b", NAN), ("a", NAN), ("c", 1.0)))
        for data in ([], srcs(("a", 1.0)), srcs(("a", 1.0), ("b", 1.0))):
            assert zscore_split(data).exceptional == [] and describe(data).count == len(data)
        assert len(zscore_split(ties, threshold=0.0).exceptional) == 4

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize(
        "data",
        [
            [("a", 1.0), ("b", NAN), ("c", 2.0)],
            [("a", NAN), ("b", NAN)],
            [("a", math.inf), ("b", 1.0), ("c", 2.0)],
            [("a", -math.inf), ("b", 1.0), ("c", math.inf)],
            [("c", 1.0), ("a", 1.0), ("b", 5.0), ("e", 5.0), ("d", 3.0)],
            [("b", 2.0), ("a", 2.0), ("c", 2.0)],
            [("a", 7.0)],
            [("m1", 1000.0 + i) for i in range(12)] + [("dead", -1e9)],
        ],
        ids=["nan", "nans", "inf", "both-infs", "ties-at-min-and-max", "all-tied", "one",
             "outlier"],
    )
    def test_the_column_path_matches_the_object_oracle(self, data, threshold):
        ids = [sid for sid, _ in data]
        recencies = [recency for _, recency in data]
        normal, exceptional, mu, sigma = oracle_zscore_split(srcs(*data), threshold)
        split = split_columns(ids, recencies, threshold)
        assert pairs(srcs(*zip(split.normal_ids, split.normal_recencies))) == pairs(normal)
        assert pairs(
            srcs(*zip(split.exceptional_ids, split.exceptional_recencies))
        ) == pairs(exceptional)
        assert same_float(split.mean, mu) and same_float(split.stddev, sigma)
        least, most, count = oracle_describe(normal)
        stats = describe_columns(split.normal_ids, split.normal_recencies)
        assert (pairs(stats.least_recent), pairs(stats.most_recent)) == (pairs(least), pairs(most))
        assert stats.count == count


class TestPercentiles:
    from repro.core.statistics import percentile as _p  # noqa: F401

    def test_basic_percentiles(self):
        from repro.core.statistics import percentile

        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 3.0
        assert percentile(values, 100) == 5.0

    def test_interpolation(self):
        from repro.core.statistics import percentile

        assert percentile([0.0, 10.0], 25) == 2.5

    def test_single_value(self):
        from repro.core.statistics import percentile

        assert percentile([7.0], 90) == 7.0

    def test_unsorted_input(self):
        from repro.core.statistics import percentile

        assert percentile([5.0, 1.0, 3.0], 50) == 3.0

    def test_validation(self):
        from repro.core.statistics import percentile

        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @given(
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=50),
        st.floats(0, 100, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_percentile_between_min_and_max(self, values, q):
        from repro.core.statistics import percentile

        result = percentile(values, q)
        assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=2, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_percentiles_monotone_in_q(self, values):
        from repro.core.statistics import percentile

        points = [percentile(values, q) for q in (0, 10, 50, 90, 100)]
        assert points == sorted(points)


class TestNegativeIntervals:
    def test_negative_interval_formatted(self):
        assert format_interval(-61) == "-00:01:01"
