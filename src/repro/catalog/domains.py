"""Column domains.

Definitions 1 and 2 of the paper quantify over the *domains* of a relation's
columns: a data source is relevant when some tuple drawn from those domains
could satisfy the query's predicates. Two parts of the system need a concrete
domain model:

* the satisfiability checks of Theorems 3 and 4 ("is ``Pr`` satisfiable in
  ``D1 x D2 x ... x Dk``?"), and
* the brute-force relevance oracle of Section 4.1 / 5.2, which enumerates the
  cross product of finite domains to compute the exact relevant set.

A domain is immutable. Finite domains expose their value set; infinite
domains (integers, reals, text, timestamps) only answer membership and
interval questions.
"""

from __future__ import annotations

import math
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.errors import DomainError


class Domain:
    """Abstract base class for column domains."""

    #: Human-readable name of the domain kind, overridden by subclasses.
    kind = "abstract"

    @property
    def is_finite(self) -> bool:
        """Whether the domain has a (small) explicitly enumerable value set."""
        return False

    def contains(self, value: object) -> bool:
        """Return True when ``value`` is a member of this domain."""
        raise NotImplementedError

    def iter_values(self) -> Iterable[object]:
        """Yield every value of a finite domain.

        Raises
        ------
        DomainError
            If the domain is infinite.
        """
        raise DomainError(f"domain {self!r} is not enumerable")

    def cardinality(self) -> Optional[int]:
        """Number of values, or ``None`` when infinite."""
        return None

    def intersects_interval(
        self,
        low: Optional[object],
        high: Optional[object],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> bool:
        """Whether any domain value lies within the given interval.

        ``None`` bounds mean unbounded on that side. Used by the
        satisfiability checker to decide whether a conjunction of range
        predicates over one column can possibly be satisfied.
        """
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> Tuple:
        return ()


def _compare(a: object, b: object) -> int:
    """Three-way comparison tolerant of mixed int/float."""
    if a == b:
        return 0
    try:
        return -1 if a < b else 1  # type: ignore[operator]
    except TypeError as exc:
        raise DomainError(f"cannot compare {a!r} and {b!r}") from exc


class FiniteDomain(Domain):
    """An explicitly enumerated, immutable set of values.

    This is the only domain kind the brute-force oracle accepts; the test
    schemas of Section 5.2 were "specially designed so that a finite domain
    with a reasonable cardinality is associated with each column".
    """

    kind = "finite"

    def __init__(self, values: Iterable[object]) -> None:
        frozen = frozenset(values)
        if not frozen:
            raise DomainError("a finite domain must contain at least one value")
        self._values: FrozenSet[object] = frozen
        self._ordered: Optional[Tuple[object, ...]] = None

    @property
    def is_finite(self) -> bool:
        return True

    @property
    def values(self) -> FrozenSet[object]:
        return self._values

    def contains(self, value: object) -> bool:
        return value in self._values

    def iter_values(self) -> Iterable[object]:
        # Deterministic order so brute-force sweeps and tests are stable;
        # the set is immutable, so it is sorted once and the tuple handed out.
        if self._ordered is None:
            self._ordered = tuple(
                sorted(self._values, key=lambda v: (str(type(v).__name__), str(v)))
            )
        return self._ordered

    def cardinality(self) -> Optional[int]:
        return len(self._values)

    def intersects_interval(
        self,
        low: Optional[object],
        high: Optional[object],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> bool:
        for value in self._values:
            try:
                if low is not None:
                    cmp = _compare(value, low)
                    if cmp < 0 or (cmp == 0 and not low_inclusive):
                        continue
                if high is not None:
                    cmp = _compare(value, high)
                    if cmp > 0 or (cmp == 0 and not high_inclusive):
                        continue
            except DomainError:
                continue
            return True
        return False

    def _key(self) -> Tuple:
        return (self._values,)

    def __repr__(self) -> str:
        preview = sorted(map(str, self._values))[:4]
        suffix = ", ..." if len(self._values) > 4 else ""
        return f"FiniteDomain({{{', '.join(preview)}{suffix}}})"


class _OrderedInfiniteDomain(Domain):
    """Shared logic for unbounded ordered domains with optional endpoints."""

    def __init__(self, low: Optional[float] = None, high: Optional[float] = None) -> None:
        if low is not None and high is not None and low > high:
            raise DomainError(f"empty domain: low {low!r} > high {high!r}")
        self.low = low
        self.high = high

    def _value_ok_type(self, value: object) -> bool:
        raise NotImplementedError

    def contains(self, value: object) -> bool:
        if not self._value_ok_type(value):
            return False
        if self.low is not None and value < self.low:  # type: ignore[operator]
            return False
        if self.high is not None and value > self.high:  # type: ignore[operator]
            return False
        return True

    def intersects_interval(
        self,
        low: Optional[object],
        high: Optional[object],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> bool:
        # Clip the query interval by the (closed) domain bounds, tracking
        # inclusivity, then check non-emptiness of the result.
        lo, lo_inc = low, low_inclusive
        if self.low is not None and (lo is None or self.low > lo or (self.low == lo and not lo_inc)):
            lo, lo_inc = self.low, True
        hi, hi_inc = high, high_inclusive
        if self.high is not None and (hi is None or self.high < hi or (self.high == hi and not hi_inc)):
            hi, hi_inc = self.high, True
        if lo is None or hi is None:
            return True
        if lo < hi:  # type: ignore[operator]
            return True
        return lo == hi and lo_inc and hi_inc

    def _key(self) -> Tuple:
        return (self.low, self.high)


class IntegerDomain(_OrderedInfiniteDomain):
    """All integers, optionally restricted to ``[low, high]``."""

    kind = "integer"

    def _value_ok_type(self, value: object) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    def cardinality(self) -> Optional[int]:
        if self.low is not None and self.high is not None:
            return int(self.high) - int(self.low) + 1
        return None

    def iter_values(self) -> Iterable[object]:
        if self.low is None or self.high is None:
            raise DomainError("unbounded integer domain is not enumerable")
        return range(int(self.low), int(self.high) + 1)

    @property
    def is_finite(self) -> bool:
        return self.low is not None and self.high is not None

    def intersects_interval(
        self,
        low: Optional[object],
        high: Optional[object],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> bool:
        # Tighten possibly-open real bounds to closed integer bounds.
        lo = None
        if low is not None:
            if low == math.floor(low):
                lo = int(low) if low_inclusive else int(low) + 1
            else:
                lo = math.ceil(low)
        hi = None
        if high is not None:
            if high == math.floor(high):
                hi = int(high) if high_inclusive else int(high) - 1
            else:
                hi = math.floor(high)
        return super().intersects_interval(lo, hi, True, True)

    def __repr__(self) -> str:
        return f"IntegerDomain(low={self.low!r}, high={self.high!r})"


class RealDomain(_OrderedInfiniteDomain):
    """All reals, optionally restricted to ``[low, high]``."""

    kind = "real"

    def _value_ok_type(self, value: object) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def __repr__(self) -> str:
        return f"RealDomain(low={self.low!r}, high={self.high!r})"


class TextDomain(Domain):
    """All strings. Infinite; supports prefix-free interval intersection."""

    kind = "text"

    def contains(self, value: object) -> bool:
        return isinstance(value, str)

    def intersects_interval(
        self,
        low: Optional[object],
        high: Optional[object],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> bool:
        if low is None or high is None:
            return True
        if low < high:  # type: ignore[operator]
            return True
        return low == high and low_inclusive and high_inclusive

    def __repr__(self) -> str:
        return "TextDomain()"


class TimestampDomain(Domain):
    """Event-time values, stored as POSIX epoch seconds (floats).

    The paper's recency timestamps are wall-clock times; representing them as
    epoch seconds makes the descriptive statistics of Section 4.3 (mean,
    standard deviation, z-scores, range) direct arithmetic.
    """

    kind = "timestamp"

    def contains(self, value: object) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def intersects_interval(
        self,
        low: Optional[object],
        high: Optional[object],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> bool:
        if low is None or high is None:
            return True
        if low < high:  # type: ignore[operator]
            return True
        return low == high and low_inclusive and high_inclusive

    def __repr__(self) -> str:
        return "TimestampDomain()"
