"""Exception hierarchy for the TRAC reproduction.

Every error raised by this package derives from :class:`TracError` so that
callers can catch the whole family with one ``except`` clause while still
being able to distinguish parse errors from planning or execution errors.
"""

from __future__ import annotations

import math
from typing import Optional, Type


class TracError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class LexerError(TracError):
    """Raised when the SQL lexer encounters an unrecognized character.

    Attributes
    ----------
    position:
        Zero-based character offset into the source string.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(TracError):
    """Raised when the SQL parser cannot make sense of a token stream."""

    def __init__(self, message: str, position: int = -1) -> None:
        if position >= 0:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class ResolutionError(TracError):
    """Raised when a query mentions tables or columns not in the catalog."""


class CatalogError(TracError):
    """Raised for invalid schema definitions or catalog lookups."""


class UnsupportedQueryError(TracError):
    """Raised when a query falls outside the supported SPJ subset."""


class EngineError(TracError):
    """Raised by the in-memory relational engine during evaluation."""


class BackendError(TracError):
    """Raised by storage backends for execution or transaction failures."""


class DomainError(TracError):
    """Raised for invalid domain definitions or impossible domain values."""


class DnfBlowupError(TracError):
    """Raised when DNF conversion would exceed the configured term budget.

    Callers that need a *complete* (if imprecise) answer catch this and fall
    back to reporting every data source as relevant, which is always a safe
    upper bound.
    """

    def __init__(self, message: str, term_count: int, limit: int) -> None:
        super().__init__(message)
        self.term_count = term_count
        self.limit = limit


class SimulationError(TracError):
    """Raised by the grid monitoring simulator for invalid configurations."""


class DurabilityError(TracError):
    """Raised by the durability subsystem (WAL, checkpoints, recovery).

    Covers malformed journal frames, invalid checkpoints, and recovery
    invariant violations (a gap in a source's journaled offsets, or a
    machine log that lost records predating its checkpoint).
    """


def number_range(
    low: Optional[float] = None,
    high: Optional[float] = None,
    *,
    low_open: bool = False,
    high_open: bool = False,
) -> str:
    """The words for the numbers :func:`check_number` accepts with these
    bounds: ``"in [0, 1]"``, ``"positive and finite"``, ``"finite"``."""
    if low is not None and high is not None:
        return f"in {'(' if low_open else '['}{low:g}, {high:g}{')' if high_open else ']'}"
    if low == 0:
        return f"{'positive' if low_open else 'non-negative'} and finite"
    if low is not None:
        return f"{'>' if low_open else '>='} {low:g} and finite"
    if high is not None:
        return f"{'<' if high_open else '<='} {high:g} and finite"
    return "finite"


def check_number(
    name: str,
    value: float,
    low: Optional[float] = None,
    high: Optional[float] = None,
    *,
    low_open: bool = False,
    high_open: bool = False,
    error: Type[Exception] = TracError,
) -> float:
    """Return ``value`` when it is a finite ``int`` or ``float`` (not a
    ``bool``) within ``[low, high]`` (a bound left ``None`` is unbounded; an
    open end excludes it); else raise ``error`` naming ``name`` and the range.

    The one rule for a number that enters from outside the program. Each
    comparison asks for the accepted side, so NaN, which fails every
    comparison, can never pass.
    """
    finite = (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and (isinstance(value, int) or math.isfinite(value))
    )
    if not (
        finite
        and (low is None or (low < value if low_open else low <= value))
        and (high is None or (value < high if high_open else value <= high))
    ):
        rule = number_range(low, high, low_open=low_open, high_open=high_open)
        raise error(f"{name} must be {rule}, got {value!r}")
    return value
