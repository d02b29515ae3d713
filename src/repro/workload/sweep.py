"""Parameter sweeps: ``data_ratio x num_sources = total_rows``.

The paper fixed the product at 10,000,000 and swept the ratio from 10 to
1,000,000 by factors of ten. ``sweep_points`` produces the analogous series
for any total, dropping points whose ratio or source count would fall below
the minimum of 10 the paper used.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import TracError
from repro.workload.generator import WorkloadConfig

#: The smallest data ratio of a sweep — where the paper's started.
MIN_RATIO = 10


class SweepConfig:
    """One sweep: a fixed Activity row total and the ratios to visit."""

    def __init__(
        self,
        total_rows: int = 200_000,
        min_sources: int = 10,
        exceptional_fraction: float = 0.0,
    ) -> None:
        if total_rows < MIN_RATIO * min_sources:
            raise TracError(
                f"total_rows={total_rows} too small for ratio {MIN_RATIO} "
                f"x min_sources={min_sources}"
            )
        self.total_rows = total_rows
        self.min_sources = min_sources
        self.exceptional_fraction = exceptional_fraction

    def __repr__(self) -> str:
        return f"SweepConfig(total_rows={self.total_rows})"


def sweep_points(config: SweepConfig) -> List[WorkloadConfig]:
    """The workload configurations of one sweep, in increasing-ratio order."""
    out: List[WorkloadConfig] = []
    ratio = MIN_RATIO
    while True:
        num_sources = config.total_rows // ratio
        if num_sources < config.min_sources:
            break
        exceptional: Tuple[int, ...] = ()
        if config.exceptional_fraction > 0:
            count = max(1, int(num_sources * config.exceptional_fraction))
            exceptional = tuple(range(1, count + 1))
        out.append(
            WorkloadConfig(
                num_sources=num_sources,
                data_ratio=ratio,
                exceptional_sources=exceptional,
            )
        )
        ratio *= 10
    return out
