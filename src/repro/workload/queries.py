"""The four test queries of Section 5.2.

* **Q1** — single relation, very selective: an IN-list naming six machines
  (``Tao1, Tao10, ..., Tao100000``) plus ``value = 'idle'``.
* **Q2** — single relation, not selective: the *complement* of Q1's machine
  set. (The paper prints ``fpr(Naive, Q2) = 0.00006`` at 100,000 sources,
  i.e. ``6 / 99,994`` — only the six excluded machines are irrelevant —
  which identifies Q2 as the NOT IN variant.)
* **Q3** — join of Routing and Activity with the selective IN-list on
  ``Routing.mach_id``.
* **Q4** — the same join with the non-selective NOT IN on Routing.

At workload sizes below the paper's 10M rows the machine list is clamped to
the available sources while keeping the exponential spread
(``Tao1, Tao10, Tao100, ...``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.workload.generator import source_name

#: The paper's six machine indexes.
PAPER_MACHINE_INDEXES = (1, 10, 100, 1000, 10000, 100000)


def query_machine_indexes(num_sources: int, count: int = 6) -> List[int]:
    """Exponentially spread machine indexes, clamped to ``num_sources``."""
    indexes: List[int] = []
    for index in PAPER_MACHINE_INDEXES:
        if index <= num_sources and index not in indexes:
            indexes.append(index)
        if len(indexes) == count:
            return indexes
    # Top up from the low end when the workload is small.
    candidate = 2
    while len(indexes) < count and candidate <= num_sources:
        if candidate not in indexes:
            indexes.append(candidate)
        candidate += 1
    return indexes


def query_machines(num_sources: int) -> List[str]:
    """The machine names used in the IN / NOT IN lists."""
    return [source_name(i) for i in query_machine_indexes(num_sources)]


def _in_list(machines: List[str]) -> str:
    return ", ".join(f"'{m}'" for m in machines)


def q1_selective_single(machines: List[str]) -> str:
    """Q1: single relation, selective IN-list on the data source column."""
    return (
        "SELECT COUNT(*) FROM activity A "
        f"WHERE A.mach_id IN ({_in_list(machines)}) AND A.value = 'idle'"
    )


def q2_nonselective_single(machines: List[str]) -> str:
    """Q2: single relation, non-selective NOT IN on the data source column."""
    return (
        "SELECT COUNT(*) FROM activity A "
        f"WHERE A.mach_id NOT IN ({_in_list(machines)}) AND A.value = 'idle'"
    )


def q3_selective_join(machines: List[str]) -> str:
    """Q3: Routing-Activity join, selective IN-list on Routing."""
    return (
        "SELECT COUNT(*) FROM routing R, activity A "
        f"WHERE R.mach_id IN ({_in_list(machines)}) "
        "AND R.neighbor = A.mach_id AND A.value = 'idle'"
    )


def q4_nonselective_join(machines: List[str]) -> str:
    """Q4: Routing-Activity join, non-selective NOT IN on Routing."""
    return (
        "SELECT COUNT(*) FROM routing R, activity A "
        f"WHERE R.mach_id NOT IN ({_in_list(machines)}) "
        "AND R.neighbor = A.mach_id AND A.value = 'idle'"
    )


def paper_queries(num_sources: int) -> Dict[str, str]:
    """All four test queries for a workload with ``num_sources`` sources."""
    machines = query_machines(num_sources)
    return {
        "Q1": q1_selective_single(machines),
        "Q2": q2_nonselective_single(machines),
        "Q3": q3_selective_join(machines),
        "Q4": q4_nonselective_join(machines),
    }
