"""The paper's contribution: query-centric recency and consistency reporting.

Public surface:

* :meth:`RecencyReporter.report <repro.core.report.RecencyReporter.report>`
  — the ``recencyReport`` table function of Section 5.1: run a user query,
  compute the relevant data sources, their recency timestamps, descriptive
  statistics and the z-score split into normal vs exceptional sources, all
  within one snapshot;
* :func:`~repro.core.relevance.build_relevance_plan` — Section 4's
  algorithm: DNF, per-relation term classification, satisfiability checks,
  and one recency subquery per (conjunct, relation) with a minimality
  verdict (Theorems 3/4, Corollaries 1–6);
* :func:`~repro.core.bruteforce.brute_force_relevant_sources` — the exact
  (exponential) oracle over finite domains, used to measure false-positive
  rates exactly as Section 5.2 does;
* :mod:`~repro.core.statistics` — the descriptive statistics and z-score
  outlier detection of Section 4.3.
"""

from repro.core.report import RecencyReporter
from repro.core.explain import explain
from repro.core.monitor import RecencyMonitor, WatchRule
from repro.core.breaker import CircuitBreaker

__all__ = ["RecencyReporter", "explain", "RecencyMonitor", "WatchRule", "CircuitBreaker"]
