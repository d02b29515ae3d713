"""Benchmark harness: regenerates every table and figure of Section 5.

* :mod:`repro.bench.metrics` — the paper's two metrics: response-time
  overhead and false-positive rate (fpr);
* :mod:`repro.bench.harness` — the one timing loop (the paper ran each
  query 11 times and averaged the last 10); a cell's phases come from it;
* :mod:`repro.bench.figures` — one sweep and a CLI
  (``python -m repro.bench.figures {fig1,fig2,fpr,all}``): the rows behind
  Figure 1, Figure 2 (a projection of them) and the fpr results;
* :mod:`repro.bench.reporting` — ASCII tables and CSV output.
"""

from repro.bench.metrics import false_positive_rate, overhead
from repro.bench.harness import time_call, MethodMeasurement, measure_methods
from repro.bench.reporting import ascii_table, write_csv

__all__ = [
    "false_positive_rate",
    "overhead",
    "time_call",
    "MethodMeasurement",
    "measure_methods",
    "ascii_table",
    "write_csv",
]
