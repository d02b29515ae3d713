"""The paper's benchmark harness lives in ``benchmarks/paper/`` (scripts, not
a package): its modules import as top-level names from there."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "paper"))
