"""EXPLAIN for the mini engine: two renderings of one profile.

``explain_query`` executes a query with profiling on and renders the
:class:`~repro.engine.profile.QueryProfile` the execution recorded (see
:mod:`repro.engine.profile`), so neither form can drift from the real
plan. Obtain the profile object itself with :func:`profile_query`.
"""

from __future__ import annotations

from repro.engine.profile import QueryProfile, profile_query
from repro.engine.relation import Database

__all__ = ["explain_query", "profile_query", "QueryProfile"]


def explain_query(db: Database, sql: str, analyze: bool = False, lineage: bool = False) -> str:
    """Run ``sql`` and return its plan decisions plus the result size.

    ``analyze=True`` returns the per-operator table instead (rows in/out,
    selectivity, wall milliseconds); ``lineage=True`` additionally
    annotates each operator with its row-provenance fan-in (shown only
    with ``analyze``).
    """
    profile = profile_query(db, sql, lineage=lineage)
    return profile.render() if analyze else profile.render_plan()
