"""Predicate algebra: evaluation, DNF normalization, classification,
satisfiability.

This package implements the machinery of Section 4:

* :mod:`repro.predicates.evaluate` — SQL three-valued evaluation of predicate
  trees against concrete tuples (shared by the mini relational engine, the
  brute-force relevance oracle and the property-based tests);
* :mod:`repro.predicates.dnf` — conversion to disjunctive normal form with a
  blow-up guard (Corollary 1 reduces the problem to one conjunct at a time);
* :mod:`repro.predicates.classify` — the per-relation split of a conjunct's
  basic terms into ``Ps`` / ``Pr`` / ``Pm`` / ``Js`` / ``Jrm`` / ``Po``
  (Notation 4 and 6);
* :mod:`repro.predicates.satisfiability` — the "is ``Pr`` satisfiable in
  ``D1 x ... x Dk``" check that Theorems 3 and 4 require before the minimal
  guarantee applies.
"""
