"""Term classification tests (Notation 4 / Notation 6)."""

import pytest

from repro.errors import UnsupportedQueryError
from repro.predicates.classify import TermClass, classify_conjunct, classify_term
from repro.predicates.dnf import basic_terms_of
from repro.sqlparser.parser import parse_expression, parse_query
from repro.sqlparser.resolver import resolve


def classify(sql_where, relation_key, paper_catalog, tables="activity A, routing R"):
    query = parse_query(f"SELECT A.mach_id FROM {tables} WHERE {sql_where}")
    resolve(query, paper_catalog)
    terms = basic_terms_of(query.where)
    return classify_conjunct(terms, relation_key)


class TestSingleRelationClasses:
    def test_ps_source_equality(self, paper_catalog):
        query = parse_query("SELECT mach_id FROM activity WHERE mach_id = 'm1'")
        resolve(query, paper_catalog)
        assert classify_term(query.where, "activity") is TermClass.PS

    def test_ps_source_in_list(self, paper_catalog):
        query = parse_query(
            "SELECT mach_id FROM activity WHERE mach_id IN ('m1', 'm2')"
        )
        resolve(query, paper_catalog)
        assert classify_term(query.where, "activity") is TermClass.PS

    def test_pr_regular_column(self, paper_catalog):
        query = parse_query("SELECT mach_id FROM activity WHERE value = 'idle'")
        resolve(query, paper_catalog)
        assert classify_term(query.where, "activity") is TermClass.PR

    def test_pm_mixed(self, paper_catalog):
        # Compares the source column against a regular column of the same
        # relation: the paper's "mixed predicate".
        query = parse_query("SELECT mach_id FROM routing WHERE mach_id = neighbor")
        resolve(query, paper_catalog)
        assert classify_term(query.where, "routing") is TermClass.PM

    def test_unresolved_term_raises(self):
        expr = parse_expression("mach_id = 'm1'")
        with pytest.raises(UnsupportedQueryError):
            classify_term(expr, "activity")


class TestJoinClasses:
    def test_js_source_only_join(self, paper_catalog):
        # A.mach_id is A's source column; R.neighbor is a regular column of
        # R. Via A the term is Js; via R it is Jrm.
        query = parse_query(
            "SELECT A.mach_id FROM activity A, routing R "
            "WHERE R.neighbor = A.mach_id"
        )
        resolve(query, paper_catalog)
        assert classify_term(query.where, "a") is TermClass.JS
        assert classify_term(query.where, "r") is TermClass.JRM

    def test_source_to_source_join_is_js_for_both(self, paper_catalog):
        query = parse_query(
            "SELECT A.mach_id FROM activity A, routing R "
            "WHERE R.mach_id = A.mach_id"
        )
        resolve(query, paper_catalog)
        assert classify_term(query.where, "a") is TermClass.JS
        assert classify_term(query.where, "r") is TermClass.JS

    def test_regular_to_regular_join_is_jrm_for_both(self, paper_catalog):
        query = parse_query(
            "SELECT A.mach_id FROM activity A, routing R "
            "WHERE R.neighbor = A.value"
        )
        resolve(query, paper_catalog)
        assert classify_term(query.where, "a") is TermClass.JRM
        assert classify_term(query.where, "r") is TermClass.JRM

    def test_po_for_unreferenced_relation(self, paper_catalog):
        query = parse_query(
            "SELECT A.mach_id FROM activity A, routing R WHERE A.value = 'idle'"
        )
        resolve(query, paper_catalog)
        assert classify_term(query.where, "r") is TermClass.PO
        assert classify_term(query.where, "a") is TermClass.PR

    def test_constant_term_is_po(self, paper_catalog):
        query = parse_query(
            "SELECT A.mach_id FROM activity A WHERE 1 = 1 AND A.value = 'idle'"
        )
        resolve(query, paper_catalog)
        terms = basic_terms_of(query.where)
        assert classify_term(terms[0], "a") is TermClass.PO


class TestConjunctClassification:
    def test_paper_q2_via_routing(self, paper_catalog):
        """The paper's Section 4.1.2 walk-through: for S(Q2, R), R.mach_id =
        'm1' is Ps, R.neighbor = A.mach_id is Jrm, A.value = 'idle' is Po."""
        classified = classify(
            "R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
            "r",
            paper_catalog,
        )
        assert len(classified.ps) == 1
        assert len(classified.jrm) == 1
        assert len(classified.po) == 1
        assert classified.pr == []
        assert classified.pm == []
        assert classified.js == []
        assert classified.has_regular_join

    def test_paper_q2_via_activity(self, paper_catalog):
        """Via A: A.value = 'idle' is Pr, R.neighbor = A.mach_id is Js,
        R.mach_id = 'm1' is Po — Theorem 4's conditions hold."""
        classified = classify(
            "R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
            "a",
            paper_catalog,
        )
        assert len(classified.pr) == 1
        assert len(classified.js) == 1
        assert len(classified.po) == 1
        assert not classified.has_mixed
        assert not classified.has_regular_join

    def test_partition_property(self, paper_catalog):
        """Every term lands in exactly one bucket, for every relation."""
        where = (
            "R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id "
            "AND A.mach_id IN ('m1', 'm2') AND R.event_time > 100"
        )
        query = parse_query(f"SELECT A.mach_id FROM activity A, routing R WHERE {where}")
        resolve(query, paper_catalog)
        terms = basic_terms_of(query.where)
        for key in ("a", "r"):
            classified = classify_conjunct(terms, key)
            buckets = [
                classified.ps,
                classified.pr,
                classified.pm,
                classified.js,
                classified.jrm,
                classified.po,
            ]
            assert sum(len(b) for b in buckets) == len(terms)
            placed = [term for bucket in buckets for term in bucket]
            assert sorted(map(repr, placed)) == sorted(map(repr, terms))

    def test_bucket_accessor(self, paper_catalog):
        classified = classify("A.value = 'idle'", "a", paper_catalog)
        assert classified.bucket(TermClass.PR) == classified.pr
