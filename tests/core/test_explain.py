"""Explanation-rendering tests."""

from repro.core.explain import explain_sql

Q2 = (
    "SELECT A.mach_id FROM routing R, activity A "
    "WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id"
)


class TestExplainBasics:
    def test_lists_relations(self, paper_catalog):
        text = explain_sql(Q2, paper_catalog)
        assert "routing (as r)" in text
        assert "activity (as a)" in text

    def test_no_where(self, paper_catalog):
        text = explain_sql("SELECT mach_id FROM activity", paper_catalog)
        assert "every data source is relevant" in text

    def test_classification_labels(self, paper_catalog):
        text = explain_sql(Q2, paper_catalog)
        assert "Ps  (data-source-only selection)" in text
        assert "Jrm (regular/mixed join" in text
        assert "Po  (other relations)" in text
        assert "Pr  (regular-column selection)" in text

    def test_minimality_verdicts(self, paper_catalog):
        text = explain_sql(Q2, paper_catalog)
        assert "MINIMAL by Theorem 4" in text
        assert "UPPER BOUND" in text
        assert "complete upper bound on S(Q)" in text

    def test_minimal_overall(self, paper_catalog):
        text = explain_sql(
            "SELECT mach_id FROM activity WHERE mach_id = 'm1'", paper_catalog
        )
        assert "MINIMAL by Theorem 3" in text
        assert "exactly S(Q)" in text

    def test_shows_subquery_and_guard(self, paper_catalog):
        text = explain_sql(Q2, paper_catalog)
        assert "recency subquery: SELECT" in text
        assert "existence guard : SELECT 1" in text

    def test_unsatisfiable_conjunct(self, paper_catalog):
        text = explain_sql(
            "SELECT mach_id FROM activity WHERE value = 'no_such'", paper_catalog
        )
        assert "unsatisfiable" in text
        assert "S(Q) is provably empty" in text

    def test_disjunction_counts_conjuncts(self, paper_catalog):
        text = explain_sql(
            "SELECT mach_id FROM activity "
            "WHERE mach_id = 'm1' OR mach_id = 'm2'",
            paper_catalog,
        )
        assert "2 conjunct(s)" in text
        assert "Conjunct 0" in text and "Conjunct 1" in text

    def test_mixed_predicate_flagged(self, paper_catalog):
        text = explain_sql(
            "SELECT mach_id FROM routing WHERE mach_id = neighbor", paper_catalog
        )
        assert "Pm  (MIXED selection" in text

    def test_constraints_mentioned(self):
        from repro.catalog import Catalog, Column, FiniteDomain, TableSchema

        catalog = Catalog(
            [
                TableSchema(
                    "routing",
                    [
                        Column("mach_id", "TEXT", FiniteDomain({"m1", "m2"})),
                        Column("neighbor", "TEXT", FiniteDomain({"m1", "m2"})),
                    ],
                    source_column="mach_id",
                    constraints=("mach_id <> neighbor",),
                )
            ]
        )
        text = explain_sql(
            "SELECT mach_id FROM routing WHERE neighbor = 'm2'", catalog
        )
        assert "Q -> Q'" in text
        assert "routing.mach_id <> routing.neighbor" in text
        assert "Pm  (MIXED selection" in text  # the constraint itself is mixed

    def test_dnf_blowup_explained(self, paper_catalog):
        clauses = " AND ".join(
            f"(value = 'idle' OR event_time > {i})" for i in range(14)
        )
        text = explain_sql(
            f"SELECT mach_id FROM activity WHERE {clauses}", paper_catalog
        )
        assert "exceeded the budget" in text


class TestExplainRendersThePlan:
    def test_folded_subquery_is_shared_not_pruned(self):
        from repro.grid.simulator import monitoring_catalog

        text = explain_sql(
            "SELECT * FROM activity "
            "WHERE (value = 'idle' OR value = 'busy') AND mach_id = 'm1'",
            monitoring_catalog(["m1", "m2"]),
        )
        assert "pruned:" not in text
        conjunct_1 = text.split("Conjunct 1:")[1]
        assert "recency subquery: shared with conjunct 0 via activity" in conjunct_1


class TestExplainCli:
    def test_cli_explain(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "g.sqlite")
        main(["simulate", "--db", db, "--machines", "3", "--duration", "30"])
        capsys.readouterr()
        code = main(
            ["explain", "--db", db, "SELECT mach_id FROM activity WHERE mach_id = 'm1'"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MINIMAL by Theorem 3" in out
