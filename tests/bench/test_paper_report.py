"""The reproduction report (benchmarks/paper/paper.py): the paper's claims
graded from the sweep's CSV files, written by --write, held by --check."""

import os
import shutil
import subprocess
import sys

import paper
from figures import FIG1_HEADERS, FIG2_HEADERS, FPR_HEADERS, figure2_records
from paper import build_report, check_semantics, check_transcript, main
from paper_tables import read_csv, rows_from_dicts, write_csv


class TestClaimCheckers:
    def test_transcript_check_passes(self):
        results = check_transcript()
        assert len(results) == 1
        assert results[0].passed, results[0].evidence

    def test_semantics_check_passes(self):
        results = check_semantics()
        assert results[0].passed, results[0].evidence


def canned():
    """Sweep-shaped records at two ratios whose timings satisfy every claim:
    Naive pays per source at the low ratio, Q4's Focused report costs more
    than Naive's there and nowhere else, and every overhead is small at the
    high ratio."""
    fig1 = []
    for ratio, sources in ((10, 200), (100, 20)):
        for query in ("Q1", "Q2", "Q3", "Q4"):
            for method, t_report in (("focused", 2.0), ("focused_hardcoded", 1.2), ("naive", 2.5)):
                selective = query in ("Q1", "Q3")
                if ratio == 10 and method == "naive":
                    t_report = 9.0 if selective else 1.5 if query == "Q4" else t_report
                fig1.append({
                    "query": query, "data_ratio": ratio, "num_sources": sources, "method": method,
                    "t_plain_s": 1.0, "t_report_s": t_report, "overhead_pct": 100.0 * (t_report - 1),
                    "relevant_sources": sources if method == "naive" else 6 if selective else sources - 6,
                    "backend": "sqlite", "runs": 11,
                })
    fpr = [
        {"query": q, "relevant_exact": n, "fpr_focused": 0.0, "fpr_naive": (40 - n) / n,
         "paper_scale_fpr_naive": (100_000 - 6) / 6 if n == 6 else 6 / 99_994}
        for q, n in (("Q1", 6), ("Q2", 34), ("Q3", 6), ("Q4", 37))
    ]
    return fig1, figure2_records(fig1), fpr


class TestBuildReport:
    def test_report_is_markdown_with_checklist(self):
        text, blocks, all_passed = build_report(*canned())
        assert all_passed and text.endswith("Overall: every claim PASSED.\n")
        assert text.startswith("# Reproduction report")
        assert "`data_ratio x num_sources = 2,000`" in text
        assert "sqlite backend; 11 timing runs per cell" in text
        assert set(blocks) == {"claims", "figure1", "figure2", "fpr"}
        assert all(block in text for block in blocks.values())
        assert build_report(*canned())[0] == text  # no clock, no platform

    def test_non_timing_claims_always_pass(self):
        """A flipped timing cell fails its own claim and no other: the value
        claims (fpr, transcript, semantics) do not read timings."""
        fig1, fig2, fpr = canned()
        (q4,) = [r for r in fig1 if (r["query"], r["data_ratio"], r["method"]) == ("Q4", 10, "focused")]
        q4["t_report_s"] = 1.1
        text, _, all_passed = build_report(fig1, fig2, fpr)
        assert not all_passed and "SOME CLAIMS FAILED" in text
        (line,) = [line for line in text.splitlines() if "**FAIL**" in line]
        assert "Q4 at low ratio" in line
        for fragment in ("fpr(Focused) = 0", "Section 5.1 transcript", "Section 4.2 cases"):
            assert "| **PASS** | " + fragment in text


    def test_a_second_cell_where_focused_costs_more_fails_the_one_case_claim(self):
        fig1, fig2, fpr = canned()
        (q2,) = [r for r in fig1 if (r["query"], r["data_ratio"], r["method"]) == ("Q2", 100, "naive")]
        q2["t_report_s"] = 1.5
        text, _, all_passed = build_report(fig1, fig2, fpr)
        assert not all_passed
        (line,) = [line for line in text.splitlines() if "**FAIL**" in line]
        assert "Q4 at low ratio is the one case" in line
        assert "Focused also costs more at: Q2 at ratio 100 |" in line


class TestCli:
    def test_writes_output_file(self, tmp_path, monkeypatch):
        fig1, fig2, fpr = canned()
        for name, headers, records in (
            ("figure1.csv", FIG1_HEADERS, fig1),
            ("figure2.csv", FIG2_HEADERS, fig2),
            ("fpr.csv", FPR_HEADERS, fpr),
        ):
            write_csv(str(tmp_path / name), headers, rows_from_dicts(records, headers))
        (tmp_path / "report.md").write_text("old\n")
        (tmp_path / "exp.md").write_text("a\n<!-- paper-report:fpr -->\nold\n<!-- /paper-report -->\nb\n")
        for name, path in (("RESULTS", tmp_path), ("REPORT", tmp_path / "report.md"),
                           ("EXPERIMENTS", tmp_path / "exp.md")):
            monkeypatch.setattr(paper, name, path)
        assert main(["--check"]) == 1 and main(["--write"]) == 0 and main(["--check"]) == 0
        text, blocks, _ = build_report(fig1, fig2, fpr)
        assert (tmp_path / "report.md").read_text() == text
        assert (tmp_path / "exp.md").read_text() == (
            f"a\n<!-- paper-report:fpr -->\n{blocks['fpr']}\n<!-- /paper-report -->\nb\n"
        )


class TestCommittedResults:
    def test_each_csv_has_its_writers_header(self):
        for name, headers in (
            ("figure1.csv", FIG1_HEADERS),
            ("figure2.csv", FIG2_HEADERS),
            ("fpr.csv", FPR_HEADERS),
        ):
            assert list(read_csv(str(paper.RESULTS / name))[0]) == headers, name
        fig1 = read_csv(str(paper.RESULTS / "figure1.csv"))
        assert figure2_records(fig1) == read_csv(str(paper.RESULTS / "figure2.csv"))

    def test_check_passes_on_the_committed_documents(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(paper.ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, paper.__file__, "--check"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr

    def test_check_fails_after_one_cell_changes(self, tmp_path, monkeypatch, capsys):
        for name in ("figure1.csv", "figure2.csv", "fpr.csv"):
            shutil.copy(paper.RESULTS / name, tmp_path / name)
        fpr = read_csv(str(tmp_path / "fpr.csv"))
        fpr[1]["fpr_naive"] *= 2
        write_csv(str(tmp_path / "fpr.csv"), FPR_HEADERS, rows_from_dicts(fpr, FPR_HEADERS))
        before = paper.REPORT.read_text(), paper.EXPERIMENTS.read_text()
        monkeypatch.setattr(paper, "RESULTS", tmp_path)
        assert main(["--check"]) == 1
        assert "stale: REPRODUCTION_REPORT.md, EXPERIMENTS.md" in capsys.readouterr().err
        assert (paper.REPORT.read_text(), paper.EXPERIMENTS.read_text()) == before
