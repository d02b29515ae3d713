"""Session temp-table lifecycle tests (Section 4.3)."""

import pytest

from repro.core.report import RecencyReporter
from repro.core.session import Session

QUERY = "SELECT mach_id FROM activity WHERE value = 'idle'"


class TestNaming:
    def test_names_are_unique_and_paired(self, paper_memory_backend):
        session = Session(paper_memory_backend)
        first = session.next_table_names()
        second = session.next_table_names()
        assert first.normal != second.normal
        assert first.normal.startswith("sys_temp_a")
        assert first.exceptional.startswith("sys_temp_e")
        assert first.normal[len("sys_temp_a"):] == first.exceptional[len("sys_temp_e"):]


class TestLifecycle:
    def test_materialize_creates_both_tables(self, paper_memory_backend):
        session = Session(paper_memory_backend)
        names = session.next_table_names()
        with paper_memory_backend.snapshot() as snap:
            session.materialize(
                snap,
                names,
                (["m1"], [1.0]),
                (["m2"], [2.0]),
            )
        assert set(session.temp_tables) == {names.normal, names.exceptional}
        assert paper_memory_backend.execute(f"SELECT sid FROM {names.normal}").rows == [("m1",)]

    def test_close_drops_everything(self, paper_memory_backend):
        session = Session(paper_memory_backend)
        names = session.next_table_names()
        with paper_memory_backend.snapshot() as snap:
            session.materialize(snap, names, ([], []), ([], []))
        session.close()
        assert session.temp_tables == []
        assert paper_memory_backend.list_temp_tables() == []

    def test_context_manager(self, paper_memory_backend):
        with Session(paper_memory_backend) as session:
            names = session.next_table_names()
            with paper_memory_backend.snapshot() as snap:
                session.materialize(snap, names, ([], []), ([], []))
        assert paper_memory_backend.list_temp_tables() == []

    def test_temp_tables_persist_across_reports(self, paper_memory_backend):
        """Section 4.3: the temp table persists until the session ends, not
        just until the next query."""
        reporter = RecencyReporter(paper_memory_backend, create_temp_tables=True)
        first = reporter.report(QUERY)
        reporter.report(QUERY)
        rows = paper_memory_backend.execute(
            f"SELECT sid FROM {first.temp_tables.normal}"
        ).rows
        assert len(rows) == 10


class TestPersistTempTable:
    def test_save_as_survives_session_close(self, paper_memory_backend):
        reporter = RecencyReporter(paper_memory_backend, create_temp_tables=True)
        report = reporter.report(QUERY)
        reporter.session.save_as(report.temp_tables.normal, "kept_recency")
        reporter.close()
        rows = paper_memory_backend.execute("SELECT sid FROM kept_recency").rows
        assert len(rows) == 10

    def test_save_as_on_sqlite(self, paper_sqlite_backend):
        reporter = RecencyReporter(paper_sqlite_backend, create_temp_tables=True)
        report = reporter.report(QUERY)
        reporter.session.save_as(report.temp_tables.exceptional, "kept_exceptional")
        reporter.close()
        rows = paper_sqlite_backend.execute("SELECT sid FROM kept_exceptional").rows
        assert rows == [("m2",)]

    def test_unknown_temp_table_rejected(self, paper_memory_backend):
        from repro.errors import BackendError

        session = Session(paper_memory_backend)
        with pytest.raises(BackendError):
            session.save_as("sys_temp_a_nope", "whatever")

    def test_duplicate_permanent_name_rejected_memory(self, paper_memory_backend):
        from repro.errors import BackendError

        reporter = RecencyReporter(paper_memory_backend, create_temp_tables=True)
        report = reporter.report(QUERY)
        reporter.session.save_as(report.temp_tables.normal, "kept_twice")
        with pytest.raises(BackendError):
            reporter.session.save_as(report.temp_tables.normal, "kept_twice")
