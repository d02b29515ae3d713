"""Interactive shell: the Section 5.1 user experience.

A tiny REPL over a monitoring database. Every SELECT runs through
``recencyReport`` and prints the NOTICE lines before the rows, exactly like
the paper's psql transcript; temp tables from earlier reports stay
queryable until the session ends.

Dot-commands::

    .tables            list tables and row counts
    .sources           heartbeat summary (with the z-score split)
    .plan SQL          explain the relevance analysis without executing
    .profile SQL       run the bare query and print its per-operator
                       profile (rows in/out, selectivity, wall ms)
    .naive SQL         run one report with the Naive method
    .plain SQL         run the bare query, no recency report
    .stats             telemetry summary: spans, counters, histograms
    .events [N]        the last N structured telemetry events (default 20)
    .flight [DIR]      dump a manual flight-recorder snapshot to DIR
                       (default ./trac-flight)
    .save TEMP NAME    copy a session temp table to a permanent table
    .help              this text
    .quit              leave (dropping session temp tables)
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, TextIO

from repro import obs
from repro.backends.base import Backend
from repro.core.explain import explain_sql
from repro.core.report import RecencyReporter
from repro.core.statistics import format_timestamp
from repro.errors import TracError
from repro.obs.dashboard import source_rows
from repro.obs.export import aligned

PROMPT = "trac=# "

_HELP = __doc__.split("Dot-commands::", 1)[1]


class Shell:
    """The REPL engine, decoupled from stdin/stdout for testability.

    Every shell session records telemetry into its own
    :class:`~repro.obs.Telemetry` so ``.stats`` can show live span and
    metric summaries for the reports run so far.
    """

    def __init__(self, backend: Backend, write: Optional[Callable[[str], None]] = None) -> None:
        self.backend = backend
        self.telemetry = obs.Telemetry()
        self.reporter = RecencyReporter(backend, create_temp_tables=True, telemetry=self.telemetry)
        self._saved_backend_telemetry = backend.telemetry
        backend.telemetry = self.telemetry
        self._write = write or (lambda text: print(text, end=""))
        self.running = True

    # -- output helpers ----------------------------------------------------

    def _say(self, text: str = "") -> None:
        self._write(text + "\n")

    def _print_rows(self, columns: List[str], rows: List[tuple]) -> None:
        if not columns:
            self._say("(no columns)")
            return
        rendered = [[("" if v is None else str(v)) for v in row] for row in rows]
        for line in aligned(columns, rendered, sep=" | "):
            self._say(line)
        self._say(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")

    # -- command dispatch -----------------------------------------------------

    def handle(self, line: str) -> None:
        """Process one input line."""
        stripped = line.strip().rstrip(";")
        if not stripped:
            return
        try:
            if stripped.startswith("."):
                self._dot_command(stripped)
            else:
                self._report(stripped, method="focused")
        except TracError as exc:
            self._say(f"error: {exc}")

    def _dot_command(self, line: str) -> None:
        command, _, rest = line.partition(" ")
        rest = rest.strip()
        if command in (".quit", ".exit"):
            self.running = False
        elif command == ".help":
            self._say(_HELP.rstrip())
        elif command == ".tables":
            for schema in self.backend.catalog:
                self._say(f"  {schema.name:<16} {self.backend.row_count(schema.name):>8} rows")
            for temp in self.backend.list_temp_tables():
                self._say(f"  {temp:<16} (session temp table)")
        elif command == ".sources":
            self._sources()
        elif command == ".stats":
            self._say(obs.render_summary(self.telemetry, max_spans=3))
        elif command == ".events":
            self._events(rest)
        elif command == ".flight":
            self._flight(rest)
        elif command == ".plan":
            if not rest:
                self._say("usage: .plan SELECT ...")
                return
            self._say(explain_sql(rest, self.backend.catalog))
        elif command == ".profile":
            if not rest:
                self._say("usage: .profile SELECT ...")
                return
            self._profile(rest)
        elif command == ".naive":
            self._report(rest, method="naive")
        elif command == ".plain":
            result = self.reporter.run_plain(rest)
            self._print_rows(result.columns, result.rows)
        elif command == ".save":
            parts = rest.split()
            if len(parts) != 2:
                self._say("usage: .save <temp_table> <permanent_name>")
                return
            self.reporter.session.save_as(parts[0], parts[1])
            self._say(f"saved {parts[0]} as {parts[1]}")
        else:
            self._say(f"unknown command {command!r}; try .help")

    def _profile(self, sql: str) -> None:
        """Run ``sql`` on the backend and print its per-operator profile.

        Lineage is on so the table carries the ``fanin`` column and the
        totals line names the contributing sources — the shell is the
        interactive "why should I trust this row?" surface.
        """
        from repro.backends import MemoryBackend, copy_tables
        from repro.engine.profile import profile_query

        backend = self.backend
        if not hasattr(backend, "db"):  # SQLite: nothing to profile
            backend = copy_tables(backend, MemoryBackend(backend.catalog))
        self._say(profile_query(backend.db, sql, lineage=True).render())

    def _events(self, rest: str) -> None:
        try:
            limit = int(rest) if rest else 20
        except ValueError:
            self._say("usage: .events [N]")
            return
        events = self.telemetry.events.tail(limit)
        if not events:
            self._say("no events recorded in this session")
            return
        for event in events:
            where = f" source={event.source}" if event.source else ""
            when = f" t={event.t:g}" if event.t is not None else ""
            attrs = (
                " " + ", ".join(f"{k}={v}" for k, v in sorted(event.attributes.items()))
                if event.attributes
                else ""
            )
            self._say(f"  #{event.seq} [{event.severity}] {event.name}{where}{when}{attrs}")
        dropped = self.telemetry.events.dropped
        if dropped:
            self._say(f"  ({dropped} older event(s) rotated out of the ring)")

    def _flight(self, rest: str) -> None:
        from repro.obs.flight import FlightRecorder

        directory = rest or "trac-flight"
        recorder = FlightRecorder(self.telemetry, directory)
        path = recorder.dump(reason="manual")
        self._say(f"flight dump written to {path}")

    def _sources(self) -> None:
        heartbeats = self.backend.heartbeat_rows()
        if not heartbeats:
            self._say("no heartbeats recorded")
            return
        rows = source_rows(dict(heartbeats), max(r for _, r in heartbeats))
        for row in sorted(rows, key=lambda r: (r["state"] == "exceptional", r["recency"])):
            mark = "   EXCEPTIONAL" if row["state"] == "exceptional" else ""
            self._say(f"  {row['id']:<12} {format_timestamp(row['recency'])}{mark}")

    def _report(self, sql: str, method: str) -> None:
        report = self.reporter.report(sql, method=method)
        for notice in report.notices():
            self._say(notice)
        self._say("")
        self._print_rows(report.result.columns, report.result.rows)
        flavour = "minimal" if report.minimal else "upper bound"
        self._say(
            f"-- {len(report.relevant_source_ids)} relevant source(s), {flavour}, "
            f"method={report.method}"
        )

    # -- driving ----------------------------------------------------------------

    def run(self, lines: Iterable[str]) -> None:
        """Feed lines (a file, a list, or an interactive generator)."""
        for line in lines:
            self.handle(line)
            if not self.running:
                break
        self.close()

    def close(self) -> None:
        self.reporter.close()
        self.backend.telemetry = self._saved_backend_telemetry


def _interactive_lines(stream: TextIO, write: Callable[[str], None]) -> Iterator[str]:
    while True:
        write(PROMPT)
        line = stream.readline()
        if not line:
            return
        yield line


def run_shell(backend: Backend, stream: Optional[TextIO] = None) -> None:
    """Run the shell over ``stream`` (default: stdin) until EOF or .quit."""
    import sys

    stream = stream or sys.stdin

    def writer(text: str) -> None:
        sys.stdout.write(text)
        sys.stdout.flush()

    shell = Shell(backend, writer)
    writer("TRAC interactive shell - .help for commands, .quit to leave\n")
    shell.run(_interactive_lines(stream, writer))
    writer("\n")
