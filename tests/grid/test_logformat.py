"""Text log format tests, including the round-trip property."""

from urllib.parse import quote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.grid.events import EventKind, LogEvent
from repro.grid.logformat import _encode, format_line, format_log, parse_line
from repro.grid.persist import read_log_events


def ev(t=1.5, source="m1", kind=EventKind.MACHINE_STATE, **payload):
    return LogEvent(t, source, kind, payload)


class TestFormatLine:
    def test_simple(self):
        line = format_line(ev(value="idle"))
        assert line == "1.500000 m1 MACHINE_STATE value=idle"

    def test_payload_keys_sorted(self):
        line = format_line(
            ev(kind=EventKind.JOB_SCHEDULED, remote_machine="m2", job_id="j1")
        )
        assert line.index("job_id=") < line.index("remote_machine=")

    def test_no_payload(self):
        assert format_line(ev(kind=EventKind.HEARTBEAT)) == "1.500000 m1 HEARTBEAT"

    def test_space_in_value_encoded(self):
        line = format_line(ev(value="very idle"))
        assert " " not in line.split(" ", 3)[3]

    def test_non_string_payload_rejected(self):
        with pytest.raises(SimulationError):
            format_line(ev(value=3))


class TestParseLine:
    def test_round_trip_simple(self):
        event = ev(value="idle")
        assert parse_line(format_line(event)) == event

    def test_bad_field_count(self):
        with pytest.raises(SimulationError):
            parse_line("1.0 m1")

    def test_bad_timestamp(self):
        with pytest.raises(SimulationError):
            parse_line("yesterday m1 HEARTBEAT")

    def test_unknown_kind(self):
        with pytest.raises(SimulationError):
            parse_line("1.0 m1 NOT_A_KIND")

    def test_bad_payload_field(self):
        with pytest.raises(SimulationError):
            parse_line("1.0 m1 HEARTBEAT junkfield")

    def test_line_number_in_error(self):
        with pytest.raises(SimulationError, match="line 7"):
            parse_line("1.0 m1 NOT_A_KIND", line_number=7)


class TestDocument:
    def test_format_log_has_header(self):
        text = format_log([ev(kind=EventKind.HEARTBEAT)])
        assert text.startswith("# trac-log v1\n")

    def test_parse_log_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "m1.log"
        path.write_text("# header\n\n1.0 m1 HEARTBEAT\n  \n2.0 m1 HEARTBEAT\n")
        events, torn = read_log_events(str(path), "m1")
        assert [e.timestamp for e in events] == [1.0, 2.0]
        assert torn is None

    def test_document_round_trip(self, tmp_path):
        events = [
            ev(1.0, kind=EventKind.MACHINE_STATE, value="idle"),
            ev(2.0, kind=EventKind.JOB_SUBMITTED, job_id="j1", owner="alice"),
            ev(3.0, kind=EventKind.HEARTBEAT),
        ]
        path = tmp_path / "m1.log"
        path.write_text(format_log(events))
        assert read_log_events(str(path), "m1") == (events, None)


_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
    min_size=0,
    max_size=20,
)
_ident = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10)


class TestEncoding:
    @given(st.one_of(st.text(), st.text(alphabet="az09_.-~")))
    @settings(max_examples=300, deadline=None)
    def test_the_unreserved_fast_path_writes_what_quote_writes(self, value):
        assert _encode(value) == quote(value, safe="")

    def test_coerce_writes_a_non_string_value_as_its_str(self):
        assert format_line(ev(value=3), coerce=True) == format_line(ev(value="3"))


class TestRoundTripProperty:
    @given(
        st.floats(min_value=0, max_value=1e10, allow_nan=False),
        st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FF),
                min_size=1, max_size=15),
        st.sampled_from(list(EventKind)),
        st.dictionaries(_ident, _text, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_line_round_trip(self, timestamp, source, kind, payload):
        # The format stores microsecond-precision timestamps.
        timestamp = round(timestamp, 6)
        event = LogEvent(timestamp, source, kind, payload)
        parsed = parse_line(format_line(event))
        assert parsed.source == event.source
        assert parsed.kind == event.kind
        assert parsed.payload == event.payload
        assert parsed.timestamp == pytest.approx(event.timestamp, abs=1e-6)
