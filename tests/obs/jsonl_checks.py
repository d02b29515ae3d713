"""JSONL checks shared by the span and event tests.

One writer and one parser (``repro.obs.events``) serve both record kinds,
so each check is written once and takes the records and their kind name.
"""

import io

import pytest

from repro.errors import TracError
from repro.obs import Tracer
from repro.obs.events import EVT_SOURCE_DEGRADED, EventLog, from_jsonl, to_jsonl, write_jsonl


def make_spans():
    tracer = Tracer()
    with tracer.span("root", method="focused"):
        with tracer.span("child") as child:
            child.set_attribute("rows", 3)
    return tracer.finished_spans()


def make_events():
    log = EventLog()
    log.emit(EVT_SOURCE_DEGRADED, t=5.0, source="m2", severity="error", reason="silent")
    log.emit("other", payload={"nested": [1, 2]})
    log.emit("e", index=2)
    return log.snapshot()


def check_round_trip(records, kind):
    text = to_jsonl(records)
    assert not text.endswith("\n")
    assert from_jsonl(text, kind) == [record.to_dict() for record in records]


def check_empty_input(kind):
    assert to_jsonl([]) == ""
    assert from_jsonl("", kind) == []
    buffer = io.StringIO()
    assert write_jsonl([], buffer) == 0
    assert buffer.getvalue() == ""


def check_blank_lines_skipped(records, kind):
    expected = [record.to_dict() for record in records]
    assert from_jsonl(to_jsonl(records) + "\n\n", kind) == expected
    assert from_jsonl("\n\n", kind) == []


def check_malformed_line(kind):
    with pytest.raises(TracError, match=f"malformed {kind} JSONL at line 2"):
        from_jsonl('{"name": "ok"}\nnot json', kind)


def check_non_object_line(kind):
    with pytest.raises(TracError, match=f"{kind} JSONL line 1 is not an object"):
        from_jsonl("[1, 2, 3]", kind)


def check_streams(records, kind):
    buffer = io.StringIO()
    assert write_jsonl(records, buffer) == len(records)
    text = buffer.getvalue()
    assert text.endswith("\n")
    assert len(text.splitlines()) == len(records)
    assert from_jsonl(text, kind) == [record.to_dict() for record in records]


def check_string_form_delegates(records):
    """``to_jsonl`` is the streaming writer minus the trailing newline."""
    buffer = io.StringIO()
    write_jsonl(records, buffer)
    assert to_jsonl(records) == buffer.getvalue().removesuffix("\n")


def check_accepts_an_iterator(records):
    assert write_jsonl(iter(records), io.StringIO()) == len(records)
