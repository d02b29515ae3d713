"""WAL framing: round trips, torn tails, fsync policies, record codec."""

import os

import pytest

from repro.durable.wal import (
    MAGIC,
    MAX_FRAME_BYTES,
    FrameWriter,
    decode_record,
    encode_batch,
    encode_heartbeat,
    list_wal_segments,
    read_wal,
    repair_torn_tail,
    scan_frames,
    wal_path,
)
from repro.errors import DurabilityError


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now


def write_frames(path, payloads, **kwargs):
    with FrameWriter(path, **kwargs) as writer:
        for payload in payloads:
            writer.append(payload)


class TestFrameRoundTrip:
    def test_append_then_scan(self, tmp_path):
        path = str(tmp_path / "j.wal")
        payloads = [b"alpha", b"", b"gamma" * 100]
        write_frames(path, payloads)
        scan = scan_frames(path)
        assert scan.payloads == payloads
        assert scan.torn is None
        assert scan.valid_size == os.path.getsize(path)

    def test_empty_file_is_clean(self, tmp_path):
        path = str(tmp_path / "j.wal")
        open(path, "wb").close()
        scan = scan_frames(path)
        assert scan.payloads == [] and scan.torn is None

    def test_missing_file_reported(self, tmp_path):
        scan = scan_frames(str(tmp_path / "nope.wal"))
        assert scan.torn == "missing file"

    def test_reopen_appends_after_existing_frames(self, tmp_path):
        path = str(tmp_path / "j.wal")
        write_frames(path, [b"one"])
        write_frames(path, [b"two"])
        assert scan_frames(path).payloads == [b"one", b"two"]

    def test_oversized_payload_rejected(self, tmp_path):
        writer = FrameWriter(str(tmp_path / "j.wal"))
        with pytest.raises(DurabilityError):
            writer.append(b"x" * (MAX_FRAME_BYTES + 1))
        writer.close()


class TestTornTails:
    def test_truncated_payload_yields_prefix(self, tmp_path):
        path = str(tmp_path / "j.wal")
        write_frames(path, [b"first", b"second"])
        with open(path, "rb+") as fp:
            fp.truncate(os.path.getsize(path) - 3)
        scan = scan_frames(path)
        assert scan.payloads == [b"first"]
        assert scan.torn == "truncated frame payload"

    def test_truncated_header_yields_prefix(self, tmp_path):
        path = str(tmp_path / "j.wal")
        write_frames(path, [b"first"])
        with open(path, "ab") as fp:
            fp.write(b"\x07\x00")  # half a header
        scan = scan_frames(path)
        assert scan.payloads == [b"first"]
        assert scan.torn == "truncated frame header"

    def test_checksum_mismatch_stops_scan(self, tmp_path):
        path = str(tmp_path / "j.wal")
        write_frames(path, [b"first", b"second"])
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF  # corrupt the final payload byte
        open(path, "wb").write(bytes(data))
        scan = scan_frames(path)
        assert scan.payloads == [b"first"]
        assert scan.torn == "frame checksum mismatch"

    def test_implausible_length_stops_scan(self, tmp_path):
        path = str(tmp_path / "j.wal")
        write_frames(path, [b"first"])
        with open(path, "ab") as fp:
            fp.write((MAX_FRAME_BYTES + 1).to_bytes(4, "little") + b"\0\0\0\0")
        scan = scan_frames(path)
        assert scan.payloads == [b"first"]
        assert scan.torn == "implausible frame length"

    def test_bad_magic_is_torn_with_empty_prefix(self, tmp_path):
        path = str(tmp_path / "j.wal")
        open(path, "wb").write(b"NOTAWAL!\n" + b"junk")
        scan = scan_frames(path)
        assert scan.payloads == [] and scan.valid_size == 0
        assert scan.torn == "bad or truncated magic header"

    def test_repair_truncates_then_appending_continues(self, tmp_path):
        path = str(tmp_path / "j.wal")
        write_frames(path, [b"first", b"second"])
        with open(path, "rb+") as fp:
            fp.truncate(os.path.getsize(path) - 3)
        scan = repair_torn_tail(path)
        assert scan.torn == "truncated frame payload"  # reported for the caller
        assert os.path.getsize(path) == scan.valid_size
        write_frames(path, [b"third"])
        assert scan_frames(path).payloads == [b"first", b"third"]

    def test_repair_is_noop_on_clean_file(self, tmp_path):
        path = str(tmp_path / "j.wal")
        write_frames(path, [b"first"])
        size = os.path.getsize(path)
        assert repair_torn_tail(path).torn is None
        assert os.path.getsize(path) == size

    def test_partial_magic_truncated_on_open(self, tmp_path):
        path = str(tmp_path / "j.wal")
        open(path, "wb").write(MAGIC[:4])
        write_frames(path, [b"fresh"])
        assert scan_frames(path).payloads == [b"fresh"]


class TestFsyncPolicies:
    def test_always_acknowledges_every_append(self, tmp_path):
        writer = FrameWriter(str(tmp_path / "j.wal"), fsync="always")
        assert writer.append(b"a") is True
        assert writer.append(b"b") is True
        assert writer.sync_count >= 2
        writer.close()

    def test_never_acknowledges_nothing(self, tmp_path):
        writer = FrameWriter(str(tmp_path / "j.wal"), fsync="never")
        assert writer.append(b"a") is False
        assert writer.sync_count == 0
        writer.close(sync=False)

    def test_interval_syncs_on_the_clock(self, tmp_path):
        clock = FakeClock()
        writer = FrameWriter(
            str(tmp_path / "j.wal"), fsync="interval", fsync_interval=5.0, clock=clock
        )
        assert writer.append(b"a") is False
        clock.now += 5.0
        assert writer.append(b"b") is True
        assert writer.append(b"c") is False
        writer.close()

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(DurabilityError):
            FrameWriter(str(tmp_path / "j.wal"), fsync="sometimes")

    def test_bad_interval_rejected(self, tmp_path):
        with pytest.raises(DurabilityError):
            FrameWriter(str(tmp_path / "j.wal"), fsync="interval", fsync_interval=0.0)

    def test_closed_writer_refuses_appends(self, tmp_path):
        writer = FrameWriter(str(tmp_path / "j.wal"))
        writer.close()
        assert writer.closed
        with pytest.raises(DurabilityError):
            writer.append(b"late")


class TestSegments:
    def test_wal_path_and_listing(self, tmp_path):
        directory = str(tmp_path)
        for epoch in (2, 0, 1):
            open(wal_path(directory, epoch), "wb").close()
        open(os.path.join(directory, "wal-junk.wal"), "wb").close()
        open(os.path.join(directory, "other.txt"), "wb").close()
        segments = list_wal_segments(directory)
        assert [epoch for epoch, _ in segments] == [0, 1, 2]

    def test_missing_directory_lists_nothing(self, tmp_path):
        assert list_wal_segments(str(tmp_path / "absent")) == []


class TestRecordCodec:
    def test_event_round_trip(self):
        """One event travels as a batch of one: there is no per-event record."""
        record = decode_record(encode_batch("m1", 7, 8, ["line"]))
        assert record == {"k": "bat", "s": "m1", "a": 7, "b": 8, "l": ["line"]}

    def test_batch_round_trip(self):
        record = decode_record(encode_batch("m1", 3, 6, ["a", "b"]))
        assert record == {"k": "bat", "s": "m1", "a": 3, "b": 6, "l": ["a", "b"]}

    def test_a_span_with_nothing_delivered_round_trips(self):
        record = decode_record(encode_batch("m1", 4, 6, []))
        assert record == {"k": "bat", "s": "m1", "a": 4, "b": 6, "l": []}

    def test_per_event_frame_of_an_older_version_is_refused_by_name(self, tmp_path):
        path = str(tmp_path / "wal-00000000.wal")
        write_frames(path, [b'{"k":"ev","l":"line","o":7,"s":"m1"}'])
        with pytest.raises(DurabilityError, match="'ev'.*older version"):
            read_wal(path)

    def test_a_batch_carries_the_recency_its_poll_publishes(self):
        record = decode_record(encode_batch("m1", 3, 5, ["a", "b"], 42.5))
        assert record == {"k": "bat", "s": "m1", "a": 3, "b": 5, "l": ["a", "b"], "r": 42.5}

    def test_heartbeat_round_trip(self):
        record = decode_record(encode_heartbeat("m1", 42.5))
        assert record == {"k": "hb", "s": "m1", "r": 42.5}

    @pytest.mark.parametrize(
        "payload",
        [
            b"not json",
            b"[1,2]",
            b'{"k":"zz"}',
            b'{"k":"ev","s":"m1","o":"seven","l":"x"}',
            b'{"k":"bat","s":"m1","a":"zero","b":1,"l":[]}',
            b'{"k":"bat","s":"m1","a":0,"b":1,"l":"notalist"}',
            b'{"k":"bat","s":"m1","a":0,"b":1,"l":[],"r":"soon"}',
            b'{"k":"hb","s":"m1","r":"soon"}',
        ],
    )
    def test_malformed_records_rejected(self, payload):
        with pytest.raises(DurabilityError):
            decode_record(payload)

    def test_read_wal_decodes_in_order(self, tmp_path):
        path = str(tmp_path / "j.wal")
        write_frames(
            path, [encode_batch("m1", 0, 1, ["x"]), encode_heartbeat("m1", 9.0)]
        )
        records, scan = read_wal(path)
        assert [r["k"] for r in records] == ["bat", "hb"]
        assert scan.torn is None
