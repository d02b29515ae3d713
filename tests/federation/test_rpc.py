"""The length-prefixed JSON RPC layer: framing, lifecycle, injected faults,
and what one frame costs in reads at each end (counted, not timed)."""

import collections
import selectors
import socket
import struct
import threading
import time

import pytest

from repro.federation.rpc import (
    MAX_FRAME_BYTES,
    READ_BYTES,
    Connection,
    RPCError,
    RPCServer,
    call,
    encode_frame,
    recv_frame,
    send_frame,
)


def echo_handler(request):
    return {"ok": True, "echo": request}


class TestFraming:
    def test_round_trip_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"op": "ping", "n": 3})
            assert recv_frame(b) == {"op": "ping", "n": 3}
        finally:
            a.close()
            b.close()

    def test_zero_length_frame_is_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 0))
            with pytest.raises(RPCError, match="bad frame length"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_length_prefix_is_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(RPCError, match="bad frame length"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_garbage_payload_is_rejected(self):
        a, b = socket.socketpair()
        try:
            payload = b"\xff\xfenot json\x00\x01"
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(RPCError, match="garbage frame"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_payload_is_rejected(self):
        a, b = socket.socketpair()
        try:
            payload = b"[1, 2, 3]"
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(RPCError, match="not a JSON object"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_connection_closed_mid_frame(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 100) + b"short")
            a.close()
            with pytest.raises(RPCError, match="closed mid-frame"):
                recv_frame(b)
        finally:
            b.close()


class TestServer:
    def test_call_round_trip(self):
        with RPCServer(echo_handler).start() as server:
            reply = call(server.host, server.port, {"op": "x"}, timeout=2.0)
        assert reply == {"ok": True, "echo": {"op": "x"}}

    def test_stop_actually_stops_accepting(self):
        server = RPCServer(echo_handler).start()
        call(server.host, server.port, {"op": "x"}, timeout=2.0)
        server.stop()
        with pytest.raises(RPCError):
            call(server.host, server.port, {"op": "x"}, timeout=1.0)

    def test_handler_exception_becomes_error_reply(self):
        def broken(request):
            raise ValueError("boom")

        with RPCServer(broken).start() as server:
            reply = call(server.host, server.port, {"op": "x"}, timeout=2.0)
        assert reply["ok"] is False
        assert "ValueError: boom" in reply["error"]

    def test_connection_refused_raises_rpc_error(self):
        # Bind-then-close guarantees an unused port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(RPCError, match="connect"):
            call("127.0.0.1", port, {"op": "x"}, timeout=1.0)

    def test_concurrent_calls(self):
        with RPCServer(echo_handler).start() as server:
            replies = []
            lock = threading.Lock()

            def one(i):
                reply = call(server.host, server.port, {"i": i}, timeout=5.0)
                with lock:
                    replies.append(reply["echo"]["i"])

            threads = [threading.Thread(target=one, args=(i,)) for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sorted(replies) == list(range(16))


class TestInjectedFaults:
    """The four rpc_* fault kinds, injected via the server's fault hook."""

    def run_with_fault(self, kind, timeout=1.0, fault_delay=0.3):
        server = RPCServer(
            echo_handler, fault_hook=lambda req: kind, fault_delay=fault_delay
        ).start()
        try:
            return call(server.host, server.port, {"op": "x"}, timeout=timeout)
        finally:
            server.stop()

    def test_rpc_drop_times_out(self):
        with pytest.raises(RPCError, match="timed out|closed"):
            self.run_with_fault("rpc_drop", timeout=0.5)

    def test_rpc_delay_still_answers_within_budget(self):
        reply = self.run_with_fault("rpc_delay", timeout=2.0, fault_delay=0.2)
        assert reply["ok"] is True

    def test_rpc_delay_past_the_deadline_times_out(self):
        with pytest.raises(RPCError, match="timed out"):
            self.run_with_fault("rpc_delay", timeout=0.3, fault_delay=2.0)

    def test_rpc_duplicate_reply_is_harmless(self):
        # One-shot connections read exactly one frame; the duplicate dies
        # with the socket.
        reply = self.run_with_fault("rpc_duplicate")
        assert reply == {"ok": True, "echo": {"op": "x"}}

    def test_rpc_garbage_raises_a_clean_error(self):
        with pytest.raises(RPCError, match="garbage frame"):
            self.run_with_fault("rpc_garbage")


@pytest.fixture
def reads(monkeypatch):
    """Every socket read, as ``{thread: [bytes asked for, ...]}``."""
    asked = collections.defaultdict(list)
    for name in ("recv", "recv_into"):
        original = getattr(socket.socket, name)

        def counting(sock, buffer, *args, _original=original, **kwargs):
            size = buffer if isinstance(buffer, int) else args[0] if args else len(buffer)
            asked[threading.current_thread()].append(size)
            return _original(sock, buffer, *args, **kwargs)

        monkeypatch.setattr(socket.socket, name, counting)
    return asked


def exchange(conn, frame, deadline=5.0):
    """Send ``frame`` on a non-blocking :class:`Connection`; pump until a
    reply frame is whole. Returns ``(messages, pumps)``."""
    conn.send(frame)
    pumps = 0
    with selectors.DefaultSelector() as selector:
        selector.register(conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE)
        stop = time.monotonic() + deadline
        while time.monotonic() < stop:
            if not conn.outbox:
                selector.modify(conn.sock, selectors.EVENT_READ)
            if selector.select(stop - time.monotonic()):
                pumps += 1
                messages = conn.pump()
                if messages:
                    return messages, pumps
    raise AssertionError("no reply frame")


class TestReadsPerFrame:
    """The coordinator asks for at most READ_BYTES per read and reassembles
    a larger frame; the shard reads a request that arrived in one segment
    with one recv."""

    BIG = "x" * (3 * READ_BYTES)

    def test_pump_never_asks_for_more_than_the_read_bound(self, reads):
        with RPCServer(echo_handler).start() as server:
            conn = Connection((server.host, server.port))
            try:
                exchange(conn, encode_frame({"op": "x", "pad": self.BIG}))
            finally:
                conn.close()
        mine = reads[threading.current_thread()]
        assert len(mine) > 1  # the reply came over several reads ...
        assert max(mine) <= READ_BYTES  # ... none of them asking for more

    def test_a_frame_larger_than_the_read_bound_decodes_whole(self):
        with RPCServer(echo_handler).start() as server:
            conn = Connection((server.host, server.port))
            try:
                messages, pumps = exchange(conn, encode_frame({"op": "x", "pad": self.BIG}))
            finally:
                conn.close()
        assert messages == [{"ok": True, "echo": {"op": "x", "pad": self.BIG}}]
        assert pumps > 1

    def test_a_request_that_arrived_whole_costs_the_shard_one_recv(self, reads):
        seen = []

        def handler(request):
            seen.append(len(reads[threading.current_thread()]))
            return {"ok": True}

        with RPCServer(handler).start() as server:
            call(server.host, server.port, {"op": "x", "pad": "y" * 1000}, timeout=2.0)
            conn = Connection((server.host, server.port))
            try:  # frame after frame on one persistent connection
                for n in range(3):
                    exchange(conn, encode_frame({"op": "x", "id": n}))
            finally:
                conn.close()
        assert seen == [1, 1, 2, 3]
