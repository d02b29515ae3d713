"""Length-prefixed JSON socket RPC for the shard federation.

The wire format is deliberately tiny: every message is a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON.
Connections are **persistent**: the server answers frame after frame on
one socket until the peer closes or idles past ``idle_timeout``, so a
steady caller pays one TCP connect per shard, not one per request.

Because a socket outlives a request, a request may carry an ``id`` that
the server echoes on its reply; a reader discards any frame whose id is
not the one it awaits, so a duplicated reply or a late hedge answer is
never mistaken for the answer to the *next* request on that socket. Any
other irregularity (garbage, a bad length, a close mid-frame) poisons the
stream: the socket is closed, never reused.

Two clients share one frame encoder/decoder: the blocking one-shot
:func:`call` (registry hello/heartbeat, tools, probes) and the
non-blocking :class:`Connection` that the coordinator's selector loop
drives and keeps between reports in a :class:`ConnectionPool`; its
:meth:`~Connection.pump` reads at most :data:`READ_BYTES` at a time, and
:class:`FrameDecoder` reassembles a larger frame. The server is a
daemon-threaded acceptor with one handler thread per connection, reading
through one buffered reader each, so a request that arrived whole costs
one ``recv``. Its ``fault_hook`` injects the ``rpc_*`` fault kinds of
:mod:`repro.faults.plan` (drop, delay, duplicate, garbage) *below* the
protocol, as a network would.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import TracError

#: Upper bound on one frame; a length prefix beyond this is garbage.
MAX_FRAME_BYTES = 16 * 1024 * 1024
#: Idle connections kept per ``(host, port)``: one per concurrent caller.
POOL_LIMIT = 4
#: Most bytes one client read asks for; a larger frame takes several reads.
#: 16, 64 and 128 KiB each measured slower end to end (docs/PERFORMANCE.md).
READ_BYTES = 256 * 1024

_LENGTH = struct.Struct(">I")
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class RPCError(TracError):
    """A shard RPC failed: connect/timeout/protocol garbage."""


class RPCTimeout(RPCError):
    """A shard RPC ran out of its time budget (the shard may be alive)."""


def encode_frame(message: dict) -> bytes:
    """Serialize ``message`` as one length-prefixed frame."""
    payload = _ENCODER.encode(message).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise RPCError(f"frame too large: {len(payload)} bytes")
    return _LENGTH.pack(len(payload)) + payload


def _frame_length(header: bytes) -> int:
    (length,) = _LENGTH.unpack(header)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise RPCError(f"bad frame length {length}")
    return length


def _decode_payload(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RPCError(f"garbage frame: {exc}") from exc
    if not isinstance(message, dict):
        raise RPCError("frame payload is not a JSON object")
    return message


class FrameDecoder:
    """Incremental decoder: feed it bytes as they arrive, get whole frames."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[dict]:
        buffer = self._buffer
        buffer += data
        messages = []
        while len(buffer) >= _LENGTH.size:
            end = _LENGTH.size + _frame_length(buffer[: _LENGTH.size])
            if len(buffer) < end:
                break
            messages.append(_decode_payload(buffer[_LENGTH.size : end]))
            del buffer[:end]
        return messages


def _read_exact(reader, count: int) -> bytes:
    data = reader.read(count)
    if len(data) < count:
        raise RPCError(f"connection closed mid-frame ({len(data)}/{count} bytes)")
    return data


def _read_frame(reader) -> dict:
    """Read one frame from a buffered binary reader (``sock.makefile("rb")``)."""
    return _decode_payload(_read_exact(reader, _frame_length(_read_exact(reader, _LENGTH.size))))


def send_frame(sock: socket.socket, message: dict) -> None:
    """Serialize ``message`` and write one length-prefixed frame."""
    sock.sendall(encode_frame(message))


def recv_frame(sock: socket.socket) -> dict:
    """Read one frame from ``sock``; bytes that follow it are dropped."""
    with sock.makefile("rb") as reader:
        return _read_frame(reader)


def call(host: str, port: int, request: dict, timeout: float = 5.0) -> dict:
    """One-shot RPC: connect, send ``request``, return the reply.

    ``timeout`` is a wall-clock budget covering connect + send + receive.
    Raises :class:`RPCError` on refusal, timeout (:class:`RPCTimeout`), or
    a garbage reply — *including* ``ConnectionRefusedError``/
    ``ConnectionResetError``, so callers see one exception type for "that
    shard is unreachable".
    """
    deadline = time.monotonic() + timeout
    try:
        sock = socket.create_connection((host, port), timeout=max(0.001, timeout))
    except OSError as exc:
        raise RPCError(f"connect {host}:{port} failed: {exc}") from exc
    try:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RPCTimeout(f"deadline exhausted before send to {host}:{port}")
        sock.settimeout(remaining)
        send_frame(sock, request)
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RPCTimeout(f"deadline exhausted awaiting {host}:{port}")
        sock.settimeout(remaining)
        # A duplicated response (rpc_duplicate fault) leaves a trailing
        # frame behind; a one-shot connection reads one reply and closes.
        return recv_frame(sock)
    except socket.timeout as exc:
        raise RPCTimeout(f"rpc to {host}:{port} timed out after {timeout:g}s") from exc
    except OSError as exc:
        raise RPCError(f"rpc to {host}:{port} failed: {exc}") from exc
    finally:
        sock.close()


class Connection:
    """One non-blocking client socket: an outbox, a decoder, no thread.

    The owner watches :attr:`sock` in a selector (for writing too while
    :attr:`outbox` is non-empty) and calls :meth:`pump` when it is ready.
    ``reused`` — it came out of a pool, its peer may have closed it since —
    and ``heard`` — a reply byte has arrived — are the stale-socket test: a
    reused socket that fails unheard says nothing about the shard's health.
    """

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self.reused = self.heard = False
        self.outbox = b""
        self._decoder = FrameDecoder()
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.sock.setblocking(False)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock.connect(address)
        except BlockingIOError:
            pass  # in progress: the socket turns writable (or fails) when it is done
        except OSError as exc:
            self.sock.close()
            raise RPCError(f"connect {address[0]}:{address[1]} failed: {exc}") from exc

    def send(self, frame: bytes) -> None:
        """Queue one encoded frame and write as much as the socket takes."""
        self.outbox += frame
        try:
            self._flush()
        except OSError as exc:
            raise self._failed(exc) from exc

    def pump(self) -> List[dict]:
        """Flush the outbox, read what has arrived; returns whole frames.

        Raises :class:`RPCError` when the peer closed, reset, refused the
        connect, or sent something that is not a frame — the caller closes
        the connection, it is never reused after an error.
        """
        try:
            self._flush()
            data = self.sock.recv(READ_BYTES)
        except (BlockingIOError, InterruptedError):
            return []
        except OSError as exc:
            raise self._failed(exc) from exc
        if not data:
            raise self._failed("connection closed by shard")
        self.heard = True
        return self._decoder.feed(data)

    def _flush(self) -> None:
        if self.outbox:
            try:
                sent = self.sock.send(self.outbox)
            except (BlockingIOError, InterruptedError):
                return  # still connecting, or the send buffer is full
            self.outbox = self.outbox[sent:]

    def _failed(self, why: object) -> RPCError:
        return RPCError(f"rpc to {self.address[0]}:{self.address[1]} failed: {why}")

    def close(self) -> None:
        self.sock.close()


class ConnectionPool:
    """Idle connections per address, at most :data:`POOL_LIMIT` each."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: Dict[Tuple[str, int], List[Connection]] = {}

    def take(self, address: Tuple[str, int]) -> Optional[Connection]:
        with self._lock:
            idle = self._idle.get(address)
            return idle.pop() if idle else None

    def give(self, conn: Connection) -> None:
        """Return a connection whose request/reply exchange completed."""
        conn.reused, conn.heard = True, False
        with self._lock:
            idle = self._idle.setdefault(conn.address, [])
            if len(idle) < POOL_LIMIT:
                idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()


class RPCServer:
    """A threaded frame server: one thread per connection, many frames each.

    Parameters
    ----------
    handler:
        ``handler(request) -> response`` mapping one JSON object to
        another; exceptions become ``{"ok": False, "error": ...}`` replies.
        A request's ``id``, when present, is echoed on the response.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after construction).
    fault_hook:
        Optional ``fault_hook(request) -> kind`` consulted per request,
        returning ``None`` or one of the ``rpc_*`` fault kinds from
        :mod:`repro.faults.plan`; the server then misbehaves accordingly.
    fault_delay:
        Seconds to stall when the hook answers ``rpc_delay``.
    """

    #: Seconds a connection may sit between frames before the server closes it.
    idle_timeout = 10.0

    def __init__(
        self,
        handler: Callable[[dict], dict],
        host: str = "127.0.0.1",
        port: int = 0,
        fault_hook: Optional[Callable[[dict], Optional[str]]] = None,
        fault_delay: float = 1.0,
    ) -> None:
        self.handler = handler
        self.fault_hook = fault_hook
        self.fault_delay = fault_delay
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)
        # A blocking accept() would NOT be woken by close() from another
        # thread (the kernel pins the open file description for the
        # duration of the syscall, so the "closed" server keeps accepting).
        # A short accept timeout lets the loop re-check the stop flag.
        self._sock.settimeout(0.25)
        self.host, self.port = self._sock.getsockname()[:2]
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._connections: Set[socket.socket] = set()
        #: Connections accepted so far (persistent clients keep this small).
        self.accepted = 0

    def start(self) -> "RPCServer":
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"rpc-accept:{self.port}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        try:
            self._sock.close()  # after the join: see the accept-timeout note
        except OSError:
            pass
        # Wake handler threads parked in recv(): retire now, not at idle_timeout.
        with self._lock:
            live = list(self._connections)
        for conn in live:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its own thread

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue  # periodic stop-flag check
            except OSError:
                return  # socket closed: shutting down
            with self._lock:
                self._connections.add(conn)
                self.accepted += 1
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")  # buffered: a frame that arrived whole is one recv
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(self.idle_timeout)
            while not self._stop.is_set():
                request = _read_frame(reader)
                fault = self.fault_hook(request) if self.fault_hook is not None else None
                if fault == "rpc_drop":
                    return  # close without replying; the client times out / resets
                try:
                    response = self.handler(request)
                except Exception as exc:  # a handler bug must not kill the acceptor
                    response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                if "id" in request:
                    response["id"] = request["id"]
                if fault == "rpc_delay":
                    time.sleep(self.fault_delay)
                if fault == "rpc_garbage":
                    conn.sendall(_LENGTH.pack(12) + b"\xff\xfenot json\x00\x01")
                    return
                send_frame(conn, response)
                if fault == "rpc_duplicate":
                    send_frame(conn, response)
        except (RPCError, OSError):
            pass  # client went away, went idle or sent garbage; nothing to salvage
        finally:
            with self._lock:
                self._connections.discard(conn)
            reader.close()  # first: while it is open, the descriptor stays open
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "RPCServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
