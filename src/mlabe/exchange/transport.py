"""Length-prefixed frames over TCP: a JSON header plus raw binary sections.

A frame (version 2, PROTOCOL.md) is a 4-byte big-endian frame length,
then the frame body:

    u32 header length | UTF-8 JSON header object | section*
    section = u32 length | raw bytes

Requests carry {"op", "caller", "params"}; responses carry {"ok": true,
"result": ...} or {"ok": false, "error": <class>, "message": ...}. Every
``bytes`` value anywhere in a message travels as a section, and the
header holds ``{"$section": i}`` in its place; the receiver puts the
bytes of section i back. So ciphertext crosses the wire as is, with no
base64 or JSON escaping, and the key ``"$section"`` is reserved. A body
that is malformed in any way (a truncated header, a section running past
the frame end, a marker naming no section, a header that is not a JSON
object or nests too deeply) raises ValueError in ``decode_frame``. A frame longer than
``MAX_FRAME_BYTES`` is refused before its body is read.

A TransportTap records every frame body that crosses the wire, sections
included, which the test harness uses to prove that neither payload
plaintext nor symmetric keys ever transit. ``dispatch`` maps a request
to a response message for both the TCP server and the in-process
LocalClient, so both raise the same error classes; LocalClient passes
``bytes`` through without framing.

A connection carries many frames, one request and its response at a
time. The server serves a connection until the peer closes it or stays
idle past ``CONNECTION_TIMEOUT_S``, allows the same time in total for
the rest of a frame once its length prefix has arrived, answers a
malformed frame with an ExchangeError frame and reads on, and on
``stop()`` refuses new connections and ends the open ones at once. A
ServiceClient keeps one connection open, reconnects before it sends on
one the peer has closed or that has idled past half the server's
deadline, and retries nothing: a failed connect raises EngineUnreachable
at once, and a frame once sent is never resent. The client alone closes
its socket. It raises ExchangeError on a response header that is JSON
but not an object or an error that is not a string, and
EngineUnreachable on any other malformed response.
"""

from __future__ import annotations

import json
import select
import socket
import struct
import threading
import time
import weakref
from typing import Any, Callable

from ..errors import EngineUnreachable, ERROR_CLASSES, ExchangeError, MlabeError

Handler = Callable[[dict, str], Any]

MAX_FRAME_BYTES = 64 * 1024 * 1024
# Seconds a connection may stay idle before the server closes it; also the
# limit on each write, on the client's connect and wait for a response, and
# on receiving the rest of a frame once its length prefix has arrived.
CONNECTION_TIMEOUT_S = 10.0
# Connections the kernel queues for a server before accept; beyond it a
# client's SYN is dropped and retried only after a second.
LISTEN_BACKLOG = 128


class TransportTap:
    """Thread-safe recorder of raw frames crossing the transport."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._frames: list[tuple[str, bytes]] = []

    def record(self, direction: str, frame: bytes) -> None:
        with self._lock:
            self._frames.append((direction, frame))

    def frames(self) -> list[tuple[str, bytes]]:
        with self._lock:
            return list(self._frames)

    def clear(self) -> None:
        with self._lock:
            self._frames.clear()


_SECTION_MARKER = "$section"
_U32 = struct.Struct(">I")


class _NotAnObject(ValueError):
    """A well-formed frame whose header is not a JSON object."""


# _lift and _lower are module functions, not closures: a recursive closure
# is a reference cycle, which would keep each frame's sections alive until
# the cyclic garbage collector runs.

def _lift(value: Any, sections: list[bytes]) -> Any:
    """`value` with each ``bytes`` moved to `sections` and a marker left."""
    if isinstance(value, bytes):
        sections.append(value)
        return {_SECTION_MARKER: len(sections) - 1}
    if isinstance(value, dict):
        return {key: _lift(item, sections) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_lift(item, sections) for item in value]
    return value


def _lower(value: Any, sections: list[bytes]) -> Any:
    """`value` with each marker replaced by the section it names."""
    if isinstance(value, dict):
        if value.keys() == {_SECTION_MARKER}:
            index = value[_SECTION_MARKER]
            if type(index) is not int or not 0 <= index < len(sections):
                raise ValueError(f"section marker {index!r} names no section")
            return sections[index]
        return {key: _lower(item, sections) for key, item in value.items()}
    if isinstance(value, list):
        return [_lower(item, sections) for item in value]
    return value


def encode_frame(message: dict) -> bytes:
    """The frame body of `message`: each ``bytes`` value becomes a section."""
    sections: list[bytes] = []
    header = json.dumps(_lift(message, sections), sort_keys=True).encode("utf-8")
    parts = [_U32.pack(len(header)), header]
    for section in sections:
        parts += (_U32.pack(len(section)), section)
    return b"".join(parts)


def decode_frame(body: bytes | bytearray | memoryview) -> dict:
    """The message in a bytes-like frame body, each section as ``bytes``;
    ValueError if the body is malformed."""
    body = memoryview(body)
    if len(body) < _U32.size:
        raise ValueError("frame too short for its header length")
    (header_len,) = _U32.unpack_from(body)
    header_end = offset = _U32.size + header_len
    if header_end > len(body):
        raise ValueError("frame header runs past the frame end")
    sections = []
    while offset < len(body):
        if offset + _U32.size > len(body):
            raise ValueError("section length runs past the frame end")
        (length,) = _U32.unpack_from(body, offset)
        start, offset = offset + _U32.size, offset + _U32.size + length
        if offset > len(body):
            raise ValueError("section runs past the frame end")
        sections.append(bytes(body[start:offset]))
    try:
        header = json.loads(str(body[_U32.size:header_end], "utf-8"))
        if not isinstance(header, dict):
            raise _NotAnObject("frame header is not a JSON object")
        return _lower(header, sections)
    except RecursionError as exc:
        raise ValueError("frame header nests too deeply") from exc


def _send_frame(sock: socket.socket, message: dict, tap: TransportTap | None,
                direction: str) -> None:
    body = encode_frame(message)
    if tap is not None:
        tap.record(direction, body)
    # One write per frame: a separate write of the length prefix could wait
    # on Nagle's algorithm and the peer's delayed ACK.
    sock.sendall(_U32.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int, deadline: float | None = None) -> bytearray:
    """Exactly `n` bytes from `sock`, received into one buffer. The first
    read waits up to the socket's timeout; with a `deadline`, a
    ``time.monotonic()`` value, later reads must all end by then."""
    buffer = bytearray(n)
    received = 0
    timeout = sock.gettimeout()
    with memoryview(buffer) as view:
        try:
            while received < n:
                if received and deadline is not None:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise TimeoutError(f"{received} of {n} frame bytes by the deadline")
                    sock.settimeout(left)
                count = sock.recv_into(view[received:])
                if not count:
                    raise ConnectionError("peer closed mid-frame")
                received += count
        finally:
            if sock.gettimeout() != timeout:
                sock.settimeout(timeout)
    return buffer


def _recv_frame(sock: socket.socket, tap: TransportTap | None,
                direction: str) -> dict:
    (length,) = _U32.unpack(_recv_exact(sock, _U32.size))
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame of {length} bytes exceeds limit")
    body = _recv_exact(sock, length, time.monotonic() + CONNECTION_TIMEOUT_S)
    if tap is not None:
        tap.record(direction, bytes(body))
    return decode_frame(body)


def dispatch(routes: dict[str, Handler], request: dict) -> dict:
    """Run one request message against a route table; errors become
    response messages."""
    op = request.get("op")
    handler = routes.get(op) if isinstance(op, str) else None
    if handler is None:
        return {"ok": False, "error": "NotFound", "message": f"unknown op {op!r}"}
    try:
        result = handler(request.get("params", {}), request.get("caller", ""))
    except MlabeError as exc:
        return {"ok": False, "error": type(exc).__name__, "message": str(exc)}
    except Exception as exc:  # keep the server alive; surface the class name
        return {"ok": False, "error": "ExchangeError",
                "message": f"{type(exc).__name__}: {exc}"}
    return {"ok": True, "result": result}


def _result(response: dict) -> Any:
    """The result of a response message, or its error re-raised by class."""
    if response.get("ok"):
        return response.get("result")
    error = response.get("error")
    # An error that is not a string names no class; a list or object cannot even be looked up.
    error_cls = ERROR_CLASSES.get(error) if isinstance(error, str) else None
    raise (error_cls or ExchangeError)(response.get("message", "remote error"))


class LocalClient:
    """In-process client: the same dispatch and error mapping as the wire,
    without sockets or framing; ``bytes`` values pass through as they are."""

    def __init__(self, routes: dict[str, Handler], caller: str = ""):
        self._routes = routes
        self._caller = caller

    def request(self, op: str, params: dict | None = None) -> Any:
        return _result(dispatch(self._routes, {
            "op": op, "caller": self._caller, "params": params or {}}))


class ServiceServer:
    """One TCP service: a named route table behind a listening socket, an
    accept loop on one thread and one thread per connection, each serving
    frames until the peer closes or idles past ``CONNECTION_TIMEOUT_S``."""

    def __init__(self, name: str, routes: dict[str, Handler],
                 host: str = "127.0.0.1", port: int = 0,
                 tap: TransportTap | None = None):
        self.name = name
        self._routes = dict(routes)
        self._routes.setdefault("GET /health", lambda params, caller: {
            "status": "ok", "service": name})
        self._tap = tap
        self._listener = socket.create_server((host, port), backlog=LISTEN_BACKLOG)
        # Connections not yet closed, for stop() to end; the lock orders accept against stop().
        self._connections: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._stopping = False
        self._thread = threading.Thread(target=self._accept_loop, name=f"mlabe-{name}",
                                        daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def start(self) -> "ServiceServer":
        self._thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # ECONNABORTED, EMFILE, ... are skipped; so is stop()'s EINVAL
                continue
            with self._lock:
                if self._stopping:
                    conn.close()
                    return
                self._connections.add(conn)
            threading.Thread(target=self._serve_connection, args=(conn,), daemon=True).start()

    def _serve_connection(self, connection: socket.socket) -> None:
        try:
            connection.settimeout(CONNECTION_TIMEOUT_S)
            while True:
                try:
                    request = _recv_frame(connection, self._tap, f"{self.name}<-")
                except ValueError as exc:  # a whole frame, malformed
                    response = {"ok": False, "error": "ExchangeError",
                                "message": f"malformed request frame: {exc}"}
                else:
                    response = dispatch(self._routes, request)
                _send_frame(connection, response, self._tap, f"{self.name}->")
        except OSError:  # closed, oversized frame, idle or slow past the deadline, failed write
            pass
        finally:
            with self._lock:
                self._connections.discard(connection)
            connection.close()

    def stop(self) -> None:
        """Refuse new connections and end the open ones at once, so that none
        reads another request after this returns; idempotent, and safe unstarted."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        # The accept loop relies on Linux waking a thread blocked in accept()
        # at once, with EINVAL, when the listening socket is shut down.
        self._listener.shutdown(socket.SHUT_RDWR)
        if self._thread.is_alive():
            self._thread.join()
        self._listener.close()
        with self._lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:  # the peer already reset it
                    pass


class ServiceClient:
    """Client that keeps one connection to a service open across requests.

    The connection is made on the first request. Before a request is sent
    on it, the client reconnects if the peer has closed it (the idle
    socket reads as readable) or if it has been idle for more than half of
    ``CONNECTION_TIMEOUT_S``, before the server's idle close can race the
    send. Nothing is retried. A failed connect raises EngineUnreachable at
    once: a server listens from its constructor with ``LISTEN_BACKLOG``, so
    a refused connect would be refused again. Once the frame has been
    sent, any failure closes the connection and raises EngineUnreachable
    without resending, because the server may already have acted on it (a
    resent POST /incident would record two incidents).

    Requests from several threads take turns on the one connection. Only
    the client closes its socket: ``close()`` closes it, and a later
    request connects again; a client dropped without ``close()`` closes
    its connection when collected.
    """

    def __init__(self, address: tuple[str, int], caller: str = "",
                 tap: TransportTap | None = None):
        self._address = address
        self._caller = caller
        self._tap = tap
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._closer: weakref.finalize | None = None
        self._idle_since = 0.0

    def _connect(self) -> socket.socket:
        try:
            return socket.create_connection(self._address, timeout=CONNECTION_TIMEOUT_S)
        except OSError as exc:
            raise EngineUnreachable(
                f"cannot connect to {self._address[0]}:{self._address[1]}: {exc}") from exc

    def _connection(self) -> socket.socket:
        """The open connection, made anew if it is missing, closed by the
        peer or idle too long."""
        if self._sock is not None and (
                time.monotonic() - self._idle_since > CONNECTION_TIMEOUT_S / 2
                or select.select([self._sock], [], [], 0)[0]):
            self._close()
        if self._sock is None:
            self._sock = self._connect()
            self._closer = weakref.finalize(self, self._sock.close)
        return self._sock

    def _close(self) -> None:
        if self._closer is not None:
            self._closer()
        self._sock = self._closer = None

    def close(self) -> None:
        """Close the connection, if one is open."""
        with self._lock:
            self._close()

    def request(self, op: str, params: dict | None = None) -> Any:
        payload = {"op": op, "caller": self._caller, "params": params or {}}
        with self._lock:
            sock = self._connection()
            try:
                _send_frame(sock, payload, self._tap, "client->")
                response = _recv_frame(sock, self._tap, "client<-")
            except BaseException as exc:
                self._close()  # a reply still to come would answer the next request
                if isinstance(exc, _NotAnObject):
                    raise ExchangeError(f"malformed response frame: {exc}") from exc
                if isinstance(exc, (OSError, ValueError)):
                    raise EngineUnreachable(
                        f"{self._address[0]}:{self._address[1]} failed after the request "
                        f"was sent; not resent: {exc}") from exc
                raise
            self._idle_since = time.monotonic()
        return _result(response)
