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
``bytes`` through without framing. The server answers a malformed frame
with an ExchangeError frame, and drops a connection that stays idle past
``CONNECTION_TIMEOUT_S``; the client raises ExchangeError on a response
header that is JSON but not an object, and EngineUnreachable on any
other malformed response.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
import time
from typing import Any, Callable

from ..errors import EngineUnreachable, ERROR_CLASSES, ExchangeError, MlabeError

Handler = Callable[[dict, str], Any]

MAX_FRAME_BYTES = 64 * 1024 * 1024
# Seconds the server waits on each read or write of an accepted connection,
# the same as the client's default timeout.
CONNECTION_TIMEOUT_S = 10.0


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


def decode_frame(body: bytes) -> dict:
    """The message in a frame body; ValueError if the body is malformed."""
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
        sections.append(body[start:offset])
    try:
        header = json.loads(body[_U32.size:header_end].decode("utf-8"))
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
    sock.sendall(_U32.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket, tap: TransportTap | None,
                direction: str) -> dict:
    (length,) = _U32.unpack(_recv_exact(sock, _U32.size))
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame of {length} bytes exceeds limit")
    body = _recv_exact(sock, length)
    if tap is not None:
        tap.record(direction, body)
    return decode_frame(body)


def dispatch(routes: dict[str, Handler], request: dict) -> dict:
    """Run one request message against a route table; errors become
    response messages."""
    op = request.get("op")
    handler = routes.get(op)
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
    error_cls = ERROR_CLASSES.get(response.get("error", ""), ExchangeError)
    raise error_cls(response.get("message", "remote error"))


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
    """One TCP service: a named route table behind a threading server."""

    def __init__(self, name: str, routes: dict[str, Handler],
                 host: str = "127.0.0.1", port: int = 0,
                 tap: TransportTap | None = None):
        self.name = name
        self._routes = dict(routes)
        self._routes.setdefault("GET /health", lambda params, caller: {
            "status": "ok", "service": name})
        self._tap = tap
        outer = self

        class _Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                self.request.settimeout(CONNECTION_TIMEOUT_S)
                try:
                    request = _recv_frame(self.request, outer._tap, f"{outer.name}<-")
                except ValueError as exc:  # a whole frame, malformed
                    response = {"ok": False, "error": "ExchangeError",
                                "message": f"malformed request frame: {exc}"}
                except OSError:  # peer gone, oversized frame or idle past the deadline
                    return
                else:
                    response = dispatch(outer._routes, request)
                try:
                    _send_frame(self.request, response, outer._tap, f"{outer.name}->")
                except OSError:
                    pass

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _Handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, name=f"mlabe-{self.name}", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


class ServiceClient:
    """Single-request-per-connection client.

    Only connecting is retried, with exponential backoff: a request that
    never left cannot have been applied. Once the frame has been sent, any
    failure raises EngineUnreachable without resending, because the server
    may already have acted on it (a resent POST /incident would record two
    incidents).
    """

    def __init__(self, address: tuple[str, int], caller: str = "",
                 tap: TransportTap | None = None, attempts: int = 3,
                 backoff: float = 0.05, timeout: float = 10.0):
        self._address = address
        self._caller = caller
        self._tap = tap
        self._attempts = max(1, attempts)
        self._backoff = backoff
        self._timeout = timeout

    def _connect(self) -> socket.socket:
        last_error: OSError | None = None
        for attempt in range(self._attempts):
            if attempt:
                time.sleep(self._backoff * (2 ** (attempt - 1)))
            try:
                return socket.create_connection(self._address, timeout=self._timeout)
            except OSError as exc:
                last_error = exc
        raise EngineUnreachable(
            f"{self._address[0]}:{self._address[1]} unreachable "
            f"after {self._attempts} attempts: {last_error}")

    def request(self, op: str, params: dict | None = None) -> Any:
        payload = {"op": op, "caller": self._caller, "params": params or {}}
        with self._connect() as sock:
            try:
                _send_frame(sock, payload, self._tap, "client->")
                response = _recv_frame(sock, self._tap, "client<-")
            except _NotAnObject as exc:
                raise ExchangeError(f"malformed response frame: {exc}") from exc
            except (OSError, ValueError) as exc:
                raise EngineUnreachable(
                    f"{self._address[0]}:{self._address[1]} failed after the request "
                    f"was sent; not resent: {exc}") from exc
        return _result(response)
