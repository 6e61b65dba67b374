"""Length-prefixed JSON framing over TCP.

Each frame is a 4-byte big-endian length followed by a UTF-8 JSON object.
Requests carry {"op", "caller", "params"}; responses carry {"ok": true,
"result": ...} or {"ok": false, "error": <class>, "message": ...}; binary
payloads ride base64-encoded inside params/results. A TransportTap can
observe every frame that crosses the wire, which the test harness uses to
prove that neither payload plaintext nor symmetric keys ever transit.
``dispatch`` maps a request to a response frame for both the TCP server
and the in-process LocalClient, so both raise the same error classes.
The server answers a whole frame that is not a UTF-8 JSON object with an
ExchangeError frame, and drops a connection that stays idle past
``CONNECTION_TIMEOUT_S``; the client raises ExchangeError on a response
frame that is not a JSON object.
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


def _send_frame(sock: socket.socket, payload: dict, tap: TransportTap | None,
                direction: str) -> None:
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    if tap is not None:
        tap.record(direction, data)
    sock.sendall(struct.pack(">I", len(data)) + data)


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
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame of {length} bytes exceeds limit")
    data = _recv_exact(sock, length)
    if tap is not None:
        tap.record(direction, data)
    return json.loads(data.decode("utf-8"))


def dispatch(routes: dict[str, Handler], request: dict) -> dict:
    """Run one request frame against a route table; errors become frames."""
    if not isinstance(request, dict):
        return {"ok": False, "error": "ExchangeError",
                "message": "request frame is not a JSON object"}
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
    """The result of a response frame, or its error re-raised by class."""
    if not isinstance(response, dict):
        raise ExchangeError("response frame is not a JSON object")
    if response.get("ok"):
        return response.get("result")
    error_cls = ERROR_CLASSES.get(response.get("error", ""), ExchangeError)
    raise error_cls(response.get("message", "remote error"))


class LocalClient:
    """In-process client: the same dispatch and error mapping as the wire,
    without sockets or JSON framing."""

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
                except ValueError:  # a whole frame that is not UTF-8 JSON
                    request = None
                except OSError:  # peer gone, oversized frame or idle past the deadline
                    return
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
            except (OSError, ValueError) as exc:
                raise EngineUnreachable(
                    f"{self._address[0]}:{self._address[1]} failed after the request "
                    f"was sent; not resent: {exc}") from exc
        return _result(response)
