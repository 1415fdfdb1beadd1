"""Zero-dependency HTTP front end for the broker (stdlib only).

A :class:`ThreadingHTTPServer` binds the :class:`~repro.broker.router.
Router` to a socket: each request thread parses method/path/body, asks
the router, and writes the JSON response.  ``port=0`` picks a free port
(tests and ``benchmarks/e2e`` rely on it).

Use :func:`start_server` for the embedded case (returns the running
server; call :meth:`BrokerHTTPServer.shutdown_broker` when done) and
``repro serve`` for the CLI daemon.
"""

from __future__ import annotations

import json
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.broker.router import Router
from repro.broker.service import BrokerError, BrokerService

__all__ = ["MAX_BODY_BYTES", "BrokerHTTPServer", "start_server"]

#: Largest request body the listener reads; a longer one is refused
#: with ``413`` before any of it is read.
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    server: "BrokerHTTPServer"
    protocol_version = "HTTP/1.1"
    #: Seconds one socket read or write may block: a client that
    #: connects and sends nothing, or half a body, or idles on a
    #: keep-alive connection, gives its thread back after this long.
    timeout = 30.0
    #: ``TCP_NODELAY`` on every accepted socket, so a response that ever
    #: leaves in two writes does not wait out the peer's delayed ACK.
    disable_nagle_algorithm = True

    def _read_body(self) -> bytes:
        """The request body, or a :class:`BrokerError` saying why not."""
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            raise BrokerError(
                400, f"Content-Length must be a non-negative integer, got {raw!r}"
            )
        length = int(raw)
        if length > MAX_BODY_BYTES:
            raise BrokerError(
                413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        try:
            body = self.rfile.read(length) if length else b""
        except TimeoutError:
            raise BrokerError(
                408, f"no complete body within {self.timeout:g} s"
            ) from None
        if len(body) < length:
            raise BrokerError(
                400, f"body ended {length - len(body)} bytes short of Content-Length"
            )
        return body

    def _respond(self) -> None:
        with self.server.request_in_flight():
            try:
                body = self._read_body()
            except BrokerError as exc:
                status, payload = exc.status, {"error": exc.message}
                # Whatever of the body was sent is still on the socket
                # and would be read as the next request.
                self.close_connection = True
            else:
                status, payload = self.server.router.dispatch(
                    self.command, self.path, body
                )
            if isinstance(payload, str):
                # Text payloads (the Prometheus exposition) go out verbatim.
                data = payload.encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            else:
                data = json.dumps(payload, sort_keys=True, default=str).encode()
                content_type = "application/json"
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            # One sendall per response: the body rides in the header
            # buffer where end_headers() would flush the headers alone.
            # Two writes on this unbuffered socket cost the second one
            # the client's 40 ms delayed ACK of the first.
            self._headers_buffer.append(b"\r\n" + data)
            self.flush_headers()

    do_GET = _respond
    do_POST = _respond

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)


class BrokerHTTPServer(ThreadingHTTPServer):
    """The broker's HTTP listener; owns nothing but the router binding."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: BrokerService,
        verbose: bool = False,
    ):
        super().__init__(address, _Handler)
        self.service = service
        self.router = Router(service)
        self.verbose = verbose
        self._serve_thread: threading.Thread | None = None
        self._in_flight = 0
        self._in_flight_changed = threading.Condition()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_background(self) -> None:
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="broker-http", daemon=True
        )
        self._serve_thread.start()

    def handle_error(self, request, client_address) -> None:
        """A peer that hangs up or stalls mid-exchange is its own
        problem, not a traceback on the daemon's stderr."""
        if isinstance(sys.exc_info()[1], OSError) and not self.verbose:
            return
        super().handle_error(request, client_address)

    @contextmanager
    def request_in_flight(self):
        """Held by a handler from body read to response flush;
        :meth:`shutdown_broker` waits for the count to reach zero."""
        with self._in_flight_changed:
            self._in_flight += 1
        try:
            yield
        finally:
            with self._in_flight_changed:
                self._in_flight -= 1
                self._in_flight_changed.notify_all()

    def shutdown_broker(self, timeout: float = 10.0) -> None:
        """Graceful stop, idempotent: no new connections; sessions in
        flight finish (:meth:`BrokerService.close`), which releases every
        ``?wait=`` caller; requests being answered get up to *timeout*
        seconds to put their response on the wire."""
        self.shutdown()
        self.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
        self.service.close()
        with self._in_flight_changed:
            self._in_flight_changed.wait_for(
                lambda: self._in_flight == 0, timeout
            )


def start_server(
    service: BrokerService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> BrokerHTTPServer:
    """Bind and start serving in a background thread; returns the server."""
    server = BrokerHTTPServer((host, port), service, verbose=verbose)
    server.serve_in_background()
    return server
