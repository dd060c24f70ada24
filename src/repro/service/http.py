"""Stdlib-only asyncio HTTP/1.1 + JSON front-end for the daemon.

Deliberately tiny: the daemon needs four routes, bounded request
bodies, and honest status codes — not a framework.  Requests are
parsed from an :func:`asyncio.start_server` stream (request line,
headers, ``Content-Length`` body capped at 1 MiB), dispatched to a
synchronous handler picked from a regex route table, and answered
with a JSON body and ``Connection: close``.

Handlers are plain functions ``(match, body) -> (status, payload)`` or
``(status, payload, extra_headers)``; they run inline on the event
loop.  That is a deliberate fit for this service: every handler is a
dict lookup or an fsync'd journal append — alignment work itself never
runs on the loop, it is queued for the runner thread.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["HttpJsonServer", "MAX_BODY_BYTES"]

#: Job specs are a handful of paths and options; anything bigger than
#: this is a malformed or hostile request and is refused outright.
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: ``(status, payload)`` or ``(status, payload, headers)``.
Handler = Callable[..., tuple]


class HttpJsonServer:
    """One-shot HTTP/1.1 JSON server on a background event loop.

    ``routes`` is a list of ``(method, pattern, handler)``; the first
    pattern whose regex fully matches the request path wins.  The
    server owns its own event loop thread so the daemon's runner and
    signal handling stay ordinary synchronous code.
    """

    def __init__(
        self,
        routes: List[Tuple[str, str, Handler]],
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.routes = [
            (method, re.compile(pattern), handler)
            for method, pattern, handler in routes
        ]
        self.log = log or (lambda message: None)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.port: Optional[int] = None

    # -- lifecycle ---------------------------------------------------
    def start(self, host: str, port: int) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        self._thread = threading.Thread(
            target=self._run, args=(host, port), name="serve-http",
            daemon=True,
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        assert self.port is not None
        return self.port

    def _run(self, host: str, port: int) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._serve_connection, host, port)
            )
            self.port = self._server.sockets[0].getsockname()[1]
        except OSError as error:
            self._startup_error = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            self._server.close()
            loop.run_until_complete(self._server.wait_closed())
            loop.close()

    def stop(self) -> None:
        """Stop accepting and join the loop thread."""
        loop, thread = self._loop, self._thread
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        self._loop = None
        self._thread = None

    # -- request handling --------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        try:
            status, payload, headers = await self._handle(reader)
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        except Exception as error:  # one request fails, not the server
            self.log(f"serve: handler error: {error!r}")
            status, payload, headers = 500, {"error": "internal error"}, {}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii"))
        writer.write(body)
        try:
            # close() flushes the buffered response before the socket
            # shuts; wait_closed() returns once it has.
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            # Client went away mid-response; its retry will re-ask.
            return

    async def _handle(self, reader) -> Tuple[int, Dict, Dict]:
        request_line = (await reader.readline()).decode(
            "latin-1", "replace"
        ).rstrip("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            return 400, {"error": "malformed request line"}, {}
        method, raw_path = parts[0].upper(), parts[1]
        path = raw_path.split("?", 1)[0]
        content_length = 0
        while True:
            line = (await reader.readline()).decode(
                "latin-1", "replace"
            ).rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "bad Content-Length"}, {}
        if content_length > MAX_BODY_BYTES:
            return 413, {"error": "request body too large"}, {}
        body: Dict = {}
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                return 400, {"error": "request body is not valid JSON"}, {}
        matched_path = False
        for route_method, pattern, handler in self.routes:
            match = pattern.fullmatch(path)
            if match is None:
                continue
            matched_path = True
            if route_method != method:
                continue
            result = handler(match, body)
            if len(result) == 2:
                status, payload = result
                return status, payload, {}
            status, payload, extra = result
            return status, payload, dict(extra)
        if matched_path:
            return 405, {"error": f"method {method} not allowed"}, {}
        return 404, {"error": f"no such route: {path}"}, {}
