"""Stdlib asyncio HTTP/1.1 front end for :class:`CompileService`.

The same server runs in both serving modes: the service behind it fronts
either the in-process compiler or the worker pool.

A deliberately small HTTP server — request line, headers, Content-Length
body, keep-alive — built directly on :func:`asyncio.start_server`, because
the stdlib's ``http.server`` is thread-per-connection and cannot share the
event loop the coalescing layer lives on.  JSON in, JSON out:

=========  ======  ====================================================
path       method  body / response
=========  ======  ====================================================
/compile   POST    ``{"sql": "...", "formats": ["svg", ...]}`` →
                   fingerprint + rendered outputs (the answering cache
                   layer travels as the ``X-Repro-Served`` header)
/fingerprint POST  ``{"sql": "..."}`` → canonical fingerprint
/render    POST    ``{"sql": "...", "format": "svg"}`` → one output
/stats     GET     structured service/LRU/pipeline/disk counters
/healthz   GET     ``{"status": "ok" | "degraded" | "draining", ...}``
                   with breaker states, cache degradation and in-flight
                   depth (``draining`` answers 503; ``degraded`` still
                   200 — the replica keeps answering)
=========  ======  ====================================================

Errors map to conventional statuses: malformed JSON / SQL / formats → 400,
unknown path → 404, wrong method → 405, an oversized request line, header
line, header block or body → 413, shed or timed-out or draining → 503 with
a ``Retry-After`` header.  Framing errors close the connection, so that
bytes after them are never read as another request: a bad request line
or header block, and a body that is too long, has a malformed
``Content-Length`` or comes with a ``Transfer-Encoding`` header (400: only
Content-Length bodies are read).  A ``Content-Length`` is ASCII digits
only, repeats of it must agree, and a header line is a name, a colon and
a value, with no whitespace before the colon (RFC 9112 §§5, 6.3):
anything else is a 400.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import Any

from .service import (
    DEFAULT_FORMATS,
    BadRequest,
    CompileService,
    ServedResponse,
    ServiceUnavailable,
)

#: Hard caps on request framing — a serving tier never buffers unbounded
#: client input (64 KiB of headers, 1 MiB of body).
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 1024 * 1024

#: RFC 9112 §6.3: Content-Length is ``1*DIGIT``.  ``int()`` would also take
#: a sign, underscores and other scripts' digits, and ``str.isdigit`` ``²``.
_CONTENT_LENGTH = re.compile(r"[0-9]+")

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str, **headers: str) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line; a line past the reader's limit is a 413.

    ``StreamReader.readline`` reports a line longer than its limit
    (asyncio's default, 64 KiB) as ``ValueError``, not as
    ``LimitOverrunError``.
    """
    try:
        return await reader.readline()
    except ValueError:
        raise _HttpError(413, "request line or header line too long") from None


class CompileServer:
    """Binds a :class:`CompileService` to a TCP port with graceful drain."""

    def __init__(
        self,
        service: CompileService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()

    async def start(self) -> None:
        """Bind and start accepting connections (port 0 picks one)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain_timeout: float = 30.0) -> bool:
        """Graceful shutdown: stop admitting, drain in-flight, close.

        Returns whether the drain completed inside ``drain_timeout``.
        """
        self.service.begin_drain()
        drained = await self.service.drain(drain_timeout)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # ``Server.wait_closed`` does not wait for connection handlers
        # (keep-alive clients may hold theirs open forever anyway): give
        # them a moment to finish the response they are writing, then cut
        # the stragglers so the event loop shuts down without noise.
        handlers = [task for task in self._connections if not task.done()]
        if handlers:
            _done, pending = await asyncio.wait(handlers, timeout=1.0)
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        self.service.close()
        return drained

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Tracked until done: the add and the callback happen in one
        # synchronous step, and asyncio runs a task's done callbacks
        # however it ends, cancelled included.
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            # Shutdown cut this (usually idle keep-alive) connection; end
            # cleanly so loop teardown has no stray cancelled tasks to log.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _handle_one_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        try:
            request_line = await _read_line(reader)
            if not request_line:
                return False
            method, path, headers = await self._read_head(request_line, reader)
            # After a framing error the body's end is unknown, so nothing
            # that follows on the connection may be read as a request.
            body = await self._read_body(reader, headers)
        except _HttpError as error:
            await self._respond_error(writer, error, keep_alive=False)
            return False
        keep_alive = headers.get("connection", "keep-alive") != "close"
        try:
            result = await self._dispatch(method, path, body)
            if isinstance(result, ServedResponse):
                await self._respond_raw(
                    writer,
                    200,
                    result.body,
                    keep_alive,
                    {"X-Repro-Served": result.served},
                )
            else:
                status = 503 if result.get("status") == "draining" else 200
                await self._respond(writer, status, result, keep_alive)
        except _HttpError as error:
            await self._respond_error(writer, error, keep_alive)
        except BadRequest as error:
            await self._respond_error(
                writer, _HttpError(400, str(error)), keep_alive
            )
        except ServiceUnavailable as error:
            await self._respond_error(
                writer,
                _HttpError(
                    503,
                    str(error),
                    **{"Retry-After": f"{error.retry_after:g}"},
                ),
                keep_alive,
            )
        except Exception as error:  # noqa: BLE001 — the server must survive
            self.service.stats.internal_errors += 1
            await self._respond_error(
                writer,
                _HttpError(500, f"{type(error).__name__}: {error}"),
                keep_alive,
            )
        return keep_alive

    async def _read_head(
        self, request_line: bytes, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str]]:
        try:
            parts = request_line.decode("ascii").split()
            method, path = parts[0], parts[1]
        except (UnicodeDecodeError, IndexError):
            raise _HttpError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        total = len(request_line)
        while True:
            line = await _read_line(reader)
            total += len(line)
            if total > MAX_HEADER_BYTES:
                raise _HttpError(413, "headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or name != name.strip():
                # RFC 9112 §5: a header line is name ":" value, with no
                # whitespace before the colon (§5.1) and no fold (§5.2).
                raise _HttpError(400, "malformed header line")
            name, value = name.lower(), value.strip().lower()
            if name == "content-length" and headers.get(name, value) != value:
                raise _HttpError(400, "conflicting Content-Length headers")
            headers[name] = value
        return method, path, headers

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: dict[str, str]
    ) -> bytes:
        if "transfer-encoding" in headers:
            raise _HttpError(400, "only Content-Length bodies are supported")
        digits = headers.get("content-length", "0")
        if not _CONTENT_LENGTH.fullmatch(digits):
            raise _HttpError(400, "malformed Content-Length")
        # Without leading zeros, so that int() never meets its digit limit.
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        length = int(digits)
        return await reader.readexactly(length) if length else b""

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> "dict | ServedResponse":
        service = self.service
        path = path.split("?", 1)[0]
        if path == "/healthz":
            self._require(method, "GET")
            return service.healthz()
        if path == "/stats":
            self._require(method, "GET")
            return await service.stats_payload()
        if path == "/compile":
            self._require(method, "POST")
            document = self._json_body(body)
            formats = document.get("formats", DEFAULT_FORMATS)
            if not isinstance(formats, (list, tuple)) or not all(
                isinstance(fmt, str) for fmt in formats
            ):
                service.stats.bad_requests += 1
                raise _HttpError(400, '"formats" must be a list of strings')
            return await service.compile(
                self._sql_field(document), tuple(formats)
            )
        if path == "/fingerprint":
            self._require(method, "POST")
            return await service.fingerprint(self._sql_field(self._json_body(body)))
        if path == "/render":
            self._require(method, "POST")
            document = self._json_body(body)
            fmt = document.get("format", "text")
            if not isinstance(fmt, str):
                service.stats.bad_requests += 1
                raise _HttpError(400, '"format" must be a string')
            return await service.render(self._sql_field(document), fmt)
        raise _HttpError(404, f"no such endpoint: {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}", Allow=expected)

    def _json_body(self, body: bytes) -> dict:
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self.service.stats.bad_requests += 1
            raise _HttpError(400, f"body is not valid JSON: {error}") from None
        if not isinstance(document, dict):
            self.service.stats.bad_requests += 1
            raise _HttpError(400, "body must be a JSON object")
        return document

    def _sql_field(self, document: dict) -> str:
        sql = document.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            self.service.stats.bad_requests += 1
            raise _HttpError(400, '"sql" must be a non-empty string')
        return sql

    # ------------------------------------------------------------------ #
    # responses
    # ------------------------------------------------------------------ #

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        keep_alive: bool,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        await self._respond_raw(
            writer,
            status,
            json.dumps(payload).encode("utf-8"),
            keep_alive,
            extra_headers,
        )

    async def _respond_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        keep_alive: bool,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        headers = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        writer.write("\r\n".join(headers).encode("ascii") + b"\r\n\r\n" + body)
        await writer.drain()

    async def _respond_error(
        self, writer: asyncio.StreamWriter, error: _HttpError, keep_alive: bool
    ) -> None:
        await self._respond(
            writer,
            error.status,
            {"error": str(error), "status": error.status},
            keep_alive,
            extra_headers=error.headers,
        )
