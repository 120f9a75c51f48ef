"""Stdlib asyncio HTTP/1.1 front end for :class:`CompileService`.

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
unknown path → 404, wrong method → 405, oversized body → 413, shed or
timed-out or draining → 503 with a ``Retry-After`` header.
"""

from __future__ import annotations

import asyncio
import inspect
import json
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


class CompileServer:
    """Binds a serving façade to a TCP port with graceful drain.

    ``service`` is duck-typed: the single-process
    :class:`~repro.serve.service.CompileService` or the multi-process
    :class:`~repro.serve.supervisor.PoolService` — whose ``stats_payload``
    is a coroutine (it polls worker processes), which is why ``_dispatch``
    awaits awaitable results.
    """

    def __init__(
        self,
        service: CompileService,
        host: str = "127.0.0.1",
        port: int = 0,
        sweep_interval: float = 30.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.sweep_interval = sweep_interval
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._sweeper: asyncio.Task | None = None

    async def start(self) -> None:
        """Bind and start accepting connections (port 0 picks one)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._sweeper = asyncio.get_running_loop().create_task(
            self._sweep_connections()
        )

    async def _sweep_connections(self) -> None:
        """Periodically prune finished handler tasks from the tracked set.

        Each task discards itself via a done callback, but a long-lived
        server must not depend on that alone: a callback that lost the
        race with ``add`` (or was suppressed by an exotic cancellation
        path) would pin the task — and its frames, locals and buffers —
        until close.  The sweep makes the tracked set self-healing under
        keep-alive churn.
        """
        while True:
            await asyncio.sleep(self.sweep_interval)
            self._connections.difference_update(
                [task for task in self._connections if task.done()]
            )

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
        if self._sweeper is not None:
            self._sweeper.cancel()
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
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.LimitOverrunError,
        ):
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
        request_line = await reader.readline()
        if not request_line:
            return False
        try:
            method, path, headers = await self._read_head(request_line, reader)
        except _HttpError as error:
            await self._respond_error(writer, error, keep_alive=False)
            return False
        keep_alive = headers.get("connection", "keep-alive") != "close"
        try:
            body = await self._read_body(reader, headers)
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
            line = await reader.readline()
            total += len(line)
            if total > MAX_HEADER_BYTES:
                raise _HttpError(413, "headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        return method, path, headers

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: dict[str, str]
    ) -> bytes:
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
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
            return await self._maybe_await(service.healthz())
        if path == "/stats":
            self._require(method, "GET")
            return await self._maybe_await(service.stats_payload())
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
    async def _maybe_await(result):
        """Await a coroutine result (PoolService endpoints) or pass through."""
        if inspect.isawaitable(result):
            return await result
        return result

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
