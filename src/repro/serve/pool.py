"""Worker side of the multi-process serving pool + its wire protocol.

One pool worker is an ordinary OS process running today's
:class:`~repro.serve.service.CompileService` — the same coalescing,
cache-layered compile core the single-process server uses — connected to
the supervisor (:mod:`repro.serve.supervisor`) over an inherited UNIX
socketpair.  Workers are spawned with ``python -m repro.serve.pool --fd N``
(a fresh interpreter, not a fork: the parent runs an event loop and
threads, which do not survive ``fork()`` safely) and receive their
configuration as JSON in the ``REPRO_POOL_WORKER`` environment variable.

Frame protocol
==============

Both directions speak length-prefixed frames::

    4-byte big-endian header length
    header bytes            (UTF-8 JSON object)
    header["body_len"] raw body bytes   (optional, default 0)

The raw body tail exists so rendered responses — the encoded JSON bytes a
:class:`~repro.serve.service.ServedResponse` already carries — cross the
pipe verbatim and are written to the client socket verbatim, without a
decode/re-encode round trip per request.

Supervisor → worker operations (each carries a unique ``id``):

=============  =======================================================
op             meaning
=============  =======================================================
``ping``       heartbeat; the reply payload is the worker's health
               document (pid + ``healthz`` incl. its *own* process's
               engine breaker states — per-worker isolation for free)
``fingerprint``  ``{"sql"}`` → reply payload ``{"fingerprint"}``; the
               front end's key lookup for first-sight texts (learned
               fingerprint affinity — the front end never parses SQL)
``compile``    ``{"sql", "formats"}`` → response frame whose body is
               the encoded /compile answer
``render``     ``{"sql", "format"}`` → response frame, /render answer
``stats``      reply payload is the worker's full /stats document
``drain``      stop admitting, await in-flight work, reply when done
=============  =======================================================

Worker → supervisor: one ``{"op": "ready", "pid": ...}`` frame after
boot, then one ``{"op": "response", "id": ...}`` frame per operation —
``ok: true`` with a payload or body, or ``ok: false`` with an error
``kind`` (``bad_request`` / ``unavailable`` / ``internal``) the
supervisor maps back onto the HTTP error taxonomy.

Fault points (see docs/robustness.md):

* ``serve.worker.boot`` — fires before the service is built; an injected
  ``crash`` makes the process exit immediately, which is how the
  restart-storm tests manufacture a worker that can never come up.
* ``serve.worker.crash`` — fires per compile/render operation; an
  injected ``crash`` is escalated to ``os._exit(9)``, a *hard* process
  death with requests in flight — the failure the supervisor's sibling
  retry exists for.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import socket
import struct
import sys

from ..faults import (
    FaultPlan,
    InjectedCrash,
    fault_point,
    install_plan,
    install_plan_from_env,
)
from .service import (
    BadRequest,
    CompileService,
    ServiceConfig,
    ServiceUnavailable,
)

#: Environment variable carrying the worker's JSON configuration.
WORKER_ENV = "REPRO_POOL_WORKER"

#: Hard cap on one frame (header or body); a frame larger than this is a
#: protocol bug, not a big response.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


def encode_frame(header: dict, body: bytes = b"") -> bytes:
    """Encode one frame; ``body_len`` is stamped into the header."""
    if body:
        header = {**header, "body_len": len(body)}
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(head) > MAX_FRAME_BYTES or len(body) > MAX_FRAME_BYTES:
        raise ValueError("frame exceeds protocol bound")
    return _LEN.pack(len(head)) + head + body


async def read_frame(reader: asyncio.StreamReader) -> tuple[dict, bytes]:
    """Read one frame; raises ``IncompleteReadError`` on EOF."""
    (head_len,) = _LEN.unpack(await reader.readexactly(_LEN.size))
    if head_len > MAX_FRAME_BYTES:
        raise ValueError(f"frame header of {head_len} bytes exceeds bound")
    header = json.loads(await reader.readexactly(head_len))
    body_len = int(header.get("body_len", 0))
    if body_len > MAX_FRAME_BYTES:
        raise ValueError(f"frame body of {body_len} bytes exceeds bound")
    body = await reader.readexactly(body_len) if body_len else b""
    return header, body


def service_config_from_spec(spec: dict) -> ServiceConfig:
    """Rebuild a :class:`ServiceConfig` from its JSON form."""
    return ServiceConfig(**spec)


def service_config_to_spec(config: ServiceConfig) -> dict:
    return dataclasses.asdict(config)


def _worker_health(service: CompileService, slot: int) -> dict:
    return {"pid": os.getpid(), "slot": slot, **service.healthz()}


async def _send(
    writer: asyncio.StreamWriter,
    lock: asyncio.Lock,
    header: dict,
    body: bytes = b"",
) -> None:
    # One frame per write under the lock: response frames from concurrent
    # handler tasks must never interleave on the shared pipe.
    frame = encode_frame(header, body)
    async with lock:
        writer.write(frame)
        await writer.drain()


async def _handle(
    service: CompileService,
    writer: asyncio.StreamWriter,
    lock: asyncio.Lock,
    slot: int,
    header: dict,
    body: bytes,
) -> None:
    rid = header.get("id")
    op = header.get("op")
    try:
        if op == "ping":
            payload: dict = _worker_health(service, slot)
            await _send(
                writer, lock, {"op": "response", "id": rid, "ok": True, "payload": payload}
            )
            return
        if op == "stats":
            payload = service.stats_payload()
            payload["pid"] = os.getpid()
            await _send(
                writer, lock, {"op": "response", "id": rid, "ok": True, "payload": payload}
            )
            return
        if op == "fingerprint":
            response = await service.fingerprint(header["sql"])
            await _send(
                writer,
                lock,
                {"op": "response", "id": rid, "ok": True, "payload": response.payload},
            )
            return
        if op == "drain":
            service.begin_drain()
            drained = await service.drain(float(header.get("timeout", 30.0)))
            await _send(
                writer,
                lock,
                {"op": "response", "id": rid, "ok": True, "payload": {"drained": drained}},
            )
            return
        if op in ("compile", "render"):
            # The chaos stand-in for this whole *process* dying mid-request
            # (OOM kill, segfault, kill -9).  A hard exit, not an exception:
            # the supervisor must observe EOF with requests in flight.
            try:
                fault_point("serve.worker.crash")
            except InjectedCrash:
                os._exit(9)
            if op == "compile":
                response = await service.compile(
                    header["sql"], tuple(header.get("formats") or ())
                )
            else:
                response = await service.render(header["sql"], header.get("format", "text"))
            await _send(
                writer,
                lock,
                {"op": "response", "id": rid, "ok": True, "served": response.served},
                response.body,
            )
            return
        await _send(
            writer,
            lock,
            {
                "op": "response",
                "id": rid,
                "ok": False,
                "kind": "internal",
                "error": f"unknown op {op!r}",
            },
        )
    except BadRequest as error:
        await _send(
            writer,
            lock,
            {"op": "response", "id": rid, "ok": False, "kind": "bad_request", "error": str(error)},
        )
    except ServiceUnavailable as error:
        await _send(
            writer,
            lock,
            {
                "op": "response",
                "id": rid,
                "ok": False,
                "kind": "unavailable",
                "error": str(error),
                "retry_after": error.retry_after,
            },
        )
    except Exception as error:  # noqa: BLE001 — a worker must survive one bad request
        await _send(
            writer,
            lock,
            {
                "op": "response",
                "id": rid,
                "ok": False,
                "kind": "internal",
                "error": f"{type(error).__name__}: {error}",
            },
        )


async def _worker_main(fd: int, spec: dict) -> None:
    sock = socket.socket(fileno=fd)
    reader, writer = await asyncio.open_connection(sock=sock)
    lock = asyncio.Lock()
    slot = int(spec.get("slot", 0))
    service = CompileService(
        simplify=bool(spec.get("simplify", True)),
        disk_cache=spec.get("disk_cache"),
        config=service_config_from_spec(spec.get("service") or {}),
    )
    tasks: set[asyncio.Task] = set()
    try:
        await _send(writer, lock, {"op": "ready", "pid": os.getpid(), "slot": slot})
        while True:
            try:
                header, body = await read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                break  # supervisor closed the pipe: retire
            task = asyncio.get_running_loop().create_task(
                _handle(service, writer, lock, slot, header, body)
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        service.close()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.serve.pool")
    parser.add_argument("--fd", type=int, required=True, help="inherited socketpair fd")
    options = parser.parse_args(argv)
    spec = json.loads(os.environ.get(WORKER_ENV, "{}"))
    plan_spec = spec.get("fault_plan")
    if plan_spec:
        install_plan(FaultPlan.from_spec(plan_spec))
    else:
        # Inherited environment plan (how CI's chaos legs reach
        # subprocesses); an explicit spec plan takes precedence.
        install_plan_from_env()
    try:
        fault_point("serve.worker.boot")
    except InjectedCrash:
        # The restart-storm scenario: die before ever reporting ready,
        # quietly (no traceback noise in supervised test runs).
        print("pool worker: injected boot crash", file=sys.stderr)
        return 3
    asyncio.run(_worker_main(options.fd, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
