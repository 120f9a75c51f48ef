"""Worker side of the multi-process serving pool + its wire protocol.

One pool worker is an ordinary OS process running a frame loop around a
:class:`~repro.serve.service.LocalCompiler` — the same compile backend the
single-process server uses — connected to the supervisor
(:mod:`repro.serve.supervisor`) over an inherited UNIX socketpair.  A
worker holds no request-side state: admission, the text memo, the
response LRU, coalescing and the retry all live in the one
:class:`~repro.serve.service.CompileService` in front.  Workers are
spawned as fresh interpreters (``python -c`` calling :func:`main` with
``--fd N``), not forks: the parent runs an event loop and threads, which
do not survive ``fork()`` safely.  They receive their configuration as
JSON in the ``REPRO_POOL_WORKER`` environment variable.

Frame protocol
==============

Both directions speak length-prefixed frames::

    4-byte big-endian header length
    header bytes            (UTF-8 JSON object)
    header["body_len"] raw body bytes   (optional, default 0)

The raw body tail exists so a compiled response — the encoded JSON bytes
the front end caches and serves — crosses the pipe verbatim and is written
to the client socket verbatim.

Supervisor → worker operations (each carries a unique ``id``):

=============  =======================================================
op             meaning
=============  =======================================================
``ping``       heartbeat; the reply payload is the worker's health
               (pid, slot, executor restarts, disk degradation and its
               *own* process's engine breaker states)
``key``        ``{"sql"}`` → reply payload ``{"fingerprint", "roles"}``;
               the front end's key lookup for texts it has not seen
``compile``    ``{"sql", "formats"}`` → response frame whose body is
               the encoded /compile answer; the supervisor sends a
               text's ``key`` and ``compile`` ops to one worker, so the
               compile pops the front half that the key op left in
               this worker's handoff
``stats``      reply payload is the worker's pipeline and disk counters
=============  =======================================================

Worker → supervisor: one ``{"op": "ready", "pid": ...}`` frame after
boot, then one ``{"op": "response", "id": ...}`` frame per operation —
``ok: true`` with a payload or body, or ``ok: false`` with an error
``kind``: ``bad_request`` (an :class:`~repro.sql.errors.SQLError`),
``recoverable`` (the service's retry predicate holds) or ``internal``.

A worker exits 0 when its pipe reaches EOF, after finishing the
operations it already read.

Fault points (see docs/robustness.md):

* ``serve.worker.boot`` — fires before the compiler is built; an injected
  ``crash`` makes the process exit immediately, which is how the
  restart-storm tests manufacture a worker that can never come up.
* ``serve.worker.crash`` — fires per compile operation; an injected
  ``crash`` is escalated to ``os._exit(9)``, a *hard* process death with
  requests in flight — the failure the service's retry on a sibling
  exists for.
"""

from __future__ import annotations

import argparse
import asyncio
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
from ..sql.errors import SQLError
from .service import LocalCompiler, recoverable

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


async def _answer(compiler: LocalCompiler, slot: int, header: dict) -> tuple[dict, bytes]:
    """The reply fields and body of one operation (raises on failure)."""
    op = header.get("op")
    if op == "ping":
        return {"payload": {"pid": os.getpid(), "slot": slot, **compiler.health()}}, b""
    if op == "stats":
        return {"payload": {"pid": os.getpid(), **await compiler.stats_payload()}}, b""
    if op == "key":
        fingerprint, roles = await compiler.key(header["sql"])
        return {"payload": {"fingerprint": fingerprint, "roles": roles}}, b""
    if op == "compile":
        # The chaos stand-in for this whole *process* dying mid-request
        # (OOM kill, segfault, kill -9).  A hard exit, not an exception:
        # the supervisor must observe EOF with requests in flight.
        try:
            fault_point("serve.worker.crash")
        except InjectedCrash:
            os._exit(9)
        body, _served = await compiler.compile(
            header["sql"], tuple(header.get("formats") or ())
        )
        return {}, body
    raise RuntimeError(f"unknown op {op!r}")


async def _handle(
    compiler: LocalCompiler,
    writer: asyncio.StreamWriter,
    lock: asyncio.Lock,
    slot: int,
    header: dict,
) -> None:
    reply = {"op": "response", "id": header.get("id")}
    try:
        fields, body = await _answer(compiler, slot, header)
        reply.update(ok=True, **fields)
    except Exception as error:  # noqa: BLE001 — a worker must survive one bad request
        body = b""
        if isinstance(error, SQLError):
            reply.update(ok=False, kind="bad_request", error=str(error))
        else:
            kind = "recoverable" if recoverable(error) else "internal"
            reply.update(ok=False, kind=kind, error=f"{type(error).__name__}: {error}")
    await _send(writer, lock, reply, body)


async def _worker_main(fd: int, spec: dict) -> None:
    sock = socket.socket(fileno=fd)
    reader, writer = await asyncio.open_connection(sock=sock)
    lock = asyncio.Lock()
    slot = int(spec.get("slot", 0))
    compiler = LocalCompiler(
        simplify=bool(spec.get("simplify", True)),
        disk_cache=spec.get("disk_cache"),
    )
    tasks: set[asyncio.Task] = set()
    try:
        await _send(writer, lock, {"op": "ready", "pid": os.getpid(), "slot": slot})
        while True:
            try:
                header, _body = await read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                break  # supervisor closed the pipe: retire
            task = asyncio.get_running_loop().create_task(
                _handle(compiler, writer, lock, slot, header)
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        compiler.close()
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
