"""Application core of the compile server — transport-free and fully async.

:class:`CompileService` is the one service behind the HTTP layer
(:mod:`repro.serve.http`) in both serving modes.  It owns the request
side: admission with a per-request budget, the verbatim-text → canonical
key memo and its shared key lookups, format checks, the response LRU,
compile coalescing, one retry on a recoverable failure, drain,
``/healthz`` and ``/stats``.  What it fronts is a *compile backend*:

* :class:`LocalCompiler` (the default) — one
  :class:`~repro.pipeline.DiagramCompiler` in this process, with a
  fingerprint thread and a compile thread;
* :class:`~repro.serve.supervisor.WorkerSupervisor` — a supervised pool of
  worker processes, each a frame loop around its own
  :class:`LocalCompiler` (``repro serve --workers N``).

A backend answers ``key(text)`` → ``(fingerprint, roles)`` (raising
:class:`~repro.sql.errors.SQLError` for bad SQL), ``compile(text,
formats)`` → ``(body, served)`` with ``body`` the encoded ``/compile``
answer, ``release(text)`` (forget what ``key(text)`` left for a compile
that will not come), ``health()`` and ``stats_payload()`` (merged into
``/healthz`` and ``/stats``; ``health()["degraded"]`` picks the status)
and ``close()``.

A request descends two layers in front of the backend, probed in order.
A request whose text the memo knows probes the LRU in its own step,
before admission: a hit is answered with no task, timer or admission
slot.

1. **Response LRU** (:mod:`repro.lru`) — bounded, in-memory, keyed
   by ``(fingerprint, roles, formats)``.  A hit returns the encoded
   ``/compile`` body without touching the backend.  The body is the only
   form an answer is kept in; ``/render`` decodes it.
2. **In-flight table** — the coalescing layer.  The first request for a
   canonical key starts one compile task; every concurrent request for an
   equivalent query (verbatim duplicate, predicate reordering, the
   Fig. 24 trio…) awaits *that same task* instead of compiling again.

Behind them the backend's compiler keeps no stage results in memory
(``DiagramCompiler(memo=False)``): the answers live in the text memo and
the response LRU, which hold flat strings and bytes the cyclic collector
barely visits, while held parse trees, Logic Trees and diagrams would be
walked by every full collection.  A ``--disk-cache`` store still answers
each stage (memory miss, disk probe, compute with write-through).

Coalescing needs the canonical key *before* the expensive back half, so
every request first resolves its key: from the text memo, or through one
backend lookup that concurrent first sights of the same text share.  The
local backend runs lookups on a dedicated fingerprint thread and compiles
on a separate single compile thread, so a first sight never waits behind
a running compile to find its answer in the LRU.  A lookup leaves the
front half it computed (AST, both trees, fingerprint, roles) in the
compiler's bounded handoff, and the compile of that text pops it instead
of walking lex → fingerprint again; a compile that finds none (its
response was evicted, or it asks a new format subset of a known key)
computes it.  When the LRU, or another spelling's compile, answers the
request that started a lookup, the service calls ``release(text)``, so
the front half does not wait for a compile that will not come.  The two
threads meet only in that locked LRU, and a lost race recomputes the
same deterministic value.

Overload policy: a request the caches answer never waits, so it takes no
admission slot and is never shed for load.  Of the requests that wait (a
key lookup, a compile or a coalesced compile), at most ``max_pending``
are admitted at once, and each is bounded by ``request_timeout``: one
timer on the request's own task cancels it, and that cancellation alone
becomes the 503.  Both violations shed with :class:`ServiceUnavailable`
(HTTP 503) rather than queueing without bound; a draining service sheds
every request, cached or not.  A shed or timed-out request never cancels
the underlying compile — the in-flight task is shielded and still
populates the caches, so the retry the 503 invites is cheap.

Fault policy (see docs/robustness.md): the local compile thread is
*supervised* — a crashed or broken executor is replaced on the spot
(``LocalCompiler.executor_restarts``) — and every key lookup and compile
gets one cheap retry when it fails on a *recoverable* error (an injected
fault, an IO error, a broken thread, a dead pool worker;
``stats.compile_retries``) before the request joins the 503 shed path.
Semantic failures (bad SQL) stay 400 and never retry.  A failed in-flight
task is popped without populating the response LRU, so a poisoned
coalesced compile never serves stale errors: the next request recompiles.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import Counter
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from ..catalog.schema import Schema
from ..faults import InjectedCrash, fault_point
from ..lru import LRUCache
from ..metrics import Counters
from ..pipeline import RENDERERS, DiagramCompiler, DiskCache
from ..relational.backends import breaker_states, is_recoverable
from ..render.layout import LayoutConfig
from ..sql.errors import SQLError

#: Formats compiled when a /compile request names none.
DEFAULT_FORMATS: tuple[str, ...] = ("text",)


class BadRequest(Exception):
    """The request is malformed (HTTP 400): bad JSON, bad SQL, bad format."""


class ServiceUnavailable(Exception):
    """The request was shed (HTTP 503): overload, timeout, or draining."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class RecoverableError(Exception):
    """A backend call failed on an operational fault the retry covers."""


class WorkerCrashed(RecoverableError):
    """A pool worker died (EOF on its pipe) with this request in flight."""


def recoverable(error: BaseException) -> bool:
    """Whether a failed backend call gets the retry/503 path (not 400/500)."""
    if isinstance(error, (BrokenExecutor, RecoverableError)):
        return True
    return is_recoverable(error)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`CompileService` (see docs/serving.md)."""

    #: Response-LRU capacity in encoded /compile bodies (<= 0 disables it).
    lru_entries: int = 1024
    #: Admission bound: requests beyond this many concurrently admitted
    #: ones are shed with 503 instead of queueing without bound.
    max_pending: int = 64
    #: Per-request wall-clock budget in seconds; exceeding it sheds 503.
    request_timeout: float = 10.0


@dataclass(frozen=True)
class ServedResponse:
    """One endpoint answer: its UTF-8 JSON body and the layer that answered.

    For /compile the body is encoded once per compile and cached in the
    response LRU, so the hot warm path writes cached bytes instead of
    re-serializing (potentially large) rendered outputs per request.
    ``served`` says which layer answered — ``compile`` (``compile@wN`` when
    pool worker N compiled), ``coalesced`` or ``lru`` — and travels as the
    ``X-Repro-Served`` response header, keeping the cached body identical
    across layers.
    """

    body: bytes
    served: str

    @property
    def payload(self) -> dict:
        """The decoded body (decoded again on every access)."""
        return json.loads(self.body)

    @classmethod
    def encode(cls, payload: dict, served: str) -> "ServedResponse":
        return cls(json.dumps(payload).encode("utf-8"), served)


class LocalCompiler:
    """Compile backend in this process: one compiler, two worker threads."""

    def __init__(
        self,
        schema: Schema | None = None,
        simplify: bool = True,
        layout_config: LayoutConfig | None = None,
        disk_cache: DiskCache | str | Path | None = None,
    ) -> None:
        self.compiler = DiagramCompiler(
            schema=schema,
            simplify=simplify,
            layout_config=layout_config,
            disk_cache=disk_cache,
            memo=False,
        )
        self.executor_restarts = 0
        # Key lookups get their own thread: on the compile thread, a
        # re-spelled first sight would wait behind a running compile before
        # it could reach the response LRU or the coalescing layer
        # (serve_zipf p99 read 5 % higher that way; docs/performance.md).
        self._fp_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-fp"
        )
        # Compiles run on their own single thread, separate from the
        # fingerprint thread: compiles serialize among themselves (shared
        # caches, one CPU-bound interpreter), requests interleave on the
        # event loop.
        self._compile_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-compile"
        )

    async def key(self, text: str) -> tuple[str, tuple]:
        """``(fingerprint, roles)`` of ``text``, on the fingerprint thread."""
        return await asyncio.get_running_loop().run_in_executor(
            self._fp_executor, self.compiler.canonical_key, text
        )

    async def compile(self, text: str, formats: tuple[str, ...]) -> tuple[bytes, str]:
        """The encoded /compile body of ``text``, built on the compile thread."""
        artifact = await self._run_compile(text, formats)
        # Encode once, serve many: the LRU keeps only these bytes, so warm
        # hits never re-serialize rendered outputs.
        body = json.dumps(
            {
                "fingerprint": artifact.fingerprint,
                "formats": sorted(artifact.outputs),
                "outputs": dict(artifact.outputs),
            }
        ).encode("utf-8")
        return body, "compile"

    async def _run_compile(self, text: str, formats: tuple[str, ...]):
        """One supervised executor hop: restart the thread on crash."""
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._compile_executor, self._compile_sync, text, formats
            )
        except (BrokenExecutor, InjectedCrash):
            self._restart_compile_executor()
            raise
        except RuntimeError as error:
            # "cannot schedule new futures after (interpreter) shutdown":
            # the pool is unusable; replace it before re-raising.
            if "shutdown" in str(error):
                self._restart_compile_executor()
            raise

    def release(self, text: str) -> None:
        """Drop the front half ``key(text)`` left behind: no compile will pop it."""
        self.compiler.release(text)

    def _restart_compile_executor(self) -> None:
        """Supervision: replace a crashed compile thread with a fresh one."""
        self.executor_restarts += 1
        old = self._compile_executor
        self._compile_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-compile"
        )
        old.shutdown(wait=False, cancel_futures=True)

    def _compile_sync(self, text: str, formats: tuple[str, ...]):
        # Chaos stand-in for everything that can kill a compile mid-flight
        # (worker thread death, cache IO errors surfacing as exceptions).
        fault_point("serve.compile")
        return self.compiler.compile(text, formats=formats)

    def health(self) -> dict:
        """Degradation report: the disk cache and the engine breakers."""
        disk = self.compiler.disk_cache
        disk_degraded = bool(disk is not None and disk.degraded)
        breakers = breaker_states()
        return {
            "degraded": disk_degraded
            or any(state != "closed" for state in breakers.values()),
            "executor_restarts": self.executor_restarts,
            "disk_degraded": disk_degraded,
            "engine_breakers": breakers,
        }

    async def stats_payload(self) -> dict:
        """Executor restarts plus the pipeline, handoff and disk counters."""
        handoff = self.compiler.handoff
        payload = {
            "executor_restarts": self.executor_restarts,
            "pipeline": self.compiler.stats().as_dict(),
            "handoff": {"entries": len(handoff), **handoff.stats.snapshot()},
        }
        if self.compiler.disk_cache is not None:
            payload["disk"] = self.compiler.disk_cache.stats.snapshot()
        return payload

    def close(self) -> None:
        """Release the worker threads (idempotent)."""
        self._fp_executor.shutdown(wait=False)
        self._compile_executor.shutdown(wait=False)


class CompileService:
    """Coalescing, cache-layered façade over one compile backend."""

    def __init__(self, backend=None, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.backend = backend if backend is not None else LocalCompiler()
        # Surfaced verbatim on /stats, next to ``requests`` per endpoint
        # and the response LRU's own hits.
        self.stats = Counters(
            "compiles",
            "coalesced",
            "shed",
            "timeouts",
            "bad_requests",
            "internal_errors",
            "compile_retries",
        )
        self.requests: Counter[str] = Counter()
        # Sized like the response LRU: several spellings per cached
        # response is typical, unbounded distinct traffic must still not
        # grow it forever.
        self._text_keys = LRUCache(max(4 * self.config.lru_entries, 1024))
        self._key_lookups: dict[str, asyncio.Task] = {}
        self._lru = LRUCache(self.config.lru_entries)
        self._inflight: dict[tuple, asyncio.Task] = {}
        self._pending = 0
        self._draining = False
        self._started = time.monotonic()

    @property
    def compiler(self) -> DiagramCompiler:
        """The local backend's compiler (a pooled service has none here)."""
        return self.backend.compiler

    @property
    def lru(self) -> LRUCache:
        return self._lru

    @property
    def in_flight(self) -> int:
        return len(self._inflight)

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #

    async def fingerprint(self, sql: str) -> ServedResponse:
        """Canonical fingerprint only; the /fingerprint answer."""
        self.requests["fingerprint"] += 1
        text = self._accepted(sql, ())
        key = self._text_keys.get(text)
        if key is None:
            key, _started = await self._admitted(self._key_of, text)
        return ServedResponse.encode({"fingerprint": key[0]}, "fingerprint")

    async def compile(
        self, sql: str, formats: tuple[str, ...]
    ) -> ServedResponse:
        """Compile ``sql`` to ``formats``; the /compile answer."""
        self.requests["compile"] += 1
        text, key, body = self._cached(sql, formats)
        if body is not None:
            return ServedResponse(body, "lru")
        return await self._admitted(self._compile_coalesced, text, formats, key)

    async def render(self, sql: str, fmt: str) -> ServedResponse:
        """One rendered format; the /render answer."""
        self.requests["render"] += 1
        text, key, body = self._cached(sql, (fmt,))
        if body is None:
            response = await self._admitted(
                self._compile_coalesced, text, (fmt,), key
            )
        else:
            response = ServedResponse(body, "lru")
        payload = response.payload
        return ServedResponse.encode(
            {
                "fingerprint": payload["fingerprint"],
                "format": fmt,
                "output": payload["outputs"][fmt],
            },
            response.served,
        )

    def healthz(self) -> dict:
        """Liveness + degradation report: cheap enough for tight probes.

        ``status`` is ``ok``, ``degraded`` (still answering, but the backend
        reports a memory-only disk cache, a non-closed engine breaker or a
        pool slot that is not ready) or ``draining`` (503 — take this
        replica out of rotation).
        """
        self.requests["healthz"] += 1
        health = self.backend.health()
        degraded = health.pop("degraded")
        if self._draining:
            status = "draining"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "in_flight": len(self._inflight),
            "pending": self._pending,
            "compile_retries": self.stats.compile_retries,
            **health,
        }

    async def stats_payload(self) -> dict:
        """The /stats document: service and LRU counters, then the backend's."""
        self.requests["stats"] += 1
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "draining": self._draining,
            "in_flight": len(self._inflight),
            "pending": self._pending,
            "requests": dict(self.requests),
            **self.stats.snapshot(),
            "lru_hits": self._lru.stats.hits,
            "lru": {"entries": len(self._lru), **self._lru.stats.snapshot()},
            **await self.backend.stats_payload(),
        }

    # ------------------------------------------------------------------ #
    # admission, keys, coalescing
    # ------------------------------------------------------------------ #

    def _accepted(self, sql: str, formats: tuple[str, ...]) -> str:
        """The stripped SQL text, once the drain, format and SQL checks pass."""
        if self._draining:
            self.stats.shed += 1
            raise ServiceUnavailable("server is draining", retry_after=5.0)
        for fmt in formats:
            if fmt not in RENDERERS:
                self.stats.bad_requests += 1
                raise BadRequest(
                    f"unknown format {fmt!r}; known: {sorted(RENDERERS)}"
                )
        text = sql.strip() if isinstance(sql, str) else ""
        if not text:
            self.stats.bad_requests += 1
            raise BadRequest("request carries no SQL text")
        return text

    def _cached(
        self, sql: str, formats: tuple[str, ...]
    ) -> tuple[str, tuple | None, bytes | None]:
        """``(text, response key, cached body)``: what a request never waits for.

        The key is ``None`` when the text memo misses, and the body is
        ``None`` when either cache misses.  The slow path takes over from
        there, so no request probes the memo or the LRU twice.
        """
        text = self._accepted(sql, formats)
        key = self._text_keys.get(text)
        if key is None:
            return text, None, None
        key = (*key, tuple(sorted(set(formats))))
        return text, key, self._lru.get(key)

    async def _admitted(self, work, *args):
        """``await work(*args)`` under admission control and the budget.

        The budget is one timer that cancels the caller's own task; that
        cancellation, and only that one, becomes the 503.
        """
        if self._pending >= self.config.max_pending:
            self.stats.shed += 1
            raise ServiceUnavailable(
                f"overloaded: {self._pending} requests pending"
            )
        task = asyncio.current_task()
        expired = False

        def expire() -> None:
            nonlocal expired
            expired = True
            task.cancel()

        timer = asyncio.get_running_loop().call_later(
            self.config.request_timeout, expire
        )
        self._pending += 1
        try:
            return await work(*args)
        except asyncio.CancelledError:
            # Any other cancellation (shutdown cutting the connection)
            # passes through.  ``uncancel`` (3.11+) takes back the budget's
            # request, so the task keeps serving its connection, and counts
            # any other request that arrived beside it.
            if not expired or (hasattr(task, "uncancel") and task.uncancel()):
                raise
            self.stats.timeouts += 1
            raise ServiceUnavailable(
                f"request exceeded {self.config.request_timeout:.1f}s budget"
            ) from None
        finally:
            timer.cancel()
            self._pending -= 1

    def _shared(self, table: dict, key, work) -> asyncio.Task:
        """Start ``work`` as the one task concurrent requests for ``key`` await."""
        task = asyncio.get_running_loop().create_task(work)
        table[key] = task

        def _on_done(done: asyncio.Task) -> None:
            table.pop(key, None)
            # Retrieve the exception (if any) so a task whose every waiter
            # was shed never logs "exception was never retrieved".
            if not done.cancelled():
                done.exception()

        task.add_done_callback(_on_done)
        return task

    async def _key_of(self, text: str) -> tuple[tuple[str, tuple], bool]:
        """``(key, started)``: one backend key lookup shared by first sights.

        ``started`` says whether this request started the lookup.
        """
        task = self._key_lookups.get(text)
        started = task is None
        if started:
            task = self._shared(self._key_lookups, text, self._lookup_key(text))
        try:
            # Shielded: a shed waiter must not cancel the lookup that
            # concurrent duplicates (and the memo) are waiting on.
            return await asyncio.shield(task), started
        except SQLError as error:
            self.stats.bad_requests += 1
            raise BadRequest(f"invalid SQL: {error}") from error

    async def _lookup_key(self, text: str) -> tuple[str, tuple]:
        key = await self._retried(self.backend.key, text)
        self._text_keys.put(text, key)
        return key

    async def _compile_coalesced(
        self, text: str, formats: tuple[str, ...], key: tuple | None
    ) -> ServedResponse:
        """Coalesce onto, or start, the compile that answers ``key``.

        ``key`` is ``None`` when the text memo missed: the key lookup, and
        then the response LRU, come first.
        """
        if key is None:
            key, started = await self._key_of(text)
            key = (*key, tuple(sorted(set(formats))))
            body = self._lru.get(key)
            if started and (body is not None or key in self._inflight):
                # This request's lookup left the text's front half in the
                # backend's handoff, and no compile of this text will pop it.
                self.backend.release(text)
            if body is not None:
                return ServedResponse(body, "lru")
        task = self._inflight.get(key)
        if task is not None:
            self.stats.coalesced += 1
            body, _served = await asyncio.shield(task)
            return ServedResponse(body, "coalesced")
        self.stats.compiles += 1
        task = self._shared(
            self._inflight, key, self._compile(key, text, formats)
        )
        # Shielded: a shed/timed-out waiter must not cancel the shared
        # compile other requests are (or will be) coalesced onto.
        body, served = await asyncio.shield(task)
        return ServedResponse(body, served)

    async def _compile(
        self, key: tuple, text: str, formats: tuple[str, ...]
    ) -> tuple[bytes, str]:
        body, served = await self._retried(self.backend.compile, text, formats)
        self._lru.put(key, body)
        return body, served

    async def _retried(self, call, *args):
        """``await call(*args)``, retried once on a recoverable failure."""
        try:
            return await call(*args)
        except Exception as error:
            if not recoverable(error):
                raise
        # One cheap retry before the 503 path: transient faults (a torn
        # cache read, a crashed compile thread) usually clear immediately,
        # a restarted executor deserves one chance before this replica
        # starts shedding, and a dead pool worker's slot is no longer
        # available, so the retry lands on a sibling.
        self.stats.compile_retries += 1
        try:
            return await call(*args)
        except Exception as error:
            if recoverable(error):
                raise ServiceUnavailable(
                    "failed twice on a recoverable fault; retry later"
                ) from error
            raise

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def begin_drain(self) -> None:
        """Stop admitting work; in-flight requests keep running."""
        self._draining = True

    async def drain(self, timeout: float = 30.0) -> bool:
        """Await completion of admitted work; ``True`` if fully drained."""
        deadline = time.monotonic() + timeout
        while self._pending or self._inflight:
            tasks = list(self._inflight.values())
            if tasks:
                remaining = max(0.0, deadline - time.monotonic())
                await asyncio.wait(tasks, timeout=remaining or None)
            else:
                await asyncio.sleep(0.01)
            if time.monotonic() >= deadline:
                return not (self._pending or self._inflight)
        return True

    def close(self) -> None:
        """Release the backend: threads or worker processes (idempotent)."""
        self.backend.close()
