"""Supervised multi-process compile backend: the worker pool.

A single Python process cannot serve concurrent compile-bound traffic past
one core — the GIL serializes the compile thread.  :class:`WorkerSupervisor`
is the compile backend of :class:`~repro.serve.service.CompileService` that
moves compiles into N supervised worker *processes*.  Each worker is a
frame loop around its own :class:`~repro.serve.service.LocalCompiler`
(:mod:`repro.serve.pool`), connected over an inherited UNIX socketpair
with the length-prefixed frame protocol.  Everything on the request side —
admission, the text memo, the response LRU, coalescing, the one retry,
drain — stays in the one ``CompileService`` in front.

Dispatch — one slot per text
============================

The front end never parses SQL: the canonical-key front half (lex → … →
fingerprint) is itself half the cost of a full compile, so running it
per-request on the front end would cap pool speed-up near 1×.  Instead the
service asks the *pool* for the key of a text it has not seen, and the
answer lands in the service's text memo.  Both operations on a text — its
``key`` op and its ``compile`` op — go to the slot ``crc32(text) % N``,
walking forward to the next ready slot when that one is down or
draining.  Workers keep no stage results in memory; the one per-worker
compile state is the handoff, where a worker's ``key`` op leaves the
front half that its ``compile`` op of the same text then pops.  The
compiled body crosses the pipe and is cached and served as read, never
decoded here.

Supervision — a worker dying is a non-event
===========================================

* **Liveness**: a monitor task pings every worker each
  :data:`HEARTBEAT_INTERVAL`; a worker whose last pong is older than
  :data:`HEARTBEAT_TIMEOUT`, or whose oldest in-flight dispatch exceeds
  :data:`REQUEST_DEADLINE` (a wedged compile thread answers pings
  happily), is killed and replaced.
* **Crash recovery**: worker EOF fails its in-flight dispatch futures with
  :class:`~repro.serve.service.WorkerCrashed` (``stats.failovers``), a
  recoverable error: the service retries each such request once, and the
  dead slot is no longer available, so the retry lands on a sibling.  The
  dead slot respawns after an exponential backoff
  (``backoff_base · 2^(consecutive-1)``, capped at ``backoff_cap``).
* **Restart-storm budget**: more than :data:`RESTART_BUDGET` *consecutive*
  fast deaths (a worker that never survived ``min_uptime``) marks the
  slot **broken** — no more spawns, ``/healthz`` flips to ``degraded``
  (still 200: the surviving slots keep answering) — instead of
  spin-looping fork bombs.  Death classification uses an injectable
  ``clock`` (like the circuit breakers in ``relational/backends.py``), so
  tests control it deterministically.
* **Per-worker breakers**: the engine circuit breakers are
  process-global state — which in a pool means naturally *per-worker*.
  Each heartbeat pong carries the worker's own health (breaker states,
  disk degradation); ``/healthz`` aggregates the worst state per engine
  across workers plus the per-worker detail.

Zero-downtime operations
========================

* **SIGHUP hot reload** (:meth:`WorkerSupervisor.reload`): one slot at a
  time — mark the old worker draining (ready count drops to N−1, never
  lower), spawn and await its replacement, swap, then close the old
  worker's pipe once nothing is pending on it.  A failed replacement
  spawn restores the old worker to ready; ``stats.reload_min_ready``
  records the observed floor.
* **SIGTERM drain**: the service stops admitting and waits for every
  in-flight compile; then :meth:`WorkerSupervisor.close` shuts each pipe
  down, and every worker exits 0 on the EOF.

The only cross-worker state is the shared multi-process-safe disk cache
(``pipeline/diskcache.py``) — a replacement worker warms from it, and a
text re-routed after a crash finds its stages precompiled.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import socket
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass
from typing import Callable

from ..faults import current_plan, fault_point, InjectedFault
from ..metrics import Counters
from ..sql.errors import SQLError
from .pool import WORKER_ENV, encode_frame, read_frame
from .service import RecoverableError, ServiceUnavailable, WorkerCrashed

#: Ranking for aggregating per-worker breaker states into one per engine.
_BREAKER_SEVERITY = {"closed": 0, "half_open": 1, "open": 2}


class SpawnFailed(Exception):
    """A worker process exited or timed out before reporting ready."""


#: Seconds between heartbeat pings.
HEARTBEAT_INTERVAL = 1.0
#: A worker whose last pong is older than this many seconds is killed.
HEARTBEAT_TIMEOUT = 5.0
#: Seconds a spawned worker has to report ready.
BOOT_TIMEOUT = 20.0
#: A worker whose oldest in-flight dispatch is older than this many
#: seconds is killed (wedged compile thread — pings alone cannot see it).
REQUEST_DEADLINE = 30.0
#: More than this many *consecutive* fast deaths marks the slot broken.
RESTART_BUDGET = 5


@dataclass(frozen=True)
class PoolConfig:
    """Tuning knobs of one :class:`WorkerSupervisor` (see docs/serving.md)."""

    #: Number of worker processes.
    workers: int = 2
    #: Forwarded to each worker's ``DiagramCompiler``.
    simplify: bool = True
    #: Shared persistent disk cache directory (the only cross-worker state).
    disk_cache: str | None = None
    #: Fault-plan spec (dict) forwarded to every worker — chaos runs.
    worker_fault_plan: dict | None = None
    #: Restart backoff: ``backoff_base * 2**(consecutive_fast_deaths-1)``…
    backoff_base: float = 0.1
    #: …capped here.
    backoff_cap: float = 5.0
    #: A worker that survived at least this long resets the fast-death run.
    min_uptime: float = 1.0


class _Pending:
    """One in-flight dispatch on a worker pipe.

    ``future`` becomes ``None`` when the waiting request was cancelled
    (shed/timed out at the front end): the entry stays as a *tombstone* so
    the request-deadline monitor still supervises the worker actually
    doing the work, and the eventual response is discarded.
    """

    __slots__ = ("future", "at")

    def __init__(self, future: asyncio.Future | None, at: float) -> None:
        self.future = future
        self.at = at


class WorkerHandle:
    """One live worker process and its pipe."""

    def __init__(self, slot: int, proc: subprocess.Popen, reader, writer, pid: int) -> None:
        self.slot = slot
        self.proc = proc
        self.reader: asyncio.StreamReader = reader
        self.writer: asyncio.StreamWriter = writer
        self.pid = pid
        self.pending: dict[int, _Pending] = {}
        self.ready = False
        self.draining = False
        self.retired = False  # expected exit (reload/close), not a crash
        self.closed = False
        self.ready_at = 0.0
        self.last_pong = 0.0
        self.health: dict = {}
        self.reader_task: asyncio.Task | None = None

    @property
    def available(self) -> bool:
        return self.ready and not self.draining and not self.closed


class _Slot:
    """One pool position: at most one live worker plus restart bookkeeping."""

    __slots__ = ("index", "worker", "broken", "fast_deaths", "spawns", "restart_task")

    def __init__(self, index: int) -> None:
        self.index = index
        self.worker: WorkerHandle | None = None
        self.broken = False
        self.fast_deaths = 0  # consecutive deaths under min_uptime
        self.spawns = 0
        self.restart_task: asyncio.Task | None = None


class WorkerSupervisor:
    """Spawns, dispatches to, and supervises the worker processes."""

    def __init__(
        self,
        config: PoolConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or PoolConfig()
        # Supervisor-side counters; each worker's pipeline and disk
        # counters are listed under ``workers_stats`` by stats_payload.
        # ``failovers`` counts requests in flight on a worker that died
        # (the service retries each).  ``reload_min_ready`` is a low-water
        # mark, not a count: the fewest ready workers seen during the last
        # reload (-1: never reloaded).
        self.stats = Counters(
            "dispatched",
            "worker_crashes",
            "worker_restarts",
            "failovers",
            "heartbeat_timeouts",
            "deadline_kills",
            "spawn_failures",
            "dispatch_faults",
            "reloads",
            reload_min_ready=-1,
        )
        self.clock = clock
        self._slots = [_Slot(i) for i in range(self.config.workers)]
        self._ids = itertools.count(1)
        self._closing = False
        self._monitor_task: asyncio.Task | None = None
        self._tasks: set[asyncio.Task] = set()
        # Replaced-but-not-yet-retired workers (reload) and corpse reaps
        # live outside ``_tasks``: close() must finish them, not cancel
        # them, or their processes and pipes outlive the supervisor.
        self._retiring: set[WorkerHandle] = set()
        self._reaps: set[asyncio.Future] = set()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> int:
        """Spawn every slot's first worker; returns the ready count.

        A slot whose first spawn fails enters the normal backoff/restart
        machinery in the background (it may come up late or end broken);
        ``start`` itself never raises on worker failure.
        """
        await asyncio.gather(*(self._bring_up(slot) for slot in self._slots))
        self._monitor_task = asyncio.create_task(self._monitor())
        return self.ready_count()

    def ready_count(self) -> int:
        return sum(
            1
            for slot in self._slots
            if slot.worker is not None and slot.worker.available
        )

    def close(self) -> None:
        """Stop supervision, send every worker EOF and reap it (idempotent)."""
        self._closing = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        for task in list(self._tasks):
            task.cancel()
        # Workers replaced by a reload and not yet retired: their _retire
        # task is cancelled above, so finish the job here.
        workers = list(self._retiring)
        self._retiring.clear()
        for slot in self._slots:
            if slot.restart_task is not None:
                slot.restart_task.cancel()
            if slot.worker is not None:
                workers.append(slot.worker)
                slot.worker = None
        # Every pipe first, so all workers see EOF and exit together.
        for worker in workers:
            worker.retired = True
            self._close_pipe(worker)
        for worker in workers:
            self._terminate(worker.proc)

    @staticmethod
    def _close_pipe(worker: WorkerHandle) -> None:
        """Send the worker EOF now and close our end of its pipe.

        ``writer.close()`` alone closes the socket only on the event loop's
        next turn, which a blocking ``_terminate`` right after it would
        never let come: the worker would sit out the wait and be SIGTERMed.
        """
        sock = worker.writer.get_extra_info("socket")
        try:
            if sock is not None:
                sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed, or the peer is gone
        try:
            worker.writer.close()
        except RuntimeError:
            pass  # event loop already gone

    @staticmethod
    def _reap_now(proc: subprocess.Popen) -> None:
        """Kill outright and reap — for teardown paths that cannot wait."""
        try:
            proc.kill()
        except OSError:
            pass
        proc.wait(timeout=5.0)

    @staticmethod
    def _terminate(proc: subprocess.Popen) -> None:
        """Closed pipe → worker retires on EOF; escalate if it lingers."""
        try:
            proc.wait(timeout=2.0)
            return
        except subprocess.TimeoutExpired:
            pass
        proc.terminate()
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5.0)

    # ------------------------------------------------------------------ #
    # spawning and supervision
    # ------------------------------------------------------------------ #

    def _worker_spec(self, slot_index: int) -> dict:
        return {
            "slot": slot_index,
            "simplify": self.config.simplify,
            "disk_cache": self.config.disk_cache,
            "fault_plan": self.config.worker_fault_plan,
        }

    async def _spawn_worker(self, slot: _Slot) -> WorkerHandle:
        """Spawn one worker and await its ready frame (or raise SpawnFailed)."""
        parent_sock, child_sock = socket.socketpair()
        env = dict(os.environ)
        env[WORKER_ENV] = json.dumps(self._worker_spec(slot.index))
        # Make ``-m repro.serve.pool`` importable regardless of the
        # child's cwd: point PYTHONPATH at the directory holding the
        # package we ourselves were imported from.
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
        # A fresh interpreter via ``-c`` rather than ``-m``: the package
        # __init__ already imports ``repro.serve.pool``, and runpy warns
        # (loudly, under -W error) when re-executing an imported module.
        entry = "import sys; from repro.serve.pool import main; sys.exit(main(sys.argv[1:]))"
        try:
            proc = subprocess.Popen(
                [sys.executable, "-c", entry, "--fd", str(child_sock.fileno())],
                pass_fds=(child_sock.fileno(),),
                env=env,
            )
        except OSError as error:
            parent_sock.close()
            child_sock.close()
            raise SpawnFailed(f"worker spawn failed: {error}") from error
        child_sock.close()
        try:
            reader, writer = await asyncio.open_connection(sock=parent_sock)
        except OSError as error:
            parent_sock.close()
            self._terminate(proc)
            raise SpawnFailed(f"worker pipe failed: {error}") from error
        except asyncio.CancelledError:
            # close() cancelled a restart mid-spawn: reap, don't leak.
            parent_sock.close()
            self._reap_now(proc)
            raise
        try:
            header, _body = await asyncio.wait_for(
                read_frame(reader), BOOT_TIMEOUT
            )
            if header.get("op") != "ready":
                raise SpawnFailed(f"unexpected first frame {header.get('op')!r}")
        except (asyncio.IncompleteReadError, ConnectionError) as error:
            writer.close()
            self._terminate(proc)
            raise SpawnFailed("worker exited before ready") from error
        except asyncio.TimeoutError as error:
            writer.close()
            self._terminate(proc)
            raise SpawnFailed(
                f"worker not ready within {BOOT_TIMEOUT:.1f}s"
            ) from error
        except asyncio.CancelledError:
            writer.close()
            self._reap_now(proc)
            raise
        worker = WorkerHandle(slot.index, proc, reader, writer, int(header.get("pid", proc.pid)))
        worker.ready = True
        worker.ready_at = self.clock()
        worker.last_pong = worker.ready_at
        slot.spawns += 1
        worker.reader_task = asyncio.create_task(self._read_worker(slot, worker))
        return worker

    async def _bring_up(self, slot: _Slot) -> bool:
        """Spawn into ``slot``, applying the fast-death budget on failure."""
        while not self._closing and not slot.broken:
            try:
                slot.worker = await self._spawn_worker(slot)
                return True
            except SpawnFailed:
                self.stats.spawn_failures += 1
                if not self._record_fast_death(slot):
                    return False
                await asyncio.sleep(self.backoff_delay(slot.fast_deaths))
        return False

    def backoff_delay(self, consecutive: int) -> float:
        """Exponential restart backoff: ``base * 2^(n-1)``, capped."""
        exponent = max(0, consecutive - 1)
        return min(self.config.backoff_base * (2**exponent), self.config.backoff_cap)

    def _record_fast_death(self, slot: _Slot) -> bool:
        """Count one fast death; ``False`` once the budget is tripped."""
        slot.fast_deaths += 1
        if slot.fast_deaths > RESTART_BUDGET:
            slot.broken = True
            return False
        return True

    async def _read_worker(self, slot: _Slot, worker: WorkerHandle) -> None:
        try:
            while True:
                header, body = await read_frame(worker.reader)
                if header.get("op") == "response":
                    entry = worker.pending.pop(header.get("id"), None)
                    if entry is not None and entry.future is not None:
                        if not entry.future.done():
                            entry.future.set_result((header, body))
        except (asyncio.IncompleteReadError, ConnectionError, ValueError, OSError):
            pass
        except asyncio.CancelledError:
            return  # teardown: exit accounting is handled by close()
        self._on_worker_exit(slot, worker)

    def _on_worker_exit(self, slot: _Slot, worker: WorkerHandle) -> None:
        worker.closed = True
        worker.ready = False
        for entry in worker.pending.values():
            if entry.future is not None and not entry.future.done():
                entry.future.set_exception(
                    WorkerCrashed(f"worker {worker.pid} (slot {slot.index}) died")
                )
        worker.pending.clear()
        self._close_pipe(worker)
        loop = asyncio.get_running_loop()
        # Reap the corpse off-loop: wait() on a process that just EOF'd is
        # near-instant, but never worth stalling dispatch for.  Reaps go in
        # ``_reaps`` (never cancelled) so close() can't orphan a zombie.
        reap = loop.run_in_executor(None, self._terminate, worker.proc)
        self._reaps.add(reap)
        reap.add_done_callback(self._reaps.discard)
        if slot.worker is worker:
            slot.worker = None
        if worker.retired or self._closing or slot.broken:
            return
        self.stats.worker_crashes += 1
        uptime = self.clock() - worker.ready_at
        if uptime >= self.config.min_uptime:
            slot.fast_deaths = 0
        if not self._record_fast_death(slot):
            return
        slot.restart_task = loop.create_task(self._restart_slot(slot))

    async def _restart_slot(self, slot: _Slot) -> None:
        await asyncio.sleep(self.backoff_delay(slot.fast_deaths))
        if self._closing or slot.broken:
            return
        if await self._bring_up(slot):
            self.stats.worker_restarts += 1

    def _kill_worker(self, worker: WorkerHandle) -> None:
        """Hard-kill a live worker (liveness violation or test-injected)."""
        worker.ready = False
        try:
            worker.proc.kill()
        except OSError:
            pass
        # EOF on the pipe drives the normal exit path in _read_worker.

    def kill_slot(self, index: int) -> int | None:
        """Test/chaos hook: SIGKILL the worker in ``index``; returns its pid."""
        worker = self._slots[index].worker
        if worker is None or worker.closed:
            return None
        pid = worker.pid
        self._kill_worker(worker)
        return pid

    async def _monitor(self) -> None:
        while not self._closing:
            await asyncio.sleep(HEARTBEAT_INTERVAL)
            now = self.clock()
            for slot in self._slots:
                worker = slot.worker
                if worker is None or not worker.ready or worker.closed:
                    continue
                oldest = min((entry.at for entry in worker.pending.values()), default=None)
                if oldest is not None and now - oldest > REQUEST_DEADLINE:
                    self.stats.deadline_kills += 1
                    self._kill_worker(worker)
                    continue
                if now - worker.last_pong > HEARTBEAT_TIMEOUT:
                    self.stats.heartbeat_timeouts += 1
                    self._kill_worker(worker)
                    continue
                self._spawn_task(self._ping(worker))

    def _spawn_task(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _ping(self, worker: WorkerHandle) -> None:
        try:
            header, _body = await asyncio.wait_for(
                self._dispatch_to(worker, "ping", {}),
                HEARTBEAT_TIMEOUT,
            )
        except (RecoverableError, RuntimeError, asyncio.TimeoutError):
            return  # staleness (or EOF) is handled by the monitor/reader
        except asyncio.CancelledError:
            return
        worker.last_pong = self.clock()
        worker.health = header.get("payload") or {}

    # ------------------------------------------------------------------ #
    # the compile backend: key lookups and compiles
    # ------------------------------------------------------------------ #

    async def key(self, text: str) -> tuple[str, tuple]:
        """``(fingerprint, roles)`` of ``text`` from the worker that owns it."""
        header, _body, _slot = await self.dispatch("key", {"sql": text})
        payload = header["payload"]
        roles = tuple(tuple(role) for role in payload["roles"])
        return payload["fingerprint"], roles

    async def compile(self, text: str, formats: tuple[str, ...]) -> tuple[bytes, str]:
        """The encoded /compile body of ``text``, as its worker sent it."""
        _header, body, slot = await self.dispatch(
            "compile", {"sql": text, "formats": list(formats)}
        )
        return body, f"compile@w{slot}"

    def release(self, text: str) -> None:
        """Nothing to send: ``text``'s front half ages out of its worker's handoff.

        It goes after that worker's next 64 key lookups; a release op would
        carry the text over the pipe a second time.
        """

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def _pick_slot(self, text: str) -> _Slot | None:
        """The slot that owns ``text``, or the next ready one after it.

        ``crc32`` rather than ``hash``: the pick must not depend on the
        process's string-hash seed.  ``surrogatepass`` lets a text that
        JSON decoded to a lone surrogate reach its worker's 400.
        """
        count = len(self._slots)
        start = zlib.crc32(text.encode("utf-8", "surrogatepass")) % count
        for offset in range(count):
            slot = self._slots[(start + offset) % count]
            worker = slot.worker
            if worker is not None and worker.available:
                return slot
        return None

    async def dispatch(self, op: str, fields: dict) -> tuple[dict, bytes, int]:
        """Send one operation to the pool; returns (header, body, slot).

        The operation goes to the slot that owns its text, ``fields["sql"]``
        (:meth:`_pick_slot`).  A request whose worker dies mid-flight raises
        :class:`WorkerCrashed` (``stats.failovers``), which the service
        retries once; an empty pool sheds with 503.
        """
        if current_plan() is not None:
            # Chaos hook on the dispatch path.  ``latency`` faults sleep in
            # a thread so an injected delay never stalls the event loop;
            # other kinds surface as a shed (the dispatch never happened).
            try:
                await asyncio.to_thread(fault_point, "serve.dispatch.latency")
            except InjectedFault as error:
                self.stats.dispatch_faults += 1
                raise ServiceUnavailable(f"injected dispatch fault: {error}") from error
        slot = self._pick_slot(fields["sql"])
        if slot is None:
            raise ServiceUnavailable("no ready workers", retry_after=2.0)
        self.stats.dispatched += 1
        try:
            header, body = await self._dispatch_to(slot.worker, op, fields)
        except WorkerCrashed:
            self.stats.failovers += 1
            raise
        return header, body, slot.index

    async def _dispatch_to(
        self, worker: WorkerHandle, op: str, fields: dict
    ) -> tuple[dict, bytes]:
        if worker.closed:
            raise WorkerCrashed(f"worker {worker.pid} is gone")
        rid = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        entry = _Pending(future, self.clock())
        worker.pending[rid] = entry
        try:
            worker.writer.write(encode_frame({"op": op, "id": rid, **fields}))
            await worker.writer.drain()
        except (ConnectionError, RuntimeError, OSError) as error:
            worker.pending.pop(rid, None)
            raise WorkerCrashed(f"worker {worker.pid} pipe failed: {error}") from error
        try:
            header, response_body = await future
        except asyncio.CancelledError:
            # The waiter was shed/timed out.  Leave a tombstone: the work
            # is still running in the worker and the deadline monitor must
            # keep supervising it; its eventual response is discarded.
            if rid in worker.pending:
                entry.future = None
            raise
        if header.get("ok"):
            return header, response_body
        # Worker errors map back onto the classes the service sorts into
        # 400 (bad SQL), the retry path, and 500.
        kind = header.get("kind")
        message = header.get("error", "worker error")
        if kind == "bad_request":
            raise SQLError(message)
        if kind == "recoverable":
            raise RecoverableError(f"worker {worker.pid}: {message}")
        raise RuntimeError(f"worker error: {message}")

    # ------------------------------------------------------------------ #
    # hot reload
    # ------------------------------------------------------------------ #

    async def reload(self) -> dict:
        """Roll every worker, one slot at a time, without dropping below N−1.

        Returns ``{"replaced": [...pids...], "failed": [...slots...]}``.
        """
        self.stats.reloads += 1
        self.stats.reload_min_ready = self.ready_count()
        replaced: list[int] = []
        failed: list[int] = []
        for slot in self._slots:
            if self._closing:
                break
            old = slot.worker
            if slot.broken or old is None or old.closed:
                # A dead/broken slot cannot lower the ready count; a reload
                # is an explicit operator action, so forgive the budget and
                # try to bring a fresh worker up.
                slot.broken = False
                slot.fast_deaths = 0
                if slot.restart_task is not None:
                    slot.restart_task.cancel()
                if await self._bring_up(slot):
                    replaced.append(self._slots[slot.index].worker.pid)  # type: ignore[union-attr]
                else:
                    failed.append(slot.index)
                self._note_reload_ready()
                continue
            old.draining = True
            self._note_reload_ready()
            try:
                replacement = await self._spawn_worker(slot)
            except SpawnFailed:
                self.stats.spawn_failures += 1
                old.draining = False  # keep serving on the old worker
                failed.append(slot.index)
                continue
            old.retired = True
            slot.worker = replacement
            slot.fast_deaths = 0
            self._note_reload_ready()
            replaced.append(replacement.pid)
            # Register before scheduling: if close() lands before the task
            # ever runs, the worker must already be visible to cleanup.
            self._retiring.add(old)
            self._spawn_task(self._retire(old))
        return {"replaced": replaced, "failed": failed}

    def _note_reload_ready(self) -> None:
        ready = self.ready_count()
        if self.stats.reload_min_ready < 0 or ready < self.stats.reload_min_ready:
            self.stats.reload_min_ready = ready

    async def _retire(self, worker: WorkerHandle) -> None:
        """Close a replaced worker's pipe once nothing is pending on it.

        The wait is bounded by :data:`REQUEST_DEADLINE`, the budget the
        monitor gives a request on a live slot; whatever is still pending
        then fails over when the pipe closes.
        """
        try:
            for _ in range(int(REQUEST_DEADLINE / 0.05) + 1):
                if not worker.pending or worker.closed:
                    break
                await asyncio.sleep(0.05)
        finally:
            self._close_pipe(worker)
            self._retiring.discard(worker)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def slots_snapshot(self) -> list[dict]:
        snapshot = []
        for slot in self._slots:
            worker = slot.worker
            if slot.broken:
                state = "broken"
            elif worker is None:
                state = "restarting"
            elif worker.draining:
                state = "draining"
            elif worker.available:
                state = "ready"
            else:
                state = "down"
            entry: dict = {
                "slot": slot.index,
                "state": state,
                "spawns": slot.spawns,
                "fast_deaths": slot.fast_deaths,
            }
            if worker is not None:
                entry["pid"] = worker.pid
                entry["in_flight"] = len(worker.pending)
                health = worker.health
                if health:
                    entry["degraded"] = health.get("degraded")
                    entry["disk_degraded"] = health.get("disk_degraded")
                    entry["engine_breakers"] = health.get("engine_breakers")
            snapshot.append(entry)
        return snapshot

    def aggregated_breakers(self) -> dict[str, str]:
        """Worst observed breaker state per engine across all workers."""
        merged: dict[str, str] = {}
        for slot in self._slots:
            worker = slot.worker
            if worker is None:
                continue
            for mode, state in (worker.health.get("engine_breakers") or {}).items():
                best = merged.get(mode)
                if best is None or _BREAKER_SEVERITY.get(state, 0) > _BREAKER_SEVERITY.get(best, 0):
                    merged[mode] = state
        return merged

    def health(self) -> dict:
        """Aggregated pool health from cached heartbeat data (synchronous).

        ``degraded`` — a broken or restarting slot, or a degraded disk cache
        or non-closed breaker in any worker — still answers 200.
        """
        slots = self.slots_snapshot()
        ready = self.ready_count()
        breakers = self.aggregated_breakers()
        disk_degraded = any(bool(entry.get("disk_degraded")) for entry in slots)
        return {
            "degraded": ready < self.config.workers
            or disk_degraded
            or any(state != "closed" for state in breakers.values()),
            "mode": "pool",
            "workers": self.config.workers,
            "ready_workers": ready,
            "broken_slots": [entry["slot"] for entry in slots if entry["state"] == "broken"],
            "worker_restarts": self.stats.worker_restarts,
            "worker_crashes": self.stats.worker_crashes,
            "failovers": self.stats.failovers,
            "disk_degraded": disk_degraded,
            "engine_breakers": breakers,
            "slots": slots,
        }

    async def stats_payload(self) -> dict:
        """Supervisor counters plus each ready worker's pipeline and disk counters."""
        workers_stats: list[dict] = []
        for slot in self._slots:
            worker = slot.worker
            if worker is None or not worker.ready:
                continue
            try:
                header, _body = await asyncio.wait_for(
                    self._dispatch_to(worker, "stats", {}), 5.0
                )
            except (RecoverableError, RuntimeError, asyncio.TimeoutError):
                continue
            workers_stats.append({"slot": slot.index, **(header.get("payload") or {})})
        return {
            "mode": "pool",
            "workers": self.config.workers,
            "ready_workers": self.ready_count(),
            "pool": self.stats.snapshot(),
            "workers_stats": workers_stats,
        }
