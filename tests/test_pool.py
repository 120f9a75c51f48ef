"""Supervised worker pool: dispatch, crash recovery, hot reload, drain.

Every test here runs real worker *processes* (the deterministic half of
the pool story; ``test_pool_e2e.py`` adds the signals-and-sockets half).
A pooled service is the one :class:`CompileService` over a
:class:`WorkerSupervisor` backend, so the request side — LRU, coalescing,
the one retry — is the single-process code, and the parity test holds the
two modes to the same answers and counters.  Chaos is injected through
the worker fault plans and the supervisor's ``kill_slot`` hook, and
timing-sensitive supervision (fast-death classification) runs under an
injected clock — same discipline as the engine circuit breakers.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import pytest

from repro.faults import FaultPlan, active_plan
from repro.paper_queries import FIG24_VARIANTS
from repro.serve import (
    BadRequest,
    CompileService,
    PoolConfig,
    ServiceConfig,
    ServiceUnavailable,
    WorkerSupervisor,
)
from repro.serve import supervisor as supervision
from repro.serve.http import CompileServer
from repro.serve.pool import encode_frame, read_frame

SIMPLE = "SELECT S.sname FROM Sailor S WHERE S.rating > 7"
OTHER = "SELECT B.bname FROM Boat B WHERE B.color = 'red'"

#: Small budgets so a full pool boots in well under a second per worker.
FAST = dict(min_uptime=0.0, backoff_base=0.01, backoff_cap=0.05)


def run(coro):
    return asyncio.run(coro)


async def _started(pool_config: PoolConfig, **supervisor_kwargs) -> CompileService:
    service = CompileService(
        backend=WorkerSupervisor(pool_config, **supervisor_kwargs),
        config=ServiceConfig(max_pending=256, request_timeout=30.0),
    )
    ready = await service.backend.start()
    assert ready == pool_config.workers
    return service


def _pids(service: CompileService) -> set[int]:
    return {entry["pid"] for entry in service.backend.slots_snapshot() if "pid" in entry}


# --------------------------------------------------------------------- #
# wire protocol units (no processes)
# --------------------------------------------------------------------- #


def test_frame_roundtrip_with_and_without_body():
    async def check() -> None:
        reader = asyncio.StreamReader()
        reader.feed_data(encode_frame({"op": "ping", "id": 7}))
        reader.feed_data(encode_frame({"op": "response", "id": 7}, b"payload"))
        reader.feed_eof()
        header, body = await read_frame(reader)
        assert header == {"op": "ping", "id": 7} and body == b""
        header, body = await read_frame(reader)
        assert header["body_len"] == 7 and body == b"payload"

    run(check())


def test_backoff_delay_is_exponential_and_capped():
    supervisor = WorkerSupervisor(
        PoolConfig(workers=1, backoff_base=0.1, backoff_cap=1.0)
    )
    delays = [supervisor.backoff_delay(n) for n in range(1, 7)]
    assert delays == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]


# --------------------------------------------------------------------- #
# dispatch: one slot per text
# --------------------------------------------------------------------- #


def test_equivalent_spellings_route_to_one_worker_and_repeat_hits_lru():
    async def check() -> None:
        service = await _started(PoolConfig(workers=2, **FAST))
        try:
            first = await service.compile(SIMPLE, ("text",))
            assert first.served.startswith("compile@w")
            again = await service.compile(SIMPLE, ("text",))
            # Answered by the front end's LRU, without crossing a pipe.
            assert again.served == "lru"
            assert again.body == first.body

            # The Fig. 24 trio shares a fingerprint: one compile on one
            # worker, then the front end's LRU answers the other spellings.
            compiles = service.stats.compiles
            served = [
                (await service.compile(variant, ("text",))).served
                for variant in FIG24_VARIANTS
            ]
            assert service.stats.compiles == compiles + 1
            assert served[0].startswith("compile@w")
            assert served[1:] == ["lru", "lru"]
            stats = await service.stats_payload()
            per_slot = {entry["slot"] for entry in stats["workers_stats"]}
            assert per_slot == {0, 1}
        finally:
            service.close()

    run(check())


def test_key_and_compile_of_a_text_reach_one_worker():
    texts = [
        f"SELECT S.sname FROM Sailor S WHERE S.rating > {n}" for n in range(24)
    ]

    async def check() -> None:
        service = await _started(PoolConfig(workers=2, **FAST))
        try:
            supervisor = service.backend
            dispatch_to = supervisor._dispatch_to
            slots: dict[str, set] = {text: set() for text in texts}

            async def tracked(worker, op, fields):
                if op in ("key", "compile"):
                    slots[fields["sql"]].add((op, worker.slot))
                return await dispatch_to(worker, op, fields)

            supervisor._dispatch_to = tracked
            for text in texts:
                response = await service.compile(text, ("text",))
                assert response.served.startswith("compile@w")
            supervisor._dispatch_to = dispatch_to
            stats = await service.stats_payload()
        finally:
            service.close()
        owners = set()
        for text, ops in slots.items():
            (owner,) = {slot for _op, slot in ops}
            assert ops == {("key", owner), ("compile", owner)}, text
            owners.add(owner)
        assert owners == {0, 1}
        # Each text walked lex -> fingerprint once, on its own worker, and
        # every compile popped the front half its key op had left there.
        workers = stats["workers_stats"]
        assert len(workers) == 2
        for stage in ("lex", "parse", "logic", "simplify", "fingerprint"):
            lookups = sum(
                counts["hits"] + counts["misses"]
                for counts in (w["pipeline"]["stages"][stage] for w in workers)
            )
            assert lookups == len(texts), stage
        handoff_hits = sum(w["handoff"]["hits"] for w in workers)
        assert handoff_hits == stats["compiles"] == len(texts)
        assert all(type(body) is bytes for body in service.lru._entries.values())

    run(check())


def test_pool_fingerprint_matches_single_process():
    async def check() -> None:
        single = CompileService()
        pooled = await _started(PoolConfig(workers=2, **FAST))
        try:
            expected = (await single.fingerprint(SIMPLE)).payload
            measured = (await pooled.fingerprint(SIMPLE)).payload
            assert measured == expected
        finally:
            single.close()
            pooled.close()

    run(check())


def test_bad_sql_and_bad_format_are_bad_requests_through_the_pool():
    async def check() -> None:
        service = await _started(PoolConfig(workers=2, **FAST))
        try:
            with pytest.raises(BadRequest):
                await service.compile("SELEC nonsense FROM", ("text",))
            # A lone surrogate (JSON can carry one) still reaches a worker.
            with pytest.raises(BadRequest):
                await service.compile("SELECT \ud800", ("text",))
            with pytest.raises(BadRequest):
                await service.compile(SIMPLE, ("not-a-format",))
            with pytest.raises(BadRequest):
                await service.render(SIMPLE, "not-a-format")
        finally:
            service.close()

    run(check())


#: One request sequence for both modes: a repeat, the Fig. 24 trio, the
#: two 400s, then the other endpoints (``None`` formats = /fingerprint).
PARITY_SEQUENCE = [
    ("compile", SIMPLE, ("text",)),
    ("compile", SIMPLE, ("text",)),
    *[("compile", variant, ("text",)) for variant in FIG24_VARIANTS],
    ("compile", "SELEC nonsense FROM", ("text",)),
    ("compile", SIMPLE, ("not-a-format",)),
    ("render", SIMPLE, "svg"),
    ("fingerprint", SIMPLE, None),
]


async def _replay(service: CompileService) -> tuple[list, dict]:
    """Answers (``served`` without ``@wN``, body or 400 text) and counters."""
    answers = []
    for endpoint, sql, formats in PARITY_SEQUENCE:
        try:
            if endpoint == "compile":
                response = await service.compile(sql, formats)
            elif endpoint == "render":
                response = await service.render(sql, formats)
            else:
                response = await service.fingerprint(sql)
        except BadRequest as error:
            answers.append(("400", str(error)))
            continue
        answers.append((response.served.split("@w")[0], response.body))
    counters = {
        name: getattr(service.stats, name)
        for name in ("compiles", "coalesced", "bad_requests")
    }
    counters["lru_hits"] = service.lru.stats.hits
    return answers, counters


def test_pooled_service_answers_like_the_single_process_one():
    async def check() -> None:
        single = CompileService()
        pooled = await _started(PoolConfig(workers=2, **FAST))
        try:
            expected = await _replay(single)
            measured = await _replay(pooled)
        finally:
            single.close()
            pooled.close()
        assert measured == expected
        served = [answer[0] for answer in expected[0]]
        assert served == [
            "compile", "lru", "compile", "lru", "lru", "400", "400",
            "compile", "fingerprint",
        ]
        assert expected[1] == {
            "compiles": 3, "lru_hits": 3, "coalesced": 0, "bad_requests": 2,
        }

    run(check())


@pytest.mark.parametrize("times", [1, None], ids=["fault-once", "fault-always"])
@pytest.mark.parametrize("pooled", [False, True], ids=["single", "pool"])
def test_recoverable_compile_fault_gets_one_retry_at_the_front(pooled, times):
    rule = {"point": "serve.compile", "fault": "io"}
    if times is not None:
        rule["times"] = times
    plan = {"seed": 0, "rules": [rule]}

    async def check() -> None:
        if pooled:
            service = await _started(
                PoolConfig(workers=2, worker_fault_plan=plan, **FAST)
            )
            faults = contextlib.nullcontext()
        else:
            service = CompileService()
            faults = active_plan(FaultPlan.from_spec(plan))
        try:
            with faults:
                if times is None:
                    with pytest.raises(ServiceUnavailable, match="twice"):
                        await service.compile(SIMPLE, ("text",))
                else:
                    response = await service.compile(SIMPLE, ("text",))
                    assert response.served.split("@w")[0] == "compile"
            assert service.stats.compile_retries == 1
        finally:
            service.close()

    run(check())


def test_close_sends_eof_and_every_worker_exits_zero():
    async def check() -> list:
        supervisor = WorkerSupervisor(PoolConfig(workers=3, **FAST))
        assert await supervisor.start() == 3
        procs = [slot.worker.proc for slot in supervisor._slots]
        supervisor.close()
        return procs

    procs = run(check())
    assert [proc.returncode for proc in procs] == [0, 0, 0]


# --------------------------------------------------------------------- #
# crash recovery
# --------------------------------------------------------------------- #


def test_worker_kill_mid_flight_fails_over_with_zero_client_failures():
    stall = {
        "seed": 0,
        "rules": [
            {"point": "serve.compile", "fault": "latency", "latency_s": 0.02}
        ],
    }

    async def check() -> None:
        service = await _started(
            PoolConfig(workers=2, worker_fault_plan=stall, **FAST)
        )
        try:
            queries = [
                f"SELECT S.sname FROM Sailor S WHERE S.rating > {n}"
                for n in range(12)
            ]
            supervisor = service.backend
            # Kill while slot 0 runs a compile, not a key op: a key op's
            # answer may already sit in the pipe when the worker dies, and
            # is then read before the EOF, which fails nothing over.
            dispatch_to = supervisor._dispatch_to
            compiling: list = []

            async def tracked(worker, op, fields):
                if op != "compile":
                    return await dispatch_to(worker, op, fields)
                compiling.append(worker)
                try:
                    return await dispatch_to(worker, op, fields)
                finally:
                    compiling.remove(worker)

            supervisor._dispatch_to = tracked
            tasks = [
                asyncio.ensure_future(service.compile(sql, ("text",)))
                for sql in queries
            ]

            async def assassin() -> None:
                for _ in range(400):
                    worker = supervisor._slots[0].worker
                    if worker is not None and worker in compiling:
                        break
                    await asyncio.sleep(0.005)
                assert supervisor.kill_slot(0) is not None

            killer = asyncio.ensure_future(assassin())
            responses = await asyncio.gather(*tasks)
            await killer
            assert len(responses) == len(queries)  # nothing shed, nothing lost
            stats = service.backend.stats
            assert stats.worker_crashes >= 1
            assert stats.failovers >= 1
            # The re-routed requests produced real answers.
            payloads = [json.loads(r.body) for r in responses]
            assert all(p["outputs"]["text"] for p in payloads)
        finally:
            service.close()

    run(check())


def test_crashed_worker_restarts_and_pool_heals():
    async def check() -> None:
        service = await _started(PoolConfig(workers=2, **FAST))
        try:
            supervisor = service.backend
            old_pid = supervisor._slots[0].worker.pid
            supervisor.kill_slot(0)
            for _ in range(600):
                if supervisor.stats.worker_restarts >= 1:
                    break
                await asyncio.sleep(0.01)
            assert supervisor.stats.worker_restarts == 1
            assert supervisor.ready_count() == 2
            assert supervisor._slots[0].worker.pid != old_pid
            assert service.healthz()["status"] == "ok"
            response = await service.compile(SIMPLE, ("text",))
            assert response.served.startswith("compile@w")
        finally:
            service.close()

    run(check())


def test_restart_storm_trips_budget_and_healthz_degrades_not_draining(monkeypatch):
    monkeypatch.setattr(supervision, "RESTART_BUDGET", 2)
    boot_crash = {
        "seed": 0,
        "rules": [{"point": "serve.worker.boot", "fault": "crash"}],
    }

    async def check() -> None:
        service = CompileService(
            backend=WorkerSupervisor(
                PoolConfig(workers=2, worker_fault_plan=boot_crash, **FAST)
            )
        )
        ready = await service.backend.start()
        try:
            assert ready == 0
            slots = service.backend._slots
            # budget+1 spawn attempts per slot, then the slot is broken —
            # no spin-loop of further spawns.
            assert all(slot.broken for slot in slots)
            assert all(slot.fast_deaths == 3 for slot in slots)
            assert service.backend.stats.spawn_failures == 6
            health = service.healthz()
            assert health["status"] == "degraded"  # still answering, 200
            assert health["ready_workers"] == 0
            assert health["broken_slots"] == [0, 1]
            with pytest.raises(ServiceUnavailable):
                await service.compile(SIMPLE, ("text",))
        finally:
            service.close()

    run(check())


def test_fast_death_classification_uses_injected_clock(monkeypatch):
    monkeypatch.setattr(supervision, "RESTART_BUDGET", 1)
    now = [0.0]

    async def check() -> None:
        service = await _started(
            PoolConfig(workers=1, min_uptime=5.0, backoff_base=0.01,
                       backoff_cap=0.05),
            clock=lambda: now[0],
        )
        try:
            supervisor = service.backend

            async def crash_and_wait_restart() -> None:
                restarts = supervisor.stats.worker_restarts
                supervisor.kill_slot(0)
                for _ in range(600):
                    if supervisor.stats.worker_restarts > restarts:
                        return
                    await asyncio.sleep(0.01)
                raise AssertionError("worker never restarted")

            # Long uptime (clock advanced past min_uptime) → the crash
            # resets the fast-death run instead of consuming the budget.
            now[0] += 100.0
            await crash_and_wait_restart()
            assert supervisor._slots[0].fast_deaths == 1
            now[0] += 100.0
            await crash_and_wait_restart()
            assert supervisor._slots[0].fast_deaths == 1  # reset, then +1
            # Two instant crashes (clock frozen) blow the budget of 1.
            supervisor.kill_slot(0)
            for _ in range(600):
                if supervisor._slots[0].broken:
                    break
                await asyncio.sleep(0.01)
            assert supervisor._slots[0].broken
            assert service.healthz()["status"] == "degraded"
        finally:
            service.close()

    run(check())


# --------------------------------------------------------------------- #
# hot reload and drain
# --------------------------------------------------------------------- #


def test_hot_reload_replaces_every_worker_without_dropping_below_n_minus_1():
    async def check() -> None:
        service = await _started(PoolConfig(workers=2, **FAST))
        try:
            before = _pids(service)
            await service.compile(SIMPLE, ("text",))
            result = await service.backend.reload()
            assert result["failed"] == []
            assert len(result["replaced"]) == 2
            after = _pids(service)
            assert after.isdisjoint(before)
            # Rolling one slot at a time: the floor is N-1, never lower.
            assert service.backend.stats.reload_min_ready == 1
            assert service.backend.ready_count() == 2
            response = await service.compile(OTHER, ("text",))
            assert response.served.startswith("compile@w")
        finally:
            service.close()

    run(check())


def test_reload_revives_a_broken_slot(monkeypatch):
    monkeypatch.setattr(supervision, "RESTART_BUDGET", 0)

    async def check() -> None:
        service = await _started(
            PoolConfig(
                workers=2,
                min_uptime=60.0,
                backoff_base=0.01,
                backoff_cap=0.05,
            )
        )
        try:
            supervisor = service.backend
            # Budget of zero: the first fast death breaks the slot for good.
            supervisor.kill_slot(0)
            for _ in range(600):
                if supervisor._slots[0].broken:
                    break
                await asyncio.sleep(0.01)
            assert supervisor._slots[0].broken
            assert supervisor.ready_count() == 1
            assert service.healthz()["status"] == "degraded"
            # Reload is an explicit operator action: forgive the budget.
            result = await supervisor.reload()
            assert result["failed"] == []
            assert not supervisor._slots[0].broken
            assert supervisor.ready_count() == 2
            assert service.healthz()["status"] == "ok"
        finally:
            service.close()

    run(check())


def test_drain_finishes_in_flight_and_sheds_new_work():
    async def check() -> None:
        service = await _started(PoolConfig(workers=2, **FAST))
        try:
            await service.compile(SIMPLE, ("text",))
            service.begin_drain()
            assert await service.drain(10.0) is True
            with pytest.raises(ServiceUnavailable):
                await service.compile(OTHER, ("text",))
            assert service.healthz()["status"] == "draining"
        finally:
            service.close()

    run(check())


def test_request_deadline_kill_for_wedged_worker(monkeypatch):
    monkeypatch.setattr(supervision, "HEARTBEAT_INTERVAL", 0.05)
    monkeypatch.setattr(supervision, "REQUEST_DEADLINE", 0.3)
    wedge = {
        "seed": 0,
        "rules": [
            {
                "point": "serve.compile",
                "fault": "latency",
                "latency_s": 30.0,
                "times": 1,
            }
        ],
    }

    async def check() -> None:
        service = CompileService(
            backend=WorkerSupervisor(
                PoolConfig(workers=1, worker_fault_plan=wedge, **FAST)
            ),
            config=ServiceConfig(max_pending=64, request_timeout=20.0),
        )
        await service.backend.start()
        try:
            # One worker, wedged for 30s: the deadline monitor must kill it
            # long before the request budget, and with no sibling the
            # service's one retry finds no ready worker and sheds 503.
            with pytest.raises(ServiceUnavailable):
                await service.compile(SIMPLE, ("text",))
            assert service.backend.stats.deadline_kills >= 1
            assert service.backend.stats.worker_crashes >= 1
        finally:
            service.close()

    run(check())


# --------------------------------------------------------------------- #
# HTTP integration + finished connections leave the tracked set
# --------------------------------------------------------------------- #


def test_pool_behind_http_server_and_connection_sweep():
    async def check() -> None:
        service = await _started(PoolConfig(workers=2, **FAST))
        server = CompileServer(service, host="127.0.0.1", port=0)
        await server.start()
        try:
            async def request(path: str, document: dict) -> tuple[int, dict]:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                body = json.dumps(document).encode()
                writer.write(
                    f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n".encode() + body
                )
                await writer.drain()
                status = int((await reader.readline()).split()[1])
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    if line.lower().startswith(b"content-length"):
                        length = int(line.split(b":")[1])
                payload = json.loads(await reader.readexactly(length))
                writer.close()
                await writer.wait_closed()
                return status, payload

            status, payload = await request(
                "/compile", {"sql": SIMPLE, "formats": ["text"]}
            )
            assert status == 200 and payload["outputs"]["text"]
            status, payload = await request("/fingerprint", {"sql": SIMPLE})
            assert status == 200 and payload["fingerprint"]
            # /stats awaits every ready worker's counters.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            assert int((await reader.readline()).split()[1]) == 200
            writer.close()
            await writer.wait_closed()
            # A closed connection's task leaves the tracked set through its
            # done callback, with no periodic sweep.
            await asyncio.sleep(0.02)
            assert any(task.done() for task in server._connections) or not (
                server._connections
            )
            for _ in range(100):
                if not any(task.done() for task in server._connections):
                    break
                await asyncio.sleep(0.02)
            assert not any(task.done() for task in server._connections)
        finally:
            await server.stop(drain_timeout=5.0)

    run(check())
