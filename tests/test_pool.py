"""Supervised worker pool: dispatch, crash recovery, hot reload, drain.

Every test here runs real worker *processes* (the deterministic half of
the pool story; ``test_pool_e2e.py`` adds the signals-and-sockets half).
Chaos is injected through the worker fault plans and the supervisor's
``kill_slot`` hook, and timing-sensitive supervision (fast-death
classification) runs under an injected clock — same discipline as the
engine circuit breakers.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.paper_queries import FIG24_VARIANTS
from repro.serve import (
    CompileService,
    PoolConfig,
    PoolService,
    ServiceConfig,
    ServiceUnavailable,
)
from repro.serve.http import CompileServer
from repro.serve.pool import (
    encode_frame,
    read_frame,
    service_config_from_spec,
    service_config_to_spec,
)
from repro.serve.supervisor import WorkerSupervisor, worker_pids

SIMPLE = "SELECT S.sname FROM Sailor S WHERE S.rating > 7"
OTHER = "SELECT B.bname FROM Boat B WHERE B.color = 'red'"

#: Small budgets so a full pool boots in well under a second per worker.
FAST = dict(min_uptime=0.0, backoff_base=0.01, backoff_cap=0.05)


def run(coro):
    return asyncio.run(coro)


async def _started(pool_config: PoolConfig, **service_kwargs) -> PoolService:
    service = PoolService(
        config=ServiceConfig(max_pending=256, request_timeout=30.0),
        pool_config=pool_config,
        **service_kwargs,
    )
    ready = await service.start()
    assert ready == pool_config.workers
    return service


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


def test_service_config_spec_roundtrip():
    config = ServiceConfig(lru_entries=3, max_pending=7, request_timeout=2.5)
    assert service_config_from_spec(service_config_to_spec(config)) == config


def test_backoff_delay_is_exponential_and_capped():
    supervisor = WorkerSupervisor(
        PoolConfig(workers=1, backoff_base=0.1, backoff_cap=1.0)
    )
    delays = [supervisor.backoff_delay(n) for n in range(1, 7)]
    assert delays == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]


# --------------------------------------------------------------------- #
# dispatch: learned fingerprint affinity
# --------------------------------------------------------------------- #


def test_equivalent_spellings_route_to_one_worker_and_repeat_hits_lru():
    async def check() -> None:
        service = await _started(PoolConfig(workers=2, **FAST))
        try:
            first = await service.compile(SIMPLE, ("text",))
            assert first.served.startswith("compile@w")
            slot = first.served.rsplit("@w", 1)[1]
            again = await service.compile(SIMPLE, ("text",))
            assert again.served == f"lru@w{slot}"
            assert again.body == first.body

            # The Fig. 24 trio shares a fingerprint, so learned affinity
            # sends every spelling to the same worker.
            variant_slots = set()
            for variant in FIG24_VARIANTS:
                response = await service.compile(variant, ("text",))
                variant_slots.add(response.served.rsplit("@w", 1)[1])
            assert len(variant_slots) == 1
            stats = await service.stats_payload()
            per_slot = {entry["slot"] for entry in stats["workers_stats"]}
            assert per_slot == {0, 1}
        finally:
            service.close()

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
    from repro.serve import BadRequest

    async def check() -> None:
        service = await _started(PoolConfig(workers=2, **FAST))
        try:
            with pytest.raises(BadRequest):
                await service.compile("SELEC nonsense FROM", ("text",))
            with pytest.raises(BadRequest):
                await service.compile(SIMPLE, ("not-a-format",))
            with pytest.raises(BadRequest):
                await service.render(SIMPLE, "not-a-format")
        finally:
            service.close()

    run(check())


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
            tasks = [
                asyncio.ensure_future(service.compile(sql, ("text",)))
                for sql in queries
            ]

            async def assassin() -> None:
                supervisor = service.supervisor
                for _ in range(400):
                    worker = supervisor._slots[0].worker
                    if worker is not None and worker.pending:
                        break
                    await asyncio.sleep(0.005)
                assert supervisor.kill_slot(0) is not None

            killer = asyncio.ensure_future(assassin())
            responses = await asyncio.gather(*tasks)
            await killer
            assert len(responses) == len(queries)  # nothing shed, nothing lost
            stats = service.supervisor.stats
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
            supervisor = service.supervisor
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


def test_restart_storm_trips_budget_and_healthz_degrades_not_draining():
    boot_crash = {
        "seed": 0,
        "rules": [{"point": "serve.worker.boot", "fault": "crash"}],
    }

    async def check() -> None:
        service = PoolService(
            pool_config=PoolConfig(
                workers=2,
                worker_fault_plan=boot_crash,
                restart_budget=2,
                **FAST,
            )
        )
        ready = await service.start()
        try:
            assert ready == 0
            slots = service.supervisor._slots
            # budget+1 spawn attempts per slot, then the slot is broken —
            # no spin-loop of further spawns.
            assert all(slot.broken for slot in slots)
            assert all(slot.fast_deaths == 3 for slot in slots)
            assert service.supervisor.stats.spawn_failures == 6
            health = service.healthz()
            assert health["status"] == "degraded"  # still answering, 200
            assert health["ready_workers"] == 0
            assert health["broken_slots"] == [0, 1]
            with pytest.raises(ServiceUnavailable):
                await service.compile(SIMPLE, ("text",))
        finally:
            service.close()

    run(check())


def test_fast_death_classification_uses_injected_clock():
    now = [0.0]

    async def check() -> None:
        service = await _started(
            PoolConfig(workers=1, min_uptime=5.0, backoff_base=0.01,
                       backoff_cap=0.05, restart_budget=1),
            clock=lambda: now[0],
        )
        try:
            supervisor = service.supervisor

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
            before = set(worker_pids(service))
            await service.compile(SIMPLE, ("text",))
            result = await service.reload()
            assert result["failed"] == []
            assert len(result["replaced"]) == 2
            after = set(worker_pids(service))
            assert after.isdisjoint(before)
            # Rolling one slot at a time: the floor is N-1, never lower.
            assert service.supervisor.stats.reload_min_ready == 1
            assert service.supervisor.ready_count() == 2
            response = await service.compile(OTHER, ("text",))
            assert response.served.startswith("compile@w")
        finally:
            service.close()

    run(check())


def test_reload_revives_a_broken_slot():
    async def check() -> None:
        service = await _started(
            PoolConfig(
                workers=2,
                restart_budget=0,
                min_uptime=60.0,
                backoff_base=0.01,
                backoff_cap=0.05,
            )
        )
        try:
            supervisor = service.supervisor
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
            result = await service.reload()
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


def test_request_deadline_kill_for_wedged_worker():
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
        service = PoolService(
            config=ServiceConfig(max_pending=64, request_timeout=20.0),
            pool_config=PoolConfig(
                workers=1,
                worker_fault_plan=wedge,
                heartbeat_interval=0.05,
                heartbeat_timeout=5.0,
                request_deadline=0.3,
                **FAST,
            ),
        )
        await service.start()
        try:
            # One worker, wedged for 30s: the deadline monitor must kill it
            # long before the request budget, and with no sibling the
            # request sheds 503.
            with pytest.raises(ServiceUnavailable):
                await service.compile(SIMPLE, ("text",))
            assert service.supervisor.stats.deadline_kills >= 1
            assert service.supervisor.stats.worker_crashes >= 1
        finally:
            service.close()

    run(check())


# --------------------------------------------------------------------- #
# HTTP integration + connection sweep
# --------------------------------------------------------------------- #


def test_pool_behind_http_server_and_connection_sweep():
    async def check() -> None:
        service = await _started(PoolConfig(workers=2, **FAST))
        server = CompileServer(
            service, host="127.0.0.1", port=0, sweep_interval=0.05
        )
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
            # /healthz and /stats cross _maybe_await (stats is async here).
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            assert int((await reader.readline()).split()[1]) == 200
            writer.close()
            await writer.wait_closed()
            # Closed connections linger only until the sweeper's next pass.
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
