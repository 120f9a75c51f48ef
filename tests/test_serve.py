"""Serving tier: LRU bounds, coalescing, admission control, HTTP errors.

Async scenarios run under ``asyncio.run`` (the suite has no asyncio pytest
plugin); HTTP-level cases talk to a real :class:`CompileServer` bound to an
ephemeral port through the stdlib client, so the request-framing and
error-mapping code paths are the ones production traffic hits.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.paper_queries import FIG24_VARIANTS
from repro.serve import (
    BadRequest,
    CompileServer,
    CompileService,
    LRUCache,
    ServiceConfig,
    ServiceUnavailable,
)

SIMPLE = "SELECT S.sname FROM Sailor S WHERE S.rating > 7"
DISTINCT = [
    f"SELECT S.sname FROM Sailor S WHERE S.rating > {n}" for n in range(1, 6)
]


# --------------------------------------------------------------------- #
# LRU
# --------------------------------------------------------------------- #


def test_lru_bounds_and_eviction_order():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a": "b" is now least recent
    cache.put("c", 3)
    assert len(cache) == 2
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert cache.stats.evictions == 1
    assert cache.stats.misses == 1


def test_lru_zero_entries_disables_caching():
    cache = LRUCache(0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert len(cache) == 0


# --------------------------------------------------------------------- #
# service-level: coalescing, LRU, admission, drain
# --------------------------------------------------------------------- #


def _gate_compiles(service: CompileService) -> threading.Event:
    """Block the compile thread until the returned event is set."""
    gate = threading.Event()
    original = service._compile_sync

    def gated(sql, formats):
        gate.wait(timeout=30)
        return original(sql, formats)

    service._compile_sync = gated
    return gate


def test_concurrent_equivalent_requests_coalesce_to_one_compile():
    service = CompileService()
    gate = _gate_compiles(service)

    async def scenario():
        # Two verbatim repeats of each Fig. 24 variant: six concurrent
        # requests, one canonical fingerprint, so exactly one compile.
        spellings = list(FIG24_VARIANTS) * 2
        tasks = [
            asyncio.ensure_future(service.compile(sql, ("text",)))
            for sql in spellings
        ]
        # Release the compile only once every other request has joined the
        # in-flight entry — the compile thread is gated, so none can leak
        # through to an LRU hit first.
        while service.stats.coalesced < len(spellings) - 1:
            await asyncio.sleep(0.01)
        gate.set()
        return await asyncio.gather(*tasks)

    try:
        responses = asyncio.run(scenario())
    finally:
        service.close()

    assert service.stats.compiles == 1
    assert service.stats.coalesced == len(responses) - 1
    assert sorted(r.served for r in responses) == ["coalesced"] * 5 + [
        "compile"
    ]
    fingerprints = {r.payload["fingerprint"] for r in responses}
    assert len(fingerprints) == 1
    bodies = {r.body for r in responses}
    assert len(bodies) == 1  # coalesced waiters share the encoded bytes


def test_response_lru_hit_and_bounded_eviction():
    service = CompileService(config=ServiceConfig(lru_entries=2))

    async def scenario():
        first = await service.compile(DISTINCT[0], ("text",))
        again = await service.compile(DISTINCT[0], ("text",))
        for sql in DISTINCT[1:3]:  # evicts DISTINCT[0] from the 2-entry LRU
            await service.compile(sql, ("text",))
        evicted = await service.compile(DISTINCT[0], ("text",))
        return first, again, evicted

    try:
        first, again, evicted = asyncio.run(scenario())
    finally:
        service.close()

    assert first.served == "compile"
    assert again.served == "lru" and again.body == first.body
    assert evicted.served == "compile"  # recompiled after eviction
    assert len(service.lru) <= 2
    assert service.lru.stats.evictions >= 1
    assert service.stats.lru_hits == 1
    assert service.stats.compiles == 4


def test_overload_sheds_with_503_semantics():
    service = CompileService(config=ServiceConfig(max_pending=1))
    gate = _gate_compiles(service)

    async def scenario():
        blocked = asyncio.ensure_future(service.compile(DISTINCT[0], ("text",)))
        while service.in_flight == 0:
            await asyncio.sleep(0.01)
        with pytest.raises(ServiceUnavailable, match="overloaded"):
            await service.compile(DISTINCT[1], ("text",))
        gate.set()
        return await blocked

    try:
        response = asyncio.run(scenario())
    finally:
        service.close()
    assert response.served == "compile"
    assert service.stats.shed == 1


def test_request_timeout_sheds_but_compile_still_lands_in_lru():
    service = CompileService(config=ServiceConfig(request_timeout=0.05))
    gate = _gate_compiles(service)

    async def scenario():
        with pytest.raises(ServiceUnavailable, match="budget"):
            await service.compile(SIMPLE, ("text",))
        gate.set()  # the shielded compile keeps running after the shed
        while service.in_flight:
            await asyncio.sleep(0.01)
        return await service.compile(SIMPLE, ("text",))

    try:
        retry = asyncio.run(scenario())
    finally:
        service.close()
    assert service.stats.timeouts == 1
    assert retry.served == "lru"  # the 503'd request still warmed the cache


def test_drain_rejects_new_work_and_completes_in_flight():
    service = CompileService()
    gate = _gate_compiles(service)

    async def scenario():
        inflight = asyncio.ensure_future(service.compile(SIMPLE, ("text",)))
        while service.in_flight == 0:
            await asyncio.sleep(0.01)
        service.begin_drain()
        assert service.healthz()["status"] == "draining"
        with pytest.raises(ServiceUnavailable, match="draining"):
            await service.compile(DISTINCT[0], ("text",))
        gate.set()
        drained = await service.drain(timeout=10.0)
        return drained, await inflight

    try:
        drained, response = asyncio.run(scenario())
    finally:
        service.close()
    assert drained is True
    assert response.served == "compile"


def test_invalid_sql_and_unknown_format_are_bad_requests():
    service = CompileService()

    async def scenario():
        with pytest.raises(BadRequest, match="invalid SQL"):
            await service.compile("SELEKT nope FROM", ("text",))
        with pytest.raises(BadRequest, match="unknown format"):
            await service.compile(SIMPLE, ("png",))
        with pytest.raises(BadRequest, match="no SQL"):
            await service.compile("   ", ("text",))

    try:
        asyncio.run(scenario())
    finally:
        service.close()
    assert service.stats.bad_requests == 3
    assert service.stats.compiles == 0


# --------------------------------------------------------------------- #
# HTTP layer against a real socket
# --------------------------------------------------------------------- #


class _ServerFixture:
    """Run a CompileServer in a background event-loop thread."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.service = CompileService(config=config)
        self.server = CompileServer(self.service, port=0)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def __enter__(self) -> "_ServerFixture":
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        ).result(timeout=10)
        return self

    def __exit__(self, *exc_info) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(drain_timeout=5.0), self._loop
        ).result(timeout=15)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)

    def request(
        self, method: str, path: str, body: str | None = None
    ) -> tuple[int, dict, dict]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=10
        )
        try:
            connection.request(
                method,
                path,
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            raw = response.read()
            headers = {k.lower(): v for k, v in response.getheaders()}
            return response.status, json.loads(raw), headers
        finally:
            connection.close()


def test_http_endpoints_and_error_mapping():
    with _ServerFixture() as fixture:
        status, payload, _ = fixture.request("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["in_flight"] == 0
        assert payload["disk_degraded"] is False
        assert isinstance(payload["engine_breakers"], dict)

        status, payload, headers = fixture.request(
            "POST",
            "/compile",
            json.dumps({"sql": SIMPLE, "formats": ["text", "dot"]}),
        )
        assert status == 200
        assert headers["x-repro-served"] == "compile"
        assert sorted(payload["outputs"]) == ["dot", "text"]

        status, _, headers = fixture.request(
            "POST", "/compile", json.dumps({"sql": SIMPLE, "formats": ["text", "dot"]})
        )
        assert status == 200 and headers["x-repro-served"] == "lru"

        status, payload, _ = fixture.request(
            "POST", "/fingerprint", json.dumps({"sql": FIG24_VARIANTS[0]})
        )
        other = fixture.request(
            "POST", "/fingerprint", json.dumps({"sql": FIG24_VARIANTS[1]})
        )[1]
        assert status == 200
        assert payload["fingerprint"] == other["fingerprint"]

        status, payload, _ = fixture.request(
            "POST", "/render", json.dumps({"sql": SIMPLE, "format": "text"})
        )
        assert status == 200 and payload["format"] == "text"

        # the 4xx family
        cases = [
            ("POST", "/compile", "{not json", 400),
            ("POST", "/compile", json.dumps(["list"]), 400),
            ("POST", "/compile", json.dumps({"sql": ""}), 400),
            ("POST", "/compile", json.dumps({"sql": SIMPLE, "formats": "svg"}), 400),
            ("POST", "/compile", json.dumps({"sql": SIMPLE, "formats": ["png"]}), 400),
            ("POST", "/compile", json.dumps({"sql": "SELEKT"}), 400),
            ("POST", "/render", json.dumps({"sql": SIMPLE, "format": 7}), 400),
            ("POST", "/nowhere", json.dumps({"sql": SIMPLE}), 404),
            ("GET", "/compile", None, 405),
            ("POST", "/stats", None, 405),
        ]
        for method, path, body, expected in cases:
            status, payload, _ = fixture.request(method, path, body)
            assert status == expected, (method, path, payload)
            assert "error" in payload

        status, stats, _ = fixture.request("GET", "/stats")
        assert status == 200
        assert stats["compiles"] >= 2  # compile + render + fingerprints
        assert stats["lru_hits"] >= 1
        assert stats["bad_requests"] >= 5
        assert stats["requests"]["compile"] >= 2
        assert stats["lru"]["entries"] >= 1
        assert "pipeline" in stats


# --------------------------------------------------------------------- #
# fault handling: retries, supervision, poisoned coalescing
# --------------------------------------------------------------------- #


@pytest.fixture()
def _clean_faults():
    from repro.faults import clear_plan
    from repro.relational import reset_breakers

    clear_plan()
    reset_breakers()
    yield
    clear_plan()
    reset_breakers()


def test_single_compile_fault_is_retried_transparently(_clean_faults):
    from repro.faults import FaultPlan, FaultRule, active_plan

    service = CompileService()
    plan = FaultPlan([FaultRule(point="serve.compile", fault="io", times=1)])

    async def scenario():
        with active_plan(plan):
            return await service.compile(SIMPLE, ("text",))

    try:
        response = asyncio.run(scenario())
    finally:
        service.close()
    assert response.served == "compile"
    assert response.payload["fingerprint"]
    assert service.stats.compile_retries == 1
    assert plan.total_fires() == 1


def test_crashed_compile_executor_is_restarted(_clean_faults):
    from repro.faults import FaultPlan, FaultRule, active_plan

    service = CompileService()
    plan = FaultPlan(
        [FaultRule(point="serve.compile", fault="crash", times=1)]
    )

    async def scenario():
        with active_plan(plan):
            first = await service.compile(SIMPLE, ("text",))
        # The replacement worker serves future traffic normally.
        second = await service.compile(DISTINCT[0], ("text",))
        return first, second

    try:
        first, second = asyncio.run(scenario())
    finally:
        service.close()
    assert first.payload["fingerprint"] and second.payload["fingerprint"]
    assert service.stats.executor_restarts == 1
    assert service.stats.compile_retries == 1


def test_poisoned_inflight_compile_is_not_cached_and_next_recompiles(
    _clean_faults,
):
    from repro.faults import FaultPlan, FaultRule, active_plan

    service = CompileService()
    gate = _gate_compiles(service)
    # Both the compile and its one retry fail: the in-flight task is
    # poisoned and every coalesced waiter shares the 503.
    plan = FaultPlan([FaultRule(point="serve.compile", fault="io", times=2)])

    async def scenario():
        with active_plan(plan):
            tasks = [
                asyncio.ensure_future(service.compile(SIMPLE, ("text",)))
                for _ in range(3)
            ]
            while service.stats.coalesced < 2:
                await asyncio.sleep(0.01)
            gate.set()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            # The failed task must be popped, never parked in the LRU.
            assert len(service.lru) == 0
            assert service.in_flight == 0
            # Fault budget spent: the next request recompiles and succeeds.
            recovered = await service.compile(SIMPLE, ("text",))
            return outcomes, recovered

    try:
        outcomes, recovered = asyncio.run(scenario())
    finally:
        service.close()
    assert all(isinstance(o, ServiceUnavailable) for o in outcomes)
    assert recovered.served == "compile"
    assert recovered.payload["fingerprint"]
    assert service.stats.compile_retries == 1
    assert plan.total_fires() == 2


def test_healthz_reports_degraded_on_open_breaker_but_stays_up(_clean_faults):
    from repro.faults import FaultPlan, FaultRule, active_plan
    from repro.relational import ExecutionMode, Executor
    from repro.sql.parser import parse
    from repro.workloads import sailors_database

    with _ServerFixture() as fixture:
        status, payload, _ = fixture.request("GET", "/healthz")
        assert (status, payload["status"]) == (200, "ok")
        # Trip the process-global SQL breaker the way production would:
        # consecutive recoverable failures through the fallback wrapper.
        executor = Executor(
            sailors_database(n_sailors=4, n_boats=2, n_reservations=4),
            mode=ExecutionMode.SQL,
            fallback=True,
        )
        query = parse("SELECT S.sname FROM Sailor S WHERE S.rating > 1")
        plan = FaultPlan([FaultRule(point="engine.sql.execute", fault="io")])
        with active_plan(plan):
            for _ in range(3):
                executor.execute(query)
        status, payload, _ = fixture.request("GET", "/healthz")
        # Degraded is an advisory state: the replica keeps serving (200).
        assert (status, payload["status"]) == (200, "degraded")
        assert payload["engine_breakers"]["sql"] == "open"
        status, compiled, _ = fixture.request(
            "POST", "/compile", json.dumps({"sql": SIMPLE})
        )
        assert status == 200 and compiled["fingerprint"]


def test_concurrent_distinct_requests_evict_without_corruption():
    service = CompileService(config=ServiceConfig(lru_entries=2))

    async def scenario():
        tasks = [
            asyncio.ensure_future(service.compile(sql, ("text",)))
            for sql in DISTINCT * 2
        ]
        return await asyncio.gather(*tasks)

    try:
        responses = asyncio.run(scenario())
    finally:
        service.close()
    # Duplicates coalesced or hit the LRU; distinct entries churned the
    # 2-entry LRU without ever serving a wrong payload.
    by_sql = {}
    for sql, response in zip(DISTINCT * 2, responses):
        by_sql.setdefault(sql, set()).add(response.payload["fingerprint"])
    assert all(len(prints) == 1 for prints in by_sql.values())
    assert len({f for p in by_sql.values() for f in p}) == len(DISTINCT)
    assert len(service.lru) <= 2
    assert service.lru.stats.evictions >= len(DISTINCT) - 2
    assert service.in_flight == 0


def test_lru_stats_dict_clear_and_contains():
    cache = LRUCache(2)
    cache.put("a", 1)
    assert "a" in cache and "b" not in cache
    cache.get("a")
    cache.get("missing")
    assert cache.stats.as_dict() == {"hits": 1, "misses": 1, "evictions": 0}
    cache.clear()
    assert len(cache) == 0 and "a" not in cache
    # Stats survive a clear (they describe the cache's lifetime).
    assert cache.stats.as_dict()["hits"] == 1


def test_http_graceful_shutdown_drains_in_flight_request():
    fixture = _ServerFixture()
    with fixture:
        gate = _gate_compiles(fixture.service)
        result: dict = {}

        def slow_request() -> None:
            result["response"] = fixture.request(
                "POST", "/compile", json.dumps({"sql": SIMPLE})
            )

        worker = threading.Thread(target=slow_request)
        worker.start()
        deadline = time.monotonic() + 10
        while fixture.service.in_flight == 0:
            assert time.monotonic() < deadline, "request never reached compile"
            time.sleep(0.01)
        stop = asyncio.run_coroutine_threadsafe(
            fixture.server.stop(drain_timeout=10.0), fixture._loop
        )
        gate.set()
        assert stop.result(timeout=15) is True
        worker.join(timeout=10)

    status, payload, _headers = result["response"]
    assert status == 200
    assert payload["fingerprint"]
