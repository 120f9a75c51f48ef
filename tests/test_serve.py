"""Serving tier: LRU bounds, coalescing, admission control, HTTP errors.

Async scenarios run under ``asyncio.run`` (the suite has no asyncio pytest
plugin); HTTP-level cases talk to a real :class:`CompileServer` bound to an
ephemeral port through the stdlib client, so the request-framing and
error-mapping code paths are the ones production traffic hits.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import gc
import http.client
import json
import os
import random
import socket
import sys
import threading
import time
from collections import Counter

import pytest

import repro.pipeline.compiler as compiler_module
from repro.catalog.builtin import sailors_schema
from repro.paper_queries import FIG24_VARIANTS
from repro.pipeline import DiagramCompiler
from repro.serve import (
    BadRequest,
    CompileServer,
    CompileService,
    LocalCompiler,
    LRUCache,
    ServiceConfig,
    ServiceUnavailable,
)
from repro.serve.pool import _answer
from repro.sql.formatter import format_query
from repro.workloads import QueryGenConfig, QueryGenerator

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
    """Block the local backend's compile thread until the event is set."""
    gate = threading.Event()
    original = service.backend._compile_sync

    def gated(sql, formats):
        gate.wait(timeout=30)
        return original(sql, formats)

    service.backend._compile_sync = gated
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
    assert service.lru.stats.hits == 1
    assert service.stats.compiles == 4


def test_response_lru_keeps_encoded_bodies_only():
    service = CompileService()

    async def scenario():
        compiled = await service.compile(SIMPLE, ("svg", "text"))
        rendered = await service.render(DISTINCT[0], "dot")
        return compiled, rendered

    try:
        compiled, rendered = asyncio.run(scenario())
    finally:
        service.close()
    bodies = list(service.lru._entries.values())
    assert len(bodies) == 2
    assert all(type(body) is bytes for body in bodies)
    assert compiled.body in bodies
    # /render decodes the cached /compile body of its one format.
    assert rendered.payload["output"] == json.loads(bodies[1])["outputs"]["dot"]


def test_overload_sheds_waiting_requests_and_answers_cached_ones():
    service = CompileService(config=ServiceConfig(max_pending=1))

    async def scenario():
        await service.compile(SIMPLE, ("text",))
        gate = _gate_compiles(service)
        blocked = asyncio.ensure_future(service.compile(DISTINCT[0], ("text",)))
        while service.in_flight == 0:
            await asyncio.sleep(0.01)
        # A cached answer never waits, so it takes no admission slot.
        cached = await service.compile(SIMPLE, ("text",))
        with pytest.raises(ServiceUnavailable, match="overloaded"):
            await service.compile(DISTINCT[1], ("text",))
        gate.set()
        return cached, await blocked

    try:
        cached, response = asyncio.run(scenario())
    finally:
        service.close()
    assert cached.served == "lru"
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

    async def scenario():
        await service.compile(DISTINCT[1], ("text",))
        gate = _gate_compiles(service)
        inflight = asyncio.ensure_future(service.compile(SIMPLE, ("text",)))
        while service.in_flight == 0:
            await asyncio.sleep(0.01)
        service.begin_drain()
        assert service.healthz()["status"] == "draining"
        # A draining replica answers 503 to every request, cached or not.
        for sql in DISTINCT[:2]:
            with pytest.raises(ServiceUnavailable, match="draining"):
                await service.compile(sql, ("text",))
        with pytest.raises(ServiceUnavailable, match="draining"):
            await service.render(DISTINCT[1], "text")
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


def test_oversized_request_or_header_line_is_413_and_the_server_serves_on():
    long_line = "a" * 70_000
    requests = [
        f"GET /{long_line} HTTP/1.1\r\nHost: x\r\n\r\n",
        f"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Long: {long_line}\r\n\r\n",
    ]
    with _ServerFixture() as fixture:
        for request in requests:
            with socket.create_connection(
                ("127.0.0.1", fixture.server.port), timeout=10
            ) as sock:
                sock.sendall(request.encode("ascii"))
                response = b""
                # The server answers and closes; closing with part of the
                # request unread may reset the connection after the answer.
                with contextlib.suppress(ConnectionResetError):
                    while chunk := sock.recv(65536):
                        response += chunk
            head = response.split(b"\r\n\r\n", 1)[0].decode("ascii")
            assert head.startswith("HTTP/1.1 413 "), head
            assert "Connection: close" in head
        status, payload, _ = fixture.request("GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"


@pytest.mark.parametrize(
    "framing, status",
    [
        ("Content-Length: 2000000", 413),
        ("Content-Length: abc", 400),
        ("Transfer-Encoding: chunked", 400),
        # int(), or keeping the last of two headers, reads 19 (the body's
        # true length) from each of these but the superscript, which
        # str.isdigit() takes.  Only ASCII digits frame a body (RFC 9112
        # §6.3), and a header name ends at its colon (§5).
        ("Content-Length: +19", 400),
        ("Content-Length: 1_9", 400),
        ("Content-Length: 1\xb9", 400),
        ("Content-Length: 5\r\nContent-Length: 19", 400),
        ("Content-Length : 19", 400),
        # Read as no header at all, so the body would be the next request.
        ("Content-Length 19", 400),
    ],
    ids=[
        "too-long",
        "malformed-length",
        "chunked",
        "signed-length",
        "underscored-length",
        "superscript-length",
        "conflicting-lengths",
        "space-before-colon",
        "no-colon",
    ],
)
def test_a_body_framing_error_closes_the_connection(framing, status):
    # A GET /stats sent after the bad body must not be answered: with the
    # body's end unknown, it is part of that body, not a second request.
    body = b'{"sql": "SELECT 1"}'
    smuggled = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
    if framing.startswith("Transfer-Encoding"):
        body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
    request = (
        f"POST /compile HTTP/1.1\r\nHost: x\r\n{framing}\r\n\r\n".encode("latin-1")
        + body
        + smuggled
    )
    with _ServerFixture() as fixture:
        with socket.create_connection(
            ("127.0.0.1", fixture.server.port), timeout=10
        ) as sock:
            sock.sendall(request)
            response = b""
            with contextlib.suppress(ConnectionResetError):
                while chunk := sock.recv(65536):
                    response += chunk
        assert response.count(b"HTTP/1.1 ") == 1, response
        head = response.split(b"\r\n\r\n", 1)[0].decode("ascii")
        assert head.startswith(f"HTTP/1.1 {status} "), head
        assert "Connection: close" in head
        assert "stats" not in fixture.service.requests


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
    assert service.backend.executor_restarts == 1
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
    assert cache.stats.snapshot() == {"hits": 1, "misses": 1, "evictions": 0}
    # A pop hands the value over once and counts like a get.
    assert cache.pop("a") == 1 and "a" not in cache
    assert cache.pop("a", "gone") == "gone"
    assert cache.stats.snapshot() == {"hits": 2, "misses": 2, "evictions": 0}
    cache.put("a", 1)
    cache.clear()
    assert len(cache) == 0 and "a" not in cache
    # Stats survive a clear (they describe the cache's lifetime).
    assert cache.stats.snapshot()["hits"] == 2


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


def test_a_request_past_its_budget_gets_503_and_its_connection_serves_on():
    body = json.dumps({"sql": SIMPLE})
    with _ServerFixture(ServiceConfig(request_timeout=0.2)) as fixture:
        gate = _gate_compiles(fixture.service)
        connection = http.client.HTTPConnection(
            "127.0.0.1", fixture.server.port, timeout=10
        )
        try:
            connection.request("POST", "/compile", body=body)
            timed_out = connection.getresponse()
            timed_out_payload = json.loads(timed_out.read())
            sock = connection.sock
            gate.set()  # the shielded compile lands in the LRU
            deadline = time.monotonic() + 10
            while fixture.service.in_flight:
                assert time.monotonic() < deadline, "compile never finished"
                time.sleep(0.01)
            connection.request("POST", "/compile", body=body)
            answered = connection.getresponse()
            answered.read()
            reused = sock is not None and connection.sock is sock

            async def cancel_requests() -> list[int]:
                return [
                    task.cancelling()
                    for task in fixture.server._connections
                    if hasattr(task, "cancelling")  # 3.11+
                ]

            pending_cancels = asyncio.run_coroutine_threadsafe(
                cancel_requests(), fixture._loop
            ).result(timeout=10)
        finally:
            connection.close()
    assert timed_out.status == 503
    assert "budget" in timed_out_payload["error"]
    assert reused  # both requests went over one keep-alive connection
    assert answered.status == 200
    assert answered.getheader("X-Repro-Served") == "lru"
    assert fixture.service.stats.timeouts == 1
    # The budget took its cancellation back: the handler carries none.
    assert not any(pending_cancels)


# --------------------------------------------------------------------- #
# the serving compiler keeps answers, not trees
# --------------------------------------------------------------------- #

#: GC-tracked objects one CompileService may keep per distinct compiled
#: query: its text-memo and response-LRU entries (1.95 measured; ~5 when
#: the LRU also kept each decoded payload, ~115 with stage memos).
KEPT_OBJECTS_PER_QUERY = 3

#: The front half's stage functions, at the names the compiler calls.
FRONT_HALF = ("scan", "sql_to_logic_tree", "simplify_logic_tree", "fingerprint_and_roles")
FRONT_STAGES = ("lex", "parse", "logic", "simplify", "fingerprint")


@functools.cache
def _sailors_texts(count: int) -> tuple[str, ...]:
    """``count`` generated sailors queries (depth <= 3) of distinct keys.

    Distinct ``(fingerprint, roles)`` keys keep the response LRU from
    serving one text another's (equivalent) diagram.
    """
    generator = QueryGenerator(sailors_schema(), QueryGenConfig(max_depth=3))
    cold = DiagramCompiler(cache=False)
    texts: list[str] = []
    keys: set = set()
    seed = 0
    while len(texts) < count:
        text = format_query(generator.generate(seed))
        seed += 1
        key = cold.canonical_key(text)
        if key not in keys:
            keys.add(key)
            texts.append(text)
    return tuple(texts)


def _count_calls(monkeypatch, names) -> Counter:
    calls: Counter = Counter()
    for name in names:
        original = getattr(compiler_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(compiler_module, name, counted)
    return calls


def _body(artifact) -> bytes:
    """The /compile body a local backend encodes for ``artifact``."""
    return json.dumps(
        {
            "fingerprint": artifact.fingerprint,
            "formats": sorted(artifact.outputs),
            "outputs": dict(artifact.outputs),
        }
    ).encode("utf-8")


def test_serving_compiler_keeps_answers_not_stage_results():
    texts = _sailors_texts(220)
    service = CompileService()

    async def scenario() -> int:
        # The first compiles build what a process builds once (lexer
        # tables, interned names); they are not counted.
        for text in texts[:20]:
            await service.compile(text, ("svg", "text"))
        gc.collect()
        before = len(gc.get_objects())
        for text in texts[20:]:
            await service.compile(text, ("svg", "text"))
        gc.collect()
        return len(gc.get_objects()) - before

    try:
        kept = asyncio.run(scenario())
    finally:
        service.close()
    assert service.stats.compiles == len(texts)
    assert service.compiler.cache_sizes() == {}
    assert len(service.compiler.handoff) == 0
    assert kept < KEPT_OBJECTS_PER_QUERY * 200


def test_front_half_runs_once_per_first_sight_text(monkeypatch):
    texts = _sailors_texts(12)
    calls = _count_calls(monkeypatch, FRONT_HALF)
    service = CompileService()

    async def scenario() -> None:
        for text in texts:
            await service.compile(text, ("text",))
        for text in texts:  # repeats: answered in front of the compiler
            await service.compile(text, ("text",))

    try:
        asyncio.run(scenario())
    finally:
        service.close()
    assert calls == {name: len(texts) for name in FRONT_HALF}
    # One walk per text: the compile took the front half its key lookup
    # left in the handoff instead of walking lex -> fingerprint again.
    stats = service.compiler.stats()
    assert all(
        stats.counter(stage).hits + stats.counter(stage).misses == len(texts)
        for stage in FRONT_STAGES
    )
    assert service.compiler.handoff.stats.hits == len(texts)

    # A pool worker answers a text's key op and then its compile op: the
    # compile pops the front half that the key op left in the handoff.
    calls.clear()
    backend = LocalCompiler()

    async def pool_ops() -> None:
        for text in texts:
            await _answer(backend, 0, {"op": "key", "sql": text})
            await _answer(
                backend, 0, {"op": "compile", "sql": text, "formats": ["text"]}
            )

    try:
        asyncio.run(pool_ops())
    finally:
        backend.close()
    assert calls == {name: len(texts) for name in FRONT_HALF}
    stats = backend.compiler.stats()
    assert all(
        stats.counter(stage).hits + stats.counter(stage).misses == len(texts)
        for stage in FRONT_STAGES
    )
    assert backend.compiler.handoff.stats.hits == len(texts)


def test_first_sights_the_caches_answer_leave_no_front_half_waiting():
    texts = _sailors_texts(6)
    respelled = ["  ".join(text.split()) for text in texts]
    assert not set(texts) & set(respelled)
    service = CompileService()

    async def scenario() -> list[str]:
        gate = _gate_compiles(service)
        first = asyncio.ensure_future(service.compile(texts[0], ("text",)))
        while not service.in_flight:
            await asyncio.sleep(0.01)
        # A re-spelling coalesces onto the first spelling's compile.
        joined = asyncio.ensure_future(service.compile(respelled[0], ("text",)))
        while not service.stats.coalesced:
            await asyncio.sleep(0.01)
        gate.set()
        served = [(await first).served, (await joined).served]
        for text in texts[1:]:
            served.append((await service.compile(text, ("text",))).served)
        for text in respelled[1:]:  # new texts, known keys: the LRU answers
            served.append((await service.compile(text, ("text",))).served)
        return served

    try:
        served = asyncio.run(scenario())
    finally:
        service.close()
    assert served == ["compile", "coalesced"] + ["compile"] * 5 + ["lru"] * 5
    handoff = service.compiler.handoff
    # Each compile popped its own text's front half; each re-spelling's
    # lookup released the one it left.
    assert handoff.stats.snapshot() == {"hits": 6, "misses": 12, "evictions": 0}
    assert len(handoff) == 0


def test_concurrent_compiles_match_a_cold_compile_of_their_own_text():
    texts = _sailors_texts(16)
    format_sets = (("text",), ("svg", "text"))
    cold = DiagramCompiler(cache=False)
    expected = {
        (text, formats): _body(cold.compile(text, formats=formats))
        for text in texts
        for formats in format_sets
    }
    workers = 2 * (os.cpu_count() or 1) + 2
    shared = DiagramCompiler(memo=False)
    # A 4-entry response LRU evicts, so texts compile again, with and
    # without a handed-off front half.
    service = CompileService(
        config=ServiceConfig(lru_entries=4, max_pending=4 * workers)
    )
    wrong: list[tuple] = []
    errors: list[BaseException] = []
    deadline = time.monotonic() + 1.0

    def hammer(seed: int) -> None:
        # Key lookups and compiles of the same texts from many threads:
        # a lookup's front half may be popped by another thread's compile.
        rng = random.Random(seed)
        try:
            while time.monotonic() < deadline:
                text, formats = rng.choice(texts), rng.choice(format_sets)
                if rng.random() < 0.7:
                    shared.canonical_key(text)
                if _body(shared.compile(text, formats=formats)) != expected[text, formats]:
                    wrong.append((text, formats))
        except Exception as error:  # the assertion below reports it
            errors.append(error)

    async def requests() -> int:
        rng = random.Random(7)
        sent = 0
        while time.monotonic() < deadline:
            batch = [(rng.choice(texts), rng.choice(format_sets)) for _ in range(workers)]
            responses = await asyncio.gather(
                *(service.compile(text, formats) for text, formats in batch)
            )
            for (text, formats), response in zip(batch, responses):
                if response.body != expected[text, formats]:
                    wrong.append((text, formats, response.served))
            sent += len(batch)
        return sent

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        sent = asyncio.run(requests())
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and not wrong
    assert sent >= workers
    assert len(shared.handoff) <= compiler_module.HANDOFF_ENTRIES
    assert shared.cache_sizes() == service.compiler.cache_sizes() == {}


def test_second_local_compiler_answers_a_first_sight_from_disk(tmp_path, monkeypatch):
    text = _sailors_texts(1)[0]
    first = CompileService(LocalCompiler(disk_cache=tmp_path))
    try:
        written = asyncio.run(first.compile(text, ("svg", "text")))
    finally:
        first.close()
    calls = _count_calls(monkeypatch, (*FRONT_HALF, "build_diagram", "layout_diagram"))
    second = CompileService(LocalCompiler(disk_cache=tmp_path))
    try:
        response = asyncio.run(second.compile(text, ("svg", "text")))
    finally:
        second.close()
    assert response.served == "compile" and response.body == written.body
    # The key lookup read the front half from disk, the compile the
    # whole artifact; nothing was computed and nothing stays in memory.
    stats = second.compiler.stats()
    assert all(stats.counter(stage).disk_hits == 1 for stage in (*FRONT_STAGES, "artifact"))
    assert not calls
    assert second.compiler.cache_sizes() == {}
    assert len(second.compiler.handoff) == 0
