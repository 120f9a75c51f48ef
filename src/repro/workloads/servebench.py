"""Load generator for the compile server: ``repro bench-serve``.

Modeled on the SIGMOD programming-contest style of evaluation: a fixed
query workload, sustained concurrent load, and the numbers that matter for
a serving tier — sustained requests/second and p50/p99 latency — measured
in three phases against one server:

* **cold** — every request is a distinct, never-seen query: the full
  pipeline runs per request (modulo stage-level sharing), so this is the
  compile-bound floor;
* **warm** — the same queries again (several rounds): every request is a
  response-LRU hit, so this is the cache-bound ceiling;
* **burst** — a duplicate-heavy mix (each query repeated many times, the
  Fig. 24 equivalence trio riding along) fired concurrently at a part of
  the keyspace the server has never seen: in-flight coalescing plus the
  LRU must collapse the burst to one compile per distinct fingerprint.

The in-process mode (default) starts a fresh :class:`CompileServer` on an
ephemeral port inside the benchmark's own event loop, so "cold" is
genuinely cold and the compile counters are deterministic functions of the
workload — which is what lets ``benchmarks/compare.py`` gate them.
``url=`` instead drives a server that is already running elsewhere (the
end-to-end smoke test does this); against a warm external server the cold
phase numbers describe that server's current state, not a cold start.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from urllib.parse import urlparse

from ..catalog import SCHEMAS
from ..faults import FaultPlan, active_plan
from ..paper_queries import FIG24_VARIANTS
from ..serve import (
    CompileServer,
    CompileService,
    PoolConfig,
    PoolService,
    ServiceConfig,
)
from ..sql.formatter import format_query
from .querygen import QueryGenConfig, QueryGenerator

#: Seed offset separating the burst corpus from the cold/warm corpus —
#: the burst must hit fingerprints the earlier phases never cached.
_BURST_SEED_OFFSET = 100_000
#: Seed offsets of the pool leg's corpora (never overlapping the above).
_POOL_SEED_OFFSET = 200_000
_POOL_WARMUP_OFFSET = 250_000


@dataclass(frozen=True)
class ServeBenchConfig:
    """Workload shape for one ``bench-serve`` run."""

    distinct: int = 50
    warm_repeat: int = 4
    concurrency: int = 16
    burst_distinct: int = 10
    burst_duplicates: int = 20
    schema: str = "sailors"
    formats: tuple[str, ...] = ("svg", "dot", "text")
    seed: int = 0
    #: Pool leg (0 = skip): size of the worker pool whose compile-bound
    #: throughput is compared against a single process.
    workers: int = 0
    #: Distinct queries in the pool leg's timed round.
    pool_distinct: int = 64
    #: Deterministic per-compile backend stall (seconds) applied to *both*
    #: pool-leg servers; see ``_run_pool_leg`` for why the gate needs it.
    pool_stall_s: float = 0.02
    service: ServiceConfig = field(
        default_factory=lambda: ServiceConfig(
            max_pending=4096, request_timeout=60.0
        )
    )


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def _corpus(config: ServeBenchConfig) -> tuple[list[str], list[str]]:
    """(cold/warm distinct queries, burst distinct queries)."""
    generator = QueryGenerator(
        SCHEMAS[config.schema](),
        # Depth-4 blocks (the nesting the paper's unique-set example needs)
        # keep one compile meaningfully more expensive than one LRU hit —
        # the contrast the cold/warm phases exist to measure.
        QueryGenConfig(max_depth=4, max_tables_per_block=3),
    )
    main = [
        format_query(generator.generate(config.seed + index))
        for index in range(max(1, config.distinct))
    ]
    burst = [
        format_query(
            generator.generate(config.seed + _BURST_SEED_OFFSET + index)
        )
        for index in range(max(1, config.burst_distinct))
    ]
    return main, burst


class _Client:
    """Minimal keep-alive HTTP/1.1 JSON client on asyncio streams."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self, retry_timeout: float = 10.0) -> None:
        """Connect, retrying refused connections with capped backoff.

        ``bench-serve url=...`` and the e2e test race a subprocess server
        to its ``bind()``; on a slow CI machine the first connect can lose
        that race.  Refusals within ``retry_timeout`` are part of startup,
        not errors.
        """
        backoff = 0.05
        deadline = time.monotonic() + retry_timeout
        while True:
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    self._host, self._port
                )
                return
            except ConnectionRefusedError:
                if time.monotonic() >= deadline:
                    raise
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 0.5)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass

    async def request(
        self, method: str, path: str, document: dict | None = None
    ) -> tuple[int, bytes, dict[str, str]]:
        """``(status, raw body, response headers)`` — parsing is the *caller's* cost.

        A load generator must not bill JSON decoding of multi-kilobyte
        rendered outputs to the server's latency, so the hot path returns
        the undecoded body and only error paths / stats readers parse it.
        Headers come back lower-cased so retry loops can honor
        ``Retry-After`` on 503.
        """
        assert self._reader is not None and self._writer is not None
        body = b"" if document is None else json.dumps(document).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Content-Type: application/json\r\n"
            "Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(head.encode("ascii") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        content_length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        raw = (
            await self._reader.readexactly(content_length)
            if content_length
            else b""
        )
        return status, raw, headers


#: 503 retry policy: attempts beyond the first request, and the backoff
#: floor/ceiling (the server's ``Retry-After`` wins when larger).
_MAX_RETRIES = 5
_RETRY_BACKOFF_S = 0.05
_RETRY_BACKOFF_CAP_S = 5.0


async def _measure(
    host: str,
    port: int,
    jobs: list[tuple[str, dict]],
    concurrency: int,
) -> tuple[list[float], float, int, int]:
    """Run ``jobs`` over ``concurrency`` keep-alive connections.

    Returns (per-request latencies in seconds, wall-clock seconds, number
    of 503-retried requests, number of *failed* requests).  A 503 is the
    server's documented shed signal, so the client honors its
    ``Retry-After`` with exponential backoff before giving up; a request
    that still is not 200 after the retry budget is counted as failed —
    and surfaced in the payload, where chaos runs (worker SIGKILL
    mid-load) assert the count stays zero.  A load generator that quietly
    counted errors as throughput would measure nothing, so failed
    requests never contribute a latency sample.  Retried requests bill
    their full wall-clock (including backoff sleeps) to latency:
    shed-and-retry *is* the user experience under overload.
    """
    queue: asyncio.Queue[tuple[str, dict]] = asyncio.Queue()
    for job in jobs:
        queue.put_nowait(job)
    latencies: list[float] = []
    retried = 0
    failed = 0

    async def worker() -> None:
        nonlocal retried, failed
        client = _Client(host, port)
        await client.connect()
        try:
            while True:
                try:
                    path, document = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                start = time.perf_counter()
                status, raw, headers = await client.request(
                    "POST", path, document
                )
                attempts = 0
                backoff = _RETRY_BACKOFF_S
                while status == 503 and attempts < _MAX_RETRIES:
                    attempts += 1
                    try:
                        retry_after = float(headers.get("retry-after", "0"))
                    except ValueError:
                        retry_after = 0.0
                    await asyncio.sleep(
                        min(max(retry_after, backoff), _RETRY_BACKOFF_CAP_S)
                    )
                    backoff = min(backoff * 2, _RETRY_BACKOFF_CAP_S)
                    status, raw, headers = await client.request(
                        "POST", path, document
                    )
                if attempts:
                    retried += 1
                if status != 200:
                    failed += 1
                    continue
                latencies.append(time.perf_counter() - start)
        finally:
            await client.close()

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(min(concurrency, len(jobs)))))
    elapsed = time.perf_counter() - started
    return latencies, elapsed, retried, failed


async def _get(host: str, port: int, path: str) -> dict:
    client = _Client(host, port)
    await client.connect()
    try:
        status, raw, _headers = await client.request("GET", path)
        if status not in (200, 503):  # /healthz answers 503 while draining
            raise RuntimeError(f"{path} returned {status}")
        return json.loads(raw) if raw else {}
    finally:
        await client.close()


def _phase_summary(
    latencies: list[float], elapsed: float, retried: int = 0, failed: int = 0
) -> dict:
    ordered = sorted(latencies)
    return {
        "requests": len(latencies) + failed,
        "retried": retried,
        "failed": failed,
        "p50_ms": round(_percentile(ordered, 0.50) * 1000, 3),
        "p95_ms": round(_percentile(ordered, 0.95) * 1000, 3),
        "p99_ms": round(_percentile(ordered, 0.99) * 1000, 3),
        "rps": round(len(latencies) / elapsed, 1),
    }


def _pool_corpus(config: ServeBenchConfig) -> tuple[list[str], list[str]]:
    """(timed pool-leg queries, warm-up queries) — distinct, never-seen.

    Every timed query is a first sight for both servers, so each request
    runs a full compile (plus, in pool mode, one learned-affinity key
    lookup) — the traffic shape the pool exists for.
    """
    generator = QueryGenerator(
        SCHEMAS[config.schema](),
        QueryGenConfig(max_depth=6, max_tables_per_block=4),
    )
    timed = [
        format_query(generator.generate(config.seed + _POOL_SEED_OFFSET + index))
        for index in range(max(1, config.pool_distinct))
    ]
    warmup = [
        format_query(
            generator.generate(config.seed + _POOL_WARMUP_OFFSET + index)
        )
        for index in range(max(2, 2 * config.workers))
    ]
    return timed, warmup


async def _run_pool_leg(config: ServeBenchConfig) -> dict:
    """Measure the same distinct-query corpus against a single process and
    an N-worker pool; both servers are fresh, then warmed with an untimed
    round of *different* queries (process boot and first-compile jitter
    must not bill either side).

    Both legs run with the same deterministic per-compile backend stall
    (``pool_stall_s``, injected at the existing ``serve.compile`` fault
    point): the single process serializes stalls on its one compile
    thread, the pool overlaps them across workers.  The stall is what
    makes ``pool_vs_single_warm_throughput`` a *portable* gate — CI
    runners span 1–4 vCPUs, so a purely CPU-bound ratio would measure the
    host's core count, not the serving architecture; with the stall
    dominating, the ratio measures dispatch overlap and converges on any
    host.  (On a multi-core host the pool additionally overlaps the CPU
    halves — the measured ratio is the architecture's floor.)
    """
    timed_queries, warmup_queries = _pool_corpus(config)
    formats = list(config.formats)
    timed_jobs = [
        ("/compile", {"sql": sql, "formats": formats}) for sql in timed_queries
    ]
    warmup_jobs = [
        ("/compile", {"sql": sql, "formats": formats}) for sql in warmup_queries
    ]
    stall_plan = {
        "seed": config.seed,
        "rules": [
            {
                "point": "serve.compile",
                "fault": "latency",
                "latency_s": config.pool_stall_s,
            }
        ],
    }

    async def one_server(service) -> dict:
        if isinstance(service, PoolService):
            await service.start()
        server = CompileServer(service, host="127.0.0.1", port=0)
        await server.start()
        try:
            await _measure(server.host, server.port, warmup_jobs, config.concurrency)
            return _phase_summary(
                *await _measure(
                    server.host, server.port, timed_jobs, config.concurrency
                )
            )
        finally:
            await server.stop(drain_timeout=10.0)

    # Single leg: the stall plan lives in this process (the compile thread
    # sleeps).  Pool leg: the same plan ships to the workers instead; the
    # front end stays plan-free, so the dispatch fault hook stays off.
    with active_plan(FaultPlan.from_spec(stall_plan)):
        single = await one_server(CompileService(config=config.service))
    pool_service = PoolService(
        config=config.service,
        pool_config=PoolConfig(
            workers=config.workers, worker_fault_plan=stall_plan
        ),
    )
    pool = await one_server(pool_service)
    pool_stats = pool_service.supervisor.stats
    return {
        "pool_workers": config.workers,
        "pool_distinct": len(timed_queries),
        "pool_requests": pool["requests"],
        "pool_single_rps": single["rps"],
        "pool_rps": pool["rps"],
        "pool_single_p50_ms": single["p50_ms"],
        "pool_p50_ms": pool["p50_ms"],
        "pool_p99_ms": pool["p99_ms"],
        "pool_vs_single_warm_throughput": round(
            pool["rps"] / max(single["rps"], 1e-9), 2
        ),
        "pool_failed_requests": single["failed"] + pool["failed"],
        "pool_worker_restarts": pool_stats.worker_restarts,
        "pool_worker_crashes": pool_stats.worker_crashes,
    }


async def run_serve_bench(
    config: ServeBenchConfig, url: str | None = None
) -> dict:
    """Run the three phases; returns the ``bench-serve`` JSON payload."""
    server: CompileServer | None = None
    if url is None:
        service = CompileService(config=config.service)
        server = CompileServer(service, host="127.0.0.1", port=0)
        await server.start()
        host, port = server.host, server.port
    else:
        parsed = urlparse(url)
        if parsed.hostname is None or parsed.port is None:
            raise ValueError(f"need an explicit host:port in url, got {url!r}")
        host, port = parsed.hostname, parsed.port

    try:
        main_queries, burst_queries = _corpus(config)
        formats = list(config.formats)
        compile_jobs = [
            ("/compile", {"sql": sql, "formats": formats})
            for sql in main_queries
        ]

        cold = _phase_summary(
            *await _measure(host, port, compile_jobs, config.concurrency)
        )
        warm = _phase_summary(
            *await _measure(
                host, port, compile_jobs * config.warm_repeat, config.concurrency
            )
        )

        # Duplicate-heavy burst over never-seen fingerprints; duplicates
        # are adjacent so they are in flight *together* — that is what
        # exercises in-flight coalescing rather than plain LRU hits.
        burst_spellings = burst_queries + list(FIG24_VARIANTS)
        burst_jobs = [
            ("/compile", {"sql": sql, "formats": formats})
            for sql in burst_spellings
            for _ in range(config.burst_duplicates)
        ]
        before = await _get(host, port, "/stats")
        burst = _phase_summary(
            *await _measure(host, port, burst_jobs, config.concurrency)
        )
        after = await _get(host, port, "/stats")

        burst_compiles = after["compiles"] - before["compiles"]
        payload = {
            "schema": config.schema,
            "formats": formats,
            "distinct_queries": len(main_queries),
            "concurrency": config.concurrency,
            "warm_repeat": config.warm_repeat,
            "burst_distinct": len(burst_queries),
            "burst_duplicates": config.burst_duplicates,
            "requests_cold": cold["requests"],
            "requests_warm": warm["requests"],
            "cold_p50_ms": cold["p50_ms"],
            "cold_p95_ms": cold["p95_ms"],
            "cold_p99_ms": cold["p99_ms"],
            "cold_rps": cold["rps"],
            "warm_p50_ms": warm["p50_ms"],
            "warm_p95_ms": warm["p95_ms"],
            "warm_p99_ms": warm["p99_ms"],
            "warm_rps": warm["rps"],
            "warm_speedup_p50": round(
                cold["p50_ms"] / max(warm["p50_ms"], 1e-9), 1
            ),
            "burst_requests": burst["requests"],
            "burst_p50_ms": burst["p50_ms"],
            "burst_p95_ms": burst["p95_ms"],
            "burst_p99_ms": burst["p99_ms"],
            "burst_rps": burst["rps"],
            "burst_unique_compiles": burst_compiles,
            "burst_unique_fraction": round(
                burst_compiles / burst["requests"], 4
            ),
            "coalesce_collapse": round(
                burst["requests"] / max(burst_compiles, 1), 1
            ),
            "coalesced_requests": after["coalesced"] - before["coalesced"],
            "retried_requests": (
                cold["retried"] + warm["retried"] + burst["retried"]
            ),
            "failed_requests": (
                cold["failed"] + warm["failed"] + burst["failed"]
            ),
            "server_stats": after,
        }
    finally:
        if server is not None:
            await server.stop(drain_timeout=10.0)

    if config.workers and config.workers > 1 and url is None:
        payload.update(await _run_pool_leg(config))
    return payload


def serve_bench(config: ServeBenchConfig, url: str | None = None) -> dict:
    """Synchronous wrapper (the CLI / pytest entry point)."""
    return asyncio.run(run_serve_bench(config, url=url))
